"""Exhaustive ground truth by direct range scanning.

For each admissible A (P < 5A < 3P) the tail q = 5/P - 1/A fixes the
range 1/q < B <= 2/q, and C is accepted only when 1/(q - 1/B) is
exactly integral.  Deliberately independent of the parametric engines
so it can audit them; every accepted triple is re-verified in exact
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .errors import ClassificationViolation, NotPrime
from .solution import Solution, SolutionClass, make_solution


@dataclass(frozen=True)
class OracleEnumeration:
    P: int
    distinct_only: bool
    solutions: tuple[Solution, ...]  # lexicographic by (A, B, C)


def enumerate_all_solutions(P: int, distinct_only: bool = True) -> OracleEnumeration:
    """Every solution of 5/P = 1/A + 1/B + 1/C with A <= B <= C
    (A < B < C when distinct_only), complete and duplicate-free."""
    if not is_prime(P):
        raise NotPrime(f"{P} is not prime")
    if P == 5:
        raise ValueError("P = 5 is out of scope (5/P is an integer)")
    sols = []
    a_lo = P // 5 + 1
    a_hi = (3 * P - 1) // 5 if distinct_only else (3 * P) // 5
    for A in range(a_lo, a_hi + 1):
        qn = 5 * A - P  # q = qn/qd = 5/P - 1/A
        qd = A * P
        b_lo = max(qd // qn + 1, A + 1 if distinct_only else A)
        b_hi = 2 * qd // qn
        for B in range(b_lo, b_hi + 1):
            cn = qn * B - qd  # 1/C = cn/(qd*B)
            if cn <= 0:
                continue
            cd = qd * B
            if cd % cn:
                continue
            C = cd // cn
            if C < B or (distinct_only and C == B):
                continue
            count = (B % P == 0) + (C % P == 0)
            if A % P == 0 or (P > 5 and count == 0):
                raise ClassificationViolation(
                    f"impossible multiplicity pattern in ({A}, {B}, {C}) for P = {P}"
                )
            cls = SolutionClass.ED2 if count == 2 else SolutionClass.ED1
            sols.append(make_solution(P, A, B, C, cls))
    return OracleEnumeration(P, distinct_only, tuple(sols))


def existence_check(P: int) -> bool:
    """True iff at least one distinct-denominator solution exists."""
    return bool(enumerate_all_solutions(P, distinct_only=True).solutions)

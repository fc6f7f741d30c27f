"""Exhaustive ground truth from the divisors of (AP)^2.

For each admissible A (P < 5A < 3P) put n = 5A - P and d = AP, so that
1/B + 1/C = n/d.  That is (nB - d)(nC - d) = d^2: the pairs B <= C are
the divisors x <= d of d^2 with x = -d (mod n), and B = (x + d)/n,
C = (d^2/x + d)/n (Elsholtz & Tao, J. Aust. Math. Soc. 2013, Type I/II).
Since A < P, n and d are coprime, so every such x gives integral B and
C.  The cost is one factorization of A and the tau((AP)^2) divisor
products per A.  Deliberately independent of the parametric engines so
it can audit them; every accepted triple is re-verified in exact
arithmetic.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import Factorization, factorize, is_prime
from .errors import ClassificationViolation, NotPrime
from .solution import Solution, SolutionClass, make_solution


# solutions: a tuple of Solution, lexicographic by (A, B, C)
OracleEnumeration = namedtuple("OracleEnumeration", "P distinct_only solutions")


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
        n = 5 * A - P
        d = A * P
        # A < P, so P is the largest prime of d and the factors stay sorted.
        fd = Factorization(d, factorize(A).factors + ((P, 1),))
        # x < d exactly when B < C; divisors ascend, so B ascends too.
        for x in fd.squared().divisors_in_class(-d, n, d - 1 if distinct_only else d):
            B = (x + d) // n
            if B < A or (distinct_only and B == A):
                continue
            C = (d * d // x + d) // n
            count = (B % P == 0) + (C % P == 0)
            if A % P == 0 or (P > 5 and count == 0):
                raise ClassificationViolation(
                    f"impossible multiplicity pattern in ({A}, {B}, {C}) for P = {P}"
                )
            cls = SolutionClass.ED2 if count == 2 else SolutionClass.ED1
            sols.append(make_solution(P, A, B, C, cls))
    return OracleEnumeration(P, distinct_only, tuple(sols))

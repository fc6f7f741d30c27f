"""Closed-form decompositions for primes P = 2, 3, 4 (mod 5), and the
repair step that replaces a repeated denominator pair by two distinct
unit fractions.

With P = 5*P' + residue and a = P' + 1, the weak forms are

  residue 4:  5/P = 1/a + 1/(2aP) + 1/(2aP)
  residue 3:  5/P = 1/a + 1/(aP)  + 1/(aP)
  residue 2:  5/P = 1/a + 1/((a/2)P) + 1/(aP)      (P' odd, so a is even)

The residue-2 form is already distinct.  The others repeat n = 2aP or
aP, and their distinct forms split 2/n as repair_distinct's first
candidate does:

  n odd:  (a, (n+1)/2, n(n+1)/2)
  n even: (a, m+1, m(m+1)),  m = n/2

That candidate is always strict here, so the fallback is never needed.
P >= 3 and a >= 1 give n >= aP >= 3a and n >= 3.  For odd n,
(n+1)/2 > a since n >= 3a > 2a - 1, and n(n+1)/2 > (n+1)/2 since
n > 1.  For even n, m = n/2 >= aP/2 >= 3a/2, so m+1 > a, and
m(m+1) > m+1 since n >= 4 makes m >= 2.

decompose_explicit(P, distinct=True) builds the distinct form directly,
with one make_solution, and equals repair_distinct(decompose_explicit(P)).
The CLI's decompose and scan write the distinct forms; --weak writes the
weak ones.
"""

from __future__ import annotations

from .errors import InvalidSolution, IrreparableCollision, ParityViolation, WrongResidue
from .solution import Solution, SolutionClass, make_solution


def decompose_explicit(P: int, distinct: bool = False) -> Solution:
    """Closed-form solution for P = 2, 3, 4 (mod 5): the weak form, which
    repeats B = C at residues 3 and 4, or with distinct its strict form,
    built from one closed form and verified once."""
    residue = P % 5
    if residue not in (2, 3, 4):
        raise WrongResidue(f"no closed form for P = {residue} (mod 5)")
    pprime = P // 5
    a = pprime + 1
    if residue == 2:
        # P' is odd for every odd prime P = 2 (mod 5); only P = 2 trips this.
        if pprime % 2 == 0:
            raise ParityViolation(f"P' = {pprime} is even for P = {P}")
        triple = (a, (a // 2) * P, a * P)
    else:
        n = 2 * a * P if residue == 4 else a * P
        if not distinct:
            triple = (a, n, n)
        elif n % 2:
            triple = (a, (n + 1) // 2, n * (n + 1) // 2)
        else:
            m = n // 2
            triple = (a, m + 1, m * (m + 1))
    return make_solution(P, *triple, SolutionClass.EXPLICIT)


def repair_distinct(sol: Solution) -> Solution:
    """Turn a repeated denominator pair into two distinct ones, exactly.

    For a repeated n the identities used are

      n odd:  2/n = 1/((n+1)/2) + 1/(n*(n+1)/2)
      n even: 2/n = 1/(n/2), then 1/m = 1/(m+1) + 1/(m*(m+1))

    applied to m = n/2 first and to the untouched denominator as the
    fallback; already-strict input is returned unchanged.
    """
    if sol.strict:
        return sol
    A, B, C = sol.triple()
    if A == B == C:
        raise InvalidSolution(f"cannot repair a triple repeat {sol.triple()}")
    n, w = (B, A) if B == C else (A, C)
    if n % 2:
        candidates = [(w, (n + 1) // 2, n * (n + 1) // 2)]
    else:
        m = n // 2
        candidates = [
            (w, m + 1, m * (m + 1)),
            (m, w + 1, w * (w + 1)),
        ]
    for triple in candidates:
        x, y, z = sorted(triple)
        if x < y < z:
            return make_solution(sol.P, x, y, z, sol.cls)
    raise IrreparableCollision(f"no distinct repair for {sol.triple()} with P = {sol.P}")

"""Exhaustive ground truth from the divisors of A^2.

For each candidate A put n = 5A - P and d = AP, so that 1/B + 1/C = n/d.
That is (nB - d)(nC - d) = d^2: the pairs B <= C are the divisors x <= d
of d^2 with x = -d (mod n), and B = (x + d)/n, C = (d^2/x + d)/n
(Elsholtz & Tao, J. Aust. Math. Soc. 2013, Type I/II).  Since A < P, n
and d are coprime, so every such x gives integral B and C.

Since P is prime and does not divide A, every such x is y*P**j with
y | A^2, and j = 2 would need y <= A/P < 1.  That leaves two lists:

* j = 0, one multiple of P: y <= A^2 < d always.  Put e = 5A - 2P.
  B >= A needs y >= A*e, that is z = A^2/y <= A/e.  P = 5A (mod n) and
  gcd(A, n) = 1, so y = -d (mod n) exactly when n | 5z + 1, and then
  5z + 1 >= n.  For e >= 1 the two give 5A - P - 1 <= 5A/e, that is
  (e - 2)(P + e) <= 0, so e <= 2: A <= (2P + 2)/5.  At e = 1 or 2 the
  only row has B = A, so distinct rows end at A = 2P/5.
* j = 1, two multiples of P: gcd(P, n) = 1, so yP = -d (mod n) exactly
  when y = kn - A for some k >= 1, with y < A (y <= A when B = C is
  allowed), so kn <= 2A.  gcd(y, A) = gcd(k, A) and y | A^2, so
  y <= gcd(y, A)^2 <= k^2, that is (5k - 1)A <= kP + k^2.  At k = 1
  this is A <= (P + 1)/4; for k >= 2, kn <= 2A gives A <= P/4.

So A runs over P/5 < A <= (2P + 2)/5, half the range P < 5A <= 3P
that A <= B <= C alone gives.  Per A the cost is one
factorization of A, at most tau(A^2) divisor products and, when
A <= (P + 1)/4, ceil(A/n) candidate steps for j = 1.  Deliberately
independent of the parametric engines so it can audit them; every
accepted triple is re-verified in exact arithmetic.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import factorize, is_prime
from .errors import ClassificationViolation, NotPrime
from .solution import Solution, SolutionClass, make_solution


# solutions: a tuple of Solution, lexicographic by (A, B, C)
OracleEnumeration = namedtuple("OracleEnumeration", "P distinct_only solutions")


def enumerate_all_solutions(P: int, distinct_only: bool = True) -> OracleEnumeration:
    """Every solution of 5/P = 1/A + 1/B + 1/C with A <= B <= C
    (A < B < C when distinct_only), complete and duplicate-free.

    With n = 5A - P and d = AP, each solution is a divisor x <= d of d^2
    with x = -d (mod n).  P does not divide A < P, so x = y*P**j with
    y | A^2 and j <= 1.  j = 0 gives one multiple of P: B >= A needs
    y >= A*e with e = 5A - 2P, and y = -d (mod n) means n | 5z + 1 for
    z = A^2/y; together they force e <= 2, so A <= (2P + 2)/5.  j = 1
    gives two: y = kn - A <= A with y <= gcd(k, A)^2 <= k^2, which
    forces A <= (P + 1)/4.  Hence A runs over P/5 < A <= (2P + 2)/5.
    """
    if not is_prime(P):
        raise NotPrime(f"{P} is not prime")
    if P == 5:
        raise ValueError("P = 5 is out of scope (5/P is an integer)")
    sols = []
    two_max = (P + 1) // 4
    for A in range(P // 5 + 1, (2 * P + 2) // 5 + 1):
        n = 5 * A - P
        d = A * P
        square = A * A
        # j = 0: x = y | A^2, and y <= A^2 < d, so B < C always.
        xs = factorize(A).squared().divisors_in_class(-d, n, square)
        # j = 1: x = yP with y = -A (mod n); y < A exactly when B < C.
        # No y divides A^2 past A = (P + 1)/4.
        if A <= two_max:
            two = [
                y * P
                for y in range(-A % n or n, A if distinct_only else A + 1, n)
                if square % y == 0
            ]
            if two:
                xs = sorted(xs + two)
        # x ascends, so B ascends too.
        for x in xs:
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

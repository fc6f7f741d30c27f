"""Two-multiple decompositions (B = bP, C = cP).

Every such solution satisfies the kernel identity

    (5b - 1)(5c - 1) = 5*P*delta + 1,   delta | b*c,   A = b*c/delta,

so the search runs over delta and divisor pairs r*s = 5*P*delta + 1 with
r = s = 4 (mod 5).  Only r = -1 (mod 5*rad(delta)) can pass delta | b*c
(see _witnesses_for_delta), so just that class of divisors of
N = 5*P*delta + 1 up to sqrt(N) is listed: by dividing N by each member
where the class has at most _SPARSE_MAX of them, else from
factorize(N).  rad(delta) comes from arith._radicals, one small sieve
over each segment of the delta range, one delta being a segment of one.
pair_from_divisor, the only code that turns a divisor into a witness,
rebuilds b = (r+1)/5 and c = (s+1)/5 and still checks delta | b*c,
which the class implies for squarefree delta only.  The normalized
coordinates split b = g*b', c = g*c' with gcd(b', c') = 1 and
delta = alpha * dprime**2 (alpha squarefree); a row is canonical when
g = alpha*dprime, b' + c' = m*dprime and A = alpha*b'*c', where
m = 5A - P.

A scan answers delta = 1 for a whole window at once.  With
b = (r + 1)/5, r divides 5P + 1 exactly when P = -b (mod r), since
5b = r + 1 = 1 (mod r): for each r = 4 (mod 5), the primes that hit at
delta = 1 through r form one progression class.  _delta_one_table
strikes these classes over one segment of the window and keeps the
least r of each P, for r up to min(isqrt(5*to + 1), 65534), the largest
such r that array('H') holds.  The
cofactor of r is = 4 (mod 5) too, so the least r never exceeds
isqrt(5P + 1).  _DeltaOne reads P's entry: an r is
ed2_search(P, 1, 1)'s first witness; no r while the cap reaches
isqrt(5P + 1) means delta = 1 has no witness; only no r under a cap
below isqrt(5P + 1) (P past about 8.6e8) leaves delta = 1 to the
search.  Memory stays at one segment of the window.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from math import gcd, isqrt

from .arith import _SEGMENT, _radicals, factorize, squarefree_split
from .errors import KernelViolation, WrongResidue
from .solution import Solution, SolutionClass, make_solution


class Ed2Witness(namedtuple("Ed2Witness", "P delta b c r s A")):
    """A two-multiple witness for P: r = 5b - 1, s = 5c - 1,
    A = b*c/delta, and b <= c in search output."""

    __slots__ = ()

    @property
    def B(self) -> int:
        return self.b * self.P

    @property
    def C(self) -> int:
        return self.c * self.P


# A witness's normalized coordinates, with m = 5A - P.
NormalizedEd2 = namedtuple("NormalizedEd2", "g bprime cprime alpha dprime m canonical")


# A class with at most this many members up to isqrt(N) is divided into
# N member by member.  A division costs about 40 ns and factorize(N)
# 8 us or more, so dividing costs at most about one factorization.
_SPARSE_MAX = 200


def default_delta_max(P: int) -> int:
    """Tunable search bound ceil(log(P)^3); not a completeness claim."""
    return math.ceil(math.log(P) ** 3)


def ed2_search(P: int, delta_max: int, delta_min: int = 1) -> list[Ed2Witness]:
    """All witnesses with delta_min <= delta <= delta_max.

    Deterministic order: delta ascending, then r ascending.  Pairs with
    b = c are rejected (they repeat a denominator).  The kernel needs
    nothing from P beyond 5 not dividing it, so any such prime is
    accepted; P = 1 (mod 5) is merely the class with no closed form.
    A range is searched _SEGMENT deltas at a time, so memory stays flat
    however wide it is; one delta, as each step of a first-hit search,
    is a segment of one.
    """
    if P % 5 == 0:
        raise WrongResidue(f"ED2 search needs 5 to not divide P, got P = {P}")
    out = []
    for lo in range(max(delta_min, 1), delta_max + 1, _SEGMENT):
        rads = _radicals(lo, min(_SEGMENT, delta_max + 1 - lo))
        for delta, rad in enumerate(rads, lo):
            out += _witnesses_for_delta(P, delta, rad)
    return out


def _witnesses_for_delta(P: int, delta: int, rad: int) -> list[Ed2Witness]:
    """The witnesses at delta, given rad = rad(delta).

    Only r = -1 (mod M), M = 5*rad, can pass delta | b*c: a prime q
    dividing delta divides N - 1 = r*s - 1, N = 5*P*delta + 1, so q
    divides b = (r + 1)/5 exactly when r = -1 (mod q), exactly when
    s = -1 (mod q), that is, when q divides c (for q = 5, read mod 25).
    The class's divisors of N up to isqrt(N) are listed by dividing N by
    each member of the class when it has at most _SPARSE_MAX of them,
    else from factorize(N).
    """
    N = 5 * P * delta + 1
    M, root = 5 * rad, isqrt(N)
    if root // M > _SPARSE_MAX:
        rs = factorize(N).divisors_in_class(M - 1, M, root)
    else:
        rs = (r for r in range(M - 1, root + 1, M) if N % r == 0)
    return [w for r in rs if (w := pair_from_divisor(P, delta, r)) is not None]


def pair_from_divisor(P: int, delta: int, r: int) -> Ed2Witness | None:
    """The witness whose divisor pair r*s = 5*P*delta + 1 contains r.

    None unless r >= 4, r = 4 (mod 5) and r divides N = 5*P*delta + 1,
    and None when the pair repeats a denominator (b = c) or delta does
    not divide b*c.  The pair is ordered so that b < c.
    """
    N = 5 * P * delta + 1
    if delta < 1 or r < 4 or r % 5 != 4 or N % r:
        return None
    s = N // r
    # r*s = 1 (mod 5) and r = 4 (mod 5) force s = 4 (mod 5).
    if s % 5 != 4:
        raise KernelViolation(f"cofactor {s} escaped the class 4 (mod 5)")
    r, s = min(r, s), max(r, s)
    b, c = (r + 1) // 5, (s + 1) // 5
    if b == c or (b * c) % delta:
        return None
    return Ed2Witness(P, delta, b, c, r, s, b * c // delta)


def _delta_one_table(lo: int, n: int, cap: int) -> array:
    """For P = lo + i, i < n: the least r = 4 (mod 5), r <= cap, that
    divides 5P + 1, or 0 when none does; cap must fit array('H').

    r divides 5P + 1 exactly when P = -(r + 1)/5 (mod r).  Each class is
    one slice assignment, from the largest r down to 4, so the least r
    is the one left in each entry.
    """
    table = array("H", (0,)) * n
    for r in range(cap - (cap + 1) % 5, 3, -5):
        first = (-(r + 1) // 5 - lo) % r
        if first < n:
            table[first::r] = array("H", (r,)) * len(range(first, n, r))
    return table


class _DeltaOne:
    """ED2 at delta = 1 for the primes of a window that ends at hi, read
    from one _delta_one_table of at most _SEGMENT integers at a time.  A
    prime the current table does not cover starts the next one, so
    primes asked in ascending order build each table once."""

    def __init__(self, hi: int):
        # capped at the largest entry array('H') holds
        self.hi, self.cap = hi, min(isqrt(5 * max(hi, 0) + 1), 0xFFFF)
        self.lo, self.table = 0, array("H")

    def least_r(self, P: int) -> int:
        """P's entry of _delta_one_table(P, 1, self.cap)."""
        if 0 <= P - self.lo < len(self.table):
            return self.table[P - self.lo]
        self.lo, self.table = P, array("H")  # never hold two tables at once
        self.table = _delta_one_table(P, min(_SEGMENT, self.hi - P + 1), self.cap)
        return self.table[0]

    def first(self, P: int) -> tuple[Ed2Witness | None, int]:
        """ed2_search(P, 1, 1)'s first witness, or None and the least
        delta left to search: 2 when delta = 1 has no witness, 1 when the
        table cannot tell (or b = c, as at P = 3)."""
        r = self.least_r(P)
        if r:  # r <= isqrt(5P + 1): its cofactor is = 4 (mod 5) too, and no smaller
            return pair_from_divisor(P, 1, r), 1
        return None, 2 if self.cap >= isqrt(5 * P + 1) else 1


def ed2_case_a(P: int, delta: int, S: list[int]) -> Solution | None:
    """Solution from the first r in S that pair_from_divisor accepts,
    or None when no r qualifies."""
    if P % 5 == 0:
        raise WrongResidue(f"needs 5 to not divide P, got P = {P}")
    for r in S:
        w = pair_from_divisor(P, delta, r)
        if w is not None:
            return ed2_reconstruct(w)
    return None


def ed2_reconstruct(w: Ed2Witness) -> Solution:
    """Turn a witness into a verified Solution; KernelViolation if malformed."""
    if not 1 <= w.b < w.c:
        raise KernelViolation(f"need 1 <= b < c, got b = {w.b}, c = {w.c}")
    if w.r != 5 * w.b - 1 or w.s != 5 * w.c - 1:
        raise KernelViolation(f"r, s do not match b, c for {w}")
    if w.r * w.s != 5 * w.P * w.delta + 1:
        raise KernelViolation(f"r*s != 5*P*delta + 1 for {w}")
    if (w.b * w.c) % w.delta or w.b * w.c // w.delta != w.A:
        raise KernelViolation(f"A != b*c/delta for {w}")
    return make_solution(w.P, w.A, w.B, w.C, SolutionClass.ED2)


def ed2_normalize(w: Ed2Witness) -> NormalizedEd2:
    """Normalized coordinates of a witness (no validation of w itself)."""
    g = gcd(w.b, w.c)
    bprime, cprime = w.b // g, w.c // g
    alpha, dprime = squarefree_split(w.delta)
    m = 5 * w.A - w.P
    canonical = (
        g == alpha * dprime
        and bprime + cprime == m * dprime
        and w.A == alpha * bprime * cprime
    )
    return NormalizedEd2(g, bprime, cprime, alpha, dprime, m, canonical)


def ed2_witness_row(w: Ed2Witness) -> dict:
    """Wire form of a witness plus its normalization, keyed like the
    published tables (b', c' as bprime/cprime, d' as dprime)."""
    return {**w._asdict(), **ed2_normalize(w)._asdict()}

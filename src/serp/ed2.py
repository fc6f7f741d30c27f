"""Two-multiple decompositions (B = bP, C = cP).

Every such solution satisfies the kernel identity

    (5b - 1)(5c - 1) = 5*P*delta + 1,   delta | b*c,   A = b*c/delta,

so the search runs over delta and divisor pairs r*s = 5*P*delta + 1 with
r = s = 4 (mod 5).  Only r = -1 (mod 5*rad(delta)) can pass delta | b*c
(see _witnesses_for_delta), so just that class of divisors of
N = 5*P*delta + 1 up to sqrt(N) is listed: by dividing N by each member
where the class has at most _SPARSE_MAX of them, else from
factorize(N).  rad(delta) comes from arith._radical, one gcd with the
product of the primes below 1000 and factorize for a larger rest.
pair_from_divisor, the only code that turns a divisor into a witness,
rebuilds b = (r+1)/5 and c = (s+1)/5 and still checks delta | b*c,
which the class implies for squarefree delta only.  The normalized
coordinates split b = g*b', c = g*c' with gcd(b', c') = 1 and
delta = alpha * dprime**2 (alpha squarefree); a row is canonical when
g = alpha*dprime, b' + c' = m*dprime and A = alpha*b'*c', where
m = 5A - P.

A scan answers delta = 1, 2 and 3 for a whole window at once.  With
k = (r + 1)/(5*delta), r divides 5*P*delta + 1 exactly when P = -k
(mod r), since 5*delta*k = r + 1 = 1 (mod r): for each r = -1
(mod 5*delta), the primes that hit at delta through r form one
progression class.  _small_delta_table strikes these classes over one
segment of the window, delta = 3, then 2, then 1, and keeps the least
delta's least r of each P, for r up to min(isqrt(5*delta*to + 1),
65535), the largest entry array('H') holds (no delta past the first
whose cap is below isqrt(5*delta*to + 1)).  The cofactor of r is in
its class too, so the least r never exceeds isqrt(5*P*delta + 1).
_SmallDeltas reads P's entry and walks delta up to 3 and delta_max:
an r that divides 5*P*delta + 1 is ed2_search(P, delta, delta)'s first
witness; no r while the cap reaches isqrt(5*P*delta + 1) means delta
has no witness; only no r under a cap below it (P past about
8.6e8/delta) leaves delta to the search.  Each of 1, 2 and 3 is
squarefree, so the class alone gives delta | b*c.  Memory stays at one
segment of the window.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from math import gcd, isqrt

from .arith import _SEGMENT, _radical, factorize, squarefree_split
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

# The deltas a scan's window table answers, least first.
_TABLE_DELTAS = (1, 2, 3)


def default_delta_max(P: int) -> int:
    """Tunable search bound ceil(log(P)^3); not a completeness claim."""
    return math.ceil(math.log(P) ** 3)


def ed2_search(P: int, delta_max: int, delta_min: int = 1) -> list[Ed2Witness]:
    """All witnesses with delta_min <= delta <= delta_max.

    Deterministic order: delta ascending, then r ascending.  Pairs with
    b = c are rejected (they repeat a denominator).  The kernel needs
    nothing from P beyond 5 not dividing it, so any such prime is
    accepted; P = 1 (mod 5) is merely the class with no closed form.
    """
    if P % 5 == 0:
        raise WrongResidue(f"ED2 search needs 5 to not divide P, got P = {P}")
    out = []
    for delta in range(max(delta_min, 1), delta_max + 1):
        out += _witnesses_for_delta(P, delta)
    return out


def _witnesses_for_delta(P: int, delta: int) -> list[Ed2Witness]:
    """The witnesses at delta.

    Only r = -1 (mod M), M = 5*rad(delta), can pass delta | b*c: a prime q
    dividing delta divides N - 1 = r*s - 1, N = 5*P*delta + 1, so q
    divides b = (r + 1)/5 exactly when r = -1 (mod q), exactly when
    s = -1 (mod q), that is, when q divides c (for q = 5, read mod 25).
    The class's divisors of N up to isqrt(N) are listed by dividing N by
    each member of the class when it has at most _SPARSE_MAX of them,
    else from factorize(N).
    """
    N = 5 * P * delta + 1
    M, root = 5 * _radical(delta), isqrt(N)
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
    return tuple.__new__(Ed2Witness, (P, delta, b, c, r, s, b * c // delta))


def _small_delta_table(lo: int, n: int, caps: list[int]) -> array:
    """For P = lo + i, i < n: the least r of the least delta <= len(caps)
    with r = -1 (mod 5*delta), r <= caps[delta - 1] and r dividing
    5*P*delta + 1, or 0 when no such delta has one; each cap must fit
    array('H').

    With k = (r + 1)/(5*delta), 5*delta*k = r + 1 = 1 (mod r), so r
    divides 5*P*delta + 1 exactly when P = -k (mod r).  Each class is
    one slice assignment, the largest delta first and each delta's r
    from the largest down, so the least delta's least r is the one left
    in each entry.
    """
    table = array("H", (0,)) * n
    for delta, cap in reversed(tuple(enumerate(caps, 1))):
        M = 5 * delta
        for r in range(cap - (cap + 1) % M, 3, -M):
            first = (-((r + 1) // M) - lo) % r
            if first < n:
                table[first::r] = array("H", (r,)) * len(range(first, n, r))
    return table


class _SmallDeltas:
    """ED2 at delta = 1, 2 and 3 for the primes of a window that ends at
    hi, read from one _small_delta_table of at most _SEGMENT integers at
    a time.  A prime the current table does not cover starts the next
    one, so primes asked in ascending order build each table once."""

    def __init__(self, hi: int):
        self.hi, self.caps = hi, []
        for delta in _TABLE_DELTAS:
            root = isqrt(5 * delta * max(hi, 0) + 1)
            self.caps.append(min(root, 0xFFFF))  # the largest entry array('H') holds
            if root > 0xFFFF:  # delta left undecided near hi, so no later delta is read there
                break
        self.lo, self.table = 0, array("H")

    def least_r(self, P: int) -> int:
        """P's entry of _small_delta_table(P, 1, self.caps)."""
        if 0 <= P - self.lo < len(self.table):
            return self.table[P - self.lo]
        self.lo, self.table = P, array("H")  # never hold two tables at once
        self.table = _small_delta_table(P, min(_SEGMENT, self.hi - P + 1), self.caps)
        return self.table[0]

    def first(self, P: int, delta_max: int | None) -> tuple[Ed2Witness | None, int]:
        """ed2_search(P, delta_max)'s first witness when its delta is at
        most 3, else None and the least delta left to search.  delta_max
        None is default_delta_max(P), which is 8 or more from P = 7 on.

        The entry r divides 5*P*delta + 1 for one delta at most: r
        dividing it at d < e would divide e*(5*P*d + 1) - d*(5*P*e + 1)
        = e - d, 1 or 2.  So, delta by delta from 1: one that r divides
        answers with r, its least divisor in class; one that r does not
        divide has no witness when its cap reaches isqrt(5*P*delta + 1),
        else it is left to the search, as is the pair b = c (as at P = 3).
        """
        if delta_max is None:
            delta_max = len(_TABLE_DELTAS) if P >= 7 else default_delta_max(P)
        r, delta = self.least_r(P), 0
        for delta, cap in zip(_TABLE_DELTAS[:delta_max], self.caps):
            N = 5 * P * delta + 1
            if r and N % r == 0:
                return pair_from_divisor(P, delta, r), delta
            if cap < isqrt(N):
                return None, delta
        return None, delta + 1


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
    return make_solution(w.P, w.A, w.b * w.P, w.c * w.P, SolutionClass.ED2)


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

"""Two-multiple decompositions (B = bP, C = cP).

Every such solution satisfies the kernel identity

    (5b - 1)(5c - 1) = 5*P*delta + 1,   delta | b*c,   A = b*c/delta,

so the search runs over delta and divisor pairs r*s = 5*P*delta + 1 with
r = s = 4 (mod 5): N = 5*P*delta + 1, a progression in delta, is
factored by one sieve over the delta range, its divisors
r = 4 (mod 5) up to sqrt(N) are listed, and pair_from_divisor, the only
code that turns a divisor into a witness, rebuilds b = (r+1)/5 and
c = (s+1)/5.  The normalized
coordinates split b = g*b', c = g*c' with gcd(b', c') = 1 and
delta = alpha * dprime**2 (alpha squarefree); a row is canonical when
g = alpha*dprime, b' + c' = m*dprime and A = alpha*b'*c', where
m = 5A - P.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from math import gcd, isqrt

from .arith import Factorization, factorize_progression, squarefree_split
from .errors import KernelViolation, WrongResidue
from .solution import Solution, SolutionClass, make_solution


@dataclass(frozen=True)
class Ed2Witness:
    P: int
    delta: int
    b: int
    c: int  # b <= c in search output
    r: int  # 5b - 1
    s: int  # 5c - 1
    A: int  # b*c / delta

    @property
    def B(self) -> int:
        return self.b * self.P

    @property
    def C(self) -> int:
        return self.c * self.P


@dataclass(frozen=True)
class NormalizedEd2:
    g: int
    bprime: int
    cprime: int
    alpha: int
    dprime: int
    m: int  # 5A - P
    canonical: bool


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
    delta = max(delta_min, 1)
    out = []
    for fN in factorize_progression(5 * P * delta + 1, 5 * P, delta_max - delta + 1):
        out.extend(_witnesses_for_delta(P, delta, fN))
        delta += 1
    return out


def _witnesses_for_delta(P: int, delta: int, fN: Factorization) -> list[Ed2Witness]:
    """The witnesses at delta, given the factorization fN of 5*P*delta + 1."""
    N = 5 * P * delta + 1
    if fN.n != N:
        raise KernelViolation(f"factorization of {fN.n} given for N = {N}")
    rs = fN.divisors_in_class(4, 5, isqrt(N))
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
    return {**asdict(w), **asdict(ed2_normalize(w))}

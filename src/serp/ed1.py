"""One-multiple decompositions (C = cP only).

For P = 1 (mod 5) every such solution comes from a quadruple
(gamma, c, u, v) with

    5c - 1 = gamma * P,   gamma = 4 (mod 5),   gcd(gamma, c) = 1,
    u * v = c**2,         u = v = -c (mod gamma),
    u != -c (mod P),      v != -c (mod P),

reconstructed as A = (u+c)/gamma, B = (v+c)/gamma, C = cP.  The defining
kernel identity is (gamma*A - c) * (gamma*B - c) = c**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

from .arith import Factorization, factorize_progression
from .errors import KernelViolation, WrongResidue
from .solution import Solution, SolutionClass, make_solution


@dataclass(frozen=True)
class Ed1Witness:
    P: int
    gamma: int
    c: int
    u: int
    v: int  # u <= v

    @property
    def A(self) -> int:
        return (self.u + self.c) // self.gamma

    @property
    def B(self) -> int:
        return (self.v + self.c) // self.gamma

    @property
    def C(self) -> int:
        return self.c * self.P


def default_gamma_max(P: int) -> int:
    """Tunable search bound 5 * ceil(log(P)^3); not a completeness claim."""
    return 5 * math.ceil(math.log(P) ** 3)


def ed1_search(P: int, gamma_max: int, gamma_min: int = 4) -> list[Ed1Witness]:
    """All witnesses with gamma_min <= gamma <= gamma_max, gamma = 4 (mod 5).

    c = (gamma*P + 1)/5 is integral for every such gamma when
    P = 1 (mod 5), and gcd(gamma, c) = 1 since 5c = 1 (mod gamma).
    Deterministic order: gamma ascending, then u ascending.  c steps
    by P as gamma steps by 5, so one sieve over that progression
    factors every c.  Divisor
    pairs u*v = c**2 are drawn from the squared factorization of c, u
    listed only in its class -c (mod gamma) and below c; the pair
    u = v = c is excluded (it would force A = B).
    """
    if P % 5 != 1:
        raise WrongResidue(f"ED1 search needs P = 1 (mod 5), got P = {P}")
    start = max(gamma_min, 4)
    gamma = start + (4 - start) % 5
    n = len(range(gamma, gamma_max + 1, 5))
    out = []
    for fc in factorize_progression((gamma * P + 1) // 5, P, n):
        c = fc.n
        if 5 * c - 1 != gamma * P or gcd(gamma, c) != 1:
            raise KernelViolation(f"gamma = {gamma} gives no coprime c = (gamma*P + 1)/5")
        out.extend(_witnesses_for_candidate(P, gamma, fc))
        gamma += 5
    return out


def _witnesses_for_candidate(P: int, gamma: int, fc: Factorization) -> list[Ed1Witness]:
    """The witnesses at gamma, given the factorization fc of c = (gamma*P + 1)/5."""
    c = fc.n
    target = (-c) % gamma
    banned = (-c) % P
    csq = c * c
    found = []
    # u <= c - 1 keeps u < v; u = v = c is degenerate
    for u in fc.squared().divisors_in_class(target, gamma, c - 1):
        v = csq // u
        # v = -c (mod gamma) follows from u*v = c^2 and gcd(gamma, c) = 1,
        # but is checked anyway as a cheap bug trap.
        if v % gamma != target:
            raise KernelViolation(f"v = {v} escaped the class -c (mod {gamma})")
        if u % P == banned or v % P == banned:
            continue
        found.append(Ed1Witness(P, gamma, c, u, v))
    return found


def ed1_reconstruct(w: Ed1Witness) -> Solution:
    """Turn a witness into a verified Solution; KernelViolation if malformed."""
    if 5 * w.c - 1 != w.gamma * w.P:
        raise KernelViolation(f"5c - 1 != gamma*P for {w}")
    if w.u * w.v != w.c * w.c:
        raise KernelViolation(f"u*v != c^2 for {w}")
    if (w.u + w.c) % w.gamma or (w.v + w.c) % w.gamma:
        raise KernelViolation(f"gamma does not divide u+c, v+c for {w}")
    if w.A % w.P == 0 or w.B % w.P == 0:
        raise KernelViolation(f"P divides A or B for {w}")
    return make_solution(w.P, w.A, w.B, w.C, SolutionClass.ED1)

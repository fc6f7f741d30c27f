"""One-multiple decompositions (C = cP only).

For P = 1 (mod 5) every such solution comes from a quadruple
(gamma, c, u, v) with

    5c - 1 = gamma * P,   gamma = 4 (mod 5),   gcd(gamma, c) = 1,
    u * v = c**2,         u = v = -c (mod gamma),

reconstructed as A = (u+c)/gamma, B = (v+c)/gamma, C = cP.  The defining
kernel identity is (gamma*A - c) * (gamma*B - c) = c**2.  P divides
neither A nor B, so nothing is dropped mod P: u < c gives
A < 2c/gamma < P, and P | B would make a two-multiple solution with
P | 5c - 1, against (5b - 1)(5c - 1) = 1 (mod P).  When P | gamma,
every u = -c (mod gamma) is -c (mod P), which says nothing of A.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import gcd

from .arith import Factorization, factorize_progression
from .errors import KernelViolation, WrongResidue
from .solution import Solution, SolutionClass, make_solution


class Ed1Witness(namedtuple("Ed1Witness", "P gamma c u v")):
    """A one-multiple quadruple (gamma, c, u, v) for P, u <= v."""

    __slots__ = ()

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
    Deterministic order: gamma, then u ascending.  c steps by P as
    gamma steps by 5, so one sieve over that progression factors every
    c.  Divisor pairs u*v = c**2 come from the squared factorization of
    c, u listed only in its class -c (mod gamma) and below c, so u < v
    (u = v = c would force A = B).
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
    csq = c * c
    found = []
    for u in fc.squared().divisors_in_class(target, gamma, c - 1):
        v = csq // u
        # a bug trap: u*v = c^2 and gcd(gamma, c) = 1 give v = -c (mod gamma)
        if v % gamma != target:
            raise KernelViolation(f"v = {v} escaped the class -c (mod {gamma})")
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

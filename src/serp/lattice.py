"""Lattice view of the two-multiple search.

In the coprime coordinates (b', c') of a canonical ED2 row, the point
(x, y) = (b'+c', c'-b') satisfies x = y (mod 2), x > y > 0, dprime | x
and x*x - y*y = 4*b'*c', so the box B_k(T) of the paper is cut by the
diagonals x = m*dprime, m = 5A - P.  lattice_search_m walks those
diagonals and solves the quadratic for (b', c') exactly per m; with
m < 2P its hits are exactly the canonical rows of ed2_search at
delta = alpha*dprime**2 (tests/test_lattice.py pins this).  Also here: exact counts of shifted-sublattice points in a
box, and the window bound for how many delta values can sit near the
kernel surface.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .arith import squarefree_split


class SublatticeClass(namedtuple("SublatticeClass", "moduli shift")):
    """Shifted rectangular sublattice of Z^2: coord i = shift[i] (mod moduli[i]).
    The shift is stored reduced modulo the moduli."""

    __slots__ = ()

    def __new__(cls, moduli: tuple[int, int], shift: tuple[int, int]):
        if min(moduli) < 1:
            raise ValueError(f"moduli must be >= 1, got {moduli}")
        return super().__new__(cls, moduli, tuple(a % m for a, m in zip(shift, moduli)))

    @property
    def index(self) -> int:
        return self.moduli[0] * self.moduli[1]


def class_count_in_box(cls: SublatticeClass, T: int) -> int:
    """Exact number of class points in the box [1, T]^2 (none for T < 1)."""
    total = 1
    for m, a in zip(cls.moduli, cls.shift):
        first = a if a >= 1 else m  # smallest class member in [1, m]
        total *= 0 if first > T else (T - first) // m + 1
    return total


def lattice_search_m(
    P: int, alpha: int, dprime: int, m_max: int
) -> list[tuple[int, int, int]]:
    """Diagonal search for coprime pairs (b', c') with b' < c'.

    For each m in [1, m_max] with 5*alpha | (m + P), the candidate pair
    has sum s1 = m*dprime and product p1 = (m + P)/(5*alpha); it is kept
    when the discriminant s1^2 - 4*p1 is a positive perfect square y^2
    of the same parity as s1 and gcd(b', c') = 1.  (y = 0 would force
    b' = c', which the strict order of the box excludes.)  A hit is a
    solution (A, bP, cP) with A = (m+P)/5 and two multiples of P, and
    such a solution has A <= P/3 (see serp.oracle), so useful hits need
    m <= 2P/3.
    """
    if squarefree_split(alpha) != (alpha, 1):
        raise ValueError(f"alpha must be squarefree, got {alpha}")
    if dprime < 1:
        raise ValueError(f"dprime must be >= 1, got {dprime}")
    out = []
    for m in range(1, m_max + 1):
        if (m + P) % (5 * alpha):
            continue
        p1 = (m + P) // (5 * alpha)
        s1 = m * dprime
        disc = s1 * s1 - 4 * p1
        if disc <= 0:
            continue
        y = isqrt(disc)
        if y * y != disc or (s1 - y) % 2:
            continue
        bprime, cprime = (s1 - y) // 2, (s1 + y) // 2
        if bprime >= 1 and gcd(bprime, cprime) == 1:
            out.append((bprime, cprime, m))
    return out


def delta_window_bound(P: int, Delta: int) -> int:
    """Upper bound 1 + floor(2*Delta/(5P)) on the window count below."""
    return 1 + (2 * Delta) // (5 * P)


def delta_window_count(P: int, b: int, c: int, Delta: int) -> int:
    """Exact number of integers delta with
    |(5b-1)(5c-1) - 5*P*delta - 1| <= Delta."""
    t5 = (5 * b - 1) * (5 * c - 1) - 1  # = 5*(5bc - b - c)
    lo, hi = t5 - Delta, t5 + Delta
    step = 5 * P
    count = hi // step - -(-lo // step) + 1
    return max(count, 0)


"""Lattice and box view of the two-multiple search.

The coprime coordinates (b', c') map to (x, y) = (b'+c', c'-b'), turning
the canonical conditions into linear ones: x = y (mod 2), x > y > 0,
dprime | x, with x*x - y*y = 4*b'*c'.  Searching the box then reduces to
walking the diagonals x = m*dprime, which lattice_search_m does by
solving the quadratic for (b', c') exactly per m.  Also here: exact
counts of shifted-sublattice points in a box, and the window bound for
how many delta values can sit near the kernel surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import squarefree_split
from .errors import ParityViolation


def xy_transform(bprime: int, cprime: int) -> tuple[int, int]:
    """(b', c') -> (x, y) = (b'+c', c'-b'); requires 0 < b' < c'."""
    if not 0 < bprime < cprime:
        raise ValueError(f"requires 0 < bprime < cprime, got ({bprime}, {cprime})")
    return bprime + cprime, cprime - bprime


def xy_inverse(x: int, y: int) -> tuple[int, int]:
    """(x, y) -> (b', c') = ((x-y)/2, (x+y)/2); x and y must share parity."""
    if (x - y) % 2:
        raise ParityViolation(f"x = {x} and y = {y} have different parity")
    if not 0 < y < x:
        raise ValueError(f"requires 0 < y < x, got ({x}, {y})")
    return (x - y) // 2, (x + y) // 2


@dataclass(frozen=True)
class BoxSpec:
    """Box in (x, y): x = y (mod 2), x > y > 0, dprime | x, x, y <= 2T."""

    T: int
    dprime: int = 1
    k: int = 2  # plane only

    def contains(self, x: int, y: int) -> bool:
        return (
            x % 2 == y % 2
            and x > y > 0
            and x % self.dprime == 0
            and x <= 2 * self.T
            and y <= 2 * self.T
        )

    def points(self):
        """All box points, row-major; test-scale sizes only."""
        for x in range(self.dprime, 2 * self.T + 1, self.dprime):
            for y in range(2 - x % 2, min(x, 2 * self.T + 1), 2):
                if y < x:
                    yield x, y


@dataclass(frozen=True)
class SublatticeClass:
    """Shifted rectangular sublattice of Z^2: coord i = shift[i] (mod moduli[i])."""

    moduli: tuple[int, int]
    shift: tuple[int, int]

    def __post_init__(self):
        if min(self.moduli) < 1:
            raise ValueError(f"moduli must be >= 1, got {self.moduli}")
        object.__setattr__(
            self, "shift", tuple(a % m for a, m in zip(self.shift, self.moduli))
        )

    @property
    def index(self) -> int:
        return self.moduli[0] * self.moduli[1]


def class_count_in_box(cls: SublatticeClass, T: int) -> int:
    """Exact number of class points in the box [1, T]^2."""
    if T < 1:
        return 0
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
    b' = c', which the strict order of the box excludes.)  Useful hits
    need m < 2P, since A = (m+P)/5 must stay below 3P/5.
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


def density_rows(classes: list[SublatticeClass], box_sides: list[int]) -> list[dict]:
    """Measurement rows for the count-vs-T^2/M density experiments."""
    rows = []
    for cls in classes:
        for T in box_sides:
            count = class_count_in_box(cls, T)
            expected = T * T / cls.index
            rows.append(
                {
                    "M": cls.index,
                    "T": T,
                    "count": count,
                    "expected": expected,
                    "deviation": count - expected,
                }
            )
    return rows

"""Residue-class pre-sieving and its density statistics.

For a fixed delta and modulus r = 4 (mod 5) with gcd(r, 5*delta) = 1,
the primes usable by the two-multiple construction lie in one CRT class

    P = 1 (mod 5),   P = -(5*delta)^(-1) (mod r),

of modulus 5r.  Scanning only these classes replaces blind enumeration
of P.  For any prime P in the class, s = (5*P*delta + 1)/r is integral
and s = 4 (mod 5), so b = (r+1)/5, c = (s+1)/5 reconstruct a solution
whenever delta | b*c (always, for delta = 1).

The statistics side counts N(P; R, delta) = #{r <= R admissible with
r | 5*P*delta + 1} per prime, its exact average over primes P <= x with
P = 1 (mod 5), the sum of 1/phi(5r), and the exceptional moduli whose
class contains no prime <= x.  Every class is a subset of the primes
P = 1 (mod 5), so class_scans sieves [2, x] once, then marks, counts
and drops each class's members in turn: it returns each class's count
and first member and N(P; R, delta) per prime, and no class mask leaves
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from statistics import linear_regression

import numpy as np

from ._kernels import class_primes
from .arith import euler_phi, mod_inverse, crt_combine
from .ed2 import ed2_reconstruct, pair_from_divisor
from .errors import BadResidue, DeltaFilterFailed, InvariantViolation, NotCoprime
from .solution import Solution


@dataclass(frozen=True)
class ProgressionClass:
    delta: int
    r: int
    residue: int
    modulus: int  # = 5r


@dataclass(frozen=True)
class ClassScan(ProgressionClass):
    """Scan result for one progression class."""

    primes_found: int
    first_prime: int | None

    def as_dict(self) -> dict:
        """The class's output row: its fields, and whether it holds no prime."""
        return {**vars(self), "exceptional": self.primes_found == 0}


@dataclass(frozen=True, eq=False)  # array fields have no value equality
class ScanReport:
    """Aggregate statistics for all admissible r <= R at one (x, delta).

    primes are the primes P <= x with P = 1 (mod 5), ascending, and
    totals[i] = N(primes[i]; R, delta); everything else is read from them.
    """

    x: int
    R: int
    delta: int
    primes: np.ndarray
    totals: np.ndarray
    classes: tuple[ClassScan, ...]

    @property
    def prime_count(self) -> int:
        return int(self.primes.size)

    @property
    def average(self) -> Fraction | None:
        """Mean N(P; R, delta); None when no qualifying primes exist."""
        return Fraction(int(self.totals.sum()), self.prime_count) if self.prime_count else None

    @property
    def n_of_p(self) -> dict[int, int]:
        return dict(zip(self.primes.tolist(), self.totals.tolist()))

    @property
    def per_r_counts(self) -> dict[int, int]:
        return {c.r: c.primes_found for c in self.classes}

    @property
    def phi_sum(self) -> Fraction:
        return sum((Fraction(1, euler_phi(c.modulus)) for c in self.classes), Fraction(0))

    @property
    def exceptional(self) -> tuple[int, ...]:
        """The moduli r whose class holds no prime <= x."""
        return tuple(c.r for c in self.classes if c.primes_found == 0)

    def as_dict(self) -> dict:
        li_x = li_estimate(self.x)
        classes = []
        for c in self.classes:
            expected_li = li_x / euler_phi(c.modulus)  # inspection only
            classes.append({**c.as_dict(), "expected_li": expected_li,
                            "li_deviation": c.primes_found - expected_li})
        return {
            "x": self.x,
            "R": self.R,
            "delta": self.delta,
            "prime_count": self.prime_count,
            "average": str(self.average) if self.average is not None else None,
            "phi_sum": str(self.phi_sum),
            "classes": classes,
            "exceptional": list(self.exceptional),
            "n_of_p": dict(zip(map(str, self.primes.tolist()), self.totals.tolist())),
        }


def _check_delta(delta: int) -> None:
    # A = b*c/delta must be positive, so delta <= 0 has no solutions and
    # its classes and counts would be meaningless.
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")


def admissible_moduli(R: int, delta: int) -> list[int]:
    """All r <= R with r = 4 (mod 5) and gcd(r, 5*delta) = 1, ascending."""
    _check_delta(delta)
    return [r for r in range(4, R + 1, 5) if gcd(r, 5 * delta) == 1]


def build_progression_class(delta: int, r: int) -> ProgressionClass:
    """CRT class {P = 1 (mod 5), P = -(5*delta)^(-1) (mod r)} of modulus 5r."""
    _check_delta(delta)
    if r % 5 != 4:
        raise BadResidue(f"r = {r} is not 4 (mod 5)")
    if gcd(r, 5 * delta) != 1:
        raise NotCoprime(f"gcd({r}, 5*{delta}) = {gcd(r, 5 * delta)} != 1")
    target = (-mod_inverse(5 * delta, r)) % r
    residue, modulus = crt_combine(1, 5, target, r)
    return ProgressionClass(delta, r, residue, modulus)


def scan_class_primes(cls: ProgressionClass, x: int) -> list[int]:
    """All primes <= x in the class, ascending."""
    return [int(p) for p in class_primes(cls.residue, cls.modulus, x)]


def reconstruct_from_class(P: int, delta: int, r: int) -> Solution:
    """Solution for a prime P lying in the (delta, r) progression class.

    r divides 5*P*delta + 1 by the class congruences; fails only when
    delta does not divide b*c (impossible for delta = 1).
    """
    cls = build_progression_class(delta, r)
    if P % cls.modulus != cls.residue:
        raise ValueError(
            f"P = {P} is not in the class {cls.residue} (mod {cls.modulus})"
        )
    N = 5 * P * delta + 1
    if N % r:
        raise InvariantViolation(f"r = {r} does not divide 5*P*delta + 1 = {N}")
    # For P = 1 (mod 5), b = c forces delta not to divide b*c, so None
    # always means the delta filter failed.
    w = pair_from_divisor(P, delta, r)
    if w is None:
        raise DeltaFilterFailed(f"delta = {delta} does not divide b*c for r = {r}")
    return ed2_reconstruct(w)


_LI_LEAF = 1 << 16  # >= 128, numpy's pairwise block, so a leaf sums as inside one array


def li_estimate(x: int) -> float:
    """Integer-quadrature stand-in for Li(x): sum over k in [2, x] of 1/log k.

    Leaves of _LI_LEAF terms are joined by numpy's own pairwise split, so
    memory stays flat and the float equals one np.sum bit for bit.
    """
    if x < 2:
        return 0.0

    def pairwise(start: int, n: int) -> float:
        if n <= _LI_LEAF:
            return np.sum(1.0 / np.log(np.arange(start, start + n, dtype=np.float64)))
        half = n // 2 - (n // 2) % 8
        return pairwise(start, half) + pairwise(start + half, n - half)

    return float(pairwise(2, x - 1))


def class_scans(
    x: int, R: int, delta: int
) -> tuple[np.ndarray, np.ndarray, list[ClassScan]]:
    """One sieve pass for every admissible class r <= R.

    Returns the primes P <= x with P = 1 (mod 5), ascending; totals,
    where totals[i] = N(primes[i]; R, delta); and one ClassScan per
    admissible r, ascending.  Each class's mask over the primes is built,
    counted and added into totals, then dropped.
    """
    primes = class_primes(1, 5, x)
    totals = np.zeros(primes.size, dtype=np.int64)
    classes = []
    for r in admissible_moduli(R, delta):
        cls = build_progression_class(delta, r)
        hits = primes % cls.modulus == cls.residue
        found = int(np.count_nonzero(hits))
        totals += hits
        first = int(primes[hits.argmax()]) if found else None
        classes.append(ClassScan(**vars(cls), primes_found=found, first_prime=first))
    return primes, totals, classes


def average_local_params(x: int, R: int, delta: int) -> ScanReport:
    """Exact mean of N(P; R, delta) over primes P <= x, P = 1 (mod 5):
    the report keeps class_scans' arrays and class rows, and reads the
    mean, per-prime counts and exceptional moduli from them.  A
    zero-prime range is flagged by average=None.
    """
    primes, totals, classes = class_scans(x, R, delta)
    return ScanReport(x, R, delta, primes, totals, tuple(classes))


def fit_growth_constant(
    reports: dict[int, ScanReport]
) -> tuple[float, dict[int, float]]:
    """Least-squares slope of mean N(P; R, delta) against log R.

    The slope is a measured constant with residuals, never an asserted
    value; callers report it for inspection.
    """
    means = {R: float(m) for R, rep in sorted(reports.items()) if (m := rep.average) is not None}
    if len(means) < 2:
        raise ValueError("need at least two R values with a defined mean")
    xs = [log(R) for R in means]
    slope, intercept = linear_regression(xs, list(means.values()))
    residuals = {R: y - (intercept + slope * x) for (R, y), x in zip(means.items(), xs)}
    return slope, residuals

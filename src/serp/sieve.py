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
P = 5k + 1, and _ClassRows, the one rule of class rows, reads each
class's count and first member from a segment of flags over k at the
class's stride.  class_scans, the entry of sieve and of csv and table
stats, takes exact prime flags from arith's sieve, with no numpy and
no flags kept past their segment.  average_local_params, the entry of
json stats, sieves once: it lists the primes P = 5k + 1 <= x with
_kernels.class_primes, sets each segment's flags from them, and adds
each class into one small array of hits at its stride, which gives
N(P; R, delta) for the segment's primes.  Both return a ScanReport,
whose prime count and mean are read from the class rows alone; both
refuse, before sieving or listing a modulus, an (x, R) whose estimated
working set passes WORKING_SET_BUDGET.  The per-prime counts reach json
as text pieces in key order (ScanReport.n_of_p_json), never as one
dict.  numpy and the _kernels sieve are imported only by the functions
that build per-prime arrays, fractions only where a Fraction is built
(phi_sum and ScanReport.average) and statistics only by
fit_growth_constant, so sieve, and csv stats, load neither.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, isqrt, log

from .arith import _sieve_flags, crt_combine, euler_phi, mod_inverse, primes_between
from .ed2 import ed2_reconstruct, pair_from_divisor
from .errors import BadResidue, DeltaFilterFailed, InvariantViolation, NotCoprime, SerpError
from .solution import Solution

# Peak bytes per prime P = 1 (mod 5) while stats runs: primes and totals
# (int64 each), then the sort key and order of n_of_p_json (int64 each).
# The flags, hits and k of average_local_params hold one SEGMENT at a
# time, and the class rows are counted by BYTES_PER_CLASS.
BYTES_PER_PRIME = 32
# Peak bytes per class row, with its first solution, in the costliest
# format: about 1.3 KB measured for a sieve table row.
BYTES_PER_CLASS = 2048
WORKING_SET_BUDGET = 1 << 30  # bytes; class_scans refuses (x, R) past it
N_OF_P_CHUNK = 1 << 13  # n_of_p members per json piece
SEGMENT = 1 << 18  # values k of P = 5k + 1 per segment of class rows


# The class P = residue (mod modulus), modulus = 5r.
ProgressionClass = namedtuple("ProgressionClass", "delta r residue modulus")


class ClassScan(namedtuple("ClassScan", ProgressionClass._fields + ("primes_found", "first_prime"))):
    """Scan result for one progression class: its ProgressionClass
    fields, then its prime count and first prime (None when it has none)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The class's output row: its fields, and whether it holds no prime."""
        return {**self._asdict(), "exceptional": self.primes_found == 0}


class ScanReport(namedtuple("ScanReport", "x R delta prime_count classes primes totals",
                            defaults=(None, None))):
    """Aggregate statistics for all admissible r <= R at one (x, delta).

    prime_count counts the primes P <= x with P = 1 (mod 5), and classes
    are the ClassScan rows; the mean and the exceptional moduli are read
    from them.  average_local_params alone fills primes, those primes
    ascending as a numpy array, and totals[i] = N(primes[i]; R, delta).
    Arrays have no value equality, so a report compares and hashes by
    identity.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def average(self) -> Fraction | None:
        """Mean N(P; R, delta); None when no qualifying primes exist.

        Each P counts once per class that holds it, so the totals sum to
        the classes' prime counts (double counting)."""
        if not self.prime_count:
            return None
        from fractions import Fraction

        return Fraction(sum(c.primes_found for c in self.classes), self.prime_count)

    @property
    def n_of_p(self) -> dict[int, int]:
        return dict(zip(self.primes.tolist(), self.totals.tolist()))

    @property
    def per_r_counts(self) -> dict[int, int]:
        return {c.r: c.primes_found for c in self.classes}

    @property
    def phi_sum(self) -> Fraction:
        return phi_sum(self.R, self.delta)

    @property
    def exceptional(self) -> tuple[int, ...]:
        """The moduli r whose class holds no prime <= x."""
        return tuple(c.r for c in self.classes if c.primes_found == 0)

    def as_dict(self) -> dict:
        """The json record without n_of_p, whose members n_of_p_json streams."""
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
        }

    def n_of_p_json(self) -> Iterator[str]:
        """n_of_p's members as json text '"P":N,"P":N,...', N_OF_P_CHUNK
        members a piece, in the order of json.dumps(sort_keys=True): by
        the decimal string of P, so "100003" precedes "11".

        That is the order of P padded with zeros to the digit count of the
        largest prime.  No two primes share a padded key, since neither
        of two primes is the other times a power of ten.
        """
        import numpy as np

        primes, totals = self.primes, self.totals
        if not primes.size:
            return
        digits = len(str(int(primes[-1])))
        padded = primes.copy()
        for k in range(1, digits):  # primes ascend: those below 10**k lead
            padded[: np.searchsorted(primes, 10**k)] *= 10
        order = padded.argsort()
        del padded
        # a piece is '"' + P + '":N,"' + P + '":N,"' ... without its last ',"';
        # suffix[N] covers every total, so none is formatted twice
        suffix = [f'":{n},"' for n in range(int(totals.max()) + 1)]
        for start in range(0, order.size, N_OF_P_CHUNK):
            idx = order[start : start + N_OF_P_CHUNK]
            parts = [""] * (2 * idx.size)
            parts[::2] = map(str, primes[idx].tolist())
            parts[1::2] = map(suffix.__getitem__, totals[idx].tolist())
            parts[0] = '"' + parts[0]
            parts[-1] = parts[-1][:-2]
            yield "".join(parts)


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
    from ._kernels import class_primes

    return [int(p) for p in class_primes(cls.residue, cls.modulus, x)]


@lru_cache(maxsize=1)  # stats checks it before sieving, then writes it
def phi_sum(R: int, delta: int) -> Fraction:
    """The sum of 1/phi(5r) over the admissible r <= R.

    The terms are added as a pairwise tree, so both sides of an addition
    are sums of about as many terms; added one at a time, each term
    would meet the whole running denominator, at a cost about quadratic
    in R.  partial holds the (term count, sum) of each finished subtree,
    counts falling, so memory stays logarithmic in the number of terms.
    """
    from fractions import Fraction

    partial: list[tuple[int, Fraction]] = []
    for r in admissible_moduli(R, delta):
        count, total = 1, Fraction(1, euler_phi(5 * r))
        while partial and partial[-1][0] == count:
            count, total = 2 * count, partial.pop()[1] + total
        partial.append((count, total))
    return sum((total for _, total in reversed(partial)), Fraction(0))


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
    memory stays flat and the float equals one np.sum bit for bit.  Every
    leaf is computed in one buffer, by the operations of that np.sum's
    1.0 / np.log(np.arange(...)) in the same order, so no leaf asks for
    fresh pages.
    """
    if x < 2:
        return 0.0
    import numpy as np

    size = min(_LI_LEAF, x - 1)  # the longest leaf
    steps = np.arange(size, dtype=np.float64)
    leaf = np.empty(size, dtype=np.float64)  # each leaf's terms, in place

    def pairwise(start: int, n: int) -> float:
        if n <= _LI_LEAF:
            terms = leaf[:n]
            np.add(steps[:n], start, out=terms)
            np.log(terms, out=terms)
            np.divide(1.0, terms, out=terms)
            return np.sum(terms)
        half = n // 2 - (n // 2) % 8
        return pairwise(start, half) + pairwise(start + half, n - half)

    return float(pairwise(2, x - 1))


def working_set_bytes(x: int, R: int) -> int:
    """Estimated peak bytes of a stats or sieve run at (x, R):
    BYTES_PER_PRIME for each prime P <= x, P = 1 (mod 5), counted as a
    quarter of Rosser and Schoenfeld's bound pi(x) < 1.25506 x / log x
    (x > 1), and BYTES_PER_CLASS for each r <= R with r = 4 (mod 5), a
    bound on the admissible moduli."""
    rows = BYTES_PER_CLASS * ((R + 1) // 5)
    if x < 2:
        return rows
    return rows + int(BYTES_PER_PRIME * 1.25506 * x / (4 * log(x)))


def check_working_set(x: int, R: int) -> None:
    """Raise SerpError when the working set of (x, R) passes the budget."""
    need = working_set_bytes(x, R)
    if need > WORKING_SET_BUDGET:
        raise SerpError(
            f"x = {x} and R = {R} need about {need >> 20} MiB, past the "
            f"{WORKING_SET_BUDGET >> 20} MiB working-set budget"
        )


class _ClassRows:
    """The prime count, and each admissible class's count and first
    prime, read one segment of flags at a time: the one rule of class
    rows.  An (x, R) past the working-set budget fails before any
    modulus is listed."""

    def __init__(self, x: int, R: int, delta: int) -> None:
        check_working_set(x, R)
        self.x, self.R, self.delta, self.prime_count = x, R, delta, 0
        self.classes = [build_progression_class(delta, r) for r in admissible_moduli(R, delta)]
        self.found = [0] * len(self.classes)
        self.first: list[int | None] = [None] * len(self.classes)

    def read(self, flags, lo: int) -> list[int]:
        """Add a segment, flags[i] = 1 when P = 5(lo + i) + 1 is prime, to
        every class, and return each class's start in it.  A class's
        members are P = 5k + 1 with k = k0 = (residue - 1)/5 (mod r), so
        its row is the flags from (k0 - lo) mod r at stride r."""
        self.prime_count += flags.count(1)
        starts = []
        for i, cls in enumerate(self.classes):
            start = ((cls.residue - 1) // 5 - lo) % cls.r
            row = flags[start :: cls.r]
            self.found[i] += row.count(1)
            if self.first[i] is None and (j := row.find(1)) >= 0:
                self.first[i] = 5 * (lo + start + cls.r * j) + 1
            starts.append(start)
        return starts

    def report(self, primes=None, totals=None) -> ScanReport:
        scans = tuple(
            ClassScan(*cls, n, p)
            for cls, n, p in zip(self.classes, self.found, self.first)
        )
        return ScanReport(self.x, self.R, self.delta, self.prime_count, scans, primes, totals)


def class_scans(x: int, R: int, delta: int) -> ScanReport:
    """The report without primes and totals: the prime count, and one
    ClassScan per admissible r <= R, ascending, with the count and the
    first of the primes P <= x in the class, with no numpy.

    Every class lies in P = 5k + 1, k = k0 (mod r) with k0 = (residue -
    1)/5.  So arith's progression sieve runs once over 5k + 1 <= x with
    the primes up to sqrt(x), SEGMENT values of k at a time, and flags
    exactly the primes P; _ClassRows reads each class from the flags.
    No flags outlive their segment.  An (x, R) past the working-set
    budget fails before any sieving or listing of moduli.
    """
    rows = _ClassRows(x, R, delta)
    base = list(primes_between(2, isqrt(max(x, 0))))
    for i, flags in enumerate(_sieve_flags(1, 5, (x - 1) // 5 + 1, base, SEGMENT)):
        rows.read(flags, i * SEGMENT)
    return rows.report()


def average_local_params(x: int, R: int, delta: int) -> ScanReport:
    """class_scans' report with the primes P <= x, P = 1 (mod 5), and
    each one's N(P; R, delta), from one sieve.

    _kernels.class_primes lists the primes P = 5k + 1 <= x once.  Then k
    is walked SEGMENT values at a time: the segment's primes are set in a
    bytearray of flags, _ClassRows reads the class rows from it as
    class_scans does, and each class adds 1 to hits at its start and
    stride r, so hits[k - lo] = N(5k + 1; R, delta).  hits takes the
    least unsigned type that holds the class count, which no entry can
    pass.  An (x, R) past the working-set budget fails before anything
    is sieved or any modulus listed.
    """
    import numpy as np

    from ._kernels import class_primes

    rows = _ClassRows(x, R, delta)
    primes = class_primes(1, 5, x)
    totals = np.empty(primes.size, dtype=np.int64)
    hits_type = np.min_scalar_type(len(rows.classes))
    n, i0 = (x - 1) // 5 + 1, 0  # the values k with 5k + 1 <= x, and the first prime unread
    for lo in range(0, n, SEGMENT):
        hi = min(lo + SEGMENT, n)
        i1 = int(np.searchsorted(primes, 5 * hi + 1))
        k = (primes[i0:i1] - 1) // 5 - lo
        flags = bytearray(hi - lo)
        np.frombuffer(flags, dtype=np.uint8)[k] = 1
        hits = np.zeros(hi - lo, dtype=hits_type)
        for start, cls in zip(rows.read(flags, lo), rows.classes):
            hits[start :: cls.r] += 1
        totals[i0:i1] = hits[k]
        i0 = i1
    return rows.report(primes, totals)


def fit_growth_constant(
    reports: dict[int, ScanReport]
) -> tuple[float, dict[int, float]]:
    """Least-squares slope of mean N(P; R, delta) against log R.

    The slope is a measured constant with residuals, never an asserted
    value; callers report it for inspection.
    """
    from statistics import linear_regression

    means = {R: float(m) for R, rep in sorted(reports.items()) if (m := rep.average) is not None}
    if len(means) < 2:
        raise ValueError("need at least two R values with a defined mean")
    xs = [log(R) for R in means]
    slope, intercept = linear_regression(xs, list(means.values()))
    residuals = {R: y - (intercept + slope * x) for (R, y), x in zip(means.items(), xs)}
    return slope, residuals

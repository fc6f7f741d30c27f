"""Exact integer primitives: primality, prime windows, modular
arithmetic, CRT, factorization, divisor enumeration and the squarefree
split.

is_prime is Miller-Rabin with as many fixed witnesses as are proven
enough for n; factorize strips the primes below 1000 and splits the
rest with Brent's rho; primes_between sieves a window by the same
primes below 1000 and hands only the survivors of at least 1e6 to
is_prime.  factorize_progression factors every a + m*j: below 1024
values it calls factorize on each, otherwise it sieves out every prime
below L = 2**16, takes a cofactor below L**2 as prime and hands a
larger one to factorize.  Each sieve, _kernels.class_primes too, takes
where a prime first divides a + m*j from progression_strides.  All are
exact up to ~3.3e24 (the last proven witness bound) and raise
ValueError for an undecided input past it.  divisors_in_class meets in
the middle when the modulus is at least 6 and coprime to n.

Everything works on plain Python integers (arbitrary precision) plus
``fractions.Fraction`` upstream; no floating point anywhere.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress
from math import gcd, prod

from .errors import InconsistentCongruence, NotInvertible

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): Miller-Rabin with the first k primes as witnesses is
# deterministic for n < psi_k, the least strong pseudoprime to all of them.
# psi_1..psi_4: Pomerance, Selfridge & Wagstaff (Math. Comp. 35, 1980);
# psi_5..psi_8: Jaeschke (Math. Comp. 61, 1993); psi_9..psi_11: Jiang &
# Deng (Math. Comp. 83, 2014); psi_12, psi_13: Sorenson & Webster (Math.
# Comp. 86, 2017).  psi_8 = psi_7 and psi_11 = psi_10 = psi_9, so those
# counts have no row of their own.
_MR_WITNESS_COUNTS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
MR_DETERMINISTIC_BOUND = _MR_WITNESS_COUNTS[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division by the primes up to 41, then Miller-Rabin with the
    first k primes as witnesses, k the least count proven for n (see
    _MR_WITNESS_COUNTS): two witnesses below 1.37e6, all thirteen up to
    ~3.3e24.  Inputs past that bound raise ValueError instead of
    degrading to a probabilistic answer.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    for bound, k in _MR_WITNESS_COUNTS:
        if n < bound:
            break
    else:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mod_inverse(a: int, m: int) -> int:
    """x in [1, m-1] with a*x = 1 (mod m); NotInvertible if gcd(a, m) != 1."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(
            f"{a} has no inverse modulo {m} (gcd = {gcd(a, m)})"
        ) from None


def crt_combine(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Intersect the classes r1 (mod m1) and r2 (mod m2).

    Returns (residue, lcm(m1, m2)); raises InconsistentCongruence when
    the classes are disjoint.  Moduli need not be coprime.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError("moduli must be >= 1")
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        raise InconsistentCongruence(
            f"{r1} (mod {m1}) and {r2} (mod {m2}) are disjoint"
        )
    lcm = m1 // g * m2
    m2g = m2 // g
    if m2g == 1:
        return r1 % lcm, lcm
    t = (r2 - r1) // g % m2g * mod_inverse(m1 // g, m2g) % m2g
    return (r1 + m1 * t) % lcm, lcm


def _divisors_upto(factors, upto: int) -> list[int]:
    """The divisors <= upto of the product of the (prime, exponent) pairs,
    unordered; partial products above upto are dropped as they appear."""
    ds = [1] if upto >= 1 else []
    for p, e in factors:
        powers = [p**k for k in range(e + 1)]
        ds = [d * q for d in ds for q in powers if d * q <= upto]
    return ds


# Below this modulus at most four residue classes are coprime to it, so
# the filter keeps at least a quarter of what it builds and meeting in
# the middle saves little.  ED2 lists mod 5 once per first-hit step of a
# scan, mostly for N with 4 to 16 divisors, where it cost more than it
# saved.
_MEET_MIN_MODULUS = 6


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as strictly increasing (prime, exponent) pairs."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def divisors(self) -> list[int]:
        """All positive divisors of n, ascending."""
        return self.divisors_in_class(0, 1, self.n)

    def divisors_in_class(self, residue: int, modulus: int, upto: int) -> list[int]:
        """Divisors d <= upto of n with d = residue (mod modulus), ascending.

        When modulus >= _MEET_MIN_MODULUS, gcd(n, modulus) = 1 and n has
        two primes or more, the prime powers are split into two halves
        of about equal divisor count that meet in the middle
        (Horowitz & Sahni, J. ACM 21, 1974): the left half's divisors are
        bucketed by residue, and each right divisor d reads only the
        bucket of residue * d**-1 (mod modulus).  Otherwise every divisor
        <= upto is built and filtered.  Either way partial products above
        upto are dropped while they are built.
        """
        residue %= modulus
        if modulus < _MEET_MIN_MODULUS or len(self.factors) < 2 or gcd(self.n, modulus) != 1:
            return sorted(d for d in _divisors_upto(self.factors, upto) if d % modulus == residue)
        left, right = [], []
        n_left = n_right = 1  # divisor counts of the halves so far
        for p, e in self.factors:
            if n_left <= n_right:
                left.append((p, e))
                n_left *= e + 1
            else:
                right.append((p, e))
                n_right *= e + 1
        buckets: dict[int, list[int]] = {}
        for d in sorted(_divisors_upto(left, upto)):
            buckets.setdefault(d % modulus, []).append(d)
        # (d, residue * d**-1 mod modulus) for the right divisors d <= upto
        keyed = [(1, residue)]
        for p, e in right:
            inverse = pow(p, -1, modulus)
            grown = []
            for d, key in keyed:
                for _ in range(e + 1):
                    if d > upto:
                        break
                    grown.append((d, key))
                    d *= p
                    key = key * inverse % modulus
            keyed = grown
        out = []
        for d, key in keyed:
            for x in buckets.get(key, ()):  # ascending
                if x * d > upto:
                    break
                out.append(x * d)
        return sorted(out)

    def squared(self) -> "Factorization":
        """Factorization of n**2 without refactoring."""
        return Factorization(
            self.n * self.n, tuple((p, 2 * e) for p, e in self.factors)
        )


# factorize divides out every prime below _TRIAL_LIMIT before any
# primality question, so a cofactor below _TRIAL_LIMIT**2 is prime.  One
# gcd with their product tells which of them divide n.
_TRIAL_LIMIT = 1000
_TRIAL_PRIMES = tuple(p for p in range(2, _TRIAL_LIMIT) if is_prime(p))
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_SEGMENT = 1 << 16  # integers per primes_between segment
_RHO_BATCH = 64  # differences x - y multiplied mod n between gcds

# factorize_progression strips every prime below _SIEVE_LIMIT, so a
# cofactor below _SIEVE_SQUARE is prime.  Its base primes are built on
# the first sieve, never at import.
_SIEVE_LIMIT = 1 << 16
_SIEVE_SQUARE = _SIEVE_LIMIT * _SIEVE_LIMIT
_SIEVE_SEGMENT = 512  # values per factorize_progression segment
_SIEVE_MIN_LENGTH = 1024  # shorter progressions are factored value by value
_INVERSE_BATCH = 16  # base primes whose product shares one modular inverse
_sieve_primes: array | None = None


def _brent_factor(n: int) -> int:
    """A proper factor of n, which must be composite and odd (Brent 1980).

    Pollard's rho on x -> x*x + c with Brent's cycle search and one gcd
    per batch of differences.  c runs 1, 2, ... and the start is fixed,
    so the factor found is the same on every run.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1, factors in increasing order.

    Strips the primes below _TRIAL_LIMIT, then splits what is left with
    Brent's rho until every part is prime.  is_prime is asked only about
    parts of at least _TRIAL_LIMIT**2; smaller ones have no factor left
    to find.  A part past the deterministic primality range (~3.3e24)
    raises ValueError.  The engines factor a whole parameter range with
    factorize_progression, which calls this for short ranges and for
    the cofactors its sieve leaves at or above 2**32, and list the
    divisors they need in one residue class with
    Factorization.divisors_in_class; the oracle calls this once per A.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    counts: dict[int, int] = {}
    g = gcd(m, _TRIAL_PRODUCT)
    for p in _TRIAL_PRIMES:
        if g == 1:
            break
        if g % p == 0:
            g //= p
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    parts = [m] if m > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL_SQUARE or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _brent_factor(m)
            parts += (d, m // d)
    return Factorization(n, tuple(sorted(counts.items())))


def primes_between(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p <= hi, ascending, as a generator.

    The base primes are those below _TRIAL_LIMIT with p*p <= hi.  The
    ones in [lo, hi] come first; then _sieve_flags strikes every
    multiple of a base prime from [lo, hi], one segment of _SEGMENT
    integers at a time.  A survivor exceeds every base prime, so one
    below _TRIAL_LIMIT**2 is prime and a larger one is asked of
    is_prime.  Memory stays at one segment whatever the range, and the
    generator yields each segment's primes before it sieves the next.
    """
    lo = max(lo, 2)
    base = [p for p in _TRIAL_PRIMES if p * p <= hi]
    yield from (p for p in base if p >= lo)
    for flags in _sieve_flags(lo, 1, hi - lo + 1, base, _SEGMENT):
        for n in compress(range(lo, lo + len(flags)), flags):
            if n < _TRIAL_SQUARE or is_prime(n):
                yield n
        lo += len(flags)


def factorize_progression(a: int, m: int, n: int) -> Iterable[Factorization]:
    """factorize(a + m*j) for j in range(n), in order; a and m must be
    >= 1 unless the range is empty.

    A progression shorter than _SIEVE_MIN_LENGTH is factored value by
    value, without the sieve's base primes.  A longer one is sieved,
    the quadratic sieve's idea in degree one (Pomerance, EUROCRYPT
    '84), one segment at a time as it is consumed: a prime p that does
    not divide m divides a + m*j exactly when j = -a * m**-1 (mod p),
    and one that divides m divides every value or none.  So every prime
    below _SIEVE_LIMIT (L = 2**16) is struck from a segment of
    _SIEVE_SEGMENT values at once, from the first index that
    progression_strides gives, by the rule of _sieve_flags.  The primes
    are struck in ascending order, so each value's factors come out
    sorted.  A cofactor below L**2 is then prime without a primality
    test, and a larger one goes to factorize.  A value past
    MR_DETERMINISTIC_BOUND goes whole to factorize, which decides or
    refuses it as it would alone.
    """
    if n <= 0:
        return []
    if a < 1 or m < 1:
        raise ValueError(f"factorize_progression needs a, m >= 1, got a = {a}, m = {m}")
    if n < _SIEVE_MIN_LENGTH:
        return map(factorize, range(a, a + m * n, m))
    return _sieve_progression(a, m, n)


def _sieve_progression(a: int, m: int, n: int) -> Iterator[Factorization]:
    global _sieve_primes
    if _sieve_primes is None:
        _sieve_primes = array("I", primes_between(2, _SIEVE_LIMIT - 1))
    # A prime whose first index is at or past n strikes nothing: drop it
    # once, before the first segment.
    primes, strides, first = array("I"), array("I"), array("I")
    for p, stride, j in zip(*progression_strides(a, m, _sieve_primes)):
        if j < n:
            primes.append(p)
            strides.append(stride)
            first.append(j)
    for lo in range(0, n, _SIEVE_SEGMENT):
        values = range(a + m * lo, a + m * min(n, lo + _SIEVE_SEGMENT), m)
        rests = list(values)
        found: list[list[tuple[int, int]]] = [[] for _ in rests]
        size = len(rests)
        # ascending primes, so each value's factors come out in order
        for p, stride, j in zip(primes, strides, first):
            i = (j - lo) % stride
            while i < size:  # p divides rests[i]: record its exponent
                q, e = rests[i], 0
                while q % p == 0:
                    q //= p
                    e += 1
                rests[i] = q
                found[i].append((p, e))
                i += stride
        for value, rest, factors in zip(values, rests, found):
            if value >= MR_DETERMINISTIC_BOUND:
                yield factorize(value)
                continue
            if rest >= _SIEVE_SQUARE:
                factors += factorize(rest).factors
            elif rest > 1:
                factors.append((rest, 1))
            yield Factorization(value, tuple(factors))


def progression_strides(a: int, m: int, primes: Sequence[int]) -> tuple[array, array, array]:
    """The primes that divide some a + m*j (j >= 0), in the order given,
    with the stride and the first j at which each does: stride p from
    j = -a * m**-1 (mod p) when p does not divide m, stride 1 from j = 0
    when p divides a and m.  A prime that divides m but not a divides no
    value and is dropped.  One inverse modulo the product of
    _INVERSE_BATCH primes serves them all (CRT)."""
    kept, strides, first = array("I"), array("I"), array("Q")
    for i in range(0, len(primes), _INVERSE_BATCH):
        batch = primes[i : i + _INVERSE_BATCH]
        root = -a * pow(m, -1, prod(p for p in batch if m % p))
        for p in batch:
            if m % p or a % p == 0:
                kept.append(p)
                strides.append(p if m % p else 1)
                first.append(root % p if m % p else 0)
    return kept, strides, first


def _sieve_flags(
    a: int, m: int, n: int, primes: Sequence[int], segment: int
) -> Iterator[bytearray]:
    """Segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977) over
    a + m*j, j < n: per segment, a bytearray that is 0 where a prime in
    primes divides the value, the prime itself included."""
    strikes = list(zip(*progression_strides(a, m, primes)[1:]))
    zeros = memoryview(bytes(min(segment, max(n, 0))))
    for lo in range(0, n, segment):
        size = min(segment, n - lo)
        flags = bytearray(b"\x01") * size
        for stride, j in strikes:
            offset = (j - lo) % stride
            flags[offset::stride] = zeros[: len(range(offset, size, stride))]
        yield flags


def squarefree_split(delta: int) -> tuple[int, int]:
    """Unique split delta = alpha * dprime**2 with alpha squarefree."""
    alpha, dprime = 1, 1
    for p, e in factorize(delta).factors:
        if e % 2:
            alpha *= p
        dprime *= p ** (e // 2)
    return alpha, dprime


def euler_phi(n: int) -> int:
    """Euler totient via the factorization of n."""
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out

"""Exact integer primitives: primality, prime windows, modular
arithmetic, CRT, factorization, divisor enumeration and the squarefree
split.

is_prime is Miller-Rabin with as many fixed witnesses as are proven
enough for n; factorize strips the primes below 1000 and splits the
rest with Brent's rho; primes_between sieves a window by the same
primes below 1000, one bytearray segment at a time, and hands only the
survivors of at least 1e6 to is_prime.  All three are exact up to
~3.3e24 (the last proven witness bound) and raise ValueError for an
undecided input past it.

Everything works on plain Python integers (arbitrary precision) plus
``fractions.Fraction`` upstream; no floating point anywhere.
"""

from __future__ import annotations

from collections.abc import Iterator
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

        Partial products above upto are dropped while the list is built,
        so the work is bounded by the number of divisors <= upto.
        """
        ds = [1] if upto >= 1 else []
        for p, e in self.factors:
            powers = [p**k for k in range(e + 1)]
            ds = [d * q for d in ds for q in powers if d * q <= upto]
        residue %= modulus
        return sorted(d for d in ds if d % modulus == residue)

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
    raises ValueError.  Both engines factor once and list the divisors
    they need in one residue class with Factorization.divisors_in_class.
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

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977):
    each segment of _SEGMENT integers is a bytearray in which the
    multiples of the primes below _TRIAL_LIMIT, from their squares on,
    are struck.  A survivor below _TRIAL_LIMIT**2 is prime; a larger
    one is asked of is_prime.  Memory stays at one segment whatever the
    range, and the generator yields each segment's primes before it
    sieves the next.
    """
    lo = max(lo, 2)
    while lo <= hi:
        top = min(lo + _SEGMENT, hi + 1)  # this segment is [lo, top)
        size = top - lo
        seg = bytearray(b"\x01") * size
        for p in _TRIAL_PRIMES:
            if p * p >= top:
                break
            offset = max(p * p, -(-lo // p) * p) - lo
            seg[offset::p] = bytes(len(range(offset, size, p)))
        for n in compress(range(lo, top), seg):
            if n < _TRIAL_SQUARE or is_prime(n):
                yield n
        lo = top


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

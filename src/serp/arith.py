"""Exact integer primitives: primality, prime windows, modular
arithmetic, CRT, factorization, divisor enumeration and the squarefree
split.

is_prime is Miller-Rabin with as many fixed witnesses as are proven
enough for n; factorize strips the primes below 1000 and splits the
rest with Brent's rho.  _base_primes alone sizes a sieve: the primes up
to the square root of its last value, below L = 2**16, and their
square, below which a value none of them divides is 1 or prime.  Past
it primes_between asks is_prime, and factorize_progression (from 1024
values on) asks factorize.  Each sieve of a + m*j, j < n, takes from
progression_strides only the primes that divide one of its n values,
each with where it first does; _sieve_flags, the one sieve
of Eratosthenes, flags exactly the primes once its base primes reach
the square root of the last value.  _radical takes rad(d) from one gcd
with the product of the primes below 1000, as factorize begins.  All
are exact up to ~3.3e24 (the last proven witness bound) and raise
ValueError past it for an undecided input.
divisors_in_class lists one residue class of divisors by meeting in the
middle.  _class_keys computes each right divisor's key once, from
residues alone, and finds from them first whether the class is empty.

Everything works on plain Python integers (arbitrary precision) plus
``fractions.Fraction`` upstream; no floating point anywhere.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress
from math import gcd, isqrt, prod

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


def _class_keys(left, right, residue: int, modulus: int) -> list[int] | None:
    """The right half's keys residue * d**-1 (mod modulus), one per right
    divisor d in the order _divisors_upto builds them, or None when no
    divisor of the product of both halves' prime powers is = residue
    (mod modulus): when no left divisor's residue is a key.  The right
    half's primes are prime to the modulus.  Residues only, whatever
    the divisors' size."""
    residues = [1 % modulus]
    for p, e in left:
        grown = []
        for r in residues:
            for _ in range(e + 1):
                grown.append(r)
                r = r * p % modulus
        residues = grown
    keys = [residue]
    for p, e in right:
        inverse = pow(p, -1, modulus)
        grown = []
        for key in keys:
            for _ in range(e + 1):
                grown.append(key)
                key = key * inverse % modulus
        keys = grown
    return None if set(residues).isdisjoint(keys) else keys


class Factorization(namedtuple("Factorization", "n factors")):
    """Prime factorization of n: factors holds strictly increasing
    (prime, exponent) pairs."""

    __slots__ = ()

    def divisors(self) -> list[int]:
        """All positive divisors of n, ascending."""
        return self.divisors_in_class(0, 1, self.n)

    def divisors_in_class(self, residue: int, modulus: int, upto: int) -> list[int]:
        """Divisors d <= upto of n with d = residue (mod modulus), ascending.

        The prime powers are split into two halves of about equal
        divisor count that meet in the middle (Horowitz & Sahni, J. ACM
        21, 1974): the left half's divisors are bucketed by residue, and
        each right divisor d reads only the bucket of residue * d**-1
        (mod modulus).  A prime that divides the modulus goes left,
        where no inverse is needed.  Partial products above upto are
        dropped while they are built.  _class_keys computes every right
        divisor's key once, and finds from the halves' residues alone
        that a class is empty, which is then listed no further.
        modulus must be >= 1.
        """
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        residue %= modulus
        left, right = [], []
        n_left = n_right = 1  # divisor counts of the halves so far
        for p, e in self.factors:
            if modulus % p == 0 or n_left <= n_right:
                left.append((p, e))
                n_left *= e + 1
            else:
                right.append((p, e))
                n_right *= e + 1
        keys = _class_keys(left, right, residue, modulus)
        if keys is None:
            return []
        buckets: dict[int, list[int]] = {}
        for d in sorted(_divisors_upto(left, upto)):
            buckets.setdefault(d % modulus, []).append(d)
        out = []
        for d, key in zip(_divisors_upto(right, self.n), keys):
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
_TRIAL_SQUARE = _TRIAL_LIMIT * _TRIAL_LIMIT
_SEGMENT = 1 << 16  # integers per primes_between segment
_RHO_BATCH = 64  # differences x - y multiplied mod n between gcds

# Every sieve's base primes stop below _SIEVE_LIMIT (see _base_primes).
_SIEVE_LIMIT = 1 << 16
_SIEVE_SEGMENT = 512  # values per factorize_progression segment
_SIEVE_MIN_LENGTH = 1024  # shorter progressions are factored value by value


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
    raises ValueError.  ED1 factors its parameter range with
    factorize_progression, which calls this for short ranges and for
    the cofactors its sieve leaves at or above its base primes' square;
    ED2 for each N whose divisor class is too dense to divide, the
    oracle once per A.  Each lists divisors in one residue class with
    Factorization.divisors_in_class.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    counts: dict[int, int] = {}
    # g is the product of the trial primes that divide n and are not yet
    # stripped; once p*p > g, it is 1 or one prime.
    g = gcd(m, _TRIAL_PRODUCT)
    trial = []
    for p in _TRIAL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            trial.append(p)
    if g > 1:
        trial.append(g)
    for p in trial:
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

    _sieve_flags sieves [lo, hi] by _base_primes(hi), one segment of
    _SEGMENT integers at a time, so is_prime is asked only about a
    survivor at or above their square (2**32 at most).  Memory stays at
    one segment whatever the range, and the generator yields each
    segment's primes before it sieves the next.
    """
    lo = max(lo, 2)
    base, square = _base_primes(hi)
    for flags in _sieve_flags(lo, 1, hi - lo + 1, base, _SEGMENT):
        for n in compress(range(lo, lo + len(flags)), flags):
            if n < square or is_prime(n):
                yield n
        lo += len(flags)


def _base_primes(last: int) -> tuple[Sequence[int], int]:
    """Every prime <= k = min(isqrt(last), _SIEVE_LIMIT - 1), ascending,
    and (k + 1)**2, below which a value none of them divides is 1 or
    prime.  Below _TRIAL_LIMIT a slice of _TRIAL_PRIMES, else sieved
    afresh over [2, k] by _base_primes(k)'s, a smaller request."""
    k = min(isqrt(max(last, 0)), _SIEVE_LIMIT - 1)
    if k < _TRIAL_LIMIT:
        return _TRIAL_PRIMES[: bisect_right(_TRIAL_PRIMES, k)], (k + 1) ** 2
    flags = next(_sieve_flags(2, 1, k - 1, _base_primes(k)[0], k))
    return array("I", compress(range(2, k + 1), flags)), (k + 1) ** 2


def factorize_progression(a: int, m: int, n: int) -> Iterable[Factorization]:
    """factorize(a + m*j) for j in range(n), in order; a and m must be
    >= 1 unless the range is empty.

    A progression shorter than _SIEVE_MIN_LENGTH is factored value by
    value, without the sieve's base primes.  A longer one is sieved,
    the quadratic sieve's idea in degree one (Pomerance, EUROCRYPT
    '84), one segment at a time as it is consumed: a prime p that does
    not divide m divides a + m*j exactly when j = -a * m**-1 (mod p),
    and one that divides m divides every value or none.  So each of
    _base_primes(last value) is struck from a segment of _SIEVE_SEGMENT
    values at once, from the first index that progression_strides
    gives, the prime itself included.  The primes are struck in
    ascending order, so each value's factors come out sorted.  A
    cofactor below their square is then prime without a primality
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
    base, square = _base_primes(a + m * (n - 1))
    primes, strides, first = progression_strides(a, m, base, n)
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
            if rest >= square:
                factors += factorize(rest).factors
            elif rest > 1:
                factors.append((rest, 1))
            yield Factorization(value, tuple(factors))


def _radical(d: int) -> int:
    """rad(d), the product of the primes dividing d >= 1.

    g = gcd(d, _TRIAL_PRODUCT) is the product of those below
    _TRIAL_LIMIT; repeated gcds with g strip them from d // g, and a
    rest below _TRIAL_SQUARE is then 1 or prime.  A larger rest goes to
    factorize, so this refuses exactly the values factorize(d) refuses.
    """
    g = gcd(d, _TRIAL_PRODUCT)
    rest = d // g
    while (h := gcd(rest, g)) > 1:
        rest //= h
    if rest < _TRIAL_SQUARE:
        return g * rest
    return g * prod(p for p, _ in factorize(rest).factors)


def progression_strides(
    a: int, m: int, primes: Sequence[int], n: int
) -> tuple[array, array, array]:
    """The primes that divide some a + m*j with 0 <= j < n, in the order
    given, with the stride and the first j at which each does: stride p
    from j = -a * m**-1 (mod p) when p does not divide m, stride 1 from
    j = 0 when p divides a and m.  A prime that divides m but not a
    divides no value, and one whose first j is n or more divides none of
    the n: both are dropped."""
    kept, strides, first = array("I"), array("I"), array("Q")
    for p in primes:
        if m % p:
            stride, j = p, -a * pow(m, -1, p) % p
        elif a % p:
            continue
        else:
            stride, j = 1, 0
        if j < n:
            kept.append(p)
            strides.append(stride)
            first.append(j)
    return kept, strides, first


def _sieve_flags(
    a: int, m: int, n: int, primes: Sequence[int], segment: int
) -> Iterator[bytearray]:
    """Segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977) over
    a + m*j, j < n, a and m >= 1: per segment, a bytearray that is 0
    where the value is 1 or a prime in primes (ascending) divides it,
    the prime itself excepted.  So the flags are exactly the primes when primes
    holds every prime up to the square root of the last value."""
    kept, strides, starts = progression_strides(a, m, primes, n)
    # a base prime strikes from its next value; only one >= a can be a value
    for i in range(bisect_left(kept, a), len(kept)):
        if a + m * starts[i] == kept[i]:
            starts[i] += strides[i]
    zeros = memoryview(bytes(min(segment, max(n, 0))))
    for lo in range(0, n, segment):
        size = min(segment, n - lo)
        flags = bytearray(b"\x01") * size
        if lo == 0 and a == 1:
            flags[0] = 0
        for stride, j in zip(strides, starts):
            # not (j - lo) % stride alone: a shifted start can lie a stride past lo
            offset = j - lo if j >= lo else (j - lo) % stride
            flags[offset::stride] = zeros[: len(range(offset, size, stride))]
        yield flags


# 41**2 > _TRIAL_LIMIT, so the primes up to 41 sieve out the trial primes.
_TRIAL_PRIMES = tuple(compress(
    range(2, _TRIAL_LIMIT),
    next(_sieve_flags(2, 1, _TRIAL_LIMIT - 2, _SMALL_PRIMES, _TRIAL_LIMIT)),
))
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)


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

"""Exact integer primitives: primality, modular arithmetic, CRT, Jacobi
symbols, trial-division factorization, divisor enumeration and the
squarefree split.

Everything works on plain Python integers (arbitrary precision) plus
``fractions.Fraction`` upstream; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import EvenModulus, InconsistentCongruence, NotInvertible

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the first 12 primes as witnesses is deterministic
# below this bound (Sorenson & Webster).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division by the small primes, then Miller-Rabin with a fixed
    witness set that is proven deterministic up to ~3.3e24.  Inputs past
    that bound raise ValueError instead of degrading to a probabilistic
    answer.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
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


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1; Legendre symbol when n is prime."""
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


_WHEEL_GAPS = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps between units mod 30 from 7


def factorize(n: int) -> Factorization:
    """Trial-division factorization with an is_prime short-circuit.

    Both engines factor once and list the divisors they need in one
    residue class with Factorization.divisors_in_class.  Meant for
    desk-scale n (up to ~1e12); larger inputs take as long as the sqrt
    scan does, unless what is left is prime.  A cofactor past the
    deterministic primality range raises ValueError.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors: list[tuple[int, int]] = []

    def strip(p: int) -> None:
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))

    for p in (2, 3, 5):
        strip(p)
    # A prime cofactor ends the scan, whether it is left after the wheel
    # primes 2, 3, 5 or after a later strip.
    p, i = 7, 0
    done = is_prime(m)
    while not done and p * p <= m:
        if m % p == 0:
            strip(p)
            done = is_prime(m)
        p += _WHEEL_GAPS[i]
        i = (i + 1) & 7
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, fully materialized."""
    return factorize(n).divisors()


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

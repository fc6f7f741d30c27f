"""Prime-sieve kernels in numpy.

prime_mask is a read-only full boolean mask, one arith._sieve_flags
segment behind a False for 0, refused from its base primes' square on;
class_primes takes its base primes up to sqrt(limit) from it and sieves
the residue class with the same sieve, one segment of SEGMENT members
at a time, so memory stays at one segment.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import _base_primes, _sieve_flags

SEGMENT = 1 << 18  # class members per class_primes segment


def prime_mask(limit: int) -> np.ndarray:
    """Read-only primality mask over [0, limit], 1 <= limit < L**2 = 2**32."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    base, square = _base_primes(limit)
    if limit >= square:
        raise ValueError(f"a mask is proven only below {square}, got limit = {limit}")
    flags = next(_sieve_flags(1, 1, limit, base, limit))
    flags[0:0] = b"\0"  # 0 is not prime
    mask = np.frombuffer(flags, dtype=np.bool_)
    mask.setflags(write=False)
    return mask


def class_primes(residue: int, modulus: int, limit: int) -> np.ndarray:
    """Primes p <= limit with p = residue (mod modulus), ascending int64;
    modulus >= 1 (callers pass 5 and 5r >= 20)."""
    first = 2 + (residue - 2) % modulus  # the least member >= 2
    if limit < first:
        return np.empty(0, dtype=np.int64)
    base = np.flatnonzero(prime_mask(isqrt(limit))).tolist()
    segments = _sieve_flags(first, modulus, (limit - first) // modulus + 1, base, SEGMENT)
    return np.concatenate([
        first + modulus * (i * SEGMENT + np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)))
        for i, flags in enumerate(segments)
    ])

"""Prime-sieve kernels in numpy.

prime_mask is a read-only full boolean mask; class_primes takes its base
primes up to sqrt(limit) from it and sieves the members of the residue
class with arith's progression sieve, one segment of SEGMENT members at
a time, so memory stays at one segment whatever the scan limit.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import _sieve_flags

SEGMENT = 1 << 18  # class members per class_primes segment


def prime_mask(limit: int) -> np.ndarray:
    """Read-only primality mask over [0, limit]."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    mask = np.ones(limit + 1, dtype=np.bool_)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    mask.setflags(write=False)
    return mask


def class_primes(residue: int, modulus: int, limit: int) -> np.ndarray:
    """Primes p <= limit with p = residue (mod modulus), ascending int64."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    residue %= modulus
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    base = np.flatnonzero(prime_mask(isqrt(limit))).tolist()
    first = 2 + (residue - 2) % modulus  # the least member >= 2
    # the base primes in the class, then the members no base prime divides
    chunks = [np.array([p for p in base if p % modulus == residue], dtype=np.int64)]
    lo = 0
    for flags in _sieve_flags(first, modulus, (limit - first) // modulus + 1, base, SEGMENT):
        chunks.append(first + modulus * (lo + np.flatnonzero(np.frombuffer(flags, dtype=np.uint8))))
        lo += len(flags)
    return np.concatenate(chunks)

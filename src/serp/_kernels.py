"""Prime-sieve kernels in numpy.

prime_mask is a read-only full boolean mask; class_primes takes its base
primes up to sqrt(limit) from it and then sieves [2, limit] one segment
at a time, walking the residue class with stride = modulus, so memory
stays at one segment's class members regardless of the scan limit.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

SEGMENT = 1 << 20


def _class_primes_segmented(
    residue: int, modulus: int, limit: int, base: np.ndarray, segment: int
) -> np.ndarray:
    # Only the class members are sieved.  The members of [lo, hi) that a
    # base prime p divides are every p-th one (p coprime to modulus) or
    # all or none of them (p | modulus); each p strikes from p*p on.
    strikes = [(p, p * p, pow(modulus, -1, p) if modulus % p else None) for p in map(int, base)]
    chunks = []
    lo = 2
    while lo <= limit:
        hi = min(lo + segment, limit + 1)
        first = lo + (residue - lo) % modulus
        members = np.arange(first, hi, modulus, dtype=np.int64)
        keep = np.ones(members.size, dtype=np.bool_)
        for p, square, inverse in strikes:
            k = max(0, -((first - square) // modulus))  # first member >= p*p
            m = first + k * modulus
            if inverse is not None:
                keep[k + -m * inverse % p :: p] = False
            elif m % p == 0:
                keep[k:] = False
        chunks.append(members[keep])
        lo = hi
    return np.concatenate(chunks)


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
    base = np.flatnonzero(prime_mask(isqrt(limit))).astype(np.int64)
    return _class_primes_segmented(residue, modulus, limit, base, SEGMENT)

"""Prime-sieve kernels in numpy.

Full boolean masks are used up to _FULL_MASK_LIMIT; above that,
class_primes switches to a segmented sieve that walks the residue class
with stride = modulus, so memory stays at one segment regardless of the
scan limit.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

SEGMENT = 1 << 20
_FULL_MASK_LIMIT = 10**6

_mask_cache: dict[int, np.ndarray] = {}


def _class_primes_segmented(
    residue: int, modulus: int, limit: int, base: np.ndarray, segment: int
) -> np.ndarray:
    chunks = []
    lo = 2
    while lo <= limit:
        hi = min(lo + segment, limit + 1)
        seg = np.ones(hi - lo, dtype=np.bool_)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        first = lo + (residue - lo) % modulus
        members = np.arange(first, hi, modulus, dtype=np.int64)
        if members.size:
            chunks.append(members[seg[members - lo]])
        lo = hi
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def prime_mask(limit: int) -> np.ndarray:
    """Cached read-only primality mask over [0, limit]."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    cached = _mask_cache.get(limit)
    if cached is not None:
        return cached
    mask = np.ones(limit + 1, dtype=np.bool_)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    mask.setflags(write=False)
    if len(_mask_cache) > 8:
        _mask_cache.clear()
    _mask_cache[limit] = mask
    return mask


def class_primes(residue: int, modulus: int, limit: int) -> np.ndarray:
    """Primes p <= limit with p = residue (mod modulus), ascending int64.

    Full-mask slicing below _FULL_MASK_LIMIT, segmented sieve above it.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    residue %= modulus
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit <= _FULL_MASK_LIMIT:
        mask = prime_mask(limit)
        first = residue if residue >= 2 else residue + modulus * (
            (2 - residue + modulus - 1) // modulus
        )
        members = np.arange(first, limit + 1, modulus, dtype=np.int64)
        return members[mask[members]]
    base = np.flatnonzero(prime_mask(isqrt(limit))).astype(np.int64)
    return _class_primes_segmented(residue, modulus, limit, base, SEGMENT)

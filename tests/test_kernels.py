from math import isqrt

import numpy as np
import pytest

from serp import _kernels
from serp._kernels import class_primes, prime_mask


def test_numpy_mask_matches_trial_division():
    mask = prime_mask(2000)
    for n in range(2001):
        expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert bool(mask[n]) == expected


def test_mask_is_cached_and_readonly():
    a = prime_mask(10**4)
    b = prime_mask(10**4)
    assert a is b
    with pytest.raises(ValueError):
        a[0] = True


class TestClassPrimes:
    def test_small_class(self):
        assert list(class_primes(11, 20, 100)) == [11, 31, 71]

    def test_residue_zero_and_one_handled(self):
        assert list(class_primes(0, 2, 50)) == [2]
        assert list(class_primes(1, 2, 30)) == [3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_limit_below_first_member(self):
        assert class_primes(91, 95, 50).size == 0

    def test_segmented_paths_match_full_mask(self):
        # small segments, so classes straddle many segment boundaries
        limit = 3 * 10**5
        base = np.flatnonzero(prime_mask(isqrt(limit))).astype(np.int64)
        mask = prime_mask(limit)
        for residue, modulus in [(11, 20), (1, 5), (16, 45), (91, 95)]:
            members = np.arange(residue if residue >= 2 else residue + modulus, limit + 1, modulus)
            expected = members[mask[members]].tolist()
            got = _kernels._class_primes_segmented(
                residue, modulus, limit, base, segment=2**12
            ).tolist()
            assert got == expected

    def test_above_full_mask_threshold(self):
        # the public entry point switches to the segmented sieve here
        limit = _kernels._FULL_MASK_LIMIT + 10**5
        got = class_primes(11, 20, limit)
        mask = prime_mask(limit)
        members = np.arange(11, limit + 1, 20)
        assert np.array_equal(got, members[mask[members]])


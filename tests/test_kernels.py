from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serp import _kernels
from serp._kernels import class_primes, prime_mask


def test_numpy_mask_matches_trial_division():
    mask = prime_mask(2000)
    for n in range(2001):
        expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert bool(mask[n]) == expected


def test_mask_is_readonly():
    a = prime_mask(10**4)
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

    def test_segmented_paths_match_full_mask(self, monkeypatch):
        # small segments, so classes straddle many segment boundaries;
        # one-member segments over a shorter range, to keep the test fast
        for segment, limit in [(1, 3 * 10**4), (2**12, 3 * 10**5)]:
            monkeypatch.setattr(_kernels, "SEGMENT", segment)
            mask = prime_mask(limit)
            for residue, modulus in [(11, 20), (1, 5), (16, 45), (91, 95)]:
                members = np.arange(residue if residue >= 2 else residue + modulus, limit + 1, modulus)
                expected = members[mask[members]].tolist()
                assert class_primes(residue, modulus, limit).tolist() == expected

    def test_public_entry_matches_full_mask(self, monkeypatch):
        # small limits, and one whose classes cross a segment boundary
        # (a segment counts class members, so 2**12 of them at most)
        monkeypatch.setattr(_kernels, "SEGMENT", 2**12)
        for limit in [*range(2, 120), 2**20 + 10**5]:
            mask = prime_mask(limit)
            for residue, modulus in [(0, 1), (0, 2), (1, 2), (1, 5), (11, 20), (91, 95)]:
                members = np.arange(residue, limit + 1, modulus)
                assert np.array_equal(class_primes(residue, modulus, limit), members[mask[members]])


@settings(max_examples=100, deadline=None)
@given(
    modulus=st.integers(1, 300),
    residue=st.integers(-300, 300),
    limit=st.integers(2, 3 * 10**4),
    segment=st.sampled_from([1, 97, 1000, 2**12, _kernels.SEGMENT]),
)
def test_class_sieve_matches_full_mask(modulus, residue, limit, segment):
    # residues sharing a prime with the modulus strike all members or none
    members = np.arange(residue % modulus, limit + 1, modulus)
    expected = members[prime_mask(limit)[members]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "SEGMENT", segment)
        got = class_primes(residue, modulus, limit)
    assert np.array_equal(got, expected)

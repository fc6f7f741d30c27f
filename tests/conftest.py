from bisect import bisect_right

import pytest

from serp.arith import primes_between
from serp.oracle import enumerate_all_solutions
from serp.sieve import average_local_params


@pytest.fixture(scope="session")
def oracle():
    """Memoized exhaustive enumerations (the spot primes are expensive)."""
    cache = {}

    def get(P, distinct_only=True):
        key = (P, distinct_only)
        if key not in cache:
            cache[key] = enumerate_all_solutions(P, distinct_only)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def primes_up_to():
    """Prime lists from one shared sieve, optionally filtered mod 5."""
    primes = list(primes_between(2, 10**6))

    def get(n, residue_mod5=None):
        below = primes[: bisect_right(primes, n)]
        if residue_mod5 is not None:
            below = [p for p in below if p % 5 == residue_mod5]
        return below

    return get


@pytest.fixture(scope="session")
def scan_reports_1e6():
    """Density reports at x = 1e6, delta = 1 over the doubling R grid."""
    return {R: average_local_params(10**6, R, 1) for R in (8, 16, 32, 64, 128, 256)}

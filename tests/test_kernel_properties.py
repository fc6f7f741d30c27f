"""Property tests for the shared divisor-in-class kernel.

Both engines list divisors through Factorization.divisors_in_class and
turn an ED2 divisor into a witness only through pair_from_divisor.
Each property compares them with a brute-force reference that shares
no code with them.  ed2_search lists only r = -1 (mod 5*rad(delta)),
by division where that class is sparse below sqrt(N) and from
factorize(N) where it is dense; the properties below hold both
listings to trial division over every r = 4 (mod 5).
"""

from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import serp.ed2 as ed2_mod
from serp.arith import factorize, is_prime
from serp.ed1 import Ed1Witness, _witnesses_for_candidate
from serp.ed2 import (
    _SPARSE_MAX,
    Ed2Witness,
    _witnesses_for_delta,
    ed2_case_a,
    ed2_reconstruct,
    ed2_search,
    pair_from_divisor,
)
from serp.errors import DeltaFilterFailed
from serp.sieve import build_progression_class, reconstruct_from_class, scan_class_primes
from serp.tables import row_from_bc

PROPS = settings(max_examples=60, deadline=None)

PRIMES_1_MOD_5 = [p for p in range(11, 2000, 10) if is_prime(p)]


def trial_division_witnesses(P, delta):
    """The ED2 per-delta scan as it was before the shared kernel: every
    r = 4 (mod 5) up to sqrt(N) tried by division."""
    N = 5 * P * delta + 1
    found = []
    for r in range(4, isqrt(N) + 1, 5):
        if N % r:
            continue
        s = N // r
        b, c = (r + 1) // 5, (s + 1) // 5
        if b == c or (b * c) % delta:
            continue
        found.append(Ed2Witness(P, delta, b, c, r, s, b * c // delta))
    return found


def rad(d):
    """The product of the primes dividing d >= 1, by trial division."""
    out, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            out *= p
            while d % p == 0:
                d //= p
        p += 1
    return out * d if d > 1 else out


def is_dense(P, delta):
    """Whether ed2_search lists delta's class from a factorization of N."""
    return isqrt(5 * P * delta + 1) // (5 * rad(delta)) > _SPARSE_MAX


def brute_ed1_witnesses(P, gamma, c):
    """Every u < c with u | c**2 that meets the one-multiple conditions."""
    csq = c * c
    found = []
    for u in range(1, c):
        if csq % u:
            continue
        v = csq // u
        if (u + c) % gamma or (v + c) % gamma:
            continue
        if (u + c) % P == 0 or (v + c) % P == 0:
            continue
        found.append(Ed1Witness(P, gamma, c, u, v))
    return found


@PROPS
@given(
    n=st.integers(1, 10**7),
    residue=st.integers(-100, 100),
    modulus=st.integers(1, 60),
    upto=st.integers(-5, 4000),
)
def test_divisors_in_class_matches_filter(n, residue, modulus, upto):
    expected = [
        d for d in range(1, upto + 1) if n % d == 0 and (d - residue) % modulus == 0
    ]
    assert factorize(n).divisors_in_class(residue, modulus, upto) == expected


@PROPS
@given(c=st.integers(1, 3000), modulus=st.integers(1, 60), data=st.data())
def test_divisors_in_class_of_a_square(c, modulus, data):
    residue = data.draw(st.integers(0, modulus - 1))
    csq = c * c
    expected = [
        d for d in range(1, c + 1) if csq % d == 0 and d % modulus == residue
    ]
    assert factorize(c).squared().divisors_in_class(residue, modulus, c) == expected


@PROPS
@given(P=st.integers(1, 10**5), delta=st.integers(1, 400))
def test_ed2_witnesses_match_trial_division(P, delta):
    assume(P % 5)
    expected = trial_division_witnesses(P, delta)
    # -1 lists every class from factorize(N), 10**9 every class by division
    for sparse_max in (-1, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ed2_mod, "_SPARSE_MAX", sparse_max)
            assert _witnesses_for_delta(P, delta) == expected


@PROPS
@given(P=st.integers(1, 10**5), delta=st.integers(1, 489))
def test_ed2_witnesses_lie_in_the_class_minus_one_mod_5_rad_delta(P, delta):
    # a prime q | delta divides b exactly when it divides c, so delta | bc
    # needs r = s = -1 (mod q) for each; 12 deltas a draw, since most
    # single (P, delta) have no witness
    assume(P % 5)
    for d in range(delta, delta + 12):
        M = 5 * rad(d)
        assert all((w.r + 1) % M == 0 == (w.s + 1) % M for w in trial_division_witnesses(P, d))


@PROPS
@given(
    P=st.integers(2 * 10**5, 3 * 10**6),
    lo=st.integers(1, 8),
    width=st.integers(0, 40),
)
def test_ed2_search_is_trial_division_over_a_range(P, lo, width):
    # delta = 1 is dense from P = 2e5 on, and a delta with a large
    # radical sparse, so most ranges mix both listings
    assume(P % 5)
    expected = [w for d in range(lo, lo + width + 1) for w in trial_division_witnesses(P, d)]
    assert ed2_search(P, lo + width, lo) == expected


def test_ed2_search_mixes_sparse_and_dense_classes():
    P, hi = 1009901, 60
    assert {is_dense(P, d) for d in range(1, hi + 1)} == {False, True}
    expected = [w for d in range(1, hi + 1) for w in trial_division_witnesses(P, d)]
    assert ed2_search(P, hi) == expected


def test_ed2_search_matches_the_factored_listing_on_dense_classes(monkeypatch):
    # 1,187 of these 1,500 deltas are dense and the rest divided; the
    # search must list what factorize(N) lists at every delta
    P, hi = 200000033, 1500
    assert sum(is_dense(P, d) for d in range(1, hi + 1)) == 1187
    expected = ed2_search(P, hi)
    monkeypatch.setattr(ed2_mod, "_SPARSE_MAX", -1)
    assert [w for d in range(1, hi + 1) for w in _witnesses_for_delta(P, d)] == expected


@PROPS
@given(P=st.sampled_from(PRIMES_1_MOD_5), k=st.integers(0, 30))
def test_ed1_witnesses_match_brute_force(P, k):
    gamma = 5 * k + 4
    c = (gamma * P + 1) // 5
    assert _witnesses_for_candidate(P, gamma, factorize(c)) == brute_ed1_witnesses(P, gamma, c)


@PROPS
@given(P=st.integers(1, 10**5), delta=st.integers(-3, 0) | st.integers(1, 500), data=st.data())
def test_pair_from_divisor_matches_definition(P, delta, data):
    N = 5 * P * delta + 1
    # a divisor of |N| or any integer, so both outcomes are reached
    r = data.draw(st.sampled_from(factorize(abs(N)).divisors()) | st.integers(-50, 10**6))
    w = pair_from_divisor(P, delta, r)
    valid = delta >= 1 and r >= 4 and r % 5 == 4 and N % r == 0
    if valid:
        lo, hi = sorted((r, N // r))
        b, c = (lo + 1) // 5, (hi + 1) // 5
        valid = b != c and (b * c) % delta == 0
    if not valid:
        assert w is None
        return
    assert r in (w.r, w.s) and w.r * w.s == N and w.b < w.c
    sol = ed2_reconstruct(w)
    assert (sol.A, sol.B, sol.C) == (w.A, w.B, w.C)


@PROPS
@given(P=st.integers(1, 10**5), delta=st.integers(1, 500), data=st.data())
def test_case_a_agrees_with_pair_from_divisor(P, delta, data):
    assume(P % 5)
    N = 5 * P * delta + 1
    candidates = st.sampled_from(factorize(N).divisors()) | st.integers(1, 999)
    S = data.draw(st.lists(candidates, max_size=5))
    hits = [w for r in S if (w := pair_from_divisor(P, delta, r)) is not None]
    expected = ed2_reconstruct(hits[0]) if hits else None
    assert ed2_case_a(P, delta, S) == expected


@PROPS
@given(delta=st.integers(1, 40), k=st.integers(0, 40), data=st.data())
def test_class_reconstruction_agrees_with_pair_from_divisor(delta, k, data):
    r = 5 * k + 4
    assume(gcd(r, 5 * delta) == 1)
    members = scan_class_primes(build_progression_class(delta, r), 20000)
    assume(members)
    P = data.draw(st.sampled_from(members))
    w = pair_from_divisor(P, delta, r)
    if w is None:
        with pytest.raises(DeltaFilterFailed):
            reconstruct_from_class(P, delta, r)
    else:
        assert reconstruct_from_class(P, delta, r) == ed2_reconstruct(w)


@PROPS
@given(P=st.integers(2, 10**5), data=st.data())
def test_row_from_bc_agrees_with_pair_from_divisor(P, data):
    # Witnesses over every delta <= 12 at once: about 4 in 5 single
    # (P, delta) draws have none, which trips Hypothesis's filter check.
    ws = [
        w
        for delta in range(1, 13)
        for r in factorize(5 * P * delta + 1).divisors()
        if (w := pair_from_divisor(P, delta, r))
    ]
    assume(ws)
    w = data.draw(st.sampled_from(ws))
    N = 5 * P * w.delta + 1
    for b, c in ((w.b, w.c), (w.c, w.b)):
        row = row_from_bc(P, b, c)
        assert (row["b"], row["c"], row["delta"], row["X"], row["Y"], row["N"]) == (
            w.b, w.c, w.delta, w.r, w.s, N,
        )
        assert (row["A"], row["B"], row["C"]) == (w.A, w.B, w.C)


@PROPS
@given(P=st.integers(2, 10**4), b=st.integers(-20, 3000), c=st.integers(-20, 3000))
def test_row_from_bc_exists_exactly_for_kernel_pairs(P, b, c):
    delta, rem = divmod((5 * b - 1) * (5 * c - 1) - 1, 5 * P)
    kernel = min(b, c) >= 1 and b != c and not rem and delta >= 1 and (b * c) % delta == 0
    row = row_from_bc(P, b, c)
    assert (row is not None) == kernel
    if kernel:
        assert (row["b"], row["c"], row["delta"]) == (min(b, c), max(b, c), delta)

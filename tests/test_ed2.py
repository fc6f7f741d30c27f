import json
import re
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serp.ed2 as ed2_mod
from serp import arith
from serp.arith import MR_DETERMINISTIC_BOUND, primes_between
from serp.ed2 import (
    Ed2Witness,
    NormalizedEd2,
    _TABLE_DELTAS,
    _small_delta_table,
    _SmallDeltas,
    default_delta_max,
    ed2_case_a,
    ed2_normalize,
    ed2_reconstruct,
    ed2_search,
    ed2_witness_row,
)
from serp.errors import KernelViolation, WrongResidue
from serp.lattice import lattice_search_m
from serp.solution import SolutionClass, classify_solution


def ed2_backtest(n: NormalizedEd2, P: int) -> bool:
    """Re-validate an assembled row from its normalized coordinates.

    Checks, in order: the 4 (mod 5) congruences of 5b-1 and 5c-1, the
    divisibility delta | b*c, coprimality of (b', c'), the linear
    relation b' + c' = m*dprime, the product relation A*alpha =
    alpha^2*b'*c', integrality and consistency of A = b*c/delta, the
    strict bounds P < 5A < 3P, and b != c.
    """
    b = n.g * n.bprime
    c = n.g * n.cprime
    delta = n.alpha * n.dprime**2
    if b < 1 or c < 1 or delta < 1:
        return False
    if (5 * b - 1) % 5 != 4 or (5 * c - 1) % 5 != 4:
        return False
    if (b * c) % delta:
        return False
    if gcd(n.bprime, n.cprime) != 1:
        return False
    if n.bprime + n.cprime != n.m * n.dprime:
        return False
    if (n.m + P) % 5:
        return False
    A = (n.m + P) // 5
    if A * n.alpha != n.alpha**2 * n.bprime * n.cprime:
        return False
    if b * c // delta != A:
        return False
    if not P < 5 * A < 3 * P:
        return False
    return b != c


class TestSearch:
    def test_p11_delta1(self):
        assert ed2_search(11, 1) == [Ed2Witness(11, 1, 1, 3, 4, 14, 3)]

    def test_p73_reproduces_published_rows(self):
        ws = ed2_search(73, 64)
        assert [(w.delta, w.b, w.c, w.A) for w in ws] == [
            (16, 12, 20, 15),
            (20, 10, 30, 15),
            (27, 9, 45, 15),
            (64, 8, 120, 15),
        ]

    def test_p3511_delta1(self):
        ws = ed2_search(3511, 1)
        assert [(w.b, w.c) for w in ws] == [
            (1, 878), (3, 251), (4, 185), (9, 80), (17, 42), (23, 31),
        ]
        assert [w.A for w in ws] == [878, 753, 740, 720, 714, 713]

    def test_rejects_multiple_of_five(self):
        with pytest.raises(WrongResidue):
            ed2_search(5, 3)

    def test_repeated_pair_excluded(self):
        # delta = 15 for P = 73 factors as 74 * 74, forcing b = c = 15
        assert all(w.b != w.c for w in ed2_search(73, 15))
        assert not [w for w in ed2_search(73, 15) if w.delta == 15]

    def test_witness_invariants(self):
        for P in (11, 31, 41, 73, 97):
            for w in ed2_search(P, 80):
                assert w.r == 5 * w.b - 1 and w.s == 5 * w.c - 1
                assert w.r % 5 == 4 and w.s % 5 == 4
                assert w.r * w.s == 5 * P * w.delta + 1
                assert 5 * w.b * w.c - w.b - w.c == P * w.delta
                assert (w.b * w.c) % w.delta == 0
                assert w.A == w.b * w.c // w.delta
                assert w.A <= w.b * P <= w.c * P and w.b != w.c

    def test_two_multiples_classification(self):
        for w in ed2_search(31, 10):
            mult = classify_solution(ed2_reconstruct(w))
            assert mult.count == 2 and mult.positions == ("B", "C")

    # A one-delta step takes rad(delta) from one gcd with the primes
    # below 1000 and factorize, and sieves no base primes however large
    # delta is.
    # Each P has a witness at delta = t = b**2: 5b - 1 divides P + 5, so
    # m = (P + 5)/(5b - 1) and A = b*m - 1 give b + c = m*delta.
    @pytest.mark.parametrize("t, P", [(10**6, 1079779), (10**8, 2299949)])
    def test_one_delta_steps_sieve_no_base_primes(self, monkeypatch, t, P):
        width = 200
        whole = ed2_search(P, t + width - 1, t)
        sieved = []
        sieve = arith._sieve_flags
        monkeypatch.setattr(arith, "_sieve_flags", lambda *a: sieved.append(a[:3]) or sieve(*a))
        steps = [w for d in range(t, t + width) for w in ed2_search(P, d, d)]
        assert sieved == []
        assert steps == whole and whole


def least_r_by_division(P: int, caps) -> int:
    """The least r of the least delta <= len(caps) with r = -1
    (mod 5*delta), r <= caps[delta - 1] and r dividing 5*P*delta + 1, or 0."""
    for delta, cap in enumerate(caps, 1):
        M = 5 * delta
        r = next((r for r in range(M - 1, cap + 1, M) if (M * P + 1) % r == 0), 0)
        if r:
            return r
    return 0


class TestDeltaOne:
    """The window table a scan reads delta = 1, 2 and 3 from."""

    # caps below 4, caps that miss divisors, the seed-0 scan window's
    # cap at delta = 1, the 65534 cap near 1e9, and the last integers
    # the primality test decides, each at every delta of the table
    @pytest.mark.parametrize("lo, n, cap", [
        (0, 2000, 3), (0, 2000, 4), (0, 3000, 100), (5, 1, 2013), (611072, 600, 2013),
        (10**9, 200, 65534), (MR_DETERMINISTIC_BOUND - 40, 40, 65534),
    ])
    def test_table_is_the_least_divisor(self, lo, n, cap):
        caps = [cap] * len(_TABLE_DELTAS)
        table = _small_delta_table(lo, n, caps)
        assert table.tolist() == [least_r_by_division(P, caps) for P in range(lo, lo + n)]
        # The cofactor of r is in r's class too, so no least r passes
        # isqrt(5*P*delta + 1) at the one delta whose N it divides.
        for P, r in zip(range(lo, lo + n), table):
            if r:
                (N,) = [N for N in (5 * P * d + 1 for d in _TABLE_DELTAS) if N % r == 0]
                assert r <= isqrt(N), P

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**12), st.integers(0, 300),
           st.lists(st.integers(0, 3000), min_size=1, max_size=len(_TABLE_DELTAS)))
    def test_table_property(self, lo, n, caps):
        assert _small_delta_table(lo, n, caps).tolist() == [
            least_r_by_division(P, caps) for P in range(lo, lo + n)
        ]

    # (window, the (hit, least delta left) pairs its primes show at their
    # default bound): below 3000 the caps reach every isqrt(5*P*delta + 1),
    # so the table decides delta = 1, 2 and 3, but for b = c (P = 3 at
    # delta = 1, P = 13 at 3); past it, near 1e9 and below
    # MR_DETERMINISTIC_BOUND, an empty entry leaves delta = 1 to the search
    @pytest.mark.parametrize("lo, hi, outcomes", [
        (2, 3000, {(True, 1), (True, 2), (True, 3), (False, 4), (False, 1), (False, 2), (False, 3)}),
        (10**9, 10**9 + 6000, {(True, 1), (False, 1)}),
        (MR_DETERMINISTIC_BOUND - 230, MR_DETERMINISTIC_BOUND - 1, {(True, 1)}),
    ])
    def test_first_is_ed2_search_at_delta_one(self, lo, hi, outcomes):
        # first(P, delta_max) is the first step of ed2_search(P, delta_max)
        # that has a witness, least delta first, at every delta_max
        small, seen = _SmallDeltas(hi), {}
        for P in primes_between(lo, hi):
            if P == 5:
                continue
            # searched only as far as start: near MR_DETERMINISTIC_BOUND
            # factorize cannot take every 5*P*delta + 1
            steps = {}
            for delta_max in (None, 1, 2, 3, 4):
                top = min(default_delta_max(P) if delta_max is None else delta_max, 3)
                w, start = small.first(P, delta_max)
                for d in range(1, start + (w is not None)):
                    steps.setdefault(d, ed2_search(P, d, d))
                assert not any(steps[d] for d in range(1, start)), (P, delta_max)
                if w is not None:
                    assert start <= top and w == steps[start][0], (P, delta_max)
                else:
                    assert start <= top + 1, (P, delta_max)
                if delta_max is None:
                    seen[P] = (w is not None, start)
        assert set(seen.values()) == outcomes
        if lo == 2:  # b = c: the search rejects the pairs 4 * 4 and 14 * 14
            assert (seen[3], seen[13]) == ((False, 1), (False, 3))
            assert seen[2] == (False, 2)  # default_delta_max(2) is 1
        if lo == 10**9:  # a hit through an r past the 65534 cap
            assert seen[1000005029] == (False, 1) and ed2_search(1000005029, 1, 1)

    # (window, tables built): a window of at most _SEGMENT integers is
    # one table, however few integers it holds against its classes
    # (13,107 near 1e9 and below MR_DETERMINISTIC_BOUND, 918 for the
    # last segment of the seed-0 scan window, [807731, 811072]).
    @pytest.mark.parametrize("lo, hi, tables", [
        (MR_DETERMINISTIC_BOUND - 230, MR_DETERMINISTIC_BOUND - 1, 1),
        (10**9, 10**9 + 6000, 1),
        (807731, 811072, 1),
    ])
    def test_window_builds_one_table_per_segment(self, monkeypatch, lo, hi, tables):
        built = []
        build = ed2_mod._small_delta_table
        monkeypatch.setattr(ed2_mod, "_small_delta_table", lambda *a: built.append(a) or build(*a))
        small = _SmallDeltas(hi)
        for P in primes_between(lo, hi):
            assert small.least_r(P) == least_r_by_division(P, small.caps), P
        assert len(built) == tables

    # Past isqrt(5*hi + 1) = 0xFFFF the cap stays array('H')'s bound, up
    # to the last integers the primality test decides, and delta = 1,
    # which the table can no longer rule out, is the only delta struck;
    # below that, each delta's cap reaches 0xFFFF in turn.
    def test_cap_is_the_table_entry_bound_past_1e9(self):
        assert _SmallDeltas(MR_DETERMINISTIC_BOUND - 1).caps == [0xFFFF]
        small = _SmallDeltas(10**9 + 200_000)
        assert small.caps == [0xFFFF]
        for P in range(10**9 + 7, 10**9 + 2007, 20):
            assert small.least_r(P) == least_r_by_division(P, [65534]), P
        assert _SmallDeltas(5 * 10**8).caps == [50000, 0xFFFF]
        assert _SmallDeltas(2 * 10**8).caps == [31622, 44721, 54772]

    # No table reaches past the end of the window.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10**12), st.integers(0, 400), st.integers(1, 40))
    def test_least_r_is_the_tables_entry(self, lo, width, step):
        small = _SmallDeltas(lo + width)
        for P in range(lo, lo + width + 1, step):
            assert small.least_r(P) == least_r_by_division(P, small.caps), P
            assert small.lo + len(small.table) <= lo + width + 1


class TestReconstruct:
    # One malformed witness per check of ed2_reconstruct, in its order.
    @pytest.mark.parametrize("w, message", [
        pytest.param(Ed2Witness(11, 1, 3, 1, 14, 4, 3), "need 1 <= b < c", id="b_below_c"),
        pytest.param(Ed2Witness(11, 1, 1, 3, 5, 14, 3), "r, s do not match", id="r_s"),
        pytest.param(Ed2Witness(11, 2, 1, 3, 4, 14, 3), "r*s != 5*P*delta + 1", id="r_times_s"),
        pytest.param(Ed2Witness(11, 1, 1, 3, 4, 14, 4), "A != b*c/delta", id="A"),
    ])
    def test_kernel_violation(self, w, message):
        with pytest.raises(KernelViolation, match=re.escape(message)):
            ed2_reconstruct(w)


class TestCaseA:
    def test_rejects_multiple_of_five(self):
        with pytest.raises(WrongResidue):
            ed2_case_a(10, 1, [4])

    def test_p97(self):
        sol = ed2_case_a(97, 1, [9])
        assert sol.triple() == (22, 194, 1067)

    def test_p11(self):
        assert ed2_case_a(11, 1, [4]).triple() == (3, 11, 33)

    def test_non_divisor_gives_none(self):
        assert ed2_case_a(11, 1, [3]) is None

    def test_swap_branch(self):
        # r = 54 pairs with s = 9, so b > c before the swap
        sol = ed2_case_a(97, 1, [54])
        assert sol.triple() == (22, 194, 1067)

    def test_first_hit_wins(self):
        assert ed2_case_a(11, 1, [3, 4, 14]).triple() == (3, 11, 33)

    def test_equal_pair_skipped(self):
        # 74 * 74 = 5*73*15 + 1 would force B = C
        assert ed2_case_a(73, 15, [74]) is None


class TestNormalize:
    @pytest.mark.parametrize(
        "witness,expected",
        [
            (Ed2Witness(73, 64, 8, 120, 39, 599, 15), NormalizedEd2(8, 1, 15, 1, 8, 2, True)),
            (Ed2Witness(73, 27, 9, 45, 44, 224, 15), NormalizedEd2(9, 1, 5, 3, 3, 2, True)),
            (Ed2Witness(11, 1, 1, 3, 4, 14, 3), NormalizedEd2(1, 1, 3, 1, 1, 4, True)),
        ],
    )
    def test_examples(self, witness, expected):
        assert ed2_normalize(witness) == expected

    def test_canonical_on_all_published_consistent_rows(self):
        rows = [
            (73, 64, 8, 120, 15), (73, 27, 9, 45, 15), (73, 20, 10, 30, 15),
            (73, 16, 12, 20, 15), (97, 1, 2, 11, 22), (31, 1, 1, 8, 8),
            (31, 4, 2, 14, 7), (41, 3, 3, 9, 9), (2521, 25, 110, 115, 506),
            (2521, 39, 39, 507, 507), (2521, 3, 6, 261, 522),
            (2521, 27, 18, 765, 510),
            (3511, 1, 1, 878, 878), (3511, 1, 3, 251, 753), (3511, 1, 4, 185, 740),
            (3511, 1, 9, 80, 720), (3511, 1, 17, 42, 714), (3511, 1, 23, 31, 713),
        ]
        for P, delta, b, c, A in rows:
            w = Ed2Witness(P, delta, b, c, 5 * b - 1, 5 * c - 1, A)
            assert ed2_normalize(w).canonical, (P, delta, b, c)


class TestBacktest:
    def test_published_row_passes(self):
        n = ed2_normalize(Ed2Witness(73, 64, 8, 120, 39, 599, 15))
        assert ed2_backtest(n, 73)

    def test_tampered_c_fails(self):
        n = ed2_normalize(Ed2Witness(73, 64, 8, 121, 39, 604, 15))
        assert not ed2_backtest(n, 73)  # 64 does not divide 8*121

    def test_forced_a_fails(self):
        n = ed2_normalize(Ed2Witness(73, 64, 8, 120, 39, 599, 44))
        assert not ed2_backtest(n, 73)

    def test_out_of_bounds_a_fails(self):
        # m chosen so that A = (m+P)/5 >= 3P/5
        n = NormalizedEd2(1, 1, 44, 44, 1, 147, False)
        assert not ed2_backtest(n, 73)

    def test_agrees_with_canonical_flag_on_search_output(self):
        # for kernel-valid witnesses the linear-system back-test holds
        # exactly when the normalization is canonical
        for P in (11, 31, 73, 97, 2521):
            for w in ed2_search(P, 64):
                n = ed2_normalize(w)
                assert ed2_backtest(n, P) == n.canonical

    def test_non_canonical_witness_exists(self):
        # canonicity is not universal: here g = 8 but alpha*dprime = 4
        w = Ed2Witness(97, 16, 8, 40, 39, 199, 20)
        assert w in ed2_search(97, 16)
        n = ed2_normalize(w)
        assert not n.canonical
        assert not ed2_backtest(n, 97)
        assert ed2_reconstruct(w).triple() == (20, 776, 3880)

    def test_reconstructed_witnesses_pass_backtest(self, primes_up_to):
        # any hit with m < 2P assembles into a canonical kernel-valid row
        some_primes = [p for p in primes_up_to(10**4, residue_mod5=1)][::31]
        for P in some_primes + [73, 97]:
            for alpha in (1, 2, 3, 5):
                for dprime in (1, 2, 3):
                    for bprime, cprime, m in lattice_search_m(P, alpha, dprime, 2 * P - 1):
                        g = alpha * dprime
                        w = Ed2Witness(
                            P,
                            alpha * dprime**2,
                            g * bprime,
                            g * cprime,
                            5 * g * bprime - 1,
                            5 * g * cprime - 1,
                            alpha * bprime * cprime,
                        )
                        n = ed2_normalize(w)
                        assert n.canonical
                        assert ed2_backtest(n, P)
                        ed2_reconstruct(w)  # raises if the kernel fails


def test_witness_row_wire_form():
    row = ed2_witness_row(Ed2Witness(73, 64, 8, 120, 39, 599, 15))
    assert row == {
        "P": 73, "delta": 64, "b": 8, "c": 120, "r": 39, "s": 599, "A": 15,
        "g": 8, "bprime": 1, "cprime": 15, "alpha": 1, "dprime": 8, "m": 2,
        "canonical": True,
    }
    assert json.loads(json.dumps(row)) == row


def test_completeness_against_oracle_small(oracle, primes_up_to):
    # round-trip: engine output equals the two-multiple oracle partition
    for P in primes_up_to(200, residue_mod5=1):
        expected = set()
        delta_needed = 1
        for sol in oracle(P).solutions:
            if sol.cls is SolutionClass.ED2:
                b, c = sol.B // P, sol.C // P
                delta = b * c // sol.A
                delta_needed = max(delta_needed, delta)
                expected.add(sol.triple())
        got = {ed2_reconstruct(w).triple() for w in ed2_search(P, delta_needed)}
        assert got == expected, P


# ceil(log(P)**3): log 11 = 2.398 gives 13.79, log 101 = 4.615 gives 98.3
# and log 1009901 = 13.825 gives 2642.4.
@pytest.mark.parametrize("P, delta_max", [
    (2, 1), (3, 2), (7, 8), (11, 14), (31, 41), (101, 99),
    (1009901, 2643), (1000000021, 8900),
])
def test_default_delta_max_is_pinned(P, delta_max):
    assert default_delta_max(P) == delta_max

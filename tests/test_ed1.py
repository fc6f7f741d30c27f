import re
from math import gcd

import pytest

from serp import ed1
from serp.ed1 import Ed1Witness, ed1_reconstruct, ed1_search
from serp.errors import KernelViolation, WrongResidue
from serp.solution import SolutionClass, classify_solution


@pytest.fixture
def candidates(monkeypatch):
    """ed1_search's (gamma, c) steps, recorded in place of the divisor work."""

    def walk(P, gamma_max, gamma_min=4):
        calls = []

        def record(P, gamma, fc):
            calls.append((gamma, fc.n))
            return []

        monkeypatch.setattr(ed1, "_witnesses_for_candidate", record)
        assert ed1_search(P, gamma_max, gamma_min) == []
        return calls

    return walk


class TestCandidates:
    def test_examples(self, candidates):
        assert candidates(11, 20) == [(4, 9), (9, 20), (14, 31), (19, 42)]
        assert candidates(31, 4) == [(4, 25)]
        assert candidates(11, 3) == []

    def test_wrong_residue(self):
        for P, gamma_max in [(7, 20), (73, 20), (7, 3)]:  # even for an empty range
            with pytest.raises(WrongResidue):
                ed1_search(P, gamma_max)

    def test_gcd_lemma_exhaustive(self, candidates, primes_up_to):
        # gcd(gamma, c) = 1 for every candidate pair, P <= 1e4, gamma <= 100
        for P in primes_up_to(10**4, residue_mod5=1):
            pairs = candidates(P, 100)
            assert [gamma for gamma, _ in pairs] == list(range(4, 101, 5))
            for gamma, c in pairs:
                assert 5 * c - 1 == gamma * P
                assert gcd(gamma, c) == 1

    @pytest.mark.parametrize("gamma_min", [-3, 0, 5, 8, 10])
    def test_unaligned_gamma_min(self, candidates, gamma_min):
        expected = [g for g in range(4, 41, 5) if g >= gamma_min]
        assert [gamma for gamma, _ in candidates(11, 40, gamma_min)] == expected


class TestSearch:
    def test_golden_case(self):
        assert ed1_search(11, 4) == [Ed1Witness(11, 4, 9, 3, 27)]

    def test_second_candidate(self):
        assert Ed1Witness(11, 9, 20, 16, 25) in ed1_search(11, 9)

    def test_empty_when_no_divisor_fits(self):
        assert ed1_search(31, 4) == []

    def test_witness_invariants(self):
        for w in ed1_search(41, 200):
            assert w.u <= w.v and w.u != w.v
            assert w.u * w.v == w.c * w.c
            assert w.u % w.gamma == (-w.c) % w.gamma
            assert w.v % w.gamma == (-w.c) % w.gamma
            # the range reaches gamma = 164 = 4*41, where every u would be
            # -c (mod P); P | A or P | B never holds (see the ed1 docstring)
            assert w.A % w.P and w.B % w.P

    def test_kernel_identity_on_output(self):
        for P in (11, 31, 41, 61):
            for w in ed1_search(P, 50):
                sol = ed1_reconstruct(w)
                assert (w.gamma * sol.A - w.c) * (w.gamma * sol.B - w.c) == w.c**2

    def test_deterministic_order(self):
        ws = ed1_search(61, 100)
        assert ws == sorted(ws, key=lambda w: (w.gamma, w.u))


class TestReconstruct:
    def test_golden(self):
        sol = ed1_reconstruct(Ed1Witness(11, 4, 9, 3, 27))
        assert sol.triple() == (3, 9, 99)
        assert sol.cls is SolutionClass.ED1

    def test_derived(self):
        sol = ed1_reconstruct(Ed1Witness(11, 9, 20, 16, 25))
        assert sol.triple() == (4, 5, 220)

    # Malformed witnesses for each check of ed1_reconstruct, in its order.
    # No witness that passes the checks before it reaches the last one,
    # P | A or B: u, v >= 1 make a solution, and the module shows P
    # divides neither A nor B of any.
    @pytest.mark.parametrize("w, message", [
        pytest.param(Ed1Witness(11, 4, 10, 3, 27), "5c - 1 != gamma*P", id="5c_minus_1"),
        pytest.param(Ed1Witness(11, 4, 9, 3, 26), "u*v != c^2", id="u_v"),
        pytest.param(Ed1Witness(11, 4, 9, 1, 81), "gamma does not divide", id="gamma"),
        pytest.param(Ed1Witness(11, 4, 9, -9, -9), "need u, v >= 1", id="u_v_below_one_A_zero"),
        pytest.param(Ed1Witness(11, 4, 9, -1, -81), "need u, v >= 1", id="v_below_one_B_negative"),
    ])
    def test_kernel_violation(self, w, message):
        with pytest.raises(KernelViolation, match=re.escape(message)):
            ed1_reconstruct(w)

    def test_multiplicity_is_one_at_c(self):
        for P in (11, 41, 61):
            for w in ed1_search(P, 60):
                mult = classify_solution(ed1_reconstruct(w))
                assert mult.count == 1 and mult.positions == ("C",)

    def test_json_fields(self):
        w = Ed1Witness(11, 4, 9, 3, 27)
        assert (w.P, w.gamma, w.c, w.u, w.v, w.A, w.B, w.C) == (11, 4, 9, 3, 27, 3, 9, 99)


def test_completeness_against_oracle_small(oracle, primes_up_to):
    # every one-multiple oracle solution appears once gamma_max covers it,
    # and the search finds nothing more up to gamma = 9P, past the steps
    # gamma = 4P and 9P where P | gamma
    for P in primes_up_to(200, residue_mod5=1):
        expected = set()
        gamma_needed = 4
        for sol in oracle(P).solutions:
            if sol.cls is SolutionClass.ED1:
                c = sol.C // P
                gamma = (5 * c - 1) // P
                assert (5 * c - 1) % P == 0
                gamma_needed = max(gamma_needed, gamma)
                expected.add(sol.triple())
        got = {ed1_reconstruct(w).triple() for w in ed1_search(P, max(gamma_needed, 9 * P))}
        assert got == expected, P


# 5*ceil(log(P)**3): log 11 = 2.398 gives 13.79, log 101 = 4.615 gives
# 98.3 and log 1009901 = 13.825 gives 2642.4.  Only these pins see a
# change of the factor 5 or of the ceiling outside tests/test_cli.py's
# output digests.
@pytest.mark.parametrize("P, gamma_max", [
    (2, 5), (3, 10), (7, 40), (11, 70), (31, 205), (101, 495),
    (1009901, 13215), (1000000021, 44500),
])
def test_default_gamma_max_is_pinned(P, gamma_max):
    assert ed1.default_gamma_max(P) == gamma_max

from serp.bridge import anticonvolve_ed1_to_ed2, convolve_ed2_to_ed1
from serp.ed2 import Ed2Witness, ed2_search
from serp.solution import SolutionClass


class TestConvolve:
    def test_p11_fails_divisibility(self):
        res = convolve_ed2_to_ed1(Ed2Witness(11, 1, 1, 3, 4, 14, 3))
        assert not res.mapped
        assert "14" in res.reason and "11" in res.reason

    def test_p73_fails_divisibility(self):
        res = convolve_ed2_to_ed1(Ed2Witness(73, 64, 8, 120, 39, 599, 15))
        assert not res.mapped
        assert "599" in res.reason

    def test_always_fails_on_kernel_valid_witnesses(self, primes_up_to, oracle):
        # (5b-1)(5c-1) = 1 (mod P) makes P | (5c-1) impossible; every
        # enumerated witness must return a failure value
        checked = 0
        for P in primes_up_to(200, residue_mod5=1):
            delta_needed = 1
            for sol in oracle(P).solutions:
                if sol.cls is SolutionClass.ED2:
                    b, c = sol.B // P, sol.C // P
                    delta_needed = max(delta_needed, b * c // sol.A)
            for w in ed2_search(P, delta_needed):
                assert (5 * w.b - 1) * (5 * w.c - 1) % P == 1
                res = convolve_ed2_to_ed1(w)
                assert not res.mapped and res.reason
                checked += 1
        assert checked >= 10


class TestAnticonvolve:
    def test_golden_witness_fails_multiple_filter(self):
        # v + c = 36 and gamma = 4, but 11 does not divide 36/4 = 9
        res = anticonvolve_ed1_to_ed2((4, 9, 3, 27), 11)
        assert not res.mapped
        assert "11" in res.reason

    def test_second_witness_fails(self):
        res = anticonvolve_ed1_to_ed2((9, 20, 16, 25), 11)
        assert not res.mapped
        assert "11" in res.reason

    def test_gamma_divisibility_checked_first(self):
        res = anticonvolve_ed1_to_ed2((4, 9, 2, 27), 11)
        assert not res.mapped
        assert "u + c" in res.reason

    def test_synthetic_input_maps(self):
        # built from the target (delta=1, b=1, c=3) ignoring the
        # one-multiple kernel: u = 3*gamma - 3, v = 11*gamma - 3
        res = anticonvolve_ed1_to_ed2((4, 3, 9, 41), 11)
        assert res.mapped
        w = res.witness
        assert (w.delta, w.b, w.c, w.A) == (1, 1, 3, 3)
        # mapped output satisfies the full target kernel
        assert w.r * w.s == 5 * 11 * w.delta + 1

    def test_synthetic_input_failing_target_kernel(self):
        # preconditions pass but the reconstructed pair is degenerate
        res = anticonvolve_ed1_to_ed2((1, 1, 0, 10), 11)
        assert not res.mapped

    def test_round_trip_of_two_multiple_witnesses(self):
        # (gamma, c, gamma*A - c, gamma*b*P - c) satisfies every reverse
        # precondition, so each witness must come back unchanged
        checked = 0
        for P in (11, 31, 41, 61, 71, 73, 97):
            for w in ed2_search(P, 50):
                for gamma in (1, 4, 9):
                    q = (gamma, w.c, gamma * w.A - w.c, gamma * w.b * P - w.c)
                    res = anticonvolve_ed1_to_ed2(q, P)
                    assert res.mapped and res.witness == w, (q, P, res.reason)
                    checked += 1
        assert checked >= 50

    def test_kernel_valid_one_multiple_witnesses_never_map(self):
        # P | (v+c) is exactly what the one-multiple filters exclude
        from serp.ed1 import ed1_search

        for P in (11, 31, 41, 61):
            for w in ed1_search(P, 60):
                res = anticonvolve_ed1_to_ed2((w.gamma, w.c, w.u, w.v), P)
                assert not res.mapped

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from serp.arith import is_prime
from serp.bridge import anticonvolve_ed1_to_ed2, convolve_ed2_to_ed1
from serp.ed2 import Ed2Witness, ed2_reconstruct, ed2_search
from serp.solution import SolutionClass

SMALL_PRIMES = [p for p in range(2, 200) if is_prime(p)]


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


@st.composite
def forward_inputs(draw):
    """Two-multiple witnesses for a prime P != 5: c with P | 5c - 1 (past
    the forward precondition) or c arbitrary, every other field an
    arbitrary integer."""
    P = draw(st.sampled_from([p for p in SMALL_PRIMES if p != 5]))
    if draw(st.booleans()):
        c = pow(5, -1, P) + P * draw(st.integers(-10**6, 10**6))
    else:
        c = draw(st.integers(-10**6, 10**6))
    delta, b, r, s, A = draw(st.tuples(*[st.integers(-10**6, 10**6)] * 5))
    return Ed2Witness(P, delta, b, c, r, s, A)


@settings(max_examples=400, deadline=None)
@given(forward_inputs())
def test_convolve_never_maps(w):
    # the reason names the failed precondition exactly when it fails;
    # past it, the candidate would keep B = bP, a multiple of P
    res = convolve_ed2_to_ed1(w)
    assert not res.mapped and res.witness is None
    fails = bool((5 * w.c - 1) % w.P)
    assert res.reason.startswith(f"{w.P} does not divide 5c - 1") == fails


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


@cache
def _witnesses(P):
    return tuple(ed2_search(P, 30)) if P % 5 else ()


@st.composite
def reverse_inputs(draw):
    """(quadruple, P): arbitrary integers, the reverse formulas' own shape
    (gamma, c, gamma*A - c, gamma*b*P - c) for arbitrary A, b, c, or that
    shape taken from a two-multiple witness of P, which maps."""
    P = draw(st.sampled_from(SMALL_PRIMES))
    shape = draw(st.sampled_from(("any", "reverse", "witness")))
    if shape == "any":
        return draw(st.tuples(*[st.integers(-10**6, 10**6)] * 4)), P
    gamma = draw(st.integers(1, 60))
    if shape == "witness" and _witnesses(P):
        w = draw(st.sampled_from(_witnesses(P)))
        A, b, c = w.A, w.b, w.c
    else:
        A, b, c = draw(st.tuples(*[st.integers(-50, 10**4)] * 3))
    return (gamma, c, gamma * A - c, gamma * b * P - c), P


@settings(max_examples=400, deadline=None)
@given(reverse_inputs())
def test_anticonvolve_returns_a_checked_value(qP):
    # never raises; a mapped witness passes the full two-multiple
    # reconstruction, an unmapped result says which precondition failed
    q, P = qP
    res = anticonvolve_ed1_to_ed2(q, P)
    if res.mapped:
        assert res.reason is None and res.witness.P == P
        ed2_reconstruct(res.witness)  # raises unless the witness is exact
    else:
        assert res.witness is None and res.reason

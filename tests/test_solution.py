import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serp.errors import ClassificationViolation, InvalidSolution
from serp.solution import (
    MultiplicityClass,
    Solution,
    SolutionClass,
    classify_solution,
    make_solution,
    verify_solution,
)


class TestVerify:
    def test_worked_examples(self):
        assert verify_solution(11, 3, 9, 99)
        assert verify_solution(11, 3, 11, 33)
        assert not verify_solution(11, 3, 9, 100)

    def test_nonpositive_inputs_are_false(self):
        assert not verify_solution(11, 0, 9, 99)
        assert not verify_solution(0, 3, 9, 99)
        assert not verify_solution(11, 3, -9, 99)


def fraction_verify(P, A, B, C):
    """Reference check: the equation itself in exact rationals."""
    if min(P, A, B, C) < 1:
        return False
    return Fraction(1, A) + Fraction(1, B) + Fraction(1, C) == Fraction(5, P)


# (P, A, B, C) solutions; (kP, kA, kB, kC) solves the equation too.
SEEDS = [(11, 3, 9, 99), (11, 3, 11, 33), (11, 4, 5, 220), (13, 3, 39, 39), (73, 15, 584, 8760)]
# Signed solutions of P*(AB + AC + BC) = 5*ABC: only the sign guards reject them.
SIGNED_SEEDS = [(11, 3, 6, -22), (-11, -3, -6, 22), (-11, -3, -9, -99)]


@st.composite
def scaled_solutions(draw, seeds=SEEDS):
    P, *dens = draw(st.sampled_from(seeds))
    k = draw(st.integers(1, 10**30))
    return [k * P] + [k * d for d in draw(st.permutations(dens))]


class TestVerifyAgainstFractions:
    @settings(max_examples=200)
    @given(scaled_solutions())
    def test_solutions(self, q):
        assert fraction_verify(*q)
        assert verify_solution(*q)

    @settings(max_examples=200)
    @given(scaled_solutions(), st.integers(1, 3), st.sampled_from((-1, 1)))
    def test_near_misses(self, q, i, step):
        q[i] += step
        assert verify_solution(*q) == fraction_verify(*q)

    @settings(max_examples=200)
    @given(scaled_solutions(), st.integers(0, 3), st.integers(-10**6, 0))
    def test_nonpositive_inputs(self, q, i, value):
        q[i] = value
        assert not fraction_verify(*q)
        assert not verify_solution(*q)

    @given(scaled_solutions(SIGNED_SEEDS))
    def test_signed_solutions(self, q):
        P, A, B, C = q
        assert P * (A * B + A * C + B * C) == 5 * A * B * C
        assert not fraction_verify(*q)
        assert not verify_solution(*q)

    @given(st.lists(st.integers(-50, 10**4), min_size=4, max_size=4))
    def test_arbitrary_quadruples(self, q):
        assert verify_solution(*q) == fraction_verify(*q)


class TestMakeSolution:
    def test_sorts_and_flags(self):
        sol = make_solution(11, 99, 3, 9, SolutionClass.ED1)
        assert sol.triple() == (3, 9, 99)
        assert sol.strict

    def test_non_strict(self):
        sol = make_solution(13, 3, 39, 39, SolutionClass.EXPLICIT)
        assert not sol.strict

    def test_rejects_non_solution(self):
        with pytest.raises(InvalidSolution):
            make_solution(11, 3, 9, 100, SolutionClass.ED1)

    def test_json_wire_form(self):
        sol = make_solution(11, 3, 9, 99, SolutionClass.ED1)
        assert sol.as_dict() == {
            "P": 11, "A": 3, "B": 9, "C": 99, "class": "ED1", "strict": True,
        }


class TestClassify:
    def test_one_multiple_at_c(self):
        sol = make_solution(11, 3, 9, 99, SolutionClass.ED1)
        assert classify_solution(sol) == MultiplicityClass(1, ("C",))

    def test_two_multiples(self):
        sol = make_solution(73, 15, 584, 8760, SolutionClass.ED2)
        assert classify_solution(sol) == MultiplicityClass(2, ("B", "C"))

    def test_derived_example(self):
        sol = make_solution(11, 4, 5, 220, SolutionClass.ED1)
        assert classify_solution(sol) == MultiplicityClass(1, ("C",))

    def test_rejects_small_primes(self):
        sol = make_solution(3, 1, 2, 6, SolutionClass.EXPLICIT)
        with pytest.raises(InvalidSolution):
            classify_solution(sol)

    def test_rejects_non_verifying_record(self):
        fake = Solution(11, 3, 9, 100, SolutionClass.ED1, True)
        with pytest.raises(InvalidSolution):
            classify_solution(fake)

    def test_flags_impossible_patterns(self):
        # no genuine solution can trip these; forged records must
        fake = Solution(7, 7, 14, 21, SolutionClass.ED1, True)

        def forged_verify(*args):
            return True

        import serp.solution as mod

        original = mod.verify_solution
        mod.verify_solution = forged_verify
        try:
            with pytest.raises(ClassificationViolation):
                classify_solution(fake)
        finally:
            mod.verify_solution = original


def test_oracle_solutions_classify_and_stay_in_bounds(oracle):
    for P in (11, 31, 41, 61, 71, 73, 97):
        for sol in oracle(P).solutions:
            mult = classify_solution(sol)
            assert mult.count in (1, 2)
            assert P < 5 * sol.A < 3 * P


class TestSolutionRecord:
    # Solution is a named tuple: no __dict__, and still frozen, hashed on
    # its fields and picklable.  Assignment raises AttributeError, the
    # base class of the FrozenInstanceError it raised as a dataclass.
    def test_slotted_record_keeps_its_contract(self):
        sol = make_solution(11, 99, 3, 9, SolutionClass.ED1)
        assert not hasattr(sol, "__dict__")
        with pytest.raises(AttributeError):
            sol.A = 4
        with pytest.raises((AttributeError, TypeError)):
            sol.extra = 1
        assert hash(sol) == hash((11, 3, 9, 99, SolutionClass.ED1, True))
        assert sol == Solution(11, 3, 9, 99, SolutionClass.ED1, True)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(sol, protocol))
            assert back == sol and hash(back) == hash(sol) and back.cls is SolutionClass.ED1

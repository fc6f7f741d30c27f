import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serp.arith import MR_DETERMINISTIC_BOUND, primes_between
from serp.errors import InvalidSolution, IrreparableCollision, ParityViolation, WrongResidue
from serp.explicit import decompose_explicit, repair_distinct
from serp.solution import Solution, SolutionClass, verify_solution


class TestDecompose:
    @pytest.mark.parametrize(
        "P,expected",
        [
            (7, (2, 7, 14)),     # residue 2, already distinct
            (13, (3, 39, 39)),   # residue 3
            (19, (4, 152, 152)), # residue 4
        ],
    )
    def test_worked_examples(self, P, expected):
        sol = decompose_explicit(P)
        assert sol.triple() == expected
        assert verify_solution(P, *expected)

    def test_wrong_residue(self):
        with pytest.raises(WrongResidue):
            decompose_explicit(11)
        with pytest.raises(WrongResidue):
            decompose_explicit(5)

    def test_parity_guard_fires_only_for_two(self):
        with pytest.raises(ParityViolation):
            decompose_explicit(2)

    def test_p_equals_three(self):
        assert decompose_explicit(3).triple() == (1, 3, 3)


class TestRepair:
    @pytest.mark.parametrize(
        "P,expected",
        [
            (13, (3, 20, 780)),
            (19, (4, 77, 5852)),
            (7, (2, 7, 14)),  # identity case
            (3, (1, 2, 6)),
        ],
    )
    def test_worked_examples(self, P, expected):
        repaired = repair_distinct(decompose_explicit(P))
        assert repaired.triple() == expected
        assert repaired.strict
        assert verify_solution(P, *expected)

    def test_triple_repeat_rejected(self):
        fake = Solution(5, 3, 3, 3, SolutionClass.EXPLICIT, False)
        with pytest.raises(InvalidSolution):
            repair_distinct(fake)

    def test_collision_guard(self):
        # forged record whose only candidate repair collides: n = 3 odd,
        # (n+1)/2 = 2 equals the remaining denominator
        fake = Solution(7, 2, 3, 3, SolutionClass.EXPLICIT, False)
        with pytest.raises(IrreparableCollision):
            repair_distinct(fake)


def test_all_residue_classes_up_to_2e4(primes_up_to):
    for residue in (2, 3, 4):
        for P in primes_up_to(2 * 10**4, residue_mod5=residue):
            if P == 2:
                continue
            sol = decompose_explicit(P)
            assert verify_solution(P, *sol.triple())
            if residue == 2:
                # (P'+1)/2 must be integral: P' is odd for odd P here
                assert (P // 5) % 2 == 1
            repaired = repair_distinct(sol)
            assert repaired.strict
            assert verify_solution(P, *repaired.triple())


PRIMES_3_4_MOD_5 = [P for P in primes_between(3, 10**6) if P % 5 in (3, 4)]


@settings(max_examples=200, deadline=None)
@given(P=st.sampled_from(PRIMES_3_4_MOD_5))
def test_repair_is_strict_exact_and_keeps_p_and_class(P):
    sol = decompose_explicit(P)
    repaired = repair_distinct(sol)
    assert repaired.strict and repaired.A < repaired.B < repaired.C
    assert verify_solution(P, *repaired.triple())
    assert (repaired.P, repaired.cls) == (sol.P, sol.cls)
    assert repair_distinct(repaired) is repaired


def _check_distinct_form(P):
    """decompose_explicit(P, distinct=True) is the repaired weak form."""
    if P % 10 == 2:  # P' even at residue 2: no closed form, either way
        for distinct in (False, True):
            with pytest.raises(ParityViolation):
                decompose_explicit(P, distinct=distinct)
        return
    direct = decompose_explicit(P, distinct=True)
    assert direct == repair_distinct(decompose_explicit(P)), P
    assert direct.strict, P


def test_distinct_form_is_the_repaired_weak_form_up_to_1e5():
    # prime or not: the closed forms are identities in P
    for P in range(3, 10**5 + 1):
        if P % 5 in (2, 3, 4):
            _check_distinct_form(P)


@settings(max_examples=300, deadline=None)
@given(P=st.integers(3, MR_DETERMINISTIC_BOUND - 1).filter(lambda n: n % 5 in (2, 3, 4)))
def test_distinct_form_is_the_repaired_weak_form(P):
    _check_distinct_form(P)

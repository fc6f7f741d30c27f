import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serp.arith import factorize, is_prime
from serp.errors import ClassificationViolation, NotPrime
from serp.oracle import OracleEnumeration, enumerate_all_solutions
from serp.solution import (
    SolutionClass,
    classify_solution,
    make_solution,
    verify_solution,
)


def min_denominator_bounds(P: int) -> tuple[int, int]:
    """Inclusive range of the minimal denominator allowed by P < 5A < 3P."""
    return P // 5 + 1, (3 * P - 1) // 5


def _range_scan_reference(P: int, distinct_only: bool = True) -> OracleEnumeration:
    """The oracle as it was before the divisor method: for each A, every
    B in (1/q, 2/q] with q = 5/P - 1/A, keeping B when 1/(q - 1/B) is
    an integer.  It shares no divisor code with the oracle."""
    if not is_prime(P):
        raise NotPrime(f"{P} is not prime")
    if P == 5:
        raise ValueError("P = 5 is out of scope (5/P is an integer)")
    sols = []
    a_lo = P // 5 + 1
    a_hi = (3 * P - 1) // 5 if distinct_only else (3 * P) // 5
    for A in range(a_lo, a_hi + 1):
        qn = 5 * A - P  # q = qn/qd = 5/P - 1/A
        qd = A * P
        b_lo = max(qd // qn + 1, A + 1 if distinct_only else A)
        b_hi = 2 * qd // qn
        for B in range(b_lo, b_hi + 1):
            cn = qn * B - qd  # 1/C = cn/(qd*B)
            if cn <= 0:
                continue
            cd = qd * B
            if cd % cn:
                continue
            C = cd // cn
            if C < B or (distinct_only and C == B):
                continue
            count = (B % P == 0) + (C % P == 0)
            if A % P == 0 or (P > 5 and count == 0):
                raise ClassificationViolation(
                    f"impossible multiplicity pattern in ({A}, {B}, {C}) for P = {P}"
                )
            cls = SolutionClass.ED2 if count == 2 else SolutionClass.ED1
            sols.append(make_solution(P, A, B, C, cls))
    return OracleEnumeration(P, distinct_only, tuple(sols))


def _rows(enum):
    return [(s.triple(), s.cls, s.strict) for s in enum.solutions]


PRIMES_1000_2000 = [p for p in range(1000, 2000) if is_prime(p)]
PRIMES_2000_10000 = [p for p in range(2000, 10**4 + 1) if is_prime(p)]
PRIMES_7_10000 = [p for p in range(7, 10**4 + 1) if is_prime(p)]


class TestEnumeration:
    def test_p11_complete(self):
        enum = enumerate_all_solutions(11)
        assert [s.triple() for s in enum.solutions] == [
            (3, 9, 99), (3, 11, 33), (4, 5, 220),
        ]
        assert [s.cls for s in enum.solutions] == [
            SolutionClass.ED1, SolutionClass.ED2, SolutionClass.ED1,
        ]

    def test_p73_contains_published_rows(self, oracle):
        triples = {s.triple() for s in oracle(73).solutions}
        assert {
            (15, 584, 8760), (15, 657, 3285), (15, 730, 2190), (15, 876, 1460),
        } <= triples
        assert len(oracle(73).solutions) == 21

    def test_p7_contains_explicit_output(self, oracle):
        assert (2, 7, 14) in {s.triple() for s in oracle(7).solutions}

    def test_lexicographic_order(self, oracle):
        for P in (31, 41, 97):
            triples = [s.triple() for s in oracle(P).solutions]
            assert triples == sorted(triples)
            assert len(set(triples)) == len(triples)

    def test_weak_mode_contains_repeats(self):
        weak = enumerate_all_solutions(13, distinct_only=False)
        assert (3, 39, 39) in {s.triple() for s in weak.solutions}
        strict = enumerate_all_solutions(13)
        assert all(s.strict for s in strict.solutions)

    def test_composite_rejected(self):
        with pytest.raises(NotPrime):
            enumerate_all_solutions(4)

    def test_p5_out_of_scope(self):
        with pytest.raises(ValueError):
            enumerate_all_solutions(5)


class TestExistence:
    def test_examples(self, oracle):
        assert bool(enumerate_all_solutions(31).solutions)
        assert bool(enumerate_all_solutions(7).solutions)
        with pytest.raises(NotPrime):
            enumerate_all_solutions(4)

    def test_spot_prime_3511(self, oracle):
        assert len(oracle(3511).solutions) > 0


class TestAgainstRangeScan:
    # The divisor enumeration must give the range scan's solutions
    # triple for triple, class for class and in the same order.
    @pytest.mark.parametrize("distinct_only", [True, False])
    def test_every_prime_up_to_1000(self, primes_up_to, distinct_only):
        for P in primes_up_to(1000):
            if P == 5:
                continue
            reference = _range_scan_reference(P, distinct_only)
            assert _rows(enumerate_all_solutions(P, distinct_only)) == _rows(reference), P
            # The reference walks A up to 3P/5; the oracle stops at
            # (2P + 2)/5 (2P/5 for distinct rows), and its list of two
            # multiples of P is empty past (P + 1)/4.
            for sol in reference.solutions:
                assert 5 * sol.A <= 2 * P + 2, (P, sol)
                if distinct_only:
                    assert 5 * sol.A <= 2 * P, (P, sol)
                if sol.cls is SolutionClass.ED2:
                    assert 4 * sol.A <= P + 1, (P, sol)

    # Each bound is reached, so a walk one row shorter would miss these.
    @pytest.mark.parametrize("P, e, triple", [
        (7, 1, (3, 3, 21)),
        (17, 1, (7, 7, 119)),
        (37, 1, (15, 15, 555)),
        (19, 2, (8, 8, 76)),
        (29, 2, (12, 12, 174)),
        (59, 2, (24, 24, 708)),
    ])
    def test_one_multiple_bound_is_reached(self, P, e, triple):
        A = triple[0]
        assert 5 * A - 2 * P == e and A == (2 * P + 2) // 5
        weak = _rows(enumerate_all_solutions(P, distinct_only=False))
        assert weak[-1] == (triple, SolutionClass.ED1, False)

    @pytest.mark.parametrize("P, triple", [
        (7, (2, 7, 14)),
        (11, (3, 11, 33)),
        (19, (5, 19, 95)),
        (23, (6, 23, 138)),
    ])
    def test_two_multiple_bound_is_reached(self, P, triple):
        assert 4 * triple[0] == P + 1
        assert (triple, SolutionClass.ED2, True) in _rows(enumerate_all_solutions(P))

    @pytest.mark.parametrize("P", [7, 11, 73, 1021, 5701])
    def test_factors_each_a_of_the_walk_once(self, P, monkeypatch):
        import serp.oracle

        calls = []

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(serp.oracle, "factorize", counted)
        enumerate_all_solutions(P)
        assert calls == list(range(P // 5 + 1, (2 * P + 2) // 5 + 1))

    @pytest.mark.parametrize("P", [2521, 3511])
    def test_spot_primes(self, P):
        assert _rows(enumerate_all_solutions(P)) == _rows(_range_scan_reference(P))

    @settings(max_examples=20, deadline=None)
    @given(P=st.sampled_from(PRIMES_1000_2000), distinct_only=st.booleans())
    def test_primes_1000_to_2000(self, P, distinct_only):
        assert _rows(enumerate_all_solutions(P, distinct_only)) == _rows(
            _range_scan_reference(P, distinct_only)
        )


class TestMinDenominatorBounds:
    @pytest.mark.parametrize(
        "P,expected",
        [(31, (7, 18)), (73, (15, 43)), (11, (3, 6))],
    )
    def test_examples(self, P, expected):
        assert min_denominator_bounds(P) == expected

    def test_bounds_are_tight(self):
        for P in (11, 31, 41, 73, 97, 2521, 3511):
            lo, hi = min_denominator_bounds(P)
            assert P < 5 * lo and 5 * hi < 3 * P
            assert not P < 5 * (lo - 1)
            assert not 5 * (hi + 1) < 3 * P


def test_solutions_verify_and_classify_up_to_1000(oracle, primes_up_to):
    # every oracle solution has one or two multiples of P, never at A
    for P in primes_up_to(1000):
        if P in (2, 3, 5):
            continue
        lo, hi = min_denominator_bounds(P)
        for sol in oracle(P).solutions:
            assert verify_solution(P, *sol.triple())
            mult = classify_solution(sol)
            assert mult.count in (1, 2)
            assert (mult.count == 2) == (sol.cls is SolutionClass.ED2)
            assert lo <= sol.A <= hi


def test_oracle_matches_the_benchmark_enumeration_up_to_1000(oracle, primes_up_to, monkeypatch):
    # perfbench/check.py factors A and lists the divisors of d**2 with no
    # serp code, so a divisor that factorize or divisors_in_class drops
    # from the engines and the oracle alike shows here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import check

    for P in primes_up_to(1000):
        if P >= 7:
            triples = [sol.triple() for sol in oracle(P).solutions]
            assert len(set(triples)) == len(triples)
            assert set(triples) == check.enumerate_solutions(P), P


@settings(max_examples=8, deadline=None)
@given(P=st.sampled_from(PRIMES_2000_10000))
def test_oracle_matches_the_benchmark_enumeration_at_audit_size(P):
    # the same independent check as above, at the size of the audit
    # benchmark's primes; check.py walks A up to 3P/5, past the
    # oracle's (2P + 2)/5
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import check

    triples = [sol.triple() for sol in enumerate_all_solutions(P).solutions]
    assert len(set(triples)) == len(triples)
    assert set(triples) == check.enumerate_solutions(P), P


def test_engine_equality_at_spot_primes(oracle):
    # engine/oracle agreement on a sample reaching toward 1e4; the full
    # equality sweep for P <= 500 runs in the acceptance suite.  The
    # witness parameters grow like P^2 here, so completeness is checked
    # per solution (search at exactly its own delta or gamma) and
    # soundness on a bounded prefix.
    from serp.ed1 import _witnesses_for_candidate, ed1_reconstruct, ed1_search
    from serp.ed2 import _witnesses_for_delta, ed2_reconstruct, ed2_search

    for P in (1021, 2521, 3511, 5011, 7481, 9941):
        triples = {s.triple() for s in oracle(P).solutions}
        for sol in oracle(P).solutions:
            if sol.cls is SolutionClass.ED2:
                b, c = sol.B // P, sol.C // P
                delta = b * c // sol.A
                hits = [w for w in _witnesses_for_delta(P, delta) if (w.b, w.c) == (b, c)]
            else:
                c = sol.C // P
                gamma = (5 * c - 1) // P
                hits = [
                    w
                    for w in _witnesses_for_candidate(P, gamma, factorize(c))
                    if ed1_reconstruct(w).triple() == sol.triple()
                ]
            assert len(hits) == 1, (P, sol)
        for w in ed2_search(P, 200):
            assert ed2_reconstruct(w).triple() in triples
        for w in ed1_search(P, 200):
            assert ed1_reconstruct(w).triple() in triples


@settings(max_examples=25, deadline=None)
@given(P=st.sampled_from(PRIMES_7_10000))
def test_oracle_classifies_and_contains_engines_at_default_bounds(P):
    # every oracle triple has one or two multiples of P, never at A, and
    # two exactly in ED2; every engine solution at P's default bound is
    # an oracle triple (ED1 only runs for P = 1 (mod 5))
    from serp.ed1 import default_gamma_max, ed1_reconstruct, ed1_search
    from serp.ed2 import default_delta_max, ed2_reconstruct, ed2_search

    solutions = enumerate_all_solutions(P).solutions
    for sol in solutions:
        mult = classify_solution(sol)
        assert mult.count in (1, 2)
        assert sol.A % P != 0
        assert (mult.count == 2) == (sol.cls is SolutionClass.ED2)
    triples = {s.triple() for s in solutions}
    for w in ed2_search(P, default_delta_max(P)):
        assert ed2_reconstruct(w).triple() in triples, (P, w)
    if P % 5 == 1:
        for w in ed1_search(P, default_gamma_max(P)):
            assert ed1_reconstruct(w).triple() in triples, (P, w)


def test_explicit_output_appears_in_oracle(oracle, primes_up_to):
    from serp.explicit import decompose_explicit, repair_distinct

    targets = [P for P in primes_up_to(500) if P % 5 in (2, 3, 4) and P > 2]
    targets += [997, 1013, 1019]
    for P in targets:
        triples = {s.triple() for s in oracle(P).solutions}
        assert repair_distinct(decompose_explicit(P)).triple() in triples, P


def test_jsonl_round_trip(oracle):
    lines = [json.loads(json.dumps(sol.as_dict())) for sol in oracle(11).solutions]
    assert len(lines) == 3
    assert lines[0] == {
        "P": 11, "A": 3, "B": 9, "C": 99, "class": "ED1", "strict": True,
    }

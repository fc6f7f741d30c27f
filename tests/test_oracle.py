import json

import pytest

from serp.errors import NotPrime
from serp.oracle import enumerate_all_solutions, existence_check
from serp.solution import (
    SolutionClass,
    classify_solution,
    min_denominator_bounds,
    verify_solution,
)


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
        assert existence_check(31)
        assert existence_check(7)
        with pytest.raises(NotPrime):
            existence_check(4)

    def test_spot_prime_3511(self, oracle):
        assert len(oracle(3511).solutions) > 0


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
                hits = [
                    w for w in _witnesses_for_delta(P, delta) if (w.b, w.c) == (b, c)
                ]
            else:
                c = sol.C // P
                gamma = (5 * c - 1) // P
                hits = [
                    w
                    for w in _witnesses_for_candidate(P, gamma, c)
                    if ed1_reconstruct(w).triple() == sol.triple()
                ]
            assert len(hits) == 1, (P, sol)
        for w in ed2_search(P, 200):
            assert ed2_reconstruct(w).triple() in triples
        for w in ed1_search(P, 200):
            assert ed1_reconstruct(w).triple() in triples


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

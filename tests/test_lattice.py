import random
from math import gcd

import pytest

from serp.arith import is_prime, squarefree_split
from serp.ed2 import ed2_normalize, ed2_search
from serp.lattice import (
    SublatticeClass,
    class_count_in_box,
    delta_window_bound,
    delta_window_count,
    lattice_search_m,
)

# The non-canonical ed2_search rows (delta, b, c) with delta <= 200 at
# the primes of test_hits_are_the_canonical_ed2_rows: g = gcd(b, c) is
# not alpha*dprime, so the lattice search cannot reach them.
NON_CANONICAL = {
    97: {(16, 8, 40)},
    3511: {(36, 132, 192), (88, 88, 704)},
}


class TestClassCount:
    def test_even_even(self):
        cls = SublatticeClass((2, 2), (0, 0))
        assert cls.index == 4
        assert class_count_in_box(cls, 100) == 2500

    def test_shifted(self):
        assert class_count_in_box(SublatticeClass((2, 2), (1, 1)), 101) == 2601

    def test_shift_is_reduced_and_moduli_checked(self):
        assert SublatticeClass((3, 5), (4, -1)).shift == (1, 4)
        with pytest.raises(ValueError):
            SublatticeClass((0, 5), (1, 1))

    @pytest.mark.parametrize("T", [0, -5])
    def test_box_below_one_is_empty(self, T):
        assert class_count_in_box(SublatticeClass((2, 3), (1, 0)), T) == 0

    def test_index_nine(self):
        count = class_count_in_box(SublatticeClass((3, 3), (1, 2)), 10)
        assert count == 12
        assert abs(count - 100 / 9) <= 10

    def test_matches_brute_force(self):
        rng = random.Random(33)
        for _ in range(50):
            m1, m2 = rng.randrange(1, 7), rng.randrange(1, 7)
            cls = SublatticeClass((m1, m2), (rng.randrange(m1), rng.randrange(m2)))
            T = rng.randrange(1, 60)
            brute = sum(
                1
                for x in range(1, T + 1)
                for y in range(1, T + 1)
                if x % m1 == cls.shift[0] and y % m2 == cls.shift[1]
            )
            assert class_count_in_box(cls, T) == brute


class TestLatticeSearchM:
    @pytest.mark.parametrize(
        "args,hit",
        [
            ((73, 3, 3, 10), (1, 5, 2)),
            ((73, 1, 8, 10), (1, 15, 2)),
            ((97, 1, 1, 20), (2, 11, 13)),
        ],
    )
    def test_examples(self, args, hit):
        assert hit in lattice_search_m(*args)

    def test_rejects_non_squarefree_alpha(self):
        with pytest.raises(ValueError):
            lattice_search_m(73, 4, 1, 10)

    def test_rejects_dprime_below_one(self):
        with pytest.raises(ValueError, match="dprime must be >= 1"):
            lattice_search_m(11, 1, 0, 5)

    def test_matches_box_enumeration(self):
        # brute force over coprime pairs in the box, same admissibility
        for P, alpha, dprime in [(73, 1, 8), (73, 3, 3), (73, 5, 2), (73, 1, 4), (97, 1, 1), (31, 1, 1)]:
            m_max = 2 * P
            T = m_max * dprime
            brute = set()
            for bprime in range(1, T + 1):
                for cprime in range(bprime + 1, T // max(bprime, 1) + 2):
                    m = 5 * alpha * bprime * cprime - P
                    if not 1 <= m <= m_max:
                        continue
                    if bprime + cprime != m * dprime:
                        continue
                    if gcd(bprime, cprime) != 1:
                        continue
                    brute.add((bprime, cprime, m))
            assert set(lattice_search_m(P, alpha, dprime, m_max)) == brute, (P, alpha, dprime)

    def test_hits_stay_below_two_thirds_of_p(self):
        # a hit is a row with two multiples of P, so A = (m+P)/5 <= P/3
        found = 0
        for P in range(7, 800):
            if not is_prime(P):
                continue
            for alpha in (1, 2, 3, 5, 6, 7, 10, 11):
                for dprime in range(1, 6):
                    for _, _, m in lattice_search_m(P, alpha, dprime, 2 * P):
                        assert 3 * m <= 2 * P, (P, alpha, dprime, m)
                        found += 1
        assert found

    def test_hits_are_the_canonical_ed2_rows(self):
        # The paper's search over every delta = alpha*dprime**2 <= 200
        # finds exactly the canonical rows of ed2_search; the engine's
        # other witnesses are the ones named in NON_CANONICAL.
        for P in (11, 31, 41, 71, 73, 97, 2521, 3511):
            hits = set()
            for delta in range(1, 201):
                alpha, dprime = squarefree_split(delta)
                g = alpha * dprime
                hits |= {
                    (delta, g * bprime, g * cprime)
                    for bprime, cprime, _ in lattice_search_m(P, alpha, dprime, 2 * P - 1)
                }
            rows = {(w.delta, w.b, w.c): ed2_normalize(w).canonical for w in ed2_search(P, 200)}
            assert hits == {row for row, canonical in rows.items() if canonical}, P
            assert {row for row, canonical in rows.items() if not canonical} == NON_CANONICAL.get(P, set()), P


class TestDeltaWindow:
    def test_bound_examples(self):
        assert delta_window_bound(73, 0) == 1
        assert delta_window_bound(73, 365) == 3  # 1 + floor(730/365), literally

    def test_count_at_exact_solution(self):
        assert delta_window_count(11, 1, 3, 0) == 1

    def test_count_matches_direct_scan(self):
        rng = random.Random(5)
        for _ in range(200):
            P = rng.choice([11, 31, 41, 73, 97])
            b = rng.randrange(1, 50)
            c = rng.randrange(b, 60)
            Delta = rng.randrange(0, 10**4)
            t5 = (5 * b - 1) * (5 * c - 1) - 1
            lo = (t5 - Delta) // (5 * P) - 2
            hi = (t5 + Delta) // (5 * P) + 2
            direct = sum(
                1
                for d in range(lo, hi + 1)
                if abs((5 * b - 1) * (5 * c - 1) - 5 * P * d - 1) <= Delta
            )
            assert delta_window_count(P, b, c, Delta) == direct

    def test_count_never_exceeds_bound(self):
        rng = random.Random(6)
        for _ in range(1000):
            P = rng.choice([11, 31, 41, 73, 97, 2521])
            b = rng.randrange(1, 10**3)
            c = rng.randrange(1, 10**3)
            Delta = rng.randrange(0, 10**6)
            assert delta_window_count(P, b, c, Delta) <= delta_window_bound(P, Delta)


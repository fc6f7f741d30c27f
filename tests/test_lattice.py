import random
from math import gcd

import pytest

from serp.ed2 import Ed2Witness, ed2_backtest, ed2_normalize, ed2_reconstruct
from serp.errors import ParityViolation
from serp.lattice import (
    BoxSpec,
    SublatticeClass,
    class_count_in_box,
    delta_window_bound,
    delta_window_count,
    density_rows,
    lattice_search_m,
    xy_inverse,
    xy_transform,
)


class TestXYTransform:
    def test_examples(self):
        assert xy_transform(1, 15) == (16, 14)
        assert xy_transform(1, 5) == (6, 4)

    def test_identity_and_inverse(self):
        for bprime in range(1, 30):
            for cprime in range(bprime + 1, 40):
                x, y = xy_transform(bprime, cprime)
                assert x % 2 == y % 2
                assert x * x - y * y == 4 * bprime * cprime
                assert xy_inverse(x, y) == (bprime, cprime)

    def test_parity_violation(self):
        with pytest.raises(ParityViolation):
            xy_inverse(16, 13)

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            xy_transform(5, 5)
        with pytest.raises(ValueError):
            xy_inverse(4, 6)


class TestBoxSpec:
    def test_contains_and_points_agree(self):
        box = BoxSpec(T=8, dprime=3)
        listed = set(box.points())
        brute = {
            (x, y)
            for x in range(1, 20)
            for y in range(1, 20)
            if box.contains(x, y)
        }
        assert listed == brute
        for x, y in listed:
            assert x % 3 == 0 and x % 2 == y % 2 and x > y > 0


class TestClassCount:
    def test_even_even(self):
        cls = SublatticeClass((2, 2), (0, 0))
        assert cls.index == 4
        assert class_count_in_box(cls, 100) == 2500

    def test_shifted(self):
        assert class_count_in_box(SublatticeClass((2, 2), (1, 1)), 101) == 2601

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


def test_density_csv_emitter():
    rows = density_rows([SublatticeClass((2, 2), (0, 0))], [10, 100])
    assert [list(row) for row in rows] == [["M", "T", "count", "expected", "deviation"]] * 2
    assert [list(row.values()) for row in rows] == [[4, 10, 25, 25.0, 0.0], [4, 100, 2500, 2500.0, 0.0]]

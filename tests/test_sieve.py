import io
import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serp import sieve
from serp.arith import euler_phi, is_prime
from serp.cli import main
from serp.errors import BadResidue, DeltaFilterFailed, NotCoprime
from serp.sieve import (
    admissible_moduli,
    average_local_params,
    build_progression_class,
    class_scans,
    li_estimate,
    phi_sum,
    reconstruct_from_class,
    scan_class_primes,
)


def count_local_params(P: int, R: int, delta: int) -> int:
    """N(P; R, delta) by division: admissible moduli r <= R dividing
    5*P*delta + 1, in exact integers."""
    N = 5 * P * delta + 1
    return sum(1 for r in admissible_moduli(R, delta) if N % r == 0)


class TestBuildClass:
    @pytest.mark.parametrize(
        "delta,r,residue,modulus",
        [(1, 4, 11, 20), (1, 14, 11, 70), (1, 9, 16, 45), (1, 19, 91, 95)],
    )
    def test_examples(self, delta, r, residue, modulus):
        cls = build_progression_class(delta, r)
        assert (cls.residue, cls.modulus) == (residue, modulus)
        assert cls.residue % 5 == 1
        assert (5 * delta * cls.residue + 1) % r == 0

    def test_bad_residue(self):
        with pytest.raises(BadResidue):
            build_progression_class(1, 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            build_progression_class(4, 14)  # gcd(14, 20) = 2
        with pytest.raises(NotCoprime):
            build_progression_class(2, 4)

    def test_membership_randomized(self):
        rng = random.Random(2024)
        done = 0
        while done < 500:
            delta = rng.randrange(1, 30)
            r = rng.randrange(1, 200) * 5 + 4
            if gcd(r, 5 * delta) != 1:
                continue
            cls = build_progression_class(delta, r)
            member = cls.residue + cls.modulus * rng.randrange(5)
            assert member % 5 == 1
            assert (5 * delta * member + 1) % r == 0
            done += 1


class TestScanClass:
    def test_examples(self):
        assert scan_class_primes(build_progression_class(1, 4), 100) == [11, 31, 71]
        assert scan_class_primes(build_progression_class(1, 9), 100) == [61]
        assert scan_class_primes(build_progression_class(1, 4), 10) == []

    def test_matches_direct_primality(self, primes_up_to):
        primes = set(primes_up_to(5000))
        for delta, r in [(1, 4), (1, 19), (3, 34), (7, 9)]:
            cls = build_progression_class(delta, r)
            expected = [
                p
                for p in range(cls.residue, 5001, cls.modulus)
                if p in primes
            ]
            assert scan_class_primes(cls, 5000) == expected


def expected_rows(x, R, delta):
    """(r, primes found, first prime) per admissible r <= R, by testing
    each class member <= x for primality on its own."""
    rows = []
    for r in admissible_moduli(R, delta):
        cls = build_progression_class(delta, r)
        members = [P for P in range(cls.residue, x + 1, cls.modulus) if is_prime(P)]
        rows.append((r, len(members), members[0] if members else None))
    return rows


def scanned_rows(x, R, delta):
    return [(c.r, c.primes_found, c.first_prime) for c in class_scans(x, R, delta).classes]


class TestClassScans:
    @settings(max_examples=80, deadline=None)
    @given(
        x=st.integers(1, 20_000),
        R=st.integers(1, 300),
        delta=st.integers(1, 50),
        segment=st.sampled_from([1, 2, 7, 97, sieve.SEGMENT]),
    )
    def test_rows_match_primality(self, x, R, delta, segment):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "SEGMENT", segment)
            assert scanned_rows(x, R, delta) == expected_rows(x, R, delta)

    # 121, 961, 1681 and 3721 are the squares of the base primes 11, 31,
    # 41 and 61 = 1 (mod 5), which the sieve must flag but not strike
    @pytest.mark.parametrize("x", [0, 1, 2, 10, 11, 121, 961, 1681, 3721])
    @pytest.mark.parametrize("delta", [1, 7])
    def test_rows_at_squares_of_self_struck_primes(self, x, delta):
        assert scanned_rows(x, 300, delta) == expected_rows(x, 300, delta)

    def test_rows_span_two_segments(self):
        # k = (x - 1)/5 passes SEGMENT, so the flags come in two segments
        x = 5 * sieve.SEGMENT + 5001
        assert scanned_rows(x, 60, 3) == expected_rows(x, 60, 3)

    def test_rows_are_the_reports(self):
        assert class_scans(1000, 64, 7).classes == average_local_params(1000, 64, 7).classes

    # class_scans keeps no per-prime counts: its prime count sums the
    # segments' flags, and its mean is the class counts' sum over it,
    # since each prime counts once per class that holds it
    @settings(max_examples=60, deadline=None)
    @given(
        x=st.integers(1, 200_000),
        R=st.integers(1, 300),
        delta=st.integers(1, 30),
        segment=st.sampled_from([97, sieve.SEGMENT]),
    )
    def test_count_and_mean_are_the_per_prime_reports(self, x, R, delta, segment):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "SEGMENT", segment)
            report = class_scans(x, R, delta)
        primes, totals = average_local_params(x, R, delta)[-2:]
        assert report.prime_count == primes.size
        assert report.average == (Fraction(int(totals.sum()), primes.size) if primes.size else None)


class TestOnePassReport:
    """average_local_params reads its class rows and per-prime totals
    from the one list of primes, one segment of k at a time."""

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.integers(1, 20_000),
        R=st.integers(1, 300),
        delta=st.integers(1, 50),
        segment=st.sampled_from([1, 2, 7, 97, sieve.SEGMENT]),
    )
    def test_rows_and_totals_match(self, x, R, delta, segment):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "SEGMENT", segment)
            report = average_local_params(x, R, delta)
        assert [(c.r, c.primes_found, c.first_prime) for c in report.classes] == expected_rows(x, R, delta)
        expected = sum((report.primes % c.modulus == c.residue for c in report.classes),
                       np.zeros(report.prime_count, dtype=np.int64))
        assert report.totals.tolist() == expected.tolist()

    def test_more_classes_than_a_byte_counts(self):
        # 280 admissible r <= 1400 at delta = 1: past 255, hits widens
        x, R = 30_000, 1400
        assert len(admissible_moduli(R, 1)) > 255
        report = average_local_params(x, R, 1)
        assert [(c.r, c.primes_found, c.first_prime) for c in report.classes] == expected_rows(x, R, 1)
        assert report.totals.tolist() == [count_local_params(int(P), R, 1) for P in report.primes]


class TestReconstruct:
    @pytest.mark.parametrize(
        "P,delta,r,expected",
        [
            (11, 1, 4, (3, 11, 33)),
            (31, 1, 4, (8, 31, 248)),
            (71, 1, 4, (18, 71, 1278)),
        ],
    )
    def test_examples(self, P, delta, r, expected):
        assert reconstruct_from_class(P, delta, r).triple() == expected

    def test_delta_filter_can_fail(self):
        # P = 41 is in the class for (delta=3, r=4) but 3 does not divide b*c
        with pytest.raises(DeltaFilterFailed):
            reconstruct_from_class(41, 3, 4)

    def test_rejects_nonmember(self):
        with pytest.raises(ValueError):
            reconstruct_from_class(13, 1, 4)

    def test_delta_one_always_succeeds(self, primes_up_to):
        # with delta = 1, A = b*c and the filter is vacuous
        for r in (4, 9, 14, 19, 24):
            cls = build_progression_class(1, r)
            for P in scan_class_primes(cls, 3000):
                sol = reconstruct_from_class(P, 1, r)
                assert sol.A == (sol.B // P) * (sol.C // P)


class TestCounts:
    def test_examples(self):
        assert count_local_params(11, 20, 1) == 2  # r in {4, 14}
        assert count_local_params(31, 20, 1) == 1  # r = 4
        assert count_local_params(41, 3, 1) == 0   # no admissible r <= 3

    def test_admissible_moduli(self):
        assert admissible_moduli(20, 1) == [4, 9, 14, 19]
        assert admissible_moduli(20, 4) == [9, 19]
        assert admissible_moduli(3, 9) == []

    @pytest.mark.parametrize("delta", [0, -1, -7])
    def test_nonpositive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be >= 1"):
            admissible_moduli(20, delta)
        with pytest.raises(ValueError, match="delta must be >= 1"):
            build_progression_class(delta, 9)

    # R = 0..24 covers 0 to 4 terms (odd and even counts of the pairwise
    # tree); the larger R leave partial subtrees of several sizes
    @pytest.mark.parametrize("R", [0, 3, 4, 9, 14, 19, 24, 100, 1234, 5000])
    @pytest.mark.parametrize("delta", [1, 7, 25])
    def test_phi_sum_is_the_sequential_sum(self, R, delta):
        terms = [Fraction(1, euler_phi(5 * r)) for r in admissible_moduli(R, delta)]
        sequential = Fraction(0)
        for term in terms:
            sequential += term
        assert phi_sum(R, delta) == sequential


class TestAverageReport:
    def test_worked_average_x100(self):
        report = average_local_params(100, 20, 1)
        assert report.prime_count == 5
        assert report.n_of_p == {11: 2, 31: 1, 41: 0, 61: 1, 71: 1}
        assert report.average == Fraction(1)
        assert report.phi_sum == Fraction(1, 8) + Fraction(1, 24) + Fraction(1, 24) + Fraction(1, 72)
        assert report.exceptional == (19,)

    def test_zero_prime_range_flagged(self):
        report = average_local_params(10, 20, 1)
        assert report.prime_count == 0
        assert report.average is None
        assert report.n_of_p == {}

    def test_double_counting_identity(self):
        for x, R, delta in [(10**4, 64, 1), (10**4, 50, 2), (3000, 30, 7)]:
            report = average_local_params(x, R, delta)
            assert sum(report.n_of_p.values()) == sum(report.per_r_counts.values())

    def test_monotone_in_R(self):
        means = []
        for R in (8, 16, 32, 64):
            report = average_local_params(10**4, R, 1)
            means.append(report.average)
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_json_round_trip(self):
        # as_dict is the record without n_of_p; stats streams n_of_p
        # after it (tests/test_cli.py pins the line byte for byte)
        report = average_local_params(100, 20, 1)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["average"] == "1"
        assert data["phi_sum"] == "2/9"
        assert data["exceptional"] == [19]
        assert "n_of_p" not in data
        assert len(data["classes"]) == 4
        buf = io.StringIO()
        assert main(["stats", "--x", "100", "--rmax", "20", "--delta", "1", "--format", "json"], out=buf) == 0
        line = json.loads(buf.getvalue())
        assert line["n_of_p"]["41"] == 0
        assert {k: v for k, v in line.items() if k != "n_of_p"} == data

    def test_csv_rows(self):
        buf = io.StringIO()
        assert main(["stats", "--x", "100", "--rmax", "20", "--delta", "1", "--format", "csv"], out=buf) == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta,r,modulus,residue,primes_found,first_prime,exceptional"
        assert lines[1] == "1,4,20,11,3,11,False"
        assert lines[4] == "1,19,95,91,0,,True"


class TestSharedPass:
    """One sieve pass per (x, R, delta) against per-class scans and the
    arbitrary-precision divisor count."""

    @pytest.mark.parametrize(
        "x,R,delta",
        [
            (1000, 64, 1),
            (5000, 128, 7),
            (1_050_000, 40, 3),  # more than one sieve segment
            (1000, 64, 2**61 - 1),  # 5*delta*x + 1 > 2**63: no int64 product
        ],
    )
    def test_matches_per_class_scans_and_counts(self, x, R, delta):
        report = average_local_params(x, R, delta)
        assert [c.r for c in report.classes] == admissible_moduli(R, delta)
        for c in report.classes:
            members = scan_class_primes(build_progression_class(delta, c.r), x)
            assert c.primes_found == len(members)
            assert c.first_prime == (members[0] if members else None)
        assert len(report.n_of_p) == report.prime_count
        for P, n in report.n_of_p.items():
            assert n == count_local_params(P, R, delta)
        assert list(report.exceptional) == [
            r for r in admissible_moduli(R, delta)
            if not scan_class_primes(build_progression_class(delta, r), x)
        ]

    def test_hits_mark_class_members(self):
        # one record per admissible class, with its count and first member,
        # and per-prime totals N(P; R, delta); no mask comes back
        report = average_local_params(1000, 30, 1)
        primes, totals, records = report.primes, report.totals, report.classes
        assert all(int(p) % 5 == 1 for p in primes)
        assert [c.r for c in records] == admissible_moduli(30, 1)
        for c in records:
            members = scan_class_primes(build_progression_class(1, c.r), 1000)
            assert (c.primes_found, c.first_prime) == (len(members), members[0] if members else None)
        assert totals.tolist() == [count_local_params(int(P), 30, 1) for P in primes]


class TestExceptional:
    def test_examples(self):
        assert average_local_params(100, 20, 1).exceptional == (19,)
        assert average_local_params(1000, 20, 1).exceptional == ()
        assert average_local_params(2, 20, 1).exceptional == (4, 9, 14, 19)


def test_residue_lemma_randomized_pairs(primes_up_to):
    # class membership forces s = (5*P*delta + 1)/r integral, s = 4 (mod 5)
    rng = random.Random(424242)
    done = 0
    while done < 200:
        delta = rng.randrange(1, 21)
        r = rng.randrange(0, 200) * 5 + 4
        if r < 4 or gcd(r, 5 * delta) != 1:
            continue
        cls = build_progression_class(delta, r)
        for P in scan_class_primes(cls, 10**5):
            s, rem = divmod(5 * P * delta + 1, r)
            assert rem == 0 and s % 5 == 4, (P, delta, r)
        done += 1


def test_growth_signature_x1e6(scan_reports_1e6):
    import math

    from serp.sieve import fit_growth_constant

    means = {R: float(rep.average) for R, rep in scan_reports_1e6.items()}
    C, _residuals = fit_growth_constant(scan_reports_1e6)
    assert C > 0
    for j in range(3, 8):
        inc = means[2 ** (j + 1)] - means[2**j]
        assert inc > 0
        ratio = inc / math.log(2)
        assert C / 3 <= ratio <= 3 * C, (j, ratio, C)


def test_fit_growth_constant_requires_two_points(scan_reports_1e6):
    from serp.sieve import fit_growth_constant

    with pytest.raises(ValueError):
        fit_growth_constant({8: scan_reports_1e6[8]})


@pytest.mark.parametrize("leaf", [128, 1000, sieve._LI_LEAF])
def test_li_estimate_leaves_equal_one_sum(monkeypatch, leaf):
    # the leaf-wise sum must reproduce one np.sum over [2, x] bit for bit
    monkeypatch.setattr(sieve, "_LI_LEAF", leaf)
    for x in [*range(0, 3000, 7), 2**16 + 1, 3 * 2**16 + 5, 10**6 + 3]:
        ref = float(np.sum(1.0 / np.log(np.arange(2, x + 1, dtype=np.float64))))
        assert li_estimate(x) == (ref if x >= 2 else 0.0), x


def test_li_estimate_reasonable():
    # quadrature stand-in sits near pi(1e6) = 78498 (off by ~0.16%)
    assert abs(li_estimate(10**6) - 78498) < 200
    assert li_estimate(1) == 0.0

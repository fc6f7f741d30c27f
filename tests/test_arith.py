import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from serp import arith, ed1, ed2, oracle
from serp._kernels import prime_mask
from serp.arith import (
    _MR_WITNESS_COUNTS,
    MR_DETERMINISTIC_BOUND,
    Factorization,
    crt_combine,
    euler_phi,
    factorize,
    factorize_progression,
    is_prime,
    mod_inverse,
    primes_between,
    progression_strides,
    squarefree_split,
)
from serp.errors import InconsistentCongruence, NotInvertible


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def strong_probable_prime(n, a):
    """One Miller-Rabin round for odd n > a: True if n passes to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# composites that pass Fermat or Miller-Rabin to some small bases
PSEUDOPRIMES = (
    561, 1105, 1729, 2047, 2465, 2821, 6601, 8911, 1373653, 25326001,
    3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461,
)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestIsPrime:
    def test_table_primes(self):
        assert is_prime(2521)
        assert is_prime(3511)

    def test_small_values(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)
        assert not is_prime(2**10)

    def test_matches_sieve_exhaustively(self):
        mask = prime_mask(10**5)
        for n in range(10**5 + 1):
            assert is_prime(n) == bool(mask[n]), n

    def test_matches_sieve_sampled_to_1e6(self, primes_up_to):
        mask = prime_mask(10**6)
        rng = random.Random(42)
        for _ in range(5000):
            n = rng.randrange(10**5, 10**6)
            assert is_prime(n) == bool(mask[n]), n

    def test_strong_pseudoprimes_rejected(self):
        # composite strong pseudoprimes to several small bases
        assert not is_prime(3215031751)  # = 151 * 751 * 28351
        assert not is_prime(3825123056546413051)

    def test_large_primes_in_range(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)  # = 3 * 768614336404564651

    def test_witness_bounds_are_least_strong_pseudoprimes(self):
        # psi_k fails the test although it passes to the first k primes;
        # the last psi_k is the bound itself and is rejected as undecided
        for (psi, k), (_, k_next) in zip(_MR_WITNESS_COUNTS, _MR_WITNESS_COUNTS[1:]):
            assert all(strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k]), psi
            assert not is_prime(psi), psi
            assert not all(strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k_next])
        assert MR_DETERMINISTIC_BOUND == _MR_WITNESS_COUNTS[-1][0]
        with pytest.raises(ValueError, match="deterministic primality range"):
            is_prime(MR_DETERMINISTIC_BOUND)

    def test_psi_12_is_composite(self):
        psi12 = 318_665_857_834_031_151_167_461
        assert not is_prime(psi12)
        assert factorize(psi12).factors == ((399165290221, 1), (798330580441, 1))

    def test_pseudoprimes_match_sympy(self, sympy):
        for n in PSEUDOPRIMES:
            assert not sympy.isprime(n)
            assert not is_prime(n), n

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 10**7),
            st.integers(0, _MR_WITNESS_COUNTS[-2][0] - 1),
            st.sampled_from([psi for psi, _ in _MR_WITNESS_COUNTS[:-1]]).flatmap(
                lambda psi: st.integers(psi - 1000, psi + 1000).filter(
                    lambda n: n < _MR_WITNESS_COUNTS[-2][0]
                )
            ),
        )
    )
    def test_matches_sympy_below_psi_12(self, sympy, n):
        assert is_prime(n) == sympy.isprime(n), n

    def test_beyond_deterministic_range(self):
        # numbers with small factors are still decided at any size
        assert not is_prime(10**25)
        with pytest.raises(ValueError):
            is_prime(2**89 - 1)  # no small factors, above the witness bound


def primes_by_is_prime(lo, hi):
    return [n for n in range(max(lo, 0), hi + 1) if is_prime(n)]


class TestPrimesBetween:
    def test_edges(self):
        assert list(primes_between(-10, 1)) == []
        assert list(primes_between(0, 2)) == [2]
        assert list(primes_between(2, 2)) == [2]
        assert list(primes_between(4, 4)) == []
        assert list(primes_between(1_000_003, 1_000_003)) == [1_000_003]
        assert list(primes_between(100, 10)) == []
        assert list(primes_between(-5, 30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_matches_is_prime_to_1e5(self):
        assert list(primes_between(0, 10**5)) == primes_by_is_prime(0, 10**5)

    def test_survivors_past_1e6_go_to_is_prime(self):
        # 1009 * 1013 has no prime factor below 1000, so the sieve keeps it
        n = 1009 * 1013
        assert list(primes_between(n - 100, n + 100)) == primes_by_is_prime(n - 100, n + 100)
        assert n not in primes_between(n, n)

    def test_window_just_below_primality_bound(self):
        lo, hi = MR_DETERMINISTIC_BOUND - 2000, MR_DETERMINISTIC_BOUND - 1
        assert list(primes_between(lo, hi)) == primes_by_is_prime(lo, hi)

    def test_lazy(self):
        # the first prime comes out before any later segment is sieved
        assert next(primes_between(10**18, 10**24)) == 10**18 + 3

    @pytest.mark.parametrize("segment", [1, 2, 10, 97])
    def test_small_segments(self, monkeypatch, segment):
        monkeypatch.setattr(arith, "_SEGMENT", segment)
        assert list(primes_between(0, 3000)) == primes_by_is_prime(0, 3000)
        lo = 10**6 - 500
        assert list(primes_between(lo, lo + 1000)) == primes_by_is_prime(lo, lo + 1000)

    @settings(max_examples=120, deadline=None)
    @given(
        lo=st.one_of(
            st.integers(-5, 3000),
            st.integers(0, 3 * 10**6),
            st.integers(10**12, 10**12 + 10**6),
        ),
        width=st.integers(-3, 1500),
        segment=st.sampled_from([3, 64, 1000, arith._SEGMENT]),
    )
    def test_matches_is_prime_on_random_windows(self, lo, width, segment):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SEGMENT", segment)
            got = list(primes_between(lo, lo + width))
        assert got == primes_by_is_prime(lo, lo + width)

    @pytest.mark.parametrize(
        "lo, hi", [(10**6 - 2000, 10**6 + 2000), (10**9, 10**9 + 4000), (2**32 - 2000, 2**32 + 2000)]
    )
    def test_sieves_below_2_32_and_asks_is_prime_above(self, monkeypatch, sympy, lo, hi):
        asked = []

        def spy(n):
            asked.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", spy)
        assert list(primes_between(lo, hi)) == [n for n in range(lo, hi + 1) if sympy.isprime(n)]
        assert asked if hi >= 2**32 else not asked
        assert all(n >= 2**32 for n in asked)

    # every prime up to k = isqrt(last), capped below L = 2**16: below 1000
    # a slice of the trial primes, from 1000 on a fresh sieve
    @settings(max_examples=150, deadline=None)
    @given(last=st.one_of(
        st.integers(-1, 2**34),
        st.sampled_from([0, 1, 3, 4, 999**2, 1000**2 - 1, 1000**2, 1009**2, 2**32 - 1, 2**32]),
    ))
    def test_base_primes_are_every_prime_up_to_k(self, sympy, last):
        k = min(isqrt(max(last, 0)), 2**16 - 1)
        primes, square = arith._base_primes(last)
        assert list(primes) == list(sympy.primerange(2, k + 1))
        assert square == (k + 1) ** 2


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(5, 4) == 1
        assert mod_inverse(5, 9) == 2
        with pytest.raises(NotInvertible):
            mod_inverse(5, 10)

    def test_small_moduli_exhaustive(self):
        for m in range(2, 40):
            for a in range(-2 * m, 2 * m):
                if gcd(a, m) == 1:
                    x = mod_inverse(a, m)
                    assert 1 <= x <= m - 1
                    assert a * x % m == 1
                else:
                    with pytest.raises(NotInvertible):
                        mod_inverse(a, m)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 1)


class TestCrtCombine:
    def test_examples(self):
        assert crt_combine(1, 5, 3, 4) == (11, 20)
        assert crt_combine(1, 5, 11, 14) == (11, 70)
        with pytest.raises(InconsistentCongruence):
            crt_combine(0, 2, 1, 4)
        with pytest.raises(ValueError, match="moduli must be >= 1"):
            crt_combine(0, 0, 1, 3)

    def test_membership_randomized(self):
        rng = random.Random(1009)
        done = 0
        while done < 1000:
            m1 = rng.randrange(1, 1000)
            m2 = rng.randrange(1, 1000)
            r1 = rng.randrange(m1)
            r2 = rng.randrange(m2)
            try:
                res, mod = crt_combine(r1, m1, r2, m2)
            except InconsistentCongruence:
                g = gcd(m1, m2)
                assert (r2 - r1) % g != 0
                continue
            assert mod == m1 // gcd(m1, m2) * m2
            assert 0 <= res < mod
            assert res % m1 == r1 and res % m2 == r2
            done += 1

    @settings(max_examples=200, deadline=None)
    @given(
        m1=st.integers(1, 60),
        m2=st.integers(1, 60),
        r1=st.integers(-200, 200),
        r2=st.integers(-200, 200),
    )
    def test_matches_brute_force(self, m1, m2, r1, r2):
        # moduli need not be coprime, residues need not be reduced
        lcm = m1 * m2 // gcd(m1, m2)
        common = [x for x in range(lcm) if (x - r1) % m1 == 0 and (x - r2) % m2 == 0]
        if not common:
            with pytest.raises(InconsistentCongruence):
                crt_combine(r1, m1, r2, m2)
        else:
            assert len(common) == 1
            assert crt_combine(r1, m1, r2, m2) == (common[0], lcm)


class TestDivisors:
    def test_examples(self):
        assert factorize(81).divisors() == [1, 3, 9, 27, 81]
        assert factorize(56).divisors() == [1, 2, 4, 7, 8, 14, 28, 56]

    def test_17556(self):
        ds = factorize(17556).divisors()
        # 17556 = 2^2 * 3 * 7 * 11 * 19, tau = 48
        assert len(ds) == 48
        assert [d for d in ds if d % 5 == 4] == [
            4, 14, 19, 44, 84, 114, 154, 209, 399, 924, 1254, 4389,
        ]

    def test_matches_trial_division_exhaustive(self):
        for n in range(1, 2001):
            assert factorize(n).divisors() == brute_divisors(n), n

    def test_matches_divisibility_sampled_to_1e6(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randrange(1, 10**6)
            ds = factorize(n).divisors()
            assert ds == sorted(set(ds))
            assert all(n % d == 0 for d in ds)
            # no divisor missing: pair each d <= sqrt(n) with n//d
            small = [d for d in ds if d * d <= n]
            assert all(n // d in ds for d in small)
            for d in range(1, min(n, 300) + 1):
                assert (n % d == 0) == (d in ds)

    # Every case meets in the middle.  11 * 13 * 17 * 19 * 23 splits into
    # the halves {11, 17, 23} and {13, 19}; a prime that divides the
    # modulus goes to the left half.
    @pytest.mark.parametrize(
        "n, residue, modulus, upto",
        [
            (2**3 * 3**2 * 5 * 7, 0, 10, 2520),  # gcd(n, modulus) = 10
            (2**4 * 3**3 * 11, 3, 6, 10**6),  # gcd(n, modulus) = 6
            (2**5 * 3**3 * 5**2, 0, 30, 10**5),  # every prime divides the modulus
            (2**5 * 3**3 * 5**2, 12, 30, 10**4),
            (2**4 * 3**2 * 5 * 7 * 11 * 13, 0, 1, 2**4 * 3**2 * 5 * 7 * 11 * 13),  # 240 divisors
            (2**4 * 3**2 * 5 * 7 * 11 * 13, 0, 1, 5000),
            (7**5, 0, 7, 7**5),  # one prime, which divides the modulus
            (3**10, 1, 8, 3**10),  # one prime, coprime to the modulus
            (3**12, 1, 5, 3**12),  # one prime, coprime to a modulus below 6
            (13**5, 3, 4, 13**5),
            (2**40, 1, 3, 10**6),  # one prime with 41 divisors
            (11 * 13 * 17 * 19 * 23, 1, 5, 11 * 13 * 17 * 19 * 23),  # modulus below 6
            (11 * 13 * 17 * 19 * 23, 1, 12, 0),
            (11 * 13 * 17 * 19 * 23, 1, 12, 1),
            (11 * 13 * 17 * 19 * 23, 1, 12, 10),  # below every left divisor but 1
            (11 * 13 * 17 * 19 * 23, 11, 12, 12),  # reaches 11, not 13
            (11 * 13 * 17 * 19 * 23, 1, 12, 16),  # reaches 13, not 17
            (11 * 13 * 17 * 19 * 23, 1, 6, 300),  # buckets with left divisors past upto
            (11 * 13 * 17 * 19 * 23, 2, 7, 10**5),
            (11 * 13 * 17 * 19 * 23, 3, 1000, 11 * 13 * 17 * 19 * 23),
            (1, 0, 1, 1),  # n = 1 mod 1: its residue lists start from 1 % 1 = 0
            (1, 0, 1, 0),  # upto < 1
            (2**2 * 3**2, 5, 1, -3),
            (2**2 * 3**4 * 7**2, 9, 21, 10**4),  # 3 and 7 divide the modulus
            (3**4 * 7**2 * 11**2, 2, 21, 10**6),  # they do, and the class is empty
            (2**2 * 3**2 * 7**2 * 11**2, -1, 10, 10**6),  # negative residues
            (2**2 * 3**2 * 7**2 * 11**2, -7, 60, 10**6),
            (12, 1, 0, 12),  # no class mod 0: ValueError, as crt_combine raises
            (12, 1, -5, 12),
        ],
    )
    def test_divisors_in_class_edge_cases(self, n, residue, modulus, upto):
        if modulus < 1:
            with pytest.raises(ValueError, match="modulus must be >= 1"):
                factorize(n).divisors_in_class(residue, modulus, upto)
            return
        expected = [
            d for d in range(1, min(n, upto) + 1) if n % d == 0 and (d - residue) % modulus == 0
        ]
        assert factorize(n).divisors_in_class(residue, modulus, upto) == expected

    # Shaped like the callers' calls: a square with three or more primes
    # and a modulus up to 2e4, where most classes are empty.  Half the
    # residues are those of a divisor, so that some classes are not.
    @settings(max_examples=150, deadline=None)
    @given(
        primes=st.lists(st.sampled_from(SMALL_PRIMES), min_size=3, max_size=5, unique=True),
        data=st.data(),
    )
    def test_squares_match_trial_division(self, primes, data):
        exponents = data.draw(st.lists(st.integers(1, 2), min_size=len(primes), max_size=len(primes)))
        root = prod(p**e for p, e in zip(primes, exponents))
        assume(root <= 2 * 10**5)
        n = root * root
        # the divisors of n by trial division up to its square root
        small = [d for d in range(1, root + 1) if n % d == 0]
        divisors = sorted(set(small + [n // d for d in small]))
        modulus = data.draw(st.integers(1, 2 * 10**4))
        if data.draw(st.booleans()):
            residue = data.draw(st.sampled_from(divisors)) % modulus
        else:
            residue = data.draw(st.integers(-modulus, 2 * modulus))
        upto = data.draw(st.one_of(st.just(n), st.integers(0, n)))
        expected = [d for d in divisors if d <= upto and (d - residue) % modulus == 0]
        assert factorize(root).squared().divisors_in_class(residue, modulus, upto) == expected

    def test_check_is_exact_for_the_callers(self, monkeypatch):
        # ED1 (every gamma to the default bound), ED2 (every delta to the
        # default bound, all listed as dense) and the oracle ask for
        # classes closed under d -> n/d whose complement never exceeds
        # upto, so the residue check finds a member exactly when the
        # listing returns one.
        verdicts, listed = [], []
        class_keys, in_class = arith._class_keys, Factorization.divisors_in_class

        def keys_spy(*args):
            keys = class_keys(*args)
            verdicts.append(keys is not None)
            return keys

        def in_class_spy(self, *args):
            out = in_class(self, *args)
            listed.append(bool(out))
            return out

        monkeypatch.setattr(arith, "_class_keys", keys_spy)
        monkeypatch.setattr(Factorization, "divisors_in_class", in_class_spy)
        monkeypatch.setattr(ed2, "_SPARSE_MAX", -1)
        callers = {
            "ed1": lambda P: ed1.ed1_search(P, ed1.default_gamma_max(P)),
            "ed2": lambda P: ed2.ed2_search(P, ed2.default_delta_max(P)),
            "oracle": oracle.enumerate_all_solutions,
        }
        for name, search in callers.items():
            verdicts.clear()
            listed.clear()
            for P in (11, 31, 101, 641, 2521, 4201):
                search(P)
            assert verdicts == listed, name
            assert True in listed and False in listed, name


def progression_by_factorize(a, m, n):
    return [factorize(a + m * j) for j in range(n)]


# ED2's N(delta) = 5*P*delta + 1 and ED1's c = (4P + 1)/5 + j*P at P = 1000081
ENGINE_PROGRESSIONS = [(5 * 1000081 + 1, 5 * 1000081), (800065, 1000081)]


BASE_PRIMES = list(primes_between(2, 2**16 - 1))


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(1, 10**18),
    m=st.integers(1, 10**12),
    g=st.sampled_from([1, 2, 6, 5**3, 65521, 2 * 3 * 5 * 7 * 11 * 13]),
    h=st.sampled_from([1, 3, 10, 65519]),
    primes=st.lists(
        st.one_of(st.sampled_from(BASE_PRIMES[:8]), st.sampled_from(BASE_PRIMES)),
        max_size=40,
        unique=True,
    ),
    n=st.one_of(st.integers(-1, 20), st.integers(0, 2**16)),
)
def test_progression_strides_give_each_primes_first_index(a, m, g, h, primes, n):
    # g makes gcd(a, m) > 1, and h gives m primes that a may lack
    a, m = a * g, m * g * h
    kept, strides, first = progression_strides(a, m, primes, n)
    assert len(kept) == len(strides) == len(first)
    assert list(kept) == [p for p in primes if p in kept]
    for p, stride, j in zip(kept, strides, first):
        assert stride == (p if m % p else 1)
        assert j < min(stride, n)
        assert (a + m * j) % p == 0
        assert (a + m * (j + stride)) % p == 0
        assert all((a + m * i) % p for i in range(j))
    for p in set(primes) - set(kept):
        # p divides every difference but not a, or first divides a + m*j at j >= n
        assert (m % p == 0 and a % p) or all((a + m * i) % p for i in range(min(n, p)))


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.just(1), st.sampled_from(BASE_PRIMES[:30]), st.integers(1, 10**6)),
    m=st.integers(1, 60),
    g=st.sampled_from([1, 2, 3, 7, 30]),
    n=st.integers(0, 400),
    segment=st.sampled_from([1, 2, 3, 7, 64]),
)
def test_sieve_flags_are_exactly_the_primes(a, m, g, n, segment):
    # a = 1 must not be flagged; g > 1 puts its primes in gcd(a, m), and
    # g in {2, 3, 7} with a = 1 makes the first value a base prime that
    # divides every value.  A small segment puts the start a base prime
    # shifts to, one stride past itself, in a later segment.
    a, m = a * g, m * g
    values = range(a, a + m * n, m)
    base = list(primes_between(2, isqrt(values[-1]))) if n else []
    got = b"".join(arith._sieve_flags(a, m, n, base, segment))
    assert got == bytes(map(is_prime, values))


class TestFactorizeProgression:
    @pytest.mark.parametrize("a, m", ENGINE_PROGRESSIONS)
    @pytest.mark.parametrize("n", [-1, 0, 1] + [arith._SIEVE_MIN_LENGTH + k for k in (-1, 0, 300)])
    def test_lengths_around_the_minimum(self, a, m, n):
        assert list(factorize_progression(a, m, n)) == progression_by_factorize(a, m, n)

    def test_short_range_builds_no_base_primes(self, monkeypatch):
        requested = []
        base_primes = arith._base_primes
        monkeypatch.setattr(
            arith, "_base_primes", lambda last: requested.append(last) or base_primes(last)
        )
        a, m = ENGINE_PROGRESSIONS[0]
        n = arith._SIEVE_MIN_LENGTH - 1
        assert list(factorize_progression(a, m, n)) == progression_by_factorize(a, m, n)
        assert requested == []

    def test_rejects_values_below_one(self):
        with pytest.raises(ValueError):
            factorize_progression(0, 5, 1)
        with pytest.raises(ValueError):
            factorize_progression(7, 0, 2000)
        assert list(factorize_progression(0, 0, 0)) == []

    @pytest.mark.parametrize("segment", [1, 2, 10, 97])
    def test_small_segments(self, monkeypatch, segment):
        monkeypatch.setattr(arith, "_SIEVE_SEGMENT", segment)
        for a, m in ENGINE_PROGRESSIONS:
            n = arith._SIEVE_MIN_LENGTH + 50
            assert list(factorize_progression(a, m, n)) == progression_by_factorize(a, m, n)

    def test_more_base_primes_than_an_unsigned_short_holds(self, monkeypatch):
        # 2**20 gives 82,025 base primes, more than 65,535; and isqrt(L) >=
        # 1000, so _base_primes' own base primes are sieved in turn.  L is
        # the one constant to patch: _base_primes derives the square.
        monkeypatch.setattr(arith, "_SIEVE_LIMIT", 2**20)
        primes, square = arith._base_primes(2**40)
        assert (len(primes), square) == (82_025, 2**40)
        a, m = 5 * 1_000_000_021 + 1, 5 * 1_000_000_021  # ED2's N(delta)
        n = arith._SIEVE_MIN_LENGTH + 100
        assert list(factorize_progression(a, m, n)) == progression_by_factorize(a, m, n)

    def test_values_past_primality_bound_go_whole_to_factorize(self, monkeypatch):
        monkeypatch.setattr(arith, "_SIEVE_MIN_LENGTH", 0)
        # every value is 210 times a number below the bound, so factorize
        # decides it although the value itself is past the bound
        a = MR_DETERMINISTIC_BOUND // 210 * 210 + 210
        assert list(factorize_progression(a, 210, 12)) == progression_by_factorize(a, 210, 12)
        # 1009 * q is past the bound with q prime below it: factorize
        # refuses it, and so does the sieve, though 1009 is a base prime
        q = next(primes_between(MR_DETERMINISTIC_BOUND // 1009 + 1, MR_DETERMINISTIC_BOUND))
        with pytest.raises(ValueError, match="deterministic primality range"):
            factorize(1009 * q)
        with pytest.raises(ValueError, match="deterministic primality range"):
            list(factorize_progression(1009 * q, 1, 3))

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.one_of(
            st.integers(1, 10**6),
            st.integers(1, 10**18),
            st.sampled_from([65521**3, 65537 * 65539, 2**40, 3**30, 4_294_967_291**2]),
        ),
        m=st.integers(1, 10**9).flatmap(
            lambda m: st.sampled_from([m, 5 * m, 2 * 3 * 5 * 7 * m, 2**16 * m, 5**6 * m])
        ),
        g=st.sampled_from([1, 2, 5, 6, 25, 65521]),
        n=st.integers(0, 300),
        segment=st.sampled_from([1, 3, 64, arith._SIEVE_SEGMENT]),
    )
    def test_matches_factorize(self, a, m, g, n, segment):
        # g > 1 makes gcd(a, m) > 1; the minimum length is lifted so that
        # short ranges are sieved too
        a, m = a * g, m * g
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "_SIEVE_SEGMENT", segment)
            mp.setattr(arith, "_SIEVE_MIN_LENGTH", 0)
            got = list(factorize_progression(a, m, n))
        assert got == progression_by_factorize(a, m, n)


class TestFactorize:
    def test_structure(self):
        f = factorize(17556)
        assert f.factors == ((2, 2), (3, 1), (7, 1), (11, 1), (19, 1))

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="factorize requires n >= 1"):
            factorize(0)

    def test_invariants_exhaustive(self):
        for n in range(1, 5001):
            f = factorize(n)
            prod = 1
            prev = 0
            for p, e in f.factors:
                assert p > prev and e >= 1 and is_prime(p)
                prev = p
                prod *= p**e
            assert prod == n

    def test_matches_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        big_primes = (999_983, 1_000_003, 1_000_033, 99_991, 7_919)
        squares = [p * p for p in big_primes]
        prime_powers = [2**39, 3**25, 7**14, 101**6, 9_973**3]
        semiprimes = [p * q for p in big_primes for q in big_primes if p < q]
        rng = random.Random(12)
        sampled = [rng.randrange(2, 10**12) for _ in range(20)]
        for n in squares + prime_powers + semiprimes + sampled:
            assert dict(factorize(n).factors) == sympy.factorint(n), n

    def test_prime_cofactor_after_trial_primes(self):
        # q is prime and past the primes below 1000, so what is left after
        # they are divided out is q itself; it must come back whole, as
        # one factor, not be split further
        q = 10_000_000_000_000_061
        assert factorize(q).factors == ((q, 1),)
        assert factorize(2 * q).factors == ((2, 1), (q, 1))

    # The trial scan stops once p*p exceeds the product g of the trial
    # primes still to strip; the one prime left in g is stripped with
    # its exponent.
    @pytest.mark.parametrize("n, factors", [
        (3 * 997**3, ((3, 1), (997, 3))),
        (991 * 997, ((991, 1), (997, 1))),
        (997**2, ((997, 2),)),
        (983 * 991**2 * 997**3, ((983, 1), (991, 2), (997, 3))),
        (2**7 * 31**2, ((2, 7), (31, 2))),  # g = 31 once 2 is stripped, below 7**2
        (5**4 * 1009**2, ((5, 4), (1009, 2))),  # g = 5, then a rest past the trial primes
    ])
    def test_trial_prime_left_in_the_gcd(self, n, factors):
        assert factorize(n).factors == factors

    def test_prime_power_above_trial_bound(self):
        assert factorize(41**16).factors == ((41, 16),)
        assert factorize(1_000_003**3).factors == ((1_000_003, 3),)
        assert factorize(3 * 4_294_967_291**2).factors == ((3, 1), (4_294_967_291, 2))
        assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10**18))
    def test_matches_sympy_below_1e18(self, sympy, n):
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1010, 10**9), st.integers(1010, 10**9))
    def test_semiprimes_match_sympy(self, sympy, a, b):
        n = sympy.prevprime(a) * sympy.prevprime(b)
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1010, 10**6), st.integers(2, 3), st.integers(1, 1000))
    def test_prime_powers_match_sympy(self, sympy, a, k, cofactor):
        n = cofactor * sympy.prevprime(a) ** k
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n

    def test_cofactor_past_primality_range_is_rejected(self):
        # no prime factor <= 37, and too large for deterministic Miller-Rabin
        with pytest.raises(ValueError, match="deterministic primality range"):
            factorize(2 * 10_000_000_000_000_000_000_000_007)

    def test_squared(self):
        f = factorize(56).squared()
        assert f.n == 56 * 56
        assert f.factors == ((2, 6), (7, 2))
        assert f.divisors() == brute_divisors(56 * 56)


def rad_by_factorize(d):
    return prod(p for p, _ in factorize(d).factors)


def outcome(f, d):
    """f(d), or the message of the ValueError it raises."""
    try:
        return f(d)
    except ValueError as e:
        return str(e)


# Rests that Miller-Rabin decides or refuses at once: the largest prime
# below MR_DETERMINISTIC_BOUND, primes below it near a quarter and a
# tenth of it, the bound itself (a strong pseudoprime to all thirteen
# witnesses) and a prime past it, 8292610161699718464855703 (half of
# 5P + 1 for the prime P = 3317044064679887385942281).
NEAR_BOUND = (
    3317044064679887385961813,
    829261016169971846490481,
    255157235744606721997073,
    MR_DETERMINISTIC_BOUND,
    8292610161699718464855703,
)


class TestRadical:
    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.one_of(st.integers(1, 3000), st.integers(10**6, 10**13)),
        n=st.one_of(st.integers(0, 3), st.integers(0, 1200)),
    )
    def test_matches_factorize(self, lo, n):
        assert [arith._radical(d) for d in range(lo, lo + n)] == [
            rad_by_factorize(d) for d in range(lo, lo + n)
        ]

    # powers that take several gcd rounds to strip, and rests of at
    # least 1000**2 that are composite, squarefree or not
    @pytest.mark.parametrize("d, rad", [
        (1, 1), (2**60, 2), (3**20 * 7**9, 21), (2**3 * 997**5, 2 * 997),
        (1009 * 1013 * 1019, 1009 * 1013 * 1019), (1009**2 * 1013, 1009 * 1013),
        (2**5 * 1009**3, 2 * 1009), (6 * 1000003**2, 6 * 1000003),
    ])
    def test_examples(self, d, rad):
        assert arith._radical(d) == rad == rad_by_factorize(d)

    # d = s*q near and past the bound: the rest s*q, or q when no prime
    # of s is past 1000, is decided or refused as factorize(d) does
    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 10**4), q=st.sampled_from(NEAR_BOUND))
    def test_refuses_where_factorize_refuses(self, s, q):
        assert outcome(arith._radical, s * q) == outcome(rad_by_factorize, s * q)

    def test_refusals_near_the_bound(self):
        refused = (
            MR_DETERMINISTIC_BOUND,
            2 * 8292610161699718464855703,
            1009 * 829261016169971846490481,  # 1009 is no trial prime
        )
        for d in refused:
            with pytest.raises(ValueError, match="deterministic primality range"):
                arith._radical(d)
        # past the bound but decided: the rest after 2 and 3 is prime
        assert arith._radical(24 * 829261016169971846490481) == 6 * 829261016169971846490481


class TestSquarefreeSplit:
    def test_examples(self):
        assert squarefree_split(64) == (1, 8)
        assert squarefree_split(27) == (3, 3)
        assert squarefree_split(20) == (5, 2)

    def test_round_trip_exhaustive_1e5(self):
        # independent check against a smallest-prime-factor sieve
        limit = 10**5
        spf = list(range(limit + 1))
        for p in range(2, int(limit**0.5) + 1):
            if spf[p] == p:
                for q in range(p * p, limit + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        for delta in range(1, limit + 1):
            alpha, dprime = squarefree_split(delta)
            assert alpha * dprime * dprime == delta
            exp_alpha, exp_d = 1, 1
            m = delta
            while m > 1:
                p = int(spf[m])
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e % 2:
                    exp_alpha *= p
                exp_d *= p ** (e // 2)
            assert (alpha, dprime) == (exp_alpha, exp_d), delta


def test_euler_phi_small_exhaustive():
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_euler_phi_progression_moduli():
    assert euler_phi(20) == 8
    assert euler_phi(45) == 24
    assert euler_phi(70) == 24
    assert euler_phi(95) == 72

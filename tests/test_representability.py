import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import (
    Factorization,
    Witness,
    factorize,
    find_witness,
    is_sum_of_two_squares,
    mark_segment,
    representable_mask,
)
from twosquares.sieve import MAX_VALUE

from reference import brute_is_sum, trial_factorize


class TestFactorize:
    def test_one_has_empty_factor_list(self):
        assert factorize(1) == Factorization(1, ())

    def test_1493_is_prime(self):
        assert factorize(1493).factors == ((1493, 1),)

    def test_1508(self):
        assert factorize(1508).factors == ((2, 2), (13, 1), (29, 1))

    @pytest.mark.parametrize("bad", [0, -1, -1508, 2**63])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_matches_plain_trial_division_on_prefix(self):
        for n in range(1, 3000):
            assert factorize(n).factors == tuple(trial_factorize(n))

    @pytest.mark.parametrize(
        "n",
        [9973, 10007, 9973**2, 9973 * 10007, 10007**2, 10007 * 10009, 99999989,
         10**8, 10**8 + 7, 2 * 10007**2, 3**2 * 9973**3, 9967 * 9973 * 10007],
    )
    def test_matches_plain_trial_division_at_the_trial_limit(self, n):
        # 9973 is the last trial prime and 10007 the first prime past it
        assert factorize(n).factors == tuple(trial_factorize(n))

    @given(st.integers(min_value=1, max_value=10**6))
    def test_roundtrip_small(self, n):
        f = factorize(n)
        assert f.recompose() == n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=2**63 - 1))
    def test_roundtrip_64bit(self, n):
        f = factorize(n)
        assert f.recompose() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in f.factors)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=2**63 - 1))
    def test_listed_primes_are_prime(self, n):
        sympy = pytest.importorskip("sympy")
        for p, _ in factorize(n).factors:
            assert sympy.isprime(p)


class TestIsSumOfTwoSquares:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (25, True),     # 3^2 + 4^2
            (21, False),
            (410, True),
            (1500, False),
            (9, True),      # 0^2 + 3^2, zero summand allowed
            (1, True),
            (2, True),
            (1493, True),
            (1508, True),
        ],
    )
    def test_known_values(self, n, expected):
        assert is_sum_of_two_squares(n) is expected

    def test_none_of_1494_to_1507(self):
        assert not any(is_sum_of_two_squares(n) for n in range(1494, 1508))

    def test_none_of_21_to_24(self):
        assert not any(is_sum_of_two_squares(n) for n in range(21, 25))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_sum_of_two_squares(0)

    def test_agrees_with_brute_force_on_prefix(self):
        for n in range(1, 5000):
            assert is_sum_of_two_squares(n) == brute_is_sum(n), n

    @given(st.integers(min_value=1, max_value=10**6))
    def test_agrees_with_brute_force(self, n):
        assert is_sum_of_two_squares(n) == brute_is_sum(n)

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_multiplicative_closure(self, a, b):
        # Brahmagupta-Fibonacci: the representable set is closed under products
        if is_sum_of_two_squares(a) and is_sum_of_two_squares(b):
            assert is_sum_of_two_squares(a * b)

    def test_large_prime_one_mod_four(self):
        # 2^62 - 87 is prime and equals 1 mod 4
        assert is_sum_of_two_squares(2**62 - 87)

    def test_large_prime_three_mod_four(self):
        # 2^62 - 57 is prime and equals 3 mod 4, as is 2^61 - 1
        assert not is_sum_of_two_squares(2**62 - 57)
        assert not is_sum_of_two_squares(2**61 - 1)


def prime_3_mod_4_from(n):
    """Least prime p = 3 (mod 4) with p >= n, found by factoring."""
    p = n + (3 - n) % 4
    while factorize(p).factors != ((p, 1),):
        p += 4
    return p


def prime_power_below(p, j, bound=10**12):
    """p^i for the largest i <= j with p^i <= bound (p itself at least)."""
    q = p
    while j > 1 and q * p <= bound:
        q, j = q * p, j - 1
    return q


# where the criterion changes: k^2 and its neighbours, p^j for p = 3 (mod 4)
# (a stride start, and an exponent whose parity flips), and 3 * 2^k (the
# smallest member of each bad odd-part class); heights up to 10^12
mask_edges = st.one_of(
    st.builds(lambda k, d: k * k + d, st.integers(1, 10**6), st.integers(-1, 1)),
    st.builds(
        prime_power_below,
        st.one_of(
            st.sampled_from([3, 7, 11, 19, 23, 31, 43]),
            st.integers(1, 10**6).map(prime_3_mod_4_from),
        ),
        st.integers(1, 30),
    ),
    st.builds(lambda k: 3 << k, st.integers(0, 38)),
)


class TestRepresentableMask:
    def test_matches_oracle_on_prefix(self):
        got = representable_mask(1, 200_001).tolist()
        assert got == [is_sum_of_two_squares(n) for n in range(1, 200_001)]

    def test_every_small_window(self):
        # lo = 1, hi = lo + 1, and windows too low to sieve any prime
        expected = [None] + [is_sum_of_two_squares(n) for n in range(1, 64)]
        for lo in range(1, 64):
            for hi in range(lo + 1, 65):
                assert representable_mask(lo, hi).tolist() == expected[lo:hi], (lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(edge=mask_edges, before=st.integers(0, 40), after=st.integers(0, 40))
    def test_edge_windows_match_oracle(self, edge, before, after):
        # the edge can be lo, hi - 1, just past hi, or anywhere inside
        lo = max(1, edge - before)
        hi = max(lo + 1, edge + after)
        got = representable_mask(lo, hi).tolist()
        assert got == [is_sum_of_two_squares(n) for n in range(lo, hi)]

    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 6, 9, 1493, 1508, 999_983, 999_983**2, 2 * 999_983**2,
         3 * 999_983**2, 3 << 38, 10**12 - 1, 10**12],
    )
    def test_single_value_windows(self, n):
        assert representable_mask(n, n + 1).tolist() == [is_sum_of_two_squares(n)]

    @pytest.mark.parametrize("lo", [10**8, 10**10, 10**12 - 4096, MAX_VALUE - 4096])
    def test_matches_sieve_high_up(self, lo):
        assert representable_mask(lo, lo + 4096).tolist() == mark_segment(lo, lo + 4096).bits.tolist()

    @pytest.mark.parametrize(
        "lo,hi,field",
        [(0, 10, "lo"), (-5, 10, "lo"), (10, 10, "hi"), (10, 5, "hi"), (1, 2**63 + 1, "hi"),
         (2**62, 2**62 + 77, "hi"), (MAX_VALUE - 1, MAX_VALUE + 1, "hi")],
    )
    def test_rejects_bad_windows_naming_the_field(self, lo, hi, field):
        with pytest.raises(ValueError, match=f"representable_mask: {field} must"):
            representable_mask(lo, hi)


class TestFindWitness:
    def test_25(self):
        w = find_witness(25)
        assert w in (Witness(0, 5), Witness(3, 4))
        assert w.x**2 + w.y**2 == 25

    def test_1508(self):
        assert find_witness(1508) == Witness(8, 38)

    def test_absent_for_23(self):
        assert find_witness(23) is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            find_witness(0)

    def test_exact_agreement_with_predicate_on_prefix(self):
        for n in range(1, 3000):
            w = find_witness(n)
            assert (w is not None) == is_sum_of_two_squares(n)
            if w is not None:
                assert 0 <= w.x <= w.y
                assert w.x**2 + w.y**2 == n

    @given(st.integers(min_value=1, max_value=10**7))
    def test_exact_agreement_with_predicate(self, n):
        w = find_witness(n)
        assert (w is not None) == is_sum_of_two_squares(n)
        if w is not None:
            assert w.x <= w.y and w.x**2 + w.y**2 == n

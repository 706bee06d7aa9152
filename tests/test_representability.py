import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import (
    Witness,
    find_witness,
    is_sum_of_two_squares,
    mark_segment,
    representable_mask,
)
from twosquares import representability, sieve
from twosquares.sieve import MAX_VALUE

from reference import brute_is_sum, trial_factorize


def criterion(factors):
    """The even-exponent criterion read off a factor list."""
    return all(e % 2 == 0 for p, e in factors if p % 4 == 3)


class TestFactorize:
    """is_sum_of_two_squares's trial-division walk, at the inputs that stress
    factoring; each expected value is the criterion read off the factors, as
    tests/reference.py's plain trial division finds them or as known."""

    def test_one_has_empty_factor_list(self):
        assert trial_factorize(1) == []
        assert is_sum_of_two_squares(1) is criterion([])

    def test_1493_is_prime(self):
        # 1 (mod 4), so what the walk leaves is representable
        assert trial_factorize(1493) == [(1493, 1)]
        assert is_sum_of_two_squares(1493)

    def test_1508(self):
        assert trial_factorize(1508) == [(2, 2), (13, 1), (29, 1)]
        assert is_sum_of_two_squares(1508)
        assert not is_sum_of_two_squares(3 * 1508) and is_sum_of_two_squares(9 * 1508)

    @pytest.mark.parametrize("bad", [0, -1, -1508, 2**63])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="is_sum_of_two_squares: n must be"):
            is_sum_of_two_squares(bad)

    @pytest.mark.parametrize("fn", [is_sum_of_two_squares, find_witness])
    def test_refuses_past_the_sieve_bound_naming_n(self, fn):
        # the domain is the sieve's own, [1, 2^42]
        with pytest.raises(ValueError, match=f"{fn.__name__}: n must be <= {MAX_VALUE}, got {MAX_VALUE + 1}"):
            fn(MAX_VALUE + 1)

    def test_matches_plain_trial_division_on_prefix(self):
        for n in range(1, 3000):
            assert is_sum_of_two_squares(n) is criterion(trial_factorize(n)), n

    @pytest.mark.parametrize(
        "n",
        [9973, 10007, 9973**2, 9973 * 10007, 10007**2, 10007 * 10009, 99999989,
         10**8, 10**8 + 7, 2 * 10007**2, 9967 * 9973 * 10007,
         2097143, 2097169, 2097143**2, 2097133 * 2097169, 2**42 - 1, 2**42],
    )
    def test_matches_plain_trial_division_at_the_trial_limit(self, n):
        # 2097143 is the last prime in the table, the primes up to 2^21, and
        # 2097169 the first past it; 9973 and 10007 straddle 10^4
        assert is_sum_of_two_squares(n) is criterion(trial_factorize(n))

    def test_products_of_two_primes_near_the_table_edge(self):
        # the slowest inputs: both factors near 2^21, so the division runs
        # through nearly the whole table; p * q with p != q is representable
        # exactly when both are 1 (mod 4), and p^2 always
        near = [n for n in range(2**21 - 600, 2**21 + 100) if trial_factorize(n) == [(n, 1)]]
        rng = random.Random(20261020)
        for _ in range(20):
            p, q = sorted(rng.sample(near, 2))
            if p * q > MAX_VALUE:
                p = near[0]
            assert is_sum_of_two_squares(p * q) is (p % 4 == q % 4 == 1), (p, q)
        ones = [p for p in near if p % 4 == 1]
        threes = [p for p in near if p % 4 == 3]
        for p, q, expected in ((ones[0], ones[1], True), (ones[0], threes[0], False),
                               (threes[0], threes[1], False)):
            assert is_sum_of_two_squares(p * q) is expected, (p, q)
        squares = [p for p in threes if p * p <= MAX_VALUE][-8:]
        assert len(squares) == 8
        for p in squares:
            assert is_sum_of_two_squares(p * p), p

    def test_listed_primes_are_prime(self):
        # the table the walk divides by: every prime up to isqrt(MAX_VALUE) = 2^21
        sympy = pytest.importorskip("sympy")
        table = representability._trial_primes()
        assert list(table) == sorted(set(table)) and table[-1] == 2097143
        assert len(table) == sympy.primepi(2**21)
        assert all(sympy.isprime(p) for p in random.Random(20261021).sample(table, 2000))


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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=MAX_VALUE - 1))
    def test_matches_a_single_value_mask_over_the_domain(self, n):
        # the mask's window ends at hi <= MAX_VALUE; 2^42 itself is a table-edge case
        assert is_sum_of_two_squares(n) is bool(representable_mask(n, n + 1)[0])

    @pytest.mark.parametrize("lo", [10**12 - 500, MAX_VALUE - 500])
    def test_matches_the_mask_on_high_windows(self, lo):
        got = [is_sum_of_two_squares(n) for n in range(lo, lo + 500)]
        assert got == representable_mask(lo, lo + 500).tolist()

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
        # 2^42 - 11 is the largest prime below 2^42 that equals 1 mod 4
        n = 2**42 - 11
        assert trial_factorize(n) == [(n, 1)]
        assert is_sum_of_two_squares(n)

    def test_large_prime_three_mod_four(self):
        # 2^42 - 17 is the largest prime below 2^42 that equals 3 mod 4
        n = 2**42 - 17
        assert trial_factorize(n) == [(n, 1)]
        assert not is_sum_of_two_squares(n)


def prime_3_mod_4_from(n):
    """Least prime p = 3 (mod 4) with p >= n, found by trial division."""
    p = n + (3 - n) % 4
    while trial_factorize(p) != [(p, 1)]:
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
         (2**62, 2**62 + 77, "hi"), (MAX_VALUE - 1, MAX_VALUE + 1, "hi"), (True, 3, "lo")],
    )
    def test_rejects_bad_windows_naming_the_field(self, lo, hi, field):
        with pytest.raises(ValueError, match=f"representable_mask: {field} must"):
            representable_mask(lo, hi)

    def test_refuses_windows_over_the_memory_cap(self, monkeypatch):
        # a lowered cap, so that a missing check cannot allocate a large count
        monkeypatch.setattr(sieve, "DEFAULT_MEMORY_CAP", 1000)
        with pytest.raises(ValueError, match="representable_mask: window of 1001 values exceeds memory cap 1000"):
            representable_mask(10**12, 10**12 + 1001)
        assert representable_mask(10**12, 10**12 + 1000).size == 1000


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

    def test_largest_prime_one_mod_four(self):
        # 2^42 - 11, the largest prime below 2^42 that equals 1 mod 4: the
        # x loop may run to isqrt(n / 2), about 1.5 * 10^6 steps
        n = 2**42 - 11
        w = find_witness(n)
        assert w is not None and 0 <= w.x <= w.y and w.x**2 + w.y**2 == n

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

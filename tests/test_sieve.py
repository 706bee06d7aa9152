import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import (
    Threshold,
    analysis,
    factorize,
    is_sum_of_two_squares,
    mark_segment,
    representable_mask,
    sieve,
)

from reference import brute_is_sum, brute_membership

ISQRT_MAX = math.isqrt(2**63 - 1)  # 3037000499
RULE_WIDTHS = [width for _, width in sieve._BLOCK_WIDTHS]


def set_values(lo, hi, **kwargs):
    return (np.flatnonzero(mark_segment(lo, hi, **kwargs).bits) + lo).tolist()


def oracle(n, allow_zero=True):
    """Per-integer membership from factorization, independent of the sieve."""
    if n == 0:
        return allow_zero
    if not is_sum_of_two_squares(n):
        return False
    if allow_zero:
        return True
    # only a square k^2 can need a zero summand; it also has a representation
    # with both summands positive exactly when k has a prime factor 1 mod 4
    k = math.isqrt(n)
    return k * k != n or any(p % 4 == 1 for p, _ in factorize(k).factors)


def mask_reference(lo, hi, allow_zero=True):
    """Membership on [lo, hi), lo >= 1, from the even-exponent criterion.

    Without zero summands, a square k^2 stays only where oracle() keeps it.
    """
    mask = representable_mask(lo, hi)
    if not allow_zero:
        for k in range(math.isqrt(lo - 1) + 1, math.isqrt(hi - 1) + 1):
            mask[k * k - lo] = oracle(k * k, allow_zero=False)
    return mask


# k^2, k^2 +- 1, 2k^2 and 2k^2 +- 1: where a row's run starts or stops, and
# the diagonal x = y that ends it
square_edges = st.builds(
    lambda k, form, delta: max(0, form * k * k + delta),
    st.one_of(st.integers(0, 3000), st.integers(0, 10**6)),
    st.sampled_from([1, 2]),
    st.integers(-1, 1),
)


def square_forms(ks):
    """k^2, k^2 +- 1, 2k^2 and 2k^2 +- 1 for each k, kept in [0, 2^63)."""
    vals = {f * k * k + d for k in ks for f in (1, 2) for d in (-1, 0, 1)}
    return sorted(v for v in vals if 0 <= v < 2**63)


def isqrt(vals):
    """sieve._isqrt of vals as an int64 array, into scratch made here."""
    v = np.array(vals, dtype=np.int64)
    return sieve._isqrt(v, (np.empty(v.shape), np.empty_like(v), np.empty_like(v)))


class TestIsqrt:
    @pytest.mark.parametrize(
        "ks",
        [
            range(0, 3001),
            range(3001, 10**6 + 1, 97),
            range(2**26 - 2000, 2**26 + 2000),  # k^2 near 2^52
            range(math.isqrt(2**51) - 2000, math.isqrt(2**51) + 2000),  # 2k^2 near 2^52
            range(ISQRT_MAX - 3000, ISQRT_MAX + 2),  # k^2 near 2^63
            range(math.isqrt(2**62) - 3000, math.isqrt(2**62) + 2),  # 2k^2 near 2^63
        ],
    )
    def test_matches_math_isqrt_at_square_edges(self, ks):
        vals = square_forms(ks)
        expected = [math.isqrt(v) for v in vals]
        got = isqrt(vals)
        assert got.tolist() == expected
        # the float estimate is never low and at most one high, which is
        # why one -1 step is the whole correction
        estimate = np.sqrt(np.array(vals, dtype=np.int64)).astype(np.int64)
        assert np.all((estimate - expected >= 0) & (estimate - expected <= 1))

    def test_float_estimate_alone_is_not_exact(self):
        # the -1 step is needed: near 2^52 and 2^63 the rounded float root of
        # k^2 - 1 is k
        vals = square_forms([2**26 + 1, ISQRT_MAX])
        estimate = np.sqrt(np.array(vals, dtype=np.int64)).astype(np.int64).tolist()
        assert estimate != [math.isqrt(v) for v in vals]
        assert isqrt(vals).tolist() == [math.isqrt(v) for v in vals]

    def test_extremes(self):
        vals = [0, 1, 2, 3, 4, 2**52, 2**53 + 1, 2**62, 2**63 - 2, 2**63 - 1]
        assert isqrt(vals).tolist() == [math.isqrt(v) for v in vals]


class TestPackedBitmap:
    def test_bits_and_values_derive_from_packed(self):
        # bit i % 8 of byte i // 8 stands for 20 + i; 26 values, so 6 pad bits
        values = [20, 25, 26, 29, 32, 34, 36, 37, 40, 41, 45]
        seg = mark_segment(20, 46)
        assert seg.packed.tolist() == [0b01100001, 0b01010010, 0b00110011, 0b00000010]
        assert seg.bits.tolist() == [n in values for n in range(20, 46)]
        assert (np.flatnonzero(seg.bits) + 20).tolist() == values


class TestMarkSegment:
    def test_first_decade(self):
        assert set_values(0, 10) == [0, 1, 2, 4, 5, 8, 9]

    def test_window_around_20(self):
        assert set_values(20, 26) == [20, 25]

    def test_window_around_1493(self):
        assert set_values(1493, 1509) == [1493, 1508]

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            mark_segment(10, 10)
        with pytest.raises(ValueError):
            mark_segment(10, 5)
        with pytest.raises(ValueError):
            mark_segment(-1, 5)
        with pytest.raises(ValueError):
            mark_segment(0, 2**63)
        # bool is an int subclass, but no window edge
        for lo, hi, field in ((False, 8, "lo"), (0, True, "hi"), (False, True, "lo")):
            with pytest.raises(ValueError, match=f"mark_segment: {field} must be an integer"):
                mark_segment(lo, hi)
        # rejected before the rows, which grow with sqrt(hi), are allocated
        for lo, hi in ((2**62, 2**62 + 77), (sieve.MAX_VALUE - 1, sieve.MAX_VALUE + 1)):
            with pytest.raises(ValueError, match=f"hi={hi}"):
                mark_segment(lo, hi)

    def test_value_bound_covers_the_scan_and_its_read_ahead(self):
        # the read-ahead windows end at limit + MAX_GAP
        assert analysis.MAX_S + analysis.MAX_GAP < sieve.MAX_VALUE

    def test_rejects_windows_over_memory_cap(self):
        with pytest.raises(ValueError, match="memory cap"):
            mark_segment(0, sieve.DEFAULT_MEMORY_CAP + 1)

    def test_zero_is_representable(self):
        assert mark_segment(0, 1).bits[0]

    def test_zero_disallowed_convention(self):
        # without zero summands the squares 1, 4, 9, 16 drop out but 25 stays
        assert set_values(0, 30, allow_zero=False) == [2, 5, 8, 10, 13, 17, 18, 20, 25, 26, 29]

    def test_agrees_with_membership_table_to_1e5(self):
        limit = 10**5
        expected = np.frombuffer(bytes(brute_membership(limit)), dtype=np.uint8).astype(bool)
        got = mark_segment(0, limit + 1).bits
        assert np.array_equal(got, expected)

    def test_agrees_with_membership_table_strict(self):
        limit = 2 * 10**4
        expected = np.frombuffer(
            bytes(brute_membership(limit, allow_zero=False)), dtype=np.uint8
        ).astype(bool)
        got = mark_segment(0, limit + 1, allow_zero=False).bits
        assert np.array_equal(got, expected)

    def test_window_decomposition_matches_full_range(self):
        full = mark_segment(0, 40000).bits
        for size in (1 << 9, 1 << 12, 7777):
            parts = [mark_segment(lo, min(lo + size, 40000)).bits
                     for lo in range(0, 40000, size)]
            assert np.array_equal(np.concatenate(parts), full)

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.integers(min_value=0, max_value=10**9),
        span=st.integers(min_value=1, max_value=3000),
    )
    def test_random_windows_match_oracle(self, lo, span):
        seg = mark_segment(lo, lo + span)
        for i in (0, span // 2, span - 1):
            n = lo + i
            expected = True if n == 0 else brute_is_sum(n)
            assert bool(seg.bits[i]) == expected

    @pytest.mark.parametrize("allow_zero", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(edge=square_edges, span=st.integers(1, 200), edge_is_lo=st.booleans())
    def test_square_edge_windows_match_oracle(self, allow_zero, edge, span, edge_is_lo):
        if edge_is_lo:
            lo, hi = edge, edge + span
        else:
            hi = max(edge, 1)
            lo = max(0, hi - span)
        bits = mark_segment(lo, hi, allow_zero=allow_zero).bits
        assert bits.tolist() == [oracle(n, allow_zero) for n in range(lo, hi)]

    @pytest.mark.parametrize("allow_zero", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(lo=st.integers(0, 10**5), width=st.integers(1, 300))
    def test_unaligned_windows_match_reference(self, allow_zero, lo, width):
        # lo and width off multiples of 8, so the last packed byte is padded
        lo, width = lo | 1, width | 1
        seg = mark_segment(lo, lo + width, allow_zero=allow_zero)
        assert seg.packed.size == (width + 7) // 8
        assert seg.bits.tolist() == [brute_is_sum(n, allow_zero) for n in range(lo, lo + width)]
        assert int(seg.packed[-1]) >> ((width - 1) % 8 + 1) == 0

    # tiny blocks, then every width the rule picks
    @pytest.mark.parametrize("block", [8, 24, 1 << 10, *RULE_WIDTHS])
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_windows_across_block_edges_match_reference(self, monkeypatch, block, allow_zero):
        monkeypatch.setattr(sieve, "_block_width", lambda hi: block)
        table = brute_membership(5000, allow_zero)
        # (1494, 1508) lies inside the gap after 1493: its rows hold no points
        windows = [(0, 5001), (3, 4999), (1493, 1798), (4001, 4002), (17, 4090), (1494, 1508)]
        assert not any(table[1494:1508])
        # the default groups of lattice points, groups of one row each, of a
        # few rows, and empty groups where several cuts fall in one row
        default_chunk = sieve._CHUNK
        for chunk in (default_chunk, 1, 7, 64):
            monkeypatch.setattr(sieve, "_CHUNK", chunk)
            for lo, hi in windows:
                seg = mark_segment(lo, hi, allow_zero=allow_zero)
                assert seg.bits.tolist() == [bool(t) for t in table[lo:hi]], (chunk, lo, hi)
                assert int(seg.packed[-1]) >> ((hi - lo - 1) % 8 + 1) == 0
        monkeypatch.setattr(sieve, "_CHUNK", default_chunk)
        if block in RULE_WIDTHS:
            # two blocks and a ragged end: across the heights where the rule
            # switches, near 10^12 and up to MAX_VALUE, where x >= 2^16 and
            # x^2 wraps modulo 2^32
            span = 2 * block + 4093
            for lo in (*(top - block - 5 for top, _ in sieve._BLOCK_WIDTHS[:-1]),
                       10**12 - span, sieve.MAX_VALUE - span):
                seg = mark_segment(lo, lo + span, allow_zero=allow_zero)
                assert np.array_equal(seg.bits, mask_reference(lo, lo + span, allow_zero)), lo

    @pytest.mark.parametrize("lo", [10**9, 10**10, 10**11, 10**12 - analysis.DEFAULT_SEGMENT_SIZE])
    def test_full_windows_across_the_budget_match_reference(self, lo):
        # one whole scan window at each decade of the budget, the last just
        # below 10^12, each marked in the block width its height picks
        hi = lo + analysis.DEFAULT_SEGMENT_SIZE
        assert np.array_equal(mark_segment(lo, hi).bits, representable_mask(lo, hi))

    def test_completeness_counts(self):
        # set bits in [0, x] against the brute count, 0 included
        seg = mark_segment(0, 10**5 + 1)
        for x, expected in [(10**3, 331), (10**4, 2750), (10**5, 24029)]:
            assert int(seg.bits[: x + 1].sum()) == expected


class TestBlockWidth:
    def test_rule_covers_the_domain_in_widening_steps(self):
        tops = [top for top, _ in sieve._BLOCK_WIDTHS]
        assert tops == sorted(tops) and tops[-1] == sieve.MAX_VALUE
        assert RULE_WIDTHS == sorted(RULE_WIDTHS) == [1 << 19, 1 << 20, 1 << 21, 1 << 24]
        # each width switches to the next just past its top
        for (top, width), (_, wider) in itertools.pairwise(sieve._BLOCK_WIDTHS):
            assert sieve._block_width(top) == width and sieve._block_width(top + 1) == wider
        assert sieve._block_width(1) == 1 << 19
        assert sieve._block_width(sieve.MAX_VALUE) == 1 << 24

    def test_verify_at_1e8_marks_in_the_narrowest_blocks(self, monkeypatch):
        rule, seen = sieve._block_width, []
        monkeypatch.setattr(sieve, "_block_width", lambda hi: seen.append(hi) or rule(hi))
        assert analysis.verify(10**8, Threshold.parse("2414/1000")).passed
        # six windows up to 10^8, then the read-ahead past it
        assert len(seen) > 6 and max(seen) > 10**8 + 1
        assert {rule(hi) for hi in seen} == {1 << 19}


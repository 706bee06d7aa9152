import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import GapPair, factorize, gap_stream, is_sum_of_two_squares, mark_segment, sieve

from reference import brute_is_sum, brute_membership, brute_pairs


def set_values(lo, hi, **kwargs):
    return mark_segment(lo, hi, **kwargs).values().tolist()


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


# k^2, k^2 +- 1, 2k^2 and 2k^2 +- 1: where a row's run starts or stops, and
# the diagonal x = y that ends it
square_edges = st.builds(
    lambda k, form, delta: max(0, form * k * k + delta),
    st.one_of(st.integers(0, 3000), st.integers(0, 10**6)),
    st.sampled_from([1, 2]),
    st.integers(-1, 1),
)


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

    def test_rejects_windows_over_memory_cap(self):
        with pytest.raises(ValueError, match="memory cap"):
            mark_segment(0, 1 << 20, memory_cap=1 << 16)

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

    def test_completeness_counts(self):
        # set bits in [0, x] against the brute count, 0 included
        seg = mark_segment(0, 10**5 + 1)
        for x, expected in [(10**3, 331), (10**4, 2750), (10**5, 24029)]:
            assert int(seg.bits[: x + 1].sum()) == expected


class TestGapStream:
    def test_first_decade_pairs(self):
        pairs = list(gap_stream(0, 10))
        assert [(p.s, p.s_next) for p in pairs] == [
            (1, 2), (2, 4), (4, 5), (5, 8), (8, 9), (9, 10), (10, 13),
        ]
        assert GapPair(4, 5) in pairs
        assert GapPair(5, 8) in pairs
        assert GapPair(9, 10) in pairs

    def test_no_pair_starts_at_zero(self):
        assert all(p.s >= 1 for p in gap_stream(0, 50))

    def test_start_15_limit_30(self):
        pairs = list(gap_stream(15, 30))
        assert GapPair(20, 25) in pairs
        assert pairs[0].s >= 15
        assert [(p.s, p.s_next) for p in pairs] == [
            (16, 17), (17, 18), (18, 20), (20, 25), (25, 26), (26, 29), (29, 32),
        ]

    def test_big_gap_at_1493(self):
        pairs = list(gap_stream(1400, 1500))
        pair = next(p for p in pairs if p.s == 1493)
        assert pair == GapPair(1493, 1508)
        assert pair.gap == 15

    def test_read_ahead_crosses_windows(self):
        # with 16-wide windows, [1496, 1504) contains nothing representable,
        # so the final pair must stitch across an empty window
        pairs = list(gap_stream(1400, 1500, segment_size=16))
        assert pairs[-1] == GapPair(1493, 1508)

    def test_windows_are_clamped_to_limit(self, monkeypatch):
        widths = []
        real = sieve.mark_segment

        def recording(lo, hi, **kwargs):
            widths.append(hi - lo)
            return real(lo, hi, **kwargs)

        monkeypatch.setattr(sieve, "mark_segment", recording)
        assert len(list(gap_stream(0, 10))) == 7
        assert widths and max(widths) <= 4096

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            list(gap_stream(10, 10))
        with pytest.raises(ValueError):
            list(gap_stream(-1, 10))

    @pytest.mark.parametrize("segment_size", [2, 16, 1 << 10, 1 << 20])
    def test_stitching_invariant_under_window_size(self, segment_size):
        expected = brute_pairs(0, 3000)
        got = [(p.s, p.s_next) for p in gap_stream(0, 3000, segment_size=segment_size)]
        assert got == expected

    def test_matches_oracle_with_offset_start(self):
        got = [(p.s, p.s_next) for p in gap_stream(333, 2500, segment_size=64)]
        assert got == brute_pairs(333, 2500)

    def test_gap_adjacency(self):
        rng = np.random.default_rng(20260810)
        pairs = list(gap_stream(0, 10**5, segment_size=1 << 14))
        for idx in rng.choice(len(pairs), size=40, replace=False):
            p = pairs[idx]
            assert is_sum_of_two_squares(p.s)
            assert is_sum_of_two_squares(p.s_next)
            for m in range(p.s + 1, p.s_next):
                assert not is_sum_of_two_squares(m)

    def test_strict_convention_stream(self):
        got = [(p.s, p.s_next) for p in gap_stream(0, 30, allow_zero=False)]
        assert got == brute_pairs(0, 30, allow_zero=False)
        assert (2, 5) in got

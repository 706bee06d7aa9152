import json
import os
import pickle
import re
import subprocess
import sys
from collections import deque
from decimal import Decimal
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import (
    BudgetError,
    Checkpoint,
    CheckpointError,
    GapPair,
    RatioRecord,
    CheckReport,
    Threshold,
    critical_constant,
    cross_check,
    density,
    exceeds_threshold,
    gap_records,
    normalized_stats,
    ratio_less,
    read_checkpoint,
    significant,
    verify,
    write_checkpoint,
)

from twosquares import analysis
from twosquares.analysis import CHECKPOINT_VERSION, _Summary, _summarize_window
from twosquares.representability import representable_mask
from twosquares.cli import emit_report
from twosquares.sieve import mark_segment

from reference import brute_champion, brute_count, brute_pairs, brute_records, ratio_fraction

# stitching across windows narrower than the read-ahead, empty ones included
SEGMENT_SIZES = [2, 16, 1 << 10, 1 << 20]

RECORDS_TO_2000 = [
    (1, 1), (2, 2), (3, 5), (5, 20), (6, 74), (7, 90),
    (8, 185), (9, 377), (11, 986), (15, 1493),
]


def pair(s, gap):
    return GapPair(s, s + gap)


def record_windows(monkeypatch):
    """List every (lo, hi) the scan marks in this process from now on: at
    several workers, the windows k = 0 (mod workers) of its plan."""
    windows = []
    real = analysis.mark_segment

    def recording(lo, hi, **kwargs):
        windows.append((lo, hi))
        return real(lo, hi, **kwargs)

    monkeypatch.setattr(analysis, "mark_segment", recording)
    return windows


def mark_with(monkeypatch, allow_zero):
    """Have the scan mark its windows in the given summand convention.  The
    scan counts 0 as a summand; only this patch feeds it the strict bitmap,
    whose values start at 2 and whose gaps differ, to check its reduce on
    a second bitmap."""
    monkeypatch.setattr(analysis, "mark_segment", partial(mark_segment, allow_zero=allow_zero))


def draw_windows(monkeypatch):
    """List every (lo, hi) the scan draws from now on, in the parent
    process, whatever the worker count."""
    drawn, real = [], analysis._windows

    def recording(*args):
        for window in real(*args):
            drawn.append(window)
            yield window

    monkeypatch.setattr(analysis, "_windows", recording)
    return drawn


def flip_marks(monkeypatch, *ns):
    """Flip the sieve's bit for each n in ns in every window marked from now
    on; workers forked after the call see the flips too."""
    real = analysis.mark_segment

    def flip(lo, hi, **kwargs):
        seg = real(lo, hi, **kwargs)
        for n in ns:
            if lo <= n < hi:
                seg.packed[(n - lo) >> 3] ^= 1 << ((n - lo) & 7)
        return seg

    monkeypatch.setattr(analysis, "mark_segment", flip)


class TestRatioLess:
    def test_record_at_1493_beats_record_at_20(self):
        assert ratio_less(pair(20, 5), pair(1493, 15))
        assert not ratio_less(pair(1493, 15), pair(20, 5))

    def test_irreflexive(self):
        assert not ratio_less(pair(20, 5), pair(20, 5))

    def test_cross_product_example(self):
        # 3^4 * 20 = 1620 < 5^4 * 5 = 3125
        assert ratio_less(pair(5, 3), pair(20, 5))

    def test_exact_tie_is_not_less(self):
        # 2 / 16^(1/4) == 1 / 1^(1/4) exactly
        assert not ratio_less(pair(16, 2), pair(1, 1))
        assert not ratio_less(pair(1, 1), pair(16, 2))

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            ratio_less(pair(10**12 + 1, 5), pair(20, 5))
        with pytest.raises(BudgetError):
            ratio_less(pair(20, 5), pair(10**6, 10**5 + 1))

    @settings(max_examples=300)
    @given(
        sa=st.integers(min_value=1, max_value=10**12),
        ga=st.integers(min_value=1, max_value=10**5),
        sb=st.integers(min_value=1, max_value=10**12),
        gb=st.integers(min_value=1, max_value=10**5),
    )
    def test_agrees_with_rational_arithmetic(self, sa, ga, sb, gb):
        expected = ratio_fraction(sa, ga) < ratio_fraction(sb, gb)
        assert ratio_less(pair(sa, ga), pair(sb, gb)) == expected


class TestExceedsThreshold:
    def test_straddle_at_1493(self):
        assert exceeds_threshold(pair(1493, 15), Threshold.parse("2413/1000"))
        assert not exceeds_threshold(pair(1493, 15), Threshold.parse("2414/1000"))

    def test_trivial_case(self):
        assert exceeds_threshold(pair(20, 5), Threshold(2, 1))

    def test_equality_counts_as_exceeding(self):
        # 2 / 16^(1/4) == 1 exactly, and the open interval above 16 of
        # length exactly 2 contains no representable value
        assert exceeds_threshold(pair(16, 2), Threshold(1, 1))

    @settings(max_examples=300)
    @given(
        s=st.integers(min_value=1, max_value=10**12),
        g=st.integers(min_value=1, max_value=10**5),
        p=st.integers(min_value=1, max_value=8000),
        q=st.integers(min_value=1, max_value=1000),
    )
    def test_agrees_with_rational_arithmetic(self, s, g, p, q):
        from math import gcd

        d = gcd(p, q)
        p, q = p // d, q // d
        if p > 8 * q:
            return
        t = Threshold(p, q)
        expected = Fraction(g**4, s) >= Fraction(p, q) ** 4
        assert exceeds_threshold(pair(s, g), t) == expected


class TestThresholdParsing:
    def test_fraction_reduces(self):
        assert Threshold.parse("2414/1000") == Threshold(1207, 500)

    def test_decimal_reduces(self):
        assert Threshold.parse("2.414") == Threshold(1207, 500)

    def test_integer(self):
        assert Threshold.parse("2") == Threshold(2, 1)

    @pytest.mark.parametrize(
        "bad",
        ["2.4135", "0", "0/5", "-1/2", "1/0", "9/1", "8.001", "1/2000",
         "abc", "1e-3", "2/", "/3", "1.2.3", "", "\u00b2", "1/\u00b2", "\u00b2/3", "2.\u00b2"],
    )
    def test_rejected(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            Threshold.parse(bad)

    def test_upper_bound_inclusive(self):
        assert Threshold.parse("8") == Threshold(8, 1)

    def test_denominator_budget(self):
        with pytest.raises(BudgetError):
            Threshold(7, 1999)

    @pytest.mark.parametrize("build", [
        lambda: Threshold(3, 6),
        lambda: Threshold._make((3, 6)),
        lambda: Threshold(1, 2)._replace(q=1001),
        lambda: Threshold(True, 1),
        lambda: Threshold(1, True),
    ], ids=["call", "make", "replace", "bool-p", "bool-q"])
    def test_every_way_of_building_one_is_checked(self, build):
        with pytest.raises(ValueError, match="threshold"):
            build()


@pytest.mark.parametrize("record", [
    Threshold(1207, 500),
    Checkpoint(2, 100, 30, 29, RatioRecord.of(20, 5), ((1, 1), (5, 20)), 13, ((10, 7),)),
    _Summary(0, 64, 27, 1, 61, ((1, 1), (2, 2), (3, 5))),
], ids=["Threshold", "Checkpoint", "_Summary"])
def test_records_survive_a_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


@pytest.mark.parametrize("entry", [critical_constant, gap_records, density,
                                   partial(verify, threshold=Threshold(8, 1))],
                         ids=["critical_constant", "gap_records", "density", "verify"])
def test_the_scan_takes_no_summand_convention(entry):
    # every scan counts 0 as a summand, the paper's convention
    with pytest.raises(TypeError, match="allow_zero"):
        entry(100, allow_zero=True)


@pytest.mark.parametrize("entry", [critical_constant, gap_records, density, cross_check,
                                   partial(verify, threshold=Threshold(8, 1))],
                         ids=["critical_constant", "gap_records", "density", "cross_check",
                              "verify"])
def test_the_scan_takes_no_window_size(entry):
    # the windows are analysis.DEFAULT_SEGMENT_SIZE values wide, from 1
    with pytest.raises(TypeError, match="segment_size"):
        entry(10, segment_size=4)


class TestCriticalConstant:
    def test_limit_25(self):
        rec = critical_constant(25)
        assert (rec.s, rec.gap) == (20, 5)

    def test_limit_1000(self):
        rec = critical_constant(1000)
        assert (rec.s, rec.gap) == (20, 5)
        assert significant(rec.ratio_display) == "2.36435402251"

    def test_limit_2000(self):
        rec = critical_constant(2000)
        assert (rec.s, rec.gap) == (1493, 15)
        assert significant(rec.ratio_display) == "2.41310548678"

    def test_matches_brute_champion(self):
        for limit in (10, 100, 333, 5000, 20000):
            rec = critical_constant(limit)
            assert (rec.s, rec.gap) == brute_champion(limit)

    def test_monotone_in_limit(self):
        limits = [10, 25, 100, 1000, 2000, 10**4, 10**5]
        ratios = [ratio_fraction(r.s, r.gap)
                  for r in (critical_constant(m) for m in limits)]
        assert ratios == sorted(ratios)

    def test_invariant_under_segment_size(self, windows):
        got = []
        for size in (1 << 12, 1 << 16, 1 << 24):
            windows(size)
            got.append(critical_constant(10**5))
        assert got[0] == got[1] == got[2]

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            critical_constant(1)

    def test_rejects_over_budget(self):
        with pytest.raises(BudgetError):
            critical_constant(10**12 + 1)


class TestVerify:
    def test_passes_above_supremum(self):
        report = verify(2000, Threshold.parse("2414/1000"))
        assert report.passed is True
        assert report.first_offender is None
        assert (report.max_record.s, report.max_record.gap) == (1493, 15)
        assert report.pairs_scanned == 619

    def test_fails_below_supremum(self):
        report = verify(2000, Threshold.parse("2413/1000"))
        assert report.passed is False
        assert report.first_offender == GapPair(1493, 1508)
        assert (report.max_record.s, report.max_record.gap) == (1493, 15)

    def test_first_offender_skips_earlier_smaller_ratios(self):
        # 5/20^(1/4) = 2.364 < 2.400, so 20 passes and 1493 is first
        report = verify(2000, Threshold.parse("2400/1000"))
        assert report.passed is False
        assert report.first_offender.s == 1493

    def test_low_threshold_names_earliest_offender(self):
        report = verify(2000, Threshold(1, 1))
        assert report.passed is False
        assert report.first_offender == GapPair(1, 2)

    def test_pass_fail_boundary_matches_rational_oracle(self):
        from math import gcd

        for p, q in [(2413, 1000), (2414, 1000), (12, 5), (241, 100),
                     (2829, 1000), (5, 2)]:
            d = gcd(p, q)
            t = Threshold(p // d, q // d)
            report = verify(2000, t)
            expected_failed = Fraction(15**4, 1493) >= Fraction(p, q) ** 4
            assert report.passed == (not expected_failed), (p, q)

    def test_two_workers_draw_only_the_windows_one_worker_marks(self, monkeypatch):
        # six windows up to 10^8, the first one holding the decades 10 .. 10^7
        # and marked once, and one read-ahead window; at 2 workers this
        # process draws the same windows, none past the one that ends the
        # scan, and marks windows 0, 2, 4 and 6 itself
        drawn = draw_windows(monkeypatch)
        marked = record_windows(monkeypatch)
        t = Threshold.parse("2414/1000")
        assert verify(10**8, t).passed
        assert len(marked) == 7 and drawn == marked
        plan = list(marked)
        drawn.clear()
        marked.clear()
        assert verify(10**8, t, workers=2).passed
        assert drawn == plan
        assert marked == plan[0::2]

    def test_progress_sees_each_state_once_the_table_is_not_empty(self, windows):
        seen = []
        windows(1)
        report = verify(20, Threshold(2, 1), progress=seen.append)
        # the window [1, 2) holds no pair; the limit ends a window at 21, and
        # the read-ahead steps by 1 from there and ends at 26, where 25 turns up
        assert [cp.position for cp in seen] == list(range(3, 27))
        assert [cp.done for cp in seen] == [False] * (len(seen) - 1) + [True]
        assert seen[-1].pairs_scanned == report.pairs_scanned
        assert seen[-1].current_max == report.max_record

    def test_threshold_type_enforced(self):
        with pytest.raises(ValueError):
            verify(2000, "2414/1000")


class TestGapRecords:
    def test_limit_10(self):
        assert gap_records(10) == [(1, 1), (2, 2), (3, 5)]

    def test_limit_30(self):
        assert gap_records(30) == [(1, 1), (2, 2), (3, 5), (5, 20)]

    def test_limit_2000(self):
        assert gap_records(2000) == RECORDS_TO_2000

    def test_matches_brute_records(self):
        for limit in (50, 777, 20000):
            assert gap_records(limit) == brute_records(limit)

    @pytest.mark.parametrize("allow_zero", [True, False])
    @pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
    def test_brute_records_at_every_window_size(self, monkeypatch, windows, segment_size,
                                                 allow_zero):
        # at 1500 the last pair, (1493, 1508), ends in a read-ahead window
        mark_with(monkeypatch, allow_zero)
        windows(segment_size)
        for limit in (50, 777, 1500, 20000):
            assert gap_records(limit) == brute_records(limit, allow_zero)

    @pytest.mark.parametrize("allow_zero", [True, False])
    @pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
    def test_pairs_scanned_matches_brute_pairs(self, monkeypatch, windows, segment_size,
                                               allow_zero):
        mark_with(monkeypatch, allow_zero)
        windows(segment_size)
        for limit in (50, 777, 1500, 20000):
            report = verify(limit, Threshold(8, 1))
            assert report.pairs_scanned == len(brute_pairs(0, limit, allow_zero))

    def test_read_ahead_crosses_windows(self, monkeypatch, windows):
        # with 2-wide windows from 1, [1495, 1507) is six empty windows,
        # three of them read-ahead windows stepping from the limit's edge
        # 1501, so the last pair (1493, 1508) must stitch across them into
        # the read-ahead window where 1508 turns up
        marked = record_windows(monkeypatch)
        windows(2)
        assert gap_records(1500)[-1] == (15, 1493)
        assert marked[-8:] == [
            (1493, 1495), (1495, 1497), (1497, 1499), (1499, 1501),
            (1501, 1503), (1503, 1505), (1505, 1507), (1507, 1509),
        ]

    def test_windows_are_clamped_to_limit(self, monkeypatch):
        windows = record_windows(monkeypatch)
        assert gap_records(10) == [(1, 1), (2, 2), (3, 5)]
        # [1, 11), then one read-ahead window up to 10 + MAX_GAP, where 13
        # turns up
        assert windows == [(1, 11), (11, 11 + analysis.MAX_GAP)]

    def test_successor_past_the_gap_budget_names_the_pair(self, monkeypatch):
        # the successor of 20 is 25, past 20 + MAX_GAP = 24, where the
        # windows end
        monkeypatch.setattr(analysis, "MAX_GAP", 4)
        assert gap_records(19)[-1] == (3, 5)
        with pytest.raises(BudgetError, match="s=20 "):
            gap_records(20)

    def test_record_property(self):
        records = gap_records(10**5)
        gaps = [g for g, _ in records]
        firsts = [s for _, s in records]
        assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps)
        assert firsts == sorted(firsts)


class TestNormalizedGaps:
    def test_cutoff_excludes_small_s(self):
        stats = normalized_stats(gap_records(30))
        assert [st.s for st in stats] == [20]

    def test_values_at_20(self):
        (st20,) = normalized_stats(gap_records(30))
        assert st20.gap == 5
        assert significant(st20.erdos_norm) == "1.74826663499"
        assert significant(st20.cramer_norm) == "0.557139574257"

    def test_values_at_1493(self):
        stats = {st.s: st for st in normalized_stats(gap_records(2000))}
        assert significant(stats[1493].cramer_norm) == "0.280821057295"
        assert significant(stats[1493].erdos_norm) == "2.89456062434"

    def test_stats_only_for_records(self):
        records = gap_records(2000)
        stats = normalized_stats(records)
        assert [(st.gap, st.s) for st in stats] == [
            (g, s) for g, s in records if s >= 16
        ]


class TestDensity:
    def test_count_at_10(self):
        (pt,) = density(10)
        assert (pt.x, pt.count) == (10, 7)
        assert significant(pt.normalized) == "1.06219899057"

    def test_count_at_100(self):
        pt = density(100)[-1]
        assert (pt.x, pt.count) == (100, 43)
        assert significant(pt.normalized) == "0.922765391304"

    def test_known_counts(self):
        pts = density(10**5)
        assert [(p.x, p.count) for p in pts] == [
            (10, 7), (100, 43), (1000, 330), (10**4, 2749), (10**5, 24028)
        ]

    def test_matches_brute_count(self):
        for limit, xs in [(2, [2]), (17, [10, 17]), (333, [10, 100, 333]),
                          (9999, [10, 100, 1000, 9999])]:
            pts = density(limit)
            assert [(p.x, p.count) for p in pts] == [(x, brute_count(x)) for x in xs]

    def test_rejects_small_points(self):
        with pytest.raises(ValueError, match="limit"):
            density(1)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, "2", True])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            density(100, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            cross_check(1000, workers=workers)

    def test_invariant_under_segment_size_and_workers(self, windows):
        windows(1 << 12)
        a = density(10**5)
        windows(1 << 20)
        b = density(10**5, workers=2)
        assert a == b

    @pytest.mark.parametrize("allow_zero", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size", [16, 1 << 10])
    def test_points_at_window_edges_match_brute_count(self, monkeypatch, windows, size, workers,
                                                      allow_zero):
        # the windows start at 1 + k * size, so limit + 1 falls on an edge,
        # one before it and one after it
        mark_with(monkeypatch, allow_zero)
        windows(size)
        for limit in [k * size + d for k in (1, 2, 5) for d in (-1, 0, 1)] + [5 * size + 7]:
            got = density(limit, workers=workers)
            assert got[-1].x == limit
            assert [p.count for p in got] == [brute_count(p.x, allow_zero) for p in got]

    def test_one_scan_marks_each_value_once(self, monkeypatch, windows):
        marked = record_windows(monkeypatch)
        windows(1 << 16)
        assert [p.count for p in density(100)] == [7, 43]
        # a window up to the limit 100, counted up to the decade 10, then
        # one read-ahead window of 2^16 values from limit + 1, where 101
        # turns up: [1, 100 + 2^16] marked once, in one pass
        assert marked == [(1, 101), (101, 101 + (1 << 16))]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_scan_draws_the_same_windows(monkeypatch, windows, workers):
    # the window plan is fixed by limit, the window size and the scan's
    # start, whichever report reads the scan and however many workers: the
    # steps from 1, the limit and the read-ahead, which steps from limit + 1
    # and whose first window holds 100009, each drawn once by this process
    drawn = draw_windows(monkeypatch)
    windows(1 << 12)
    verify(10**5, Threshold.parse("2414/1000"), workers=workers)
    plan = list(drawn)
    assert plan == [*((lo, lo + (1 << 12)) for lo in range(1, 24 << 12, 1 << 12)),
                    (1 + (24 << 12), 10**5 + 1), (10**5 + 1, 10**5 + 1 + (1 << 12))]
    for report in (gap_records, density):
        drawn.clear()
        report(10**5, workers=workers)
        assert drawn == plan, report.__name__


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(2, 3000), size=st.integers(1, 700))
def test_scan_and_check_windows_start_at_1_and_are_contiguous(limit, size):
    # whatever the window size: the scan's windows, the read-ahead's
    # included, and the check's, which end at limit + 1
    marked, real = [], analysis.mark_segment

    def recording(lo, hi, **kwargs):
        marked.append((lo, hi))
        return real(lo, hi, **kwargs)

    with mock.patch.object(analysis, "DEFAULT_SEGMENT_SIZE", size), \
            mock.patch.object(analysis, "mark_segment", recording):
        gap_records(limit)
        scanned = list(marked)
        marked.clear()
        cross_check(limit)
    for plan in (scanned, marked):
        assert plan[0][0] == 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(plan, plan[1:]))
        assert all(0 < hi - lo <= size for lo, hi in plan)
    assert marked[-1][1] == limit + 1


class TestWindows:
    @pytest.mark.parametrize(
        "start, limit, size", [(0, 10, 4), (0, 100, 16), (7, 64, 8), (5, 6, 2)]
    )
    def test_without_cuts_steps_by_segment_size(self, start, limit, size):
        # the grid that check scans, and that verify, records and density
        # chain for the limit's windows and for the read-ahead's
        expected = [(lo, min(lo + size, limit + 1)) for lo in range(start, limit + 1, size)]
        assert list(analysis._windows(start, limit, size)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        limit=st.integers(2, 300),
        gap=st.integers(1, 300),
        size=st.integers(2, 64),
        data=st.data(),
    )
    def test_scan_plan_reads_ahead_from_the_limit(self, limit, gap, size, data):
        # the plan _scan draws from a state at start, 1 or later as every
        # state is, with the gap budget set to gap; with no window computed,
        # it runs out and raises.  Past 1 the state has met 1 and holds the
        # record (1, 2), and its last value is at most the limit, or it is done.
        start = data.draw(st.integers(1, limit + gap), label="start")
        plan = []

        def draw(fn, args, workers):
            plan.extend((lo, hi) for lo, hi, *_ in args)
            return iter(())

        last, records = (None, ()) if start == 1 else (min(start - 1, limit), ((1, 1),))
        cp = analysis.Checkpoint(analysis.CHECKPOINT_VERSION, limit, start, last, None, records, 0)
        with mock.patch.object(analysis, "MAX_GAP", gap), \
                mock.patch.object(analysis, "DEFAULT_SEGMENT_SIZE", size), \
                mock.patch.object(analysis, "_ordered_map", draw):
            with pytest.raises(analysis.BudgetError):
                list(analysis._scan(limit, 1, cp))
        # contiguous, [start, limit + gap] exactly, none wider than size
        assert plan[0][0] == start and plan[-1][1] == limit + gap + 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(plan, plan[1:]))
        assert all(0 < hi - lo <= size for lo, hi in plan)
        # a window ends at limit + 1 whenever the plan starts at or below
        # the limit, so no window holds both s <= limit and read-ahead values
        assert (limit + 1 in {hi for _, hi in plan}) == (start <= limit)

    def test_stays_lazy(self):
        # 5 * 10^11 windows: the first comes without listing the others
        assert next(iter(analysis._windows(0, 10**12, 2))) == (0, 2)


class TestCrossCheck:
    def test_sieve_agrees_with_criterion(self, windows):
        windows(1024)
        assert cross_check(5000) == CheckReport(5000, 5000, 0, None)

    def test_counts_and_names_mismatches(self, monkeypatch, windows):
        flip_marks(monkeypatch, 2999, 3000, 4500)
        windows(1024)
        assert cross_check(5000) == CheckReport(5000, 5000, 3, 2999)

    def test_workers_give_the_same_report(self, monkeypatch, windows):
        # mismatches in the windows [2049, 3073) and [4097, 5001)
        flip_marks(monkeypatch, 2999, 3000, 4500)
        windows(1024)
        want = CheckReport(5000, 5000, 3, 2999)
        assert cross_check(5000, workers=1) == want
        assert cross_check(5000, workers=2) == want
        assert cross_check(5000, workers=8) == want

    def test_one_window_starts_no_pool(self, monkeypatch, windows):
        def no_fork():
            raise AssertionError("forked a process for one window")

        monkeypatch.setattr(os, "fork", no_fork)
        assert cross_check(200000, workers=2) == CheckReport(200000, 200000, 0, None)
        windows(1024)
        with pytest.raises(AssertionError, match="forked"):
            cross_check(5000, workers=2)

    @pytest.mark.parametrize("limit, size, field", [(10**12 + 1, 1024, "limit"), (1, 1024, "limit")])
    def test_rejects_bad_arguments_naming_the_field(self, windows, limit, size, field):
        windows(size)
        with pytest.raises(ValueError, match=field):
            cross_check(limit)


def assert_no_child():
    # waitpid raises once this process has no child left, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Local(Exception):
    """An exception whose __init__ does not take its args: pickle writes it,
    but cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("count", range(6))
def test_ordered_map_forks_one_child_per_drawn_item_past_the_first(monkeypatch, count, workers):
    # the empty iterator and one worker fork nothing; at most 5 processes
    real, forks, drawn = os.fork, [], []

    def fork():
        forks.append(None)
        return real()

    def items():
        for a in range(count):
            drawn.append(a)
            yield a

    monkeypatch.setattr(os, "fork", fork)
    got = list(analysis._ordered_map(lambda a: a * a + 1, items(), workers))
    assert got == [a * a + 1 for a in range(count)]
    assert len(forks) == max(0, min(workers, count) - 1)
    assert drawn == list(range(count))  # each item drawn here, once
    assert_no_child()


class TestWorkersBound:
    """The library refuses workers outside [1, MAX_WORKERS], and above 1
    where os has no fork, before any window; no process starts here."""

    T = Threshold.parse("2414/1000")

    @pytest.fixture
    def forks(self, monkeypatch):
        forks = []

        def fork():
            forks.append(None)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", fork)
        return forks

    def test_above_the_bound_is_refused(self, forks):
        assert analysis.MAX_WORKERS == 256
        with pytest.raises(ValueError, match=r"^workers: .* \[1, 256\], got 257$"):
            verify(10**4, self.T, workers=257)
        with pytest.raises(ValueError, match="workers"):
            cross_check(100, workers=257)
        assert forks == []

    def test_the_bound_on_two_windows_forks_once(self, forks, windows):
        # verify --limit 10000 plans [1, 10001) and the read-ahead;
        # cross_check(100) in 64-wide windows plans [1, 65) and [65, 101)
        with pytest.raises(OSError, match="fork refused"):
            verify(10**4, self.T, workers=256)
        assert len(forks) == 1
        windows(64)
        with pytest.raises(OSError, match="fork refused"):
            cross_check(100, workers=256)
        assert len(forks) == 2

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match=r"^workers: must be an integer in \[1, 1\], got 2$"):
            verify(10**4, self.T, workers=2)
        assert verify(10**4, self.T, workers=1).passed


class TestForkedWorkers:
    """A scan to 10^5 in windows of 2^12 at 2 workers forks one child, which
    marks the odd windows of the plan."""

    T = Threshold.parse("2414/1000")

    def planted(self, monkeypatch, lo, act):
        """Mark as before, but call act(lo) in a child on the window at lo."""
        parent, real = os.getpid(), analysis.mark_segment

        def marking(lo_, hi, **kwargs):
            if lo_ == lo and os.getpid() != parent:
                act(lo_)
            return real(lo_, hi, **kwargs)

        monkeypatch.setattr(analysis, "mark_segment", marking)

    def test_no_more_processes_than_windows(self, monkeypatch):
        # verify --limit 10000 plans 2 windows, [1, 10001) and the
        # read-ahead; the fork starts no process, so its pipe ends at once
        forks, killed, reaped = [], [], []

        def fork():
            forks.append(10**9 + len(forks))  # above any pid the kernel gives
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(pid) or (pid, 0))
        with pytest.raises(RuntimeError, match="workers: child 1 ended before item 1"):
            verify(10**4, self.T, workers=64)
        assert len(forks) == 1 and killed == reaped == forks

    def test_a_childs_exception_is_raised_here(self, monkeypatch, windows):
        def fail(lo):
            raise BudgetError(f"planted at {lo} in a child")

        windows(1 << 12)
        self.planted(monkeypatch, 1 + (3 << 12), fail)
        with pytest.raises(BudgetError, match=f"^planted at {1 + (3 << 12)} in a child$"):
            verify(10**5, self.T, workers=2)
        assert_no_child()

    @pytest.mark.parametrize("exc, name", [
        (Local(1, 2), "Local: 1/2"),  # pickled, but cannot be rebuilt
        # no module-level class of its name to pickle it by
        (type("Unpicklable", (Exception,), {})("3/4"), "Unpicklable: 3/4"),
    ])
    def test_an_exception_that_cannot_be_rebuilt_is_named(self, monkeypatch, windows, exc,
                                                          name):
        def fail(lo):
            raise exc

        windows(4096)
        self.planted(monkeypatch, 4097, fail)
        with pytest.raises(RuntimeError, match=f"^workers: child 1: {name}$"):
            cross_check(10000, workers=2)
        assert_no_child()

    def test_a_child_that_dies_fails_the_scan(self, monkeypatch, windows):
        windows(1 << 12)
        self.planted(monkeypatch, 1 + (3 << 12), lambda lo: os._exit(3))
        with pytest.raises(RuntimeError, match="workers: child 1 ended before item 3"):
            verify(10**5, self.T, workers=2)
        assert_no_child()

    def test_a_scan_closed_early_leaves_no_child(self, windows):
        windows(1 << 12)
        scan = analysis._scan(10**5, 2)
        assert next(scan).position == 1 + (1 << 12)
        scan.close()
        assert_no_child()

    def test_a_finished_scan_leaves_no_child(self):
        assert verify(10**6, self.T, workers=2).passed
        assert_no_child()

    def test_a_failed_check_leaves_no_child(self, monkeypatch, windows):
        def fail(lo):
            raise ValueError(f"planted at {lo}")

        windows(1024)
        self.planted(monkeypatch, 1025, fail)
        with pytest.raises(ValueError, match="planted at 1025"):
            cross_check(5000, workers=2)
        assert_no_child()


def key_value_text(cp, version=2, allow_zero="1"):
    """cp in the key=value lines of checkpoint versions 1 and 2, which a
    version 3 reader refuses; version 1 has no decade_counts line."""
    def pairs(items):
        return ",".join(f"{a}:{b}" for a, b in items)

    lines = [f"version={version}", f"limit={cp.limit}", f"position={cp.position}",
             f"last_representable={cp.last_representable}", f"max_s={cp.current_max.s}",
             f"max_gap={cp.current_max.gap}", f"gap_records={pairs(cp.gap_records)}",
             f"pairs_scanned={cp.pairs_scanned}", f"allow_zero={allow_zero}"]
    if version == 2:
        lines.append(f"decade_counts={pairs(cp.decade_counts)}")
    return "\n".join(lines) + "\n"


def edit_fields(path, **fields):
    """Rewrite the JSON object in path with fields set; a field set to None
    is removed."""
    doc = json.loads(path.read_text()) | fields
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))


class TestCheckpointIO:
    def sample(self):
        return Checkpoint(
            version=CHECKPOINT_VERSION,
            limit=10**7,
            position=2 * 10**6,
            last_representable=2 * 10**6 - 3,
            current_max=RatioRecord.of(1493, 15),
            gap_records=tuple(RECORDS_TO_2000) + ((19, 5165), (20, 16109)),
            pairs_scanned=123456,
            # not every decade below position: a state may be resumed from
            # a file that lacks some
            decade_counts=((10, 7), (100, 43), (1000, 330), (10**4, 2749), (10**5, 24028)),
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "state.txt"
        cp = self.sample()
        write_checkpoint(cp, path)
        assert read_checkpoint(path) == cp
        # one JSON object on one line
        text = path.read_text()
        assert text.count("\n") == 1 and json.loads(text) == {
            "version": CHECKPOINT_VERSION, "limit": 10**7, "position": 2 * 10**6,
            "last_representable": 2 * 10**6 - 3, "max_s": 1493, "max_gap": 15,
            "gap_records": [list(r) for r in cp.gap_records], "pairs_scanned": 123456,
            "decade_counts": [list(c) for c in cp.decade_counts]}

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_bytes(b'{"version": 3, "limit": "\xff"}\n')
        with pytest.raises(CheckpointError, match="checkpoint"):
            read_checkpoint(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, extra=1)
        with pytest.raises(CheckpointError, match=r"unknown fields \['extra'\]"):
            read_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, version=None)
        with pytest.raises(CheckpointError, match=r"missing fields \['version'\]"):
            read_checkpoint(path)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="checkpoint-path: cannot read"):
            read_checkpoint(tmp_path / "absent.txt")

    def test_duplicate_field_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        path.write_text(path.read_text().replace("}", ', "limit": 10000000}'))
        with pytest.raises(CheckpointError, match="duplicate field 'limit'"):
            read_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, version=CHECKPOINT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_version_1_file_refused(self, tmp_path):
        # a version 1 file is key=value lines with no decade_counts line; as
        # a JSON object without decade_counts, the version is named rather
        # than the missing field
        path = tmp_path / "state.txt"
        path.write_text(key_value_text(self.sample(), version=1))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)
        write_checkpoint(self.sample(), path)
        edit_fields(path, version=1, decade_counts=None)
        with pytest.raises(CheckpointError, match="unsupported version 1"):
            read_checkpoint(path)

    def test_pairs_scanned_past_last_representable_or_limit_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        for cp in (self.sample()._replace(pairs_scanned=2 * 10**6 - 2),
                   self.sample()._replace(limit=200000, pairs_scanned=200001)):
            write_checkpoint(cp, path)
            with pytest.raises(CheckpointError, match="pairs_scanned"):
                read_checkpoint(path)

    def test_position_order_enforced(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, position=10)
        with pytest.raises(CheckpointError, match="position"):
            read_checkpoint(path)

    def test_inconsistent_max_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, max_s=20)
        with pytest.raises(CheckpointError, match="max"):
            read_checkpoint(path)

    def test_garbled_records_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        path.write_text(path.read_text().replace("[19, 5165]", '"19-5165"'))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_over_budget_record_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        records = [*map(list, self.sample().gap_records[:-1]), [100001, 16109]]
        edit_fields(path, gap_records=records, max_s=16109, max_gap=100001)
        with pytest.raises(CheckpointError, match="gap_records"):
            read_checkpoint(path)

    @pytest.mark.parametrize("limit, s", [(19 * 10**5, 2 * 10**6 - 3), (10**7, 2 * 10**6 - 1)])
    def test_record_past_limit_or_last_representable_rejected(self, tmp_path, limit, s):
        # a record's s is at most the limit and at most the last value scanned;
        # the stored maximum is fixed up to match the forged entry.  The
        # position, 2 * 10^6, is one that a scan of either limit reaches.
        path = tmp_path / "state.txt"
        cp = self.sample()._replace(limit=limit)
        write_checkpoint(cp, path)
        assert read_checkpoint(path) == cp
        write_checkpoint(cp._replace(current_max=RatioRecord.of(s, 100),
                                     gap_records=cp.gap_records + ((100, s),)), path)
        with pytest.raises(CheckpointError, match="gap_records"):
            read_checkpoint(path)

    def test_failed_replace_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "state.txt"
        old = self.sample()
        write_checkpoint(old, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(old._replace(position=3 * 10**6), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.txt"]

    def test_a_state_with_no_record_is_refused_before_any_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="gap_records"):
            write_checkpoint(Checkpoint(CHECKPOINT_VERSION, 100, 0, None, None, (), 0),
                             tmp_path / "state.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_path_that_is_not_a_regular_file_is_refused(self, tmp_path):
        # the rename would replace the FIFO with a regular file
        fifo = tmp_path / "ck"
        os.mkfifo(fifo)
        with pytest.raises(CheckpointError, match="^checkpoint-path: .* not a regular file"):
            write_checkpoint(self.sample(), fifo)
        assert fifo.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_a_fifo_is_refused_before_it_is_read(self, tmp_path):
        # opening a FIFO to read it waits for a writer, so the read runs in a
        # process of its own, where a regression fails on the timeout
        fifo = tmp_path / "ck"
        os.mkfifo(fifo)
        code = ("import sys\nfrom twosquares import CheckpointError, read_checkpoint\n"
                "try:\n    read_checkpoint(sys.argv[1])\n"
                "except CheckpointError as exc:\n    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(fifo)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"checkpoint-path: {fifo} exists and is not a regular file\n"
        assert fifo.is_fifo()

    def test_writes_leave_no_temp_files(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        write_checkpoint(self.sample()._replace(position=3 * 10**6), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.txt"]
        assert read_checkpoint(path).position == 3 * 10**6

    def test_exact_tie_keeps_the_smaller_s(self, tmp_path):
        # 2 / 16^(1/4) == 1 / 1^(1/4): the stored maximum must be (1, 1)
        path = tmp_path / "state.txt"
        cp = Checkpoint(
            version=CHECKPOINT_VERSION, limit=100, position=17, last_representable=16,
            current_max=RatioRecord.of(1, 1), gap_records=((1, 1), (2, 16)),
            pairs_scanned=11,
        )
        write_checkpoint(cp, path)
        assert read_checkpoint(path) == cp
        write_checkpoint(cp._replace(current_max=RatioRecord.of(16, 2)), path)
        with pytest.raises(CheckpointError, match="max"):
            read_checkpoint(path)

    def test_allow_zero_roundtrip(self, tmp_path):
        # version 3 has no allow_zero field: every scan counts 0 as a summand
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        assert "allow_zero" not in json.loads(path.read_text())
        assert read_checkpoint(path) == self.sample()

    @pytest.mark.parametrize("value", ["0", "2", "true", "", "-1"])
    def test_bad_allow_zero_rejected(self, tmp_path, value):
        # a version 2 file, whatever its allow_zero line, is refused naming
        # the version; in a version 3 object allow_zero is an unknown field
        path = tmp_path / "state.txt"
        path.write_text(key_value_text(self.sample(), allow_zero=value))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)
        write_checkpoint(self.sample(), path)
        edit_fields(path, allow_zero=value)
        with pytest.raises(CheckpointError, match=r"unknown fields \['allow_zero'\]"):
            read_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("limit", 1), ("position", -1), ("last_representable", 0), ("max_s", 0),
        ("max_gap", 0), ("pairs_scanned", -3),
    ])
    def test_field_out_of_range_is_named(self, tmp_path, key, value):
        # max_s and max_gap are only checked against the record table
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, **{key: value})
        fields = json.loads(path.read_text())
        want = (f"^checkpoint: max_s/max_gap {fields['max_s']}/{fields['max_gap']} is not "
                if key.startswith("max_") else
                rf"^checkpoint: field '{key}' must be at least \d, got {value}$")
        with pytest.raises(CheckpointError, match=want):
            read_checkpoint(path)

    def test_decade_counts_roundtrip(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        assert json.loads(path.read_text())["decade_counts"] == [
            [10, 7], [100, 43], [1000, 330], [10000, 2749], [100000, 24028]]
        for counts in ((), ((10, 7),)):
            write_checkpoint(self.sample()._replace(decade_counts=counts), path)
            assert read_checkpoint(path).decade_counts == counts

    @pytest.mark.parametrize("counts", [
        pytest.param([[10, 7], [50, 20]], id="not-a-decade"),
        pytest.param([[10, 7], [10000000, 100]], id="decade-past-position"),
        pytest.param([[100, 43], [10, 7]], id="decades-not-increasing"),
        pytest.param([[10, 7], [10, 7]], id="decade-twice"),
        pytest.param([[10, 7], [100, 6]], id="count-decreasing"),
        pytest.param([[10, -1]], id="count-negative"),
        pytest.param([[10, 11]], id="count-above-x"),
        pytest.param([[10, 7], [10]], id="malformed-no-count"),
        pytest.param([[10, 7, 1]], id="malformed-three-fields"),
        pytest.param([[10, "seven"]], id="malformed-not-an-integer"),
        pytest.param([[10, 7], []], id="malformed-empty-entry"),
    ])
    def test_bad_decade_counts_rejected(self, tmp_path, counts):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        edit_fields(path, decade_counts=counts)
        with pytest.raises(CheckpointError, match="decade_counts"):
            read_checkpoint(path)

    def test_decade_counts_past_position_limit_or_pairs_scanned_rejected(self, tmp_path):
        # a decade at or past position is not scanned yet, one at the limit
        # is the limit's own point, and R(x) is at most the pairs scanned
        path = tmp_path / "state.txt"
        for cp in (self.sample()._replace(position=10**5, last_representable=10**5 - 2,
                                          pairs_scanned=30000),
                   self.sample()._replace(limit=10**5, position=2 * 10**5,
                                          last_representable=2 * 10**5 - 3, pairs_scanned=30000),
                   self.sample()._replace(pairs_scanned=20000)):
            write_checkpoint(cp, path)
            with pytest.raises(CheckpointError, match="decade_counts"):
                read_checkpoint(path)

    def test_verify_rejects_limit_mismatch(self, tmp_path):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        cp = read_checkpoint(path)
        with pytest.raises(CheckpointError, match="limit"):
            verify(10**6, Threshold(2, 1), cp)

    def test_verify_rejects_a_state_below_1(self):
        # a scan starts at 1; a state at 0 would count 0 as a pair's start
        with pytest.raises(CheckpointError,
                           match="^checkpoint: field 'position' must be at least 1, got 0$"):
            verify(10, Threshold(8, 1), Checkpoint(CHECKPOINT_VERSION, 10, 0, None, None, (), 0))
        fresh = Checkpoint(CHECKPOINT_VERSION, 10, 1, None, None, (), 0)
        assert verify(10, Threshold(8, 1), fresh)._replace(elapsed=0.0) == verify(
            10, Threshold(8, 1))._replace(elapsed=0.0)

    @pytest.mark.parametrize("text, field", [
        ('"limit": true', "limit"),
        ('"position": 1.5', "position"),
        ('"pairs_scanned": NaN', "pairs_scanned"),
        ('"position": "2000000"', "position"),
        ('"gap_records": [[1, 1, 1]]', "gap_records"),
        ('"last_representable": {"value": 1999997}', "last_representable"),
        ('"decade_counts": {}', "decade_counts"),
    ], ids=["bool", "float", "nan", "string-number", "three-item-pair", "nested-object",
            "object-for-pairs"])
    def test_a_field_of_another_json_type_is_named(self, tmp_path, text, field):
        path = tmp_path / "state.txt"
        write_checkpoint(self.sample(), path)
        doc = json.loads(path.read_text())
        key = text.split('"')[1]
        path.write_text(path.read_text().replace(f'"{key}": {json.dumps(doc[key])}', text))
        with pytest.raises(CheckpointError, match=f"^checkpoint: field '{field}' "):
            read_checkpoint(path)

    @pytest.mark.parametrize("text, named", [
        ("[]\n", "{path} holds no JSON object"),
        ('{"limit": 1, "limit": 1}\n', "duplicate field 'limit'"),
        ("version=2\nlimit=100\nposition=17\nlast_representable=16\nmax_s=1\nmax_gap=1\n"
         "gap_records=1:1,2:16\npairs_scanned=11\nallow_zero=1\ndecade_counts=10:7\n",
         "{path} is not UTF-8 JSON, as a version {version} file is"),
    ], ids=["top-level-array", "duplicate-key", "version-2-text"])
    def test_a_file_that_is_not_one_json_object_is_refused(self, tmp_path, text, named):
        path = tmp_path / "state.txt"
        path.write_text(text)
        named = named.format(path=path, version=CHECKPOINT_VERSION)
        with pytest.raises(CheckpointError, match="^checkpoint: " + re.escape(named)):
            read_checkpoint(path)


# the bad states refused through both doors, each edited from the first state
# a scan to 10^4 writes in 2^12-wide windows (position 4097, last 4096, 1197
# pairs).  Taken as they are, the first reported passed=False at (2, 7), a
# pair that does not exist, and the second 5649 pairs where a fresh scan
# counts 2749; last_representable None at position 5 reported 2746 pairs and
# wrote a file whose gap_records start at [3, 5], a float pair count printed
# 2749.0, and no record at position 3 wrote a finished file without [1, 1].
# The bool and numpy values would pass every check of their value.
NO_RECORD = {"gap_records": (), "decade_counts": ()}
BAD_STATES = {
    "gap_records-out-of-order": ("gap_records", lambda cp: {
        "gap_records": (cp.gap_records[0], (5, 2), *cp.gap_records[2:])}),
    "pairs_scanned-above-last_representable": (
        "pairs_scanned", lambda cp: {"pairs_scanned": cp.last_representable + 1}),
    "last_representable-at-position": (
        "last_representable", lambda cp: {"last_representable": cp.position}),
    "position-below-1": ("position", lambda cp: {"position": 0}),
    "limit-mismatch": ("limit", lambda cp: {"limit": 10**5}),
    "last_representable-None-past-1": ("last_representable", lambda cp: {
        "position": 5, "last_representable": None, "pairs_scanned": 0, **NO_RECORD}),
    "pairs_scanned-float": ("pairs_scanned", lambda cp: {"pairs_scanned": float(cp.pairs_scanned)}),
    "no-record-past-1": ("gap_records", lambda cp: {
        "position": 3, "last_representable": 2, "pairs_scanned": 2, **NO_RECORD}),
    "pairs_scanned-bool": ("pairs_scanned", lambda cp: {
        "position": 2, "last_representable": 1, "pairs_scanned": True, **NO_RECORD}),
    "gap_records-bool": ("gap_records", lambda cp: {
        "gap_records": ((True, 1), *cp.gap_records[1:])}),
    "last_representable-numpy-int64": ("last_representable", lambda cp: {
        "last_representable": np.int64(cp.last_representable)}),
}


def state_text(cp):
    """cp as write_checkpoint writes it, also where it refuses to (a state
    with no record): a value that JSON cannot encode is written as its text."""
    fields = cp._asdict()
    best = fields.pop("current_max")
    return json.dumps(fields | {"max_s": best.s, "max_gap": best.gap}, default=str) + "\n"


@pytest.mark.parametrize("name", BAD_STATES)
def test_a_bad_state_is_refused_from_a_file_and_by_hand(tmp_path, checkpoints_written, windows,
                                                        name):
    # verify reads a hand-built state as read_checkpoint reads a file: both
    # raise CheckpointError naming the field
    field, edit = BAD_STATES[name]
    t = Threshold.parse("2414/1000")
    windows(1 << 12)
    verify(10**4, t, checkpoint_path=tmp_path / "ck.txt")
    first = checkpoints_written[0]
    assert (first.position, first.last_representable, first.pairs_scanned) == (4097, 4096, 1197)
    write_checkpoint(first, tmp_path / "first.txt")
    assert state_text(first) == (tmp_path / "first.txt").read_text()
    cp = first._replace(**edit(first))
    (tmp_path / "bad.txt").write_text(state_text(cp))
    with pytest.raises(CheckpointError, match=f"^checkpoint: .*{field}"):
        verify(10**4, t, read_checkpoint(tmp_path / "bad.txt"))
    with pytest.raises(CheckpointError, match=f"^checkpoint: .*{field}"):
        verify(10**4, t, cp)


@pytest.mark.parametrize("door", ["file", "hand"])
def test_a_state_with_list_tables_resumes_as_its_tuples_do(tmp_path, windows, door):
    # the first state of a scan to 10^4 in 2^10-wide windows holds its
    # maximum ratio at s=20, gap=5; a scan that extended the caller's list
    # in place would see no new record and keep that maximum, where a fresh
    # run reports s=1493, gap=15.  The caller's lists stay as they were.
    t = Threshold.parse("2414/1000")
    windows(1 << 10)
    first = next(analysis._scan(10**4, 1))
    assert first.position == 1025 and first.current_max[:2] == (20, 5)
    records, counts = list(first.gap_records), list(first.decade_counts)
    cp = first._replace(gap_records=records, decade_counts=counts)
    if door == "file":
        write_checkpoint(cp, tmp_path / "ck.txt")
        cp = read_checkpoint(tmp_path / "ck.txt")
    assert analysis._check_state(cp, 10**4) == first
    fresh = verify(10**4, t)
    assert emit_report(verify(10**4, t, cp), "json") == emit_report(fresh, "json")
    assert (fresh.max_record.s, fresh.max_record.gap) == (1493, 15)
    assert (records, counts) == (list(first.gap_records), list(first.decade_counts))


@pytest.mark.parametrize("workers", [1, 2])
def test_every_state_the_scan_yields_passes_the_state_check(windows, workers):
    # the fresh state at 1 included, and the read-ahead states past the limit
    windows(1 << 12)
    fresh = Checkpoint(CHECKPOINT_VERSION, 10**5, 1, None, None, (), 0)
    states = [fresh, *analysis._scan(10**5, workers)]
    assert states[-1].done
    for cp in states:
        analysis._check_state(cp, 10**5)


# the window edges of a scan to 10^5 in 2^12-wide steps from 1: the steps,
# limit + 1 and the end of the read-ahead window, one step past limit + 1,
# which holds 100009, the successor of the last pair
WINDOW_EDGES_TO_1E5 = [*range(1 + (1 << 12), 10**5, 1 << 12), 10**5 + 1, 10**5 + 1 + (1 << 12)]


class TestVerifyResume:
    def test_resume_reproduces_uninterrupted_report(self, tmp_path, checkpoints_written, windows):
        t = Threshold.parse("2414/1000")
        windows(1 << 16)
        base = verify(10**6, t, checkpoint_path=str(tmp_path / "ck.txt"))
        # every edge up to the one at limit + 1, then the finished state at
        # the end of the read-ahead window, one step past limit + 1
        assert [cp.position for cp in checkpoints_written] == [
            *range(1 + (1 << 16), 10**6, 1 << 16), 10**6 + 1, 10**6 + 1 + (1 << 16)]
        ref = base._replace(elapsed=0.0)
        for cp in checkpoints_written[1::2]:  # every other edge
            resumed = verify(10**6, t, cp)
            assert resumed._replace(elapsed=0.0) == ref

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_resume_at_every_window_edge(self, tmp_path, checkpoints_written, windows, workers):
        t = Threshold.parse("2414/1000")
        windows(1 << 12)
        run = partial(verify, 10**5, t, workers=workers)
        base = emit_report(run(), "json")
        assert emit_report(run(checkpoint_path=str(tmp_path / "ck.txt")), "json") == base
        # every edge up to the one at limit + 1, then the finished state at
        # the end of the read-ahead window
        assert [cp.position for cp in checkpoints_written] == WINDOW_EDGES_TO_1E5
        for cp in checkpoints_written:
            assert emit_report(run(cp), "json") == base, cp.position

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_at_every_read_ahead_edge(self, tmp_path, checkpoints_written, windows,
                                             workers):
        # at 20 in 2-wide windows the read-ahead is three windows stepping
        # from 21; a state past the limit resumes into the read-ahead's rest
        windows(2)
        run = partial(verify, 20, Threshold(2, 1), workers=workers)
        base = emit_report(run(), "json")
        run(checkpoint_path=str(tmp_path / "ck.txt"))
        assert [cp.position for cp in checkpoints_written][-4:] == [21, 23, 25, 27]
        for cp in checkpoints_written:
            assert emit_report(run(cp), "json") == base, cp.position

    def test_time_trigger_checkpoints_every_window(self, tmp_path, checkpoints_written, windows):
        # no time or count trigger thins the writes: every window edge from
        # the first record on is written once, and only the last is done
        windows(1 << 12)
        verify(10**5, Threshold.parse("2414/1000"), checkpoint_path=str(tmp_path / "ck.txt"))
        assert [cp.position for cp in checkpoints_written] == WINDOW_EDGES_TO_1E5
        assert [cp.done for cp in checkpoints_written] == (
            [False] * (len(WINDOW_EDGES_TO_1E5) - 1) + [True])

    def test_finished_state_is_written_without_the_cadence(self, tmp_path, checkpoints_written,
                                                           windows):
        # the last write is the finished state, whose read-ahead window
        # [100001, 104097) holds 100009, the successor of the last pair
        windows(1 << 12)
        base = verify(10**5, Threshold.parse("2414/1000"), checkpoint_path=str(tmp_path / "ck.txt"))
        cp = checkpoints_written[-1]
        assert cp.done and cp.position == 10**5 + 1 + (1 << 12) and cp.last_representable > 10**5
        assert read_checkpoint(tmp_path / "ck.txt") == cp
        assert cp.pairs_scanned == base.pairs_scanned

    def test_cadence_counts_from_the_resume_position(self, tmp_path, checkpoints_written, windows):
        # a resume writes every edge after its position, and only those
        t = Threshold.parse("2414/1000")
        path = tmp_path / "ck.txt"
        windows(1 << 12)
        verify(10**5, t, checkpoint_path=path)
        states = checkpoints_written[:]
        for k, cp in enumerate(states):
            del checkpoints_written[:]
            verify(10**5, t, cp, checkpoint_path=path)
            assert checkpoints_written == states[k + 1:], cp.position

    def test_same_writes_at_every_worker_count(self, tmp_path, checkpoints_written, windows):
        # the same states, in the same order, and the same finished file
        windows(1 << 12)
        files, runs = [], []
        for workers in (1, 2, 3):
            path = tmp_path / f"ck{workers}.txt"
            verify(10**5, Threshold.parse("2414/1000"), workers=workers, checkpoint_path=path)
            files.append(path.read_bytes())
            runs.append(checkpoints_written[:])
            del checkpoints_written[:]
        assert [cp.position for cp in runs[0]] == WINDOW_EDGES_TO_1E5
        assert runs[0] == runs[1] == runs[2] and files[0] == files[1] == files[2]

    def test_no_checkpoint_before_the_first_record(self, tmp_path, checkpoints_written, windows):
        # in 1-wide windows, [1, 2) holds no pair
        windows(1)
        verify(20, Threshold(2, 1), checkpoint_path=str(tmp_path / "ck.txt"))
        # the limit ends a window at 21; past it, read-ahead windows step
        # from 21 up to 26, where 25 turns up
        assert [cp.position for cp in checkpoints_written] == list(range(3, 27))

    def test_resume_with_different_segment_size(self, tmp_path, checkpoints_written, windows):
        t = Threshold(1, 1)  # fails immediately at (1, 2)
        windows(1 << 14)
        base = verify(10**5, t, checkpoint_path=str(tmp_path / "ck.txt"))
        assert checkpoints_written[1].position == 1 + (1 << 15)
        windows(1 << 12)
        resumed = verify(10**5, t, checkpoints_written[1])
        assert resumed._replace(elapsed=0.0) == base._replace(elapsed=0.0)
        assert resumed.first_offender == GapPair(1, 2)

    def test_resume_ignores_a_wrong_current_max(self, tmp_path, checkpoints_written, windows):
        # the maximum is a function of the record table; the stored one is
        # only a fault check and must not seed the resumed scan
        t = Threshold.parse("2414/1000")
        windows(1 << 16)
        base = verify(10**6, t, checkpoint_path=str(tmp_path / "ck.txt"))
        assert checkpoints_written[1].position == 1 + (1 << 17)
        cp = checkpoints_written[1]._replace(current_max=RatioRecord.of(1, 1))
        resumed = verify(10**6, t, cp)
        assert resumed._replace(elapsed=0.0) == base._replace(elapsed=0.0)
        assert (resumed.max_record.s, resumed.max_record.gap) == (1493, 15)

    def test_resume_refuses_another_allow_zero(self, tmp_path, checkpoints_written, windows):
        # a file with allow_zero=0 came from a scan that required both
        # summands to be at least 1, which no scan is any more; it is a
        # version 2 file, whose reading is refused naming the version, and a
        # version 3 file of the same state resumes
        ck = tmp_path / "ck.txt"
        t = Threshold.parse("2414/1000")
        windows(2**12)
        base = verify(10**5, t, checkpoint_path=str(ck))
        write_checkpoint(checkpoints_written[3], ck)
        resumed = verify(10**5, t, read_checkpoint(ck))
        assert resumed._replace(elapsed=0.0) == base._replace(elapsed=0.0)
        for allow_zero in ("0", "1"):
            ck.write_text(key_value_text(checkpoints_written[3], allow_zero=allow_zero))
            with pytest.raises(CheckpointError, match="^checkpoint: .*version"):
                read_checkpoint(ck)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_state_keeps_the_decade_counts(self, tmp_path, checkpoints_written, windows,
                                                   workers):
        def finished(resume=None):
            return deque(analysis._scan(10**5, workers, resume), maxlen=1).pop()

        windows(1 << 12)
        verify(10**5, Threshold.parse("2414/1000"), workers=workers,
               checkpoint_path=str(tmp_path / "ck.txt"))
        assert [cp.position for cp in checkpoints_written] == WINDOW_EDGES_TO_1E5
        base = finished()
        assert [x for x, _ in base.decade_counts] == [10, 100, 1000, 10**4]
        for cp in checkpoints_written:
            state = finished(cp)
            assert (state.decade_counts, state.gap_records, state.pairs_scanned) == (
                base.decade_counts, base.gap_records, base.pairs_scanned), cp.position

    def test_finished_checkpoint_holds_the_density_counts(self, tmp_path, windows):
        path = tmp_path / "ck.txt"
        windows(1 << 12)
        verify(10**5, Threshold.parse("2414/1000"), checkpoint_path=path)
        cp = read_checkpoint(path)
        points = [(p.x, p.count) for p in density(10**5)]
        assert [*cp.decade_counts, (10**5, cp.pairs_scanned)] == points

    def test_checkpoint_file_is_replayable_from_disk(self, tmp_path, windows):
        t = Threshold.parse("2414/1000")
        path = tmp_path / "ck.txt"
        windows(1 << 16)
        base = verify(10**6, t, checkpoint_path=str(path))
        cp = read_checkpoint(path)
        windows(1 << 24)  # resumed in the default windows
        resumed = verify(10**6, t, cp)
        assert resumed._replace(elapsed=0.0) == base._replace(elapsed=0.0)


class TestSignificant:
    def test_pads_exact_values(self):
        assert significant(Decimal(1)) == "1.00000000000"
        assert significant(Decimal(2)) == "2.00000000000"

    def test_rounds_to_twelve_digits(self):
        assert significant(Decimal("2.4131054867804758")) == "2.41310548678"

    def test_carry_across_decade(self):
        assert significant(Decimal("9.999999999999")) == "10.0000000000"

    def test_small_magnitudes(self):
        assert significant(Decimal("0.280821057295123")) == "0.280821057295"

    def test_zero(self):
        assert significant(Decimal(0)) == "0.00000000000"


def summarize(lo, hi, limit, allow_zero):
    """_summarize_window over the sieve's bitmap of [lo, hi)."""
    return _summarize_window(mark_segment(lo, hi, allow_zero=allow_zero).packed, lo, hi, limit)


def naive_summary(lo, hi, limit, allow_zero):
    """The window digest from the full value list and a full prefix maximum."""
    return naive_summary_of(lo, mark_segment(lo, hi, allow_zero=allow_zero).bits, limit)


def naive_summary_of(lo, bits, limit):
    # every value set in the window starts a pair, 0 included: the scan's
    # windows start at 1
    hi = lo + bits.size
    vals = [lo + int(i) for i in np.flatnonzero(bits)]
    if not vals:
        return _Summary(lo, hi, 0, None, None, ())
    candidates, best = [], 0
    for s, s_next in zip(vals, vals[1:]):
        if s_next - s > best:
            best = s_next - s
            candidates.append((s, best))
    pair_count = sum(1 for v in vals if v <= limit)
    return _Summary(lo, hi, pair_count, vals[0], vals[-1], tuple(candidates))


class TestPackedBitmap:
    def test_count_and_offsets_match_unpacked(self):
        rng = np.random.default_rng(20261018)
        for width in (1, 7, 8, 9, 23, 64, 70):
            bits = rng.random(width) < 0.4
            packed = np.packbits(bits, bitorder="little")
            for p in range(width + 1):
                for q in range(p, width + 1):
                    assert analysis._set_offsets(packed, p, q).tolist() == (np.flatnonzero(bits[p:q]) + p).tolist()
            for q in range(width + 1):
                assert analysis._count_set(packed, q) == int(np.count_nonzero(bits[:q]))

    def test_count_in_words_matches_unpacked(self):
        # the popcount reads bytes 0 .. (q - 1) // 8 as 64-bit words and 0-7
        # ragged bytes after them one by one, less the bits at q and above in
        # the last byte read
        rng = np.random.default_rng(20261020)
        bits = rng.random(8 * 64) < 0.5
        packed = np.packbits(bits, bitorder="little")
        for q in range(1, 8 * 48 + 1):
            assert analysis._count_set(packed, q) == int(bits[:q].sum()), q


class TestSummarizeWindow:
    @pytest.mark.parametrize("block", [1, 3, 64, analysis._SUMMARY_BLOCK])
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_multi_block_windows_match_naive(self, monkeypatch, block, allow_zero):
        monkeypatch.setattr(analysis, "_SUMMARY_BLOCK", block)
        for lo, hi, limit in [(1, 40000, 10**6), (1, 40000, 30000), (25000, 60000, 10**6)]:
            args = (lo, hi, limit, allow_zero)
            got = summarize(*args)
            assert got == naive_summary(*args)
            # the last record (gap 24 at 31657, or 25 at 52393) lies beyond
            # the first block of gaps
            last_s = got.candidates[-1][0]
            bits = mark_segment(lo, hi, allow_zero=allow_zero).bits
            assert np.count_nonzero(bits[: last_s - lo]) > block

    def test_record_in_later_default_block(self):
        args = (1, 1 + (1 << 16), 10**6, True)
        got = summarize(*args)
        assert got == naive_summary(*args)
        assert got.candidates[-1] == (52393, 25)
        # about 13000 values precede it: the fourth block of 4096 gaps
        assert np.count_nonzero(mark_segment(1, 52393).bits) > 3 * analysis._SUMMARY_BLOCK

    def test_tie_with_earlier_block_maximum_is_not_a_candidate(self, monkeypatch):
        # with one gap per block a later gap equal to the running maximum
        # makes its block's maximum tie with every earlier block's
        monkeypatch.setattr(analysis, "_SUMMARY_BLOCK", 1)
        got = summarize(1, 100, 10**6, True)
        assert got == naive_summary(1, 100, 10**6, True)
        # gaps from 1: 1,2,1,3,1,1,3: the second gap 3 (at 10) ties
        assert (5, 3) in got.candidates
        assert all(s != 10 for s, _ in got.candidates)
        vals = np.flatnonzero(mark_segment(0, 14).bits).tolist()
        assert vals[-2:] == [10, 13]

    @pytest.mark.parametrize(
        "lo, hi, expected",
        [
            (1494, 1508, _Summary(1494, 1508, 0, None, None, ())),
            # 0 is a value like any other; the scan's windows start at 1
            (0, 1, _Summary(0, 1, 1, 0, 0, ())),
            (1, 2, _Summary(1, 2, 1, 1, 1, ())),
            (1493, 1500, _Summary(1493, 1500, 1, 1493, 1493, ())),
        ],
    )
    def test_windows_with_zero_or_one_value(self, lo, hi, expected):
        args = (lo, hi, 10**6, True)
        assert summarize(*args) == expected == naive_summary(*args)

    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_window_starting_at_zero(self, allow_zero):
        # the summary has no case for 0: a window from 0 starts at 0 if it is
        # set, and the scan's first window, from 1, at the first pair
        for lo, first in ((0, 0 if allow_zero else 2), (1, 1 if allow_zero else 2)):
            args = (lo, 5000, 2000, allow_zero)
            got = summarize(*args)
            assert got == naive_summary(*args)
            assert got.first == first

    def test_windows_past_the_limit_count_no_pairs(self):
        # the read-ahead window of a default verify, and narrower ones
        for lo, hi in ((10**8 + 1, 10**8 + 1 + analysis.MAX_GAP),
                       (10**8 + 1, 10**8 + 4097), (10**8 + 4097, 10**8 + 8193)):
            args = (lo, hi, 10**8, True)
            got = summarize(*args)
            assert got == naive_summary(*args)
            assert got.pair_count == 0 and got.first is not None

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(min_value=1, max_value=10**9),
        span=st.integers(min_value=1, max_value=20000),
        limit_offset=st.integers(min_value=-100, max_value=25000),
        block=st.sampled_from([1, 2, 5, 97, 4096]),
        allow_zero=st.booleans(),
    )
    def test_random_windows_match_naive(self, lo, span, limit_offset, block, allow_zero):
        limit = max(2, lo + limit_offset)
        args = (lo, lo + span, limit, allow_zero)
        saved = analysis._SUMMARY_BLOCK
        analysis._SUMMARY_BLOCK = block
        try:
            got = summarize(*args)
        finally:
            analysis._SUMMARY_BLOCK = saved
        assert got == naive_summary(*args)


class TestScanWindow:
    """The scan's window worker: one mark, one summary, and the window's
    count up to each decade inside it."""

    @staticmethod
    def check(lo, hi, limit):
        got = analysis._scan_window((lo, hi, limit))
        before = brute_count(lo - 1)
        counts = [(x, brute_count(x) - before)
                  for x in (10, 100, 1000, 10**4, 10**5) if lo <= x < hi and x < limit]
        assert got == (summarize(lo, hi, limit, True), counts)

    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(min_value=1, max_value=120000),
        span=st.integers(min_value=1, max_value=120000),
        limit_at=st.integers(min_value=-2000, max_value=200000),
    )
    def test_counts_match_brute_count(self, lo, span, limit_at):
        self.check(lo, lo + span, max(2, lo + limit_at))

    @pytest.mark.parametrize("k", range(6, 13))
    def test_the_window_around_each_decade_up_to_the_budget(self, k):
        # 10^k sits at offset 3000 + k: seven bit positions within a byte as
        # k varies; 10^12 is the largest limit, never a decade below one
        lo, x = 10**k - 3000 - k, 10**k
        summary, counts = analysis._scan_window((lo, x + 3000, 10**12))
        assert summary == summarize(lo, x + 3000, 10**12, True)
        assert counts == ([(x, int(representable_mask(lo, x + 1).sum()))] if k < 12 else [])

    @pytest.mark.parametrize("segment_size", [2, 9, 10, 11, 101, 137, 1000])
    def test_segment_sizes_with_decades_at_window_ends(self, windows, segment_size):
        # windows start at 1 + k * size: the decades x end windows where size
        # divides x (2, 10 and 1000), start them where it divides x - 1
        # (every decade for 9, 100 and 10^4 for 11, 10^4 for 101), and sit
        # inside one for 137
        windows(segment_size)
        pts = density(10**4 + 3)
        assert [(p.x, p.count) for p in pts] == [
            (x, brute_count(x)) for x in (10, 100, 1000, 10**4, 10**4 + 3)]

    def test_verify_marks_and_summarizes_each_window_once(self, monkeypatch):
        calls = {"_summarize_window": 0, "mark_segment": 0}

        def counting(name):
            real = getattr(analysis, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)

        for name in calls:
            counting(name)
        assert verify(10**4, Threshold.parse("2414/1000")).passed
        # [1, 10001), which holds the decades 10, 100 and 1000, then the
        # read-ahead window: two windows, each marked and summarized once
        assert calls == {"_summarize_window": 2, "mark_segment": 2}

    def test_a_window_without_decades_has_no_counts(self):
        assert analysis._scan_window((1001, 10**4, 10**6)) == (
            summarize(1001, 10**4, 10**6, True), [])


def full_summary_of(lo, bits, limit):
    """naive_summary_of with numpy in place of its Python loops, for 2^24 windows."""
    vals = np.flatnonzero(bits) + lo
    if not vals.size:
        return _Summary(lo, lo + bits.size, 0, None, None, ())
    gaps = np.diff(vals)
    best = np.maximum.accumulate(np.concatenate(([0], gaps)))
    idx = np.flatnonzero(gaps > best[:-1])
    return _Summary(
        lo, lo + bits.size, int(np.count_nonzero(vals <= limit)), int(vals[0]), int(vals[-1]),
        tuple(zip(vals[idx].tolist(), gaps[idx].tolist())),
    )


def summarize_bits(lo, bits, limit, floor=None, block=None, width=None):
    """_summarize_window over a given bitmap, optionally with a lower
    screening floor, a narrower first head chunk or narrower slices of the
    bitmap, in bytes (None keeps the module's value); the bitmap must come
    back unchanged."""
    packed = np.packbits(bits, bitorder="little")
    before = packed.copy()
    with mock.patch.object(analysis, "_SCREEN_FLOOR", floor or analysis._SCREEN_FLOOR), \
            mock.patch.object(analysis, "_SUMMARY_BLOCK", block or analysis._SUMMARY_BLOCK), \
            mock.patch.object(analysis, "_SLICE", width or analysis._SLICE):
        got = _summarize_window(packed, lo, lo + bits.size, limit)
    assert np.array_equal(packed, before)
    return got


def bitmap(width, offsets):
    bits = np.zeros(width, dtype=bool)
    bits[list(offsets)] = True
    return bits


class TestSummaryScreen:
    """The zero-word screen past the head of each window.

    A lower screening floor (15 is the least allowed) or a one-value first
    head chunk makes the screen run on small windows and low heights.
    """

    @pytest.mark.parametrize("floor", [15, 22, 23, 32])
    def test_long_gaps_at_every_residue_mod_8(self, floor):
        # the head ends at the gap of exactly floor; gaps of 2 then run past
        # its last chunk, and one long gap follows, starting at every residue
        # mod 8 with every length from floor - 1 to floor + 17, its end at
        # the window's end or inside the ragged tail, or past the window
        prefix = [1, 1 + floor] + list(range(3 + floor, 4 * floor + 8, 2))
        for r in range(8):
            a = prefix[-1] + 1 + (r - prefix[-1] - 1) % 8
            for gap in range(floor - 1, floor + 18):
                b = a + gap
                lo = 0 if gap % 2 else 10**12 - 2**20
                ends = [(b + 1 + extra, [*range(b, b + 1 + extra, 3)]) for extra in range(10)]
                ends += [(b - cut, []) for cut in (0, 1, 7, 8, 9)]
                for width, tail in ends:
                    bits = bitmap(width, prefix + [a] + tail)
                    for limit in (lo + a, lo + width + 5):
                        got = summarize_bits(lo, bits, limit, floor=floor, block=1)
                        assert got == naive_summary_of(lo, bits, limit), (r, gap, width)

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.integers(min_value=1, max_value=10**12),
        lead=st.integers(min_value=0, max_value=40),
        gaps=st.lists(st.one_of(st.integers(1, 12), st.integers(13, 130)), max_size=200),
        trail=st.integers(min_value=0, max_value=140),
        limit_at=st.integers(min_value=-5, max_value=30000),
        floor=st.integers(min_value=15, max_value=64),
        block=st.sampled_from([1, 2, 7, 64]),
        width=st.sampled_from([1, 2, 3, 5, None]),
    )
    def test_synthetic_bitmaps_match_naive(
        self, lo, lead, gaps, trail, limit_at, floor, block, width
    ):
        offsets = np.cumsum([lead] + gaps)
        bits = bitmap(int(offsets[-1]) + 1 + trail, offsets.tolist())
        limit = max(2, lo + limit_at)
        got = summarize_bits(lo, bits, limit, floor=floor, block=block, width=width)
        assert got == naive_summary_of(lo, bits, limit)

    @settings(max_examples=25, deadline=None)
    @given(
        lo=st.integers(min_value=0, max_value=12).flatmap(lambda e: st.integers(1, 10**e)),
        span=st.integers(min_value=1, max_value=20000),
        limit_offset=st.integers(min_value=-100, max_value=25000),
        allow_zero=st.booleans(),
        floor=st.sampled_from([15, 22, 23, None]),
        block=st.sampled_from([1, 5, None]),
    )
    def test_sieve_windows_up_to_budget_match_naive(
        self, lo, span, limit_offset, allow_zero, floor, block
    ):
        hi = min(lo + span, 10**12 + 1)
        bits = mark_segment(lo, hi, allow_zero=allow_zero).bits
        limit = max(2, lo + limit_offset)
        got = summarize_bits(lo, bits, limit, floor=floor, block=block)
        assert got == naive_summary_of(lo, bits, limit)

    @pytest.mark.parametrize("allow_zero", [True, False])
    @pytest.mark.parametrize("lo", [0, 1493, 10**8 - 3, 10**10 + 1])
    @pytest.mark.parametrize("span", [2, 3, 5, 7, 9, 15, 17, 4097, 40001])
    def test_short_ragged_and_past_limit_windows(self, lo, span, allow_zero):
        # windows as narrow as 2 values, and from 0, where the summary has no
        # case for 0 either; windows past limit are read-ahead
        bits = mark_segment(lo, lo + span, allow_zero=allow_zero).bits
        for limit in (max(2, lo - 1), lo + span // 2, lo + span + 1):
            got = summarize_bits(lo, bits, limit, floor=15, block=1)
            assert got == naive_summary(lo, lo + span, limit, allow_zero)

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_slices_of_a_few_bytes_keep_the_summary(self, width, allow_zero):
        # floors 15, 23 and 31 make the screen look for runs of k = 1, 2 and
        # 3 zero bytes, and slices of 1 to 3 bytes put slice edges inside them
        for lo in (1, 10**8 - 3, 10**10 + 1, 10**12 - 10**5):
            for span in (17, 4097):
                bits = mark_segment(lo, lo + span, allow_zero=allow_zero).bits
                for limit in (max(2, lo - 1), lo + span // 2):
                    for floor in (15, 23, 31):
                        whole = summarize_bits(lo, bits, limit, floor=floor, block=1)
                        got = summarize_bits(lo, bits, limit, floor=floor, block=1, width=width)
                        assert got == whole, (lo, span, limit, floor)

    def test_full_reference_matches_naive(self):
        for lo, hi in [(1, 40000), (10**8, 10**8 + 40000)]:
            bits = mark_segment(lo, hi).bits
            assert full_summary_of(lo, bits, lo + 20000) == naive_summary_of(lo, bits, lo + 20000)

    @pytest.mark.parametrize(
        "lo, hi, limit, allow_zero",
        [(lo, min(lo + 2**24, 10**8 + 1), 10**8, True) for lo in range(0, 10**8 + 1, 2**24)]
        + [(10**8 + 1, 10**8 + 4097, 10**8, True), (0, 2**24, 10**8, False),
           (10**10, 10**10 + 2**24, 10**12, True), (10**12 - 2**24, 10**12, 10**12, True)],
    )
    def test_full_windows_match_reference(self, lo, hi, limit, allow_zero):
        # full windows up to 10^8, on a grid from 0, the read-ahead window of
        # the 10^8 scan, and full windows higher up
        bits = mark_segment(lo, hi, allow_zero=allow_zero).bits
        assert summarize_bits(lo, bits, limit) == full_summary_of(lo, bits, limit)

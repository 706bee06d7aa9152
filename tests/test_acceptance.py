"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with pytest -s, or in the captured
output on failure).
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import twosquares as ts
from twosquares import cli
from twosquares.cli import emit_report

from reference import brute_champion, brute_membership


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {description}")
        raise
    print(f"criterion {num}: PASS  {description}")


def run_cli(*args, timeout=900):
    return subprocess.run(
        [sys.executable, "-m", "twosquares", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# twelve significant digits of 15 / 1493^(1/4) and of 2^(-1/2) * 5^(3/4),
# fixed from an independent high-precision computation (re-derived below)
RATIO_1493 = "2.41310548678"
RATIO_20 = "2.36435402251"


def test_display_constants_match_independent_evaluation():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    assert mp.nstr(mp.mpf(15) / mp.root(1493, 4), 12, strip_zeros=False) == RATIO_1493
    assert mp.nstr(mp.mpf(5) / mp.root(20, 4), 12, strip_zeros=False) == RATIO_20
    assert mp.nstr(mp.power(2, mp.mpf(-1) / 2) * mp.power(5, mp.mpf(3) / 4),
                   12, strip_zeros=False) == RATIO_20


def test_criterion_1_threshold_holds_to_1e8():
    with criterion(1, "verify --limit 100000000 --threshold 2414/1000 passes "
                      f"with max (s=1493, gap=15), ratio {RATIO_1493}"):
        t0 = time.perf_counter()
        single = run_cli("verify", "--limit", "100000000",
                         "--threshold", "2414/1000", "--format", "json",
                         "--workers", "1")
        single_elapsed = time.perf_counter() - t0
        assert single.returncode == 0
        doc = json.loads(single.stdout)
        assert doc["passed"] is True
        assert doc["max_s"] == 1493
        assert doc["gap"] == 15
        assert doc["ratio"] == RATIO_1493
        # R(10^8), the sums of two squares in [1, 10^8], which
        # bench/derive_expected.py counts without the sieve
        assert doc["pairs_scanned"] == 18457847
        assert single_elapsed < 600, f"single-threaded took {single_elapsed:.0f}s"

        t0 = time.perf_counter()
        parallel = run_cli("verify", "--limit", "100000000",
                           "--threshold", "2414/1000", "--format", "json",
                           "--workers", "8")
        parallel_elapsed = time.perf_counter() - t0
        assert parallel.returncode == 0
        assert parallel.stdout == single.stdout
        assert json.loads(parallel.stdout)["pairs_scanned"] == 18457847
        assert parallel_elapsed < 120, f"8 workers took {parallel_elapsed:.0f}s"


def test_criterion_2_original_bound_holds_to_1000():
    with criterion(2, "critical_constant(1000) is (s=20, gap=5), "
                      f"ratio {RATIO_20}"):
        t0 = time.perf_counter()
        rec = ts.critical_constant(1000)
        elapsed = time.perf_counter() - t0
        assert (rec.s, rec.gap) == (20, 5)
        assert ts.significant(rec.ratio_display) == RATIO_20
        assert elapsed < 1.0, f"took {elapsed * 1000:.0f} ms"


def test_criterion_3_boundary_flip_at_supremum():
    with criterion(3, "verify(2000, 2413/1000) fails at s=1493 and "
                      "verify(2000, 2414/1000) passes"):
        failing = ts.verify(2000, ts.Threshold.parse("2413/1000"))
        assert failing.passed is False
        assert failing.first_offender == ts.GapPair(1493, 1508)

        passing = ts.verify(2000, ts.Threshold.parse("2414/1000"))
        assert passing.passed is True
        assert passing.first_offender is None

        # independent re-check: 128-bit cross products and exact rationals
        assert 15**4 * 1000**4 == 50625000000000000
        assert 2413**4 * 1493 == 50616148471323173
        assert 2414**4 * 1493 == 50700106402238288
        assert 50625000000000000 >= 2413**4 * 1493  # 2413/1000 exceeded
        assert 50625000000000000 < 2414**4 * 1493   # 2414/1000 clears
        assert Fraction(2413, 1000) ** 4 <= Fraction(15**4, 1493)
        assert Fraction(2414, 1000) ** 4 > Fraction(15**4, 1493)


def test_criterion_4_oracle_equivalence_to_1e6():
    with criterion(4, "sieve, factorization oracle and brute-force double "
                      "loop agree on every n <= 10^6"):
        limit = 10**6
        t0 = time.perf_counter()

        sieve_bits = ts.mark_segment(0, limit + 1).bits
        brute_bits = np.frombuffer(
            bytes(brute_membership(limit)), dtype=np.uint8
        ).astype(bool)
        assert np.array_equal(sieve_bits, brute_bits), "sieve vs brute-force double loop"

        oracle_bits = np.fromiter(
            (ts.is_sum_of_two_squares(n) for n in range(1, limit + 1)),
            dtype=bool,
            count=limit,
        )
        assert np.array_equal(sieve_bits[1:], oracle_bits), "sieve vs factorization oracle"
        assert bool(sieve_bits[0]) is True  # 0 = 0^2 + 0^2

        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"equivalence sweep took {elapsed:.0f}s"


def test_criterion_5_reports_invariant_under_windowing_and_workers(tmp_path, windows):
    with criterion(5, "limit-10^6 reports byte-identical across segment "
                      "sizes {2^14, 2^20} and workers {1, 2, 8}"):
        out = tmp_path / "report"
        for fmt in ("json", "csv"):
            outputs = set()
            for seg in (1 << 14, 1 << 20):
                windows(seg)
                for workers in (1, 2, 8):
                    with pytest.raises(SystemExit) as exit_info:
                        cli.main(["verify", "--limit", "1000000", "--threshold", "2414/1000",
                                  "--format", fmt, "--workers", str(workers),
                                  "--output-path", str(out)])
                    assert exit_info.value.code == 0
                    outputs.add(out.read_bytes())
            assert len(outputs) == 1, f"{fmt} reports diverged"


def test_criterion_6_checkpoint_resume_determinism(tmp_path, checkpoints_written, windows):
    with criterion(6, "limit-10^7 verify resumed at three random positions "
                      "reproduces the uninterrupted report byte-identically"):
        t = ts.Threshold.parse("2414/1000")
        collected = checkpoints_written
        windows(1 << 20)
        base = ts.verify(10**7, t, checkpoint_path=str(tmp_path / "ck.txt"))
        base_bytes = emit_report(base, "json")
        assert len(collected) >= 3
        rng = random.Random(20260810)
        for cp in rng.sample(collected, 3):
            resumed = ts.verify(10**7, t, cp)
            assert emit_report(resumed, "json") == base_bytes, (
                f"resume at {cp.position} diverged"
            )
            assert resumed._replace(elapsed=0.0) == base._replace(elapsed=0.0)


def test_criterion_7_density_approaches_constant_from_above():
    with criterion(7, "normalized density at 10^5, 10^6, 10^7 lies in "
                      "[0.70, 1.00] and is non-increasing"):
        points = ts.density(10**7)[-3:]
        assert [(p.x, p.count) for p in points] == [
            (10**5, 24028), (10**6, 216341), (10**7, 1985459)
        ]
        values = [p.normalized for p in points]
        for v in values:
            assert Fraction(70, 100) <= Fraction(str(v)) <= 1
        assert values[0] >= values[1] >= values[2]


def test_criterion_8_zero_summand_convention_robustness():
    with criterion(8, "zero-disallowed convention re-run; discrepancies "
                      "reported as findings"):
        # the scan counts 0 as a summand; the strict convention is the
        # marker's strict bitmap, read as consecutive values, 200 past 10^6
        # for the last successor
        values = np.flatnonzero(ts.mark_segment(0, 10**6 + 200, allow_zero=False).bits).tolist()
        pairs = [ts.GapPair(s, s_next) for s, s_next in zip(values, values[1:]) if s <= 10**6]

        def champion(candidates):
            # an exact ratio tie keeps the smaller s, as the scan does
            champ = None
            for pair in candidates:
                if champ is None or ts.ratio_less(champ, pair):
                    champ = pair
            return champ

        strict_1000 = champion(p for p in pairs if p.s <= 1000)
        strict_1e6 = champion(pairs)

        # live independent oracle at the small limit
        assert (strict_1000.s, strict_1000.gap) == brute_champion(1000, allow_zero=False)

        if (strict_1000.s, strict_1000.gap) != (20, 5):
            ratio = ts.RatioRecord.of(strict_1000.s, strict_1000.gap).ratio_display
            print(
                "criterion 8 finding: with zero summands disallowed the "
                f"limit-1000 max record moves from (s=20, gap=5) to "
                f"(s={strict_1000.s}, gap={strict_1000.gap}, ratio {ts.significant(ratio)})"
            )
        if (strict_1e6.s, strict_1e6.gap) != (1493, 15):
            print(
                "criterion 8 finding: with zero summands disallowed the "
                f"limit-10^6 max record moves from (s=1493, gap=15) to "
                f"(s={strict_1e6.s}, gap={strict_1e6.gap})"
            )

        # the discrepancy itself must be the deterministic one: 4 = 0^2 + 2^2
        # drops out, so the pair (2, 5) with ratio 3 / 2^(1/4) = 2.52 takes over
        assert (strict_1000.s, strict_1000.gap) == (2, 3)
        assert (strict_1e6.s, strict_1e6.gap) == (2, 3)

        # away from that small-s artifact the headline records persist:
        # both stay in the strict record table, and among pairs with s >= 5
        # the maximum is still (s=1493, gap=15)
        strict_records = []
        for p in pairs:
            if not strict_records or p.gap > strict_records[-1][0]:
                strict_records.append((p.gap, p.s))
        assert (5, 20) in strict_records
        assert (15, 1493) in strict_records

        champ = champion(p for p in pairs if p.s >= 5)
        assert (champ.s, champ.gap) == (1493, 15)
        print(
            "criterion 8 finding: restricted to s >= 5 the zero-disallowed "
            "max record is unchanged at (s=1493, gap=15)"
        )

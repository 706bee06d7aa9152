"""Tests of the benchmark's own arithmetic, fixture and span wrapping.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import derive_expected
import helper
import run
import traced_cli
import twosquares as ts

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metric arithmetic
# ---------------------------------------------------------------------------


def columns_reference(lo, hi, allow_zero):
    """The column walk of mark_segment, counting instead of marking."""
    columns = writes = 0
    x = 0 if allow_zero else 1
    while 2 * x * x < hi:
        y0 = x if lo <= 2 * x * x else math.isqrt(lo - x * x - 1) + 1
        y1 = math.isqrt(hi - 1 - x * x)
        columns += 1
        writes += max(0, y1 - y0 + 1)
        x += 1
    return columns, writes


@pytest.mark.parametrize("lo,hi,allow_zero", [
    (0, 2, True), (0, 1000, True), (0, 1000, False), (1, 2, True),
    (99, 101, True), (10**6 - 1, 10**6 + 1, True), (12345, 67890, False),
    (10**12 - 4096, 10**12 + 1, True), (10**12, 10**12 + 1, True),
])
def test_sieve_ops_matches_the_column_walk(lo, hi, allow_zero):
    assert helper.sieve_ops(lo, hi, allow_zero) == columns_reference(lo, hi, allow_zero)


def test_sieve_ops_scatter_count_bounds_the_set_bits():
    _, writes = helper.sieve_ops(0, 5000, True)
    assert writes >= np.count_nonzero(ts.mark_segment(0, 5000).bits)


def test_isqrt_array_is_exact_at_square_boundaries():
    roots = np.array([0, 1, 2, 3, 10**6, 2**26 - 1, 67108863], dtype=np.int64)
    v = np.concatenate([roots * roots - 1, roots * roots, roots * roots + 1])
    v = v[v >= 0]
    assert helper.isqrt_array(v).tolist() == [math.isqrt(int(n)) for n in v]


def span(name, start, end, parent=None, **attrs):
    return [name, start, end, parent, attrs]


def test_layer_metrics_self_time_and_shares():
    seg = ts.DEFAULT_SEGMENT_SIZE
    trace = {
        "import_s": 0.1,
        "wrapped": ["_summarize_window", "emit_report", "mark_segment", "verify"],
        "totals": {},
        "spans": [
            span("analysis.checkpoint.read", 0.0, 0.5),
            span("analysis.scan", 1.0, 11.0),
            span("analysis.summary", 1.0, 5.0, 1),
            span("sieve.mark_segment", 1.0, 4.0, 2, lo=0, hi=seg, allow_zero=True, set_bits=7),
            span("analysis.summary", 5.0, 7.0, 1),
            span("sieve.mark_segment", 5.0, 6.5, 4, lo=seg, hi=seg + 10, allow_zero=True, set_bits=3),
            span("analysis.checkpoint.write", 8.0, 9.0, 1),
            span("cli.emit_report", 11.0, 11.25, None, bytes=40),
        ],
    }
    m = helper.layer_metrics(trace, 0, seg + 9)
    assert m["sieve.mark_segment.calls"] == 2
    assert m["sieve.mark_segment.busy_s"] == pytest.approx(4.5)
    assert m["sieve.mark_segment.short_calls"] == 1
    assert m["sieve.mark_segment.short_s"] == pytest.approx(1.5)
    # full-width windows only
    assert m["sieve.mark_segment.ns_per_value"] == pytest.approx(3e9 / seg)
    assert m["analysis.scan.s"] == pytest.approx(10.0)
    # 10 - 4.5 (sieve) - 1 (checkpoint write); the read sits outside the scan
    assert m["analysis.scan.self_s"] == pytest.approx(4.5)
    assert m["analysis.scan.self_share"] == pytest.approx(0.45)
    assert m["sieve.mark_segment.scan_share"] == pytest.approx(0.45)
    assert m["analysis.scan.ns_per_value"] == pytest.approx(4.5e9 / (seg + 10))
    assert m["analysis.summary.s"] == pytest.approx(6.0 - 4.5)
    assert m["sieve.set_bits"] == 10
    cols0, w0 = helper.sieve_ops(0, seg, True)
    cols1, w1 = helper.sieve_ops(seg, seg + 10, True)
    assert m["sieve.columns"] == cols0 + cols1
    assert m["sieve.scatter_writes"] == w0 + w1
    assert m["sieve.useful_frac"] == pytest.approx(10 / (w0 + w1))
    assert m["sieve.bytes_moved"] == seg + 10 + 9 * (w0 + w1)
    assert m["cli.emit_report.s"] == pytest.approx(0.25)
    assert m["cli.report_bytes"] == 40
    assert m["representability.is_sum_of_two_squares.calls"] == 0


def test_layer_metrics_charges_oracle_time_outside_the_scan_self_time():
    trace = {
        "import_s": 0.1,
        "wrapped": ["cross_check", "is_sum_of_two_squares", "mark_segment"],
        "totals": {"representability.is_sum_of_two_squares": [100, 0.6]},
        "spans": [
            span("analysis.scan", 0.0, 1.0, None,
                 inner={"representability.is_sum_of_two_squares": 0.6}),
            span("sieve.mark_segment", 0.0, 0.1, 0, lo=0, hi=101, allow_zero=True, set_bits=43),
        ],
    }
    m = helper.layer_metrics(trace, 1, 100)
    assert m["analysis.scan.self_s"] == pytest.approx(0.3)
    assert m["representability.is_sum_of_two_squares.us_per_call"] == pytest.approx(6000.0)
    # no full-width window: the rate falls back to every call
    assert m["sieve.mark_segment.ns_per_value"] == pytest.approx(1e8 / 101)
    # a refactor that removes _summarize_window drops the metric, not the run
    assert "analysis.summary.s" not in m


class FakeRunner:
    def __init__(self, walls):
        self.workload = types.SimpleNamespace(start=0, limit=99)
        self.walls = iter(walls)

    def _next(self, cpu=1.0, rss=10.0):
        return run.Run(next(self.walls), cpu, rss, True)

    def setup(self):
        return run.Run(0.2, 0.2, 5.0, True)

    def main(self, workers):
        return self._next(cpu=3.0 if workers > 1 else 1.0, rss=10.0 * workers)


def test_slow_level_is_the_85th_percentile():
    assert run.slow_level(float(v) for v in range(1, 22)) == 18.0
    assert run.slow_level([1.0, 3.0]) == 2.7
    assert run.slow_level([0.7]) == 0.7


def test_end_to_end_metrics_are_taken_over_the_loop():
    runner = FakeRunner([9.0, 9.0, 1.0, 0.5, 0.7, 2.0, 3.0, 0.6])
    samples = {}
    m = run.measure_end_to_end(runner, 0.0, samples)
    # an untimed warm-up pair, then one 1-worker/2-worker pair; the loop
    # stops at the deadline
    assert samples["wall_s"] == [1.0] and samples["wall_s_par"] == [0.5]
    assert m["wall_s"] == (1.0, "s")
    assert m["values_per_s"] == (100.0, "1/s")
    assert m["values_per_s_par"] == (200.0, "1/s")
    assert m["cpu_s_par"] == (3.0, "s")
    assert m["peak_rss_mb"] == (10.0, "MB")
    assert m["setup_s"] == (0.2, "s")


# ---------------------------------------------------------------------------
# Fixture
# ---------------------------------------------------------------------------


def test_fixture_round_trips_and_matches_a_real_run(tmp_path):
    limit, position = 20000, 8192
    records = ts.gap_records(position - 1)
    cp = helper.make_checkpoint(limit, position, records, 1234)
    helper.write_verified(cp, tmp_path / "f.ckpt")
    assert ts.read_checkpoint(tmp_path / "f.ckpt") == cp
    last = cp.last_representable
    assert ts.is_sum_of_two_squares(last)
    assert not any(ts.is_sum_of_two_squares(n) for n in range(last + 1, position))
    champion = ts.critical_constant(position - 1)
    assert (cp.current_max.s, cp.current_max.gap) == (champion.s, champion.gap)
    # resuming from it reports what the uninterrupted scan reports
    t = ts.Threshold.parse("2414/1000")
    resumed = ts.verify(limit, t, ts.read_checkpoint(tmp_path / "f.ckpt"))
    fresh = ts.verify(limit, t)
    assert resumed.max_record == fresh.max_record
    assert resumed.pairs_scanned - 1234 == fresh.pairs_scanned - sum(
        ts.is_sum_of_two_squares(n) for n in range(1, position))


def test_resume_windows_sit_on_segment_boundaries_and_cost_the_same():
    seg = ts.DEFAULT_SEGMENT_SIZE
    windows = run.EXPECTED["resume_1e12"]
    assert len(windows) >= 2
    for w in windows:
        assert w["position"] % seg == 0
        assert w["limit"] == w["position"] + seg - 1
        assert 10**12 - 10 * seg < w["limit"] < 10**12


def test_criterion_counts_match_the_oracle():
    primes = derive_expected.primes_3_mod_4(10**6 + 1)
    for lo, hi in ((1, 3000), (10**12 - 500, 10**12 + 1)):
        mask = derive_expected.criterion_mask(lo, hi, primes)
        assert mask.tolist() == [ts.is_sum_of_two_squares(n) for n in range(lo, hi)]


# ---------------------------------------------------------------------------
# Span wrapping
# ---------------------------------------------------------------------------


class Tick:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_spans_nest_through_module_attributes_and_skip_bookkeeping():
    lib = types.ModuleType("lib")
    app = types.ModuleType("app")
    lib.leaf = lambda n: n + 1
    lib.inner = lambda n: lib.leaf(n) * 2
    app.inner = lib.inner
    app.outer = lambda n: app.inner(n) + app.inner(n)
    app.absent = None
    tracer = traced_cli.Tracer(clock=Tick())
    targets = {
        "outer": ("top", None),
        "inner": ("mid", lambda arguments, result: {"result": result}),
        "leaf": ("leaf", traced_cli.AGGREGATE),
        "absent": ("never", None),
        "missing": ("never", None),
    }
    wrapped = traced_cli.install(tracer, (lib, app), targets)
    assert wrapped == ["inner", "leaf", "outer"]
    assert lib.inner is app.inner  # one wrapper for a shared function
    assert app.outer(3) == 16
    names = [s[0] for s in tracer.spans]
    assert names == ["top", "mid", "mid"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert tracer.spans[1][4]["result"] == 8
    assert tracer.totals["leaf"][0] == 2
    assert tracer.spans[1][4]["inner"]["leaf"] == pytest.approx(1.0)
    # a span counts the ticks of the call it wraps and none of the tracer's
    # bookkeeping ticks: mid = enter + the leaf's timed tick + leave, and
    # top = twice (call + mid) + leave
    top, mid = tracer.spans[0], tracer.spans[1]
    assert mid[2] - mid[1] == pytest.approx(3.0)
    assert top[2] - top[1] == pytest.approx(2 * (1 + 3.0) + 1)


def test_traced_cli_prints_the_same_report_as_the_cli(tmp_path):
    args = ["verify", "--limit", "10000", "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "twosquares", *args], env=run.cli_env(),
                           stdout=subprocess.PIPE, check=True, timeout=120)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args],
                            env=run.cli_env(), stdout=subprocess.PIPE, check=True, timeout=120)
    assert traced.stdout == plain.stdout
    trace = json.loads(spans_path.read_text())
    m = helper.layer_metrics(trace, 0, 10000)
    assert m["sieve.mark_segment.calls"] == 2  # the window and one read-ahead
    assert m["cli.report_bytes"] == len(plain.stdout)
    assert 0 < m["sieve.mark_segment.scan_share"] < 1
    assert m["analysis.summary.s"] > 0
    # the traced run, the standalone checkpoint timing and the runner's own
    # figures give exactly the per-layer metrics BENCHMARK.json names
    cp = helper.make_checkpoint(10000, 4096, [(1, 1), (2, 2)], 1000)
    names = {*m, *helper.time_io(cp, tmp_path / "io.ckpt"),
             "analysis.pool.busy_frac", "trace.overhead_s"}
    declared = {d["name"]: d["unit"] for d in BENCHMARK["per_layer"]}
    assert names == set(declared)
    assert {name: run.layer_unit(name) for name in names} == declared


def test_end_to_end_metrics_match_benchmark_json():
    m = run.measure_end_to_end(FakeRunner([1.0, 0.5, 1.0, 0.5]), 0.0, {})
    assert {name: unit for name, (_, unit) in m.items()} == {
        d["name"]: d["unit"] for d in BENCHMARK["end_to_end"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("command,expected", [
    (["verify", "--limit", "2", "--format", "json"], run.SETUP_VERIFY),
    (["check", "--limit", "2", "--format", "json"], run.check_report(2)),
])
def test_expected_setup_reports_match_the_cli(tmp_path, command, expected):
    tally = run.Tally()
    result = run.run_process([sys.executable, "-m", "twosquares", *command], str(tmp_path),
                             run.cli_env(), expected, tally)
    assert result.ok and (tally.attempted, tally.failed) == (1, 0)
    assert result.wall_s > 0 and result.cpu_s > 0 and result.peak_rss_mb > 0


def test_a_wrong_report_counts_as_failed(tmp_path):
    tally = run.Tally()
    result = run.run_process([sys.executable, "-m", "twosquares", "check", "--limit", "3",
                              "--format", "json"], str(tmp_path), run.cli_env(),
                             run.check_report(2), tally)
    assert not result.ok and (tally.attempted, tally.failed) == (1, 1)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "expected.json"):
        (bench / name).write_bytes((HERE / name).read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "verify_1e8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == b""

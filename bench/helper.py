"""Benchmark steps that import numpy and twosquares, run as subprocesses.

    python3 bench/helper.py fixture WORKDIR WINDOW [--time-io]
    python3 bench/helper.py layers START LIMIT SPANS_JSON...

`fixture` writes the resume checkpoints for seeded window WINDOW of
`expected.json`, through the public API only, and prints a JSON summary;
with --time-io it also times checkpoint write and read on that state.
`layers` turns the spans of traced runs into per-layer metrics (the median
over the runs) and prints them as JSON.

These steps run in their own process so that the benchmark's parent stays
small: a child's peak RSS as reported by wait4 starts from its parent's.
"""

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import twosquares as ts
from twosquares.analysis import CHECKPOINT_VERSION

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))
RECORD_LIMIT = 10**8
IO_REPEATS = 15


# ---------------------------------------------------------------------------
# Resume fixture
# ---------------------------------------------------------------------------


def make_checkpoint(limit, position, records, pairs):
    """A checkpoint as a run stopped at `position` would write it.

    The last representable value below position comes from the
    factorization oracle and the maximum is the exact argmax of `records`.
    """
    last = position - 1
    while not ts.is_sum_of_two_squares(last):
        last -= 1
    best_gap, best_s = records[0]
    for gap, s in records[1:]:
        if ts.ratio_less(ts.GapPair(best_s, best_s + best_gap), ts.GapPair(s, s + gap)):
            best_gap, best_s = gap, s
    return ts.Checkpoint(
        version=CHECKPOINT_VERSION,
        limit=limit,
        position=position,
        last_representable=last,
        current_max=ts.RatioRecord.of(best_s, best_gap),
        gap_records=tuple(records),
        pairs_scanned=pairs,
    )


def write_verified(cp, path):
    """Write cp and require read_checkpoint to give it back unchanged."""
    ts.write_checkpoint(cp, path)
    back = ts.read_checkpoint(path)
    if back != cp:
        raise SystemExit(f"checkpoint round trip changed the state: {cp} -> {back}")


def time_io(cp, path):
    writes, reads = [], []
    for _ in range(IO_REPEATS):
        t0 = time.perf_counter()
        ts.write_checkpoint(cp, path)
        t1 = time.perf_counter()
        ts.read_checkpoint(path)
        t2 = time.perf_counter()
        writes.append(t1 - t0)
        reads.append(t2 - t1)
    return {
        "analysis.checkpoint.write_s": statistics.median(writes),
        "analysis.checkpoint.read_s": statistics.median(reads),
        "analysis.checkpoint.bytes": os.path.getsize(path),
    }


def fixture(workdir, window, timed_io):
    w = EXPECTED["resume_1e12"][window]
    if w["position"] % ts.DEFAULT_SEGMENT_SIZE:
        raise SystemExit(f"resume position {w['position']} is not a segment boundary")
    records = ts.gap_records(RECORD_LIMIT, workers=min(2, os.cpu_count() or 1))
    cp = make_checkpoint(w["limit"], w["position"], records, w["fixture_pairs"])
    main_path = os.path.join(workdir, "resume.ckpt")
    write_verified(cp, main_path)
    # the smallest valid resume: stopped at 2, after the pair (1, 2)
    setup_path = os.path.join(workdir, "setup.ckpt")
    write_verified(make_checkpoint(2, 2, [(1, 1)], 1), setup_path)
    out = {"checkpoint": main_path, "setup_checkpoint": setup_path,
           "numpy": np.__version__}
    if timed_io:
        out["io"] = time_io(cp, os.path.join(workdir, "io.ckpt"))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def isqrt_array(v):
    """Exact floor(sqrt(v)) for int64 v in [0, 2^52)."""
    r = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    for _ in range(2):
        r -= r * r > v
        r += (r + 1) * (r + 1) <= v
    return r


def sieve_ops(lo, hi, allow_zero):
    """(columns, scatter writes) of mark_segment(lo, hi), from the bounds.

    Mirrors the column walk: columns x >= x0 with 2x^2 < hi, each writing
    the run y0..y1 with y0 = max(x, ceil(sqrt(lo - x^2))) and
    y1 = floor(sqrt(hi - 1 - x^2)).
    """
    x0 = 0 if allow_zero else 1
    x_end = math.isqrt((hi - 1) // 2)
    if x_end < x0:
        return 0, 0
    x = np.arange(x0, x_end + 1, dtype=np.int64)
    x2 = x * x
    below = lo - x2
    ceil_root = np.where(below > 0, isqrt_array(np.maximum(below - 1, 0)) + 1, 0)
    y0 = np.maximum(x, ceil_root)
    y1 = isqrt_array(hi - 1 - x2)
    return int(x.size), int(np.maximum(y1 - y0 + 1, 0).sum())


def layer_metrics(trace, start, limit, segment_size=ts.DEFAULT_SEGMENT_SIZE):
    """Per-layer metrics of one traced run.

    The scan entry is the span named analysis.scan (`verify`, or
    `cross_check` for check).  Its self time excludes the sieve, checkpoint
    I/O and oracle calls made inside it.  Layers a workload does not enter
    report zero time and zero calls.
    """
    spans = trace["spans"]

    def inside(i, name):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def seconds(indices):
        return sum((spans[i][2] - spans[i][1] for i in indices), 0.0)

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def width(i):
        return spans[i][4]["hi"] - spans[i][4]["lo"]

    marks = named("sieve.mark_segment")
    full = [i for i in marks if width(i) == segment_size]
    short = [i for i in marks if width(i) < segment_size]
    rate_calls = full or marks
    columns = scatter = 0
    for i in marks:
        c, w = sieve_ops(spans[i][4]["lo"], spans[i][4]["hi"], spans[i][4]["allow_zero"])
        columns, scatter = columns + c, scatter + w
    set_bits = sum(spans[i][4]["set_bits"] for i in marks)

    scan_s = seconds(named("analysis.scan"))
    in_scan = [i for i in range(len(spans)) if inside(i, "analysis.scan")]
    excluded = seconds(i for i in in_scan
                       if spans[i][0].startswith(("sieve.", "analysis.checkpoint.")))
    inner = sum((t for i in in_scan + named("analysis.scan")
                 for t in spans[i][4].get("inner", {}).values()), 0.0)
    self_s = scan_s - excluded - inner
    calls, oracle_s = trace["totals"].get("representability.is_sum_of_two_squares", [0, 0.0])
    emits = named("cli.emit_report")

    out = {
        "sieve.mark_segment.calls": len(marks),
        "sieve.mark_segment.busy_s": seconds(marks),
        "sieve.mark_segment.ns_per_value":
            1e9 * seconds(rate_calls) / sum(width(i) for i in rate_calls) if marks else 0.0,
        "sieve.mark_segment.short_calls": len(short),
        "sieve.mark_segment.short_s": seconds(short),
        "sieve.mark_segment.scan_share":
            seconds(i for i in marks if inside(i, "analysis.scan")) / scan_s if scan_s else 0.0,
        "sieve.columns": columns,
        "sieve.scatter_writes": scatter,
        "sieve.set_bits": set_bits,
        "sieve.useful_frac": set_bits / scatter if scatter else 0.0,
        # computed: one bitmap byte per window entry, plus an int64 index
        # and a bitmap byte per scatter write
        "sieve.bytes_moved": sum(width(i) for i in marks) + 9 * scatter,
        "analysis.scan.s": scan_s,
        "analysis.scan.self_s": self_s,
        "analysis.scan.self_share": self_s / scan_s if scan_s else 0.0,
        "analysis.scan.ns_per_value": 1e9 * self_s / (limit - start + 1),
        "cli.import_s": trace["import_s"],
        "cli.emit_report.s": seconds(emits),
        "cli.report_bytes": sum(spans[i][4]["bytes"] for i in emits),
        "representability.is_sum_of_two_squares.calls": calls,
        "representability.is_sum_of_two_squares.us_per_call":
            1e6 * oracle_s / calls if calls else 0.0,
    }
    if "_summarize_window" in trace["wrapped"]:
        out["analysis.summary.s"] = seconds(named("analysis.summary")) - seconds(
            i for i in marks if inside(i, "analysis.summary"))
    return out


def layers(paths, start, limit):
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(layer_metrics(json.load(fh), start, limit))
    # counts repeat exactly; keep them integers
    return {name: (statistics.median_low if isinstance(runs[0][name], int) else statistics.median)(
        [run[name] for run in runs]) for name in runs[0]}


def main(argv):
    if argv[0] == "fixture":
        out = fixture(argv[1], int(argv[2]), "--time-io" in argv[3:])
    elif argv[0] == "layers":
        out = layers(argv[3:], int(argv[1]), int(argv[2]))
    else:
        raise SystemExit(f"unknown step {argv[0]!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

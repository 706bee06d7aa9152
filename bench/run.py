"""End-to-end and per-layer benchmark of the twosquares CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is run from `src/` as
`python -m twosquares ...`, one command at a time (a closed loop), with at
most two workers.  Every report is compared byte for byte with values
derived without the sieve (`expected.json`, see derive_expected.py).

Workloads, each chosen so that one layer does most of its work:

  verify_1e8    `verify` at the default limit 10^8 and threshold 2414/1000:
                the paper's headline run.  The window summary is about half
                the scan; seven windows, so pool start-up shows at 2 workers.
  resume_1e12   `verify --resume` over one whole segment just below 10^12,
                from a checkpoint at its start: the tail of the full budget.
                mark_segment's per-column loop is nearly all of it, and it is
                the only workload that reads a checkpoint.  The seed picks
                one of eight such segments.
  check_oracle  `check --limit 200000`: the factorization oracle is about
                90% of the time and the sieve is negligible.

BENCHMARK.json names verify_1e8 and check_oracle only.  A resume_1e12 run
costs about 3.5 s, as each window walks all ~707k lattice columns, so a
run of under 40 s holds only six samples per metric; in ten such runs on a
shared 2-vCPU host its metrics spread 10-17% from run to run (quartile
distance over median), more than a third of their 25% bound, and the time
limit on all runs leaves no room for longer runs with three workloads.  It
stays here, to be run by hand for the sieve at 10^12.

With --trace 0 the last line of stdout holds the end-to-end metrics, each
over the runs of the loop: setup_s (wall time of the same command at
--limit 2), wall_s and wall_s_par (wall time at 1 and 2 workers),
values_per_s(_par) (integers covered over that wall time), cpu_s_par (CPU
time of the process tree at 2 workers), all 85th percentiles (see
slow_level), and peak_rss_mb (median peak RSS of a 1-worker run).  CPU
time and RSS come from each run's own wait4 rusage.  `check` ignores
--workers; its _par metrics time the same command with --workers 2.

With --trace 1 it holds per-layer metrics from runs of bench/traced_cli.py
at 1 worker (medians over the traced runs), the 2-worker busy fraction, and
trace.overhead_s, the traced minus the untraced wall time.

A line before the last one records the environment and every sample.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

WORKERS_PAR = 2
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 150
THRESHOLD = "1207/500"  # the CLI default 2414/1000, in lowest terms


def verify_report(limit, max_s, gap, ratio, pairs):
    doc = {
        "limit": limit,
        "threshold": THRESHOLD,
        "passed": True,
        "max_s": max_s,
        "gap": gap,
        "ratio": ratio,
        "pairs_scanned": pairs,
        "first_offender_s": None,
        "offender_next": None,
        "offender_witness": None,
    }
    return json.dumps(doc, indent=2) + "\n"


def check_report(limit):
    doc = {"limit": limit, "checked": limit, "mismatches": 0, "passed": True,
           "first_mismatch": None}
    return json.dumps(doc, indent=2) + "\n"


# verify --limit 2 sees the pairs (1, 2) and (2, 4); 2 / 2^(1/4) = 2^(3/4)
SETUP_VERIFY = verify_report(2, 2, 2, "1.68179283051", 2)


@dataclass
class Workload:
    """One CLI command at 1 or 2 workers, its setup command, and the reports
    both must print with exit status 0."""

    command: list
    setup_command: list
    expected: str
    setup_expected: str
    start: int
    limit: int
    checkpoint: str | None = None  # copied fresh to checkpoint_run before each run
    checkpoint_run: str | None = None

    def argv(self, workers):
        return [*self.command, "--workers", str(workers)]


def make_workload(name, seed, fixture, workdir):
    if name == "verify_1e8":
        e = EXPECTED["verify_1e8"]
        return Workload(
            command=["verify", "--format", "json"],
            setup_command=["verify", "--limit", "2", "--format", "json"],
            expected=verify_report(e["limit"], e["max_s"], e["gap"], e["ratio"], e["pairs_scanned"]),
            setup_expected=SETUP_VERIFY,
            start=0,
            limit=e["limit"],
        )
    if name == "resume_1e12":
        e = EXPECTED["verify_1e8"]
        w = EXPECTED["resume_1e12"][resume_window(seed)]
        run_path = os.path.join(workdir, "run.ckpt")
        return Workload(
            command=["verify", "--limit", str(w["limit"]), "--checkpoint-path", run_path,
                     "--resume", "--format", "json"],
            setup_command=["verify", "--limit", "2", "--checkpoint-path",
                           fixture["setup_checkpoint"], "--resume", "--format", "json"],
            expected=verify_report(w["limit"], e["max_s"], e["gap"], e["ratio"],
                                   w["fixture_pairs"] + w["window_pairs"]),
            setup_expected=SETUP_VERIFY,
            start=w["position"],
            limit=w["limit"],
            checkpoint=fixture["checkpoint"],
            checkpoint_run=run_path,
        )
    if name == "check_oracle":
        limit = EXPECTED["check_oracle"]["limit"]
        return Workload(
            command=["check", "--limit", str(limit), "--format", "json"],
            setup_command=["check", "--limit", "2", "--format", "json"],
            expected=check_report(limit),
            setup_expected=check_report(2),
            start=1,
            limit=limit,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_1e8", "resume_1e12", "check_oracle")


def resume_window(seed):
    return seed % len(EXPECTED["resume_1e12"])


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def count(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def run_process(argv, workdir, env, expected, tally):
    """Run argv to completion; time it and take its own rusage from wait4.

    wait4 reports the child together with the descendants it reaped (the
    worker pool), so CPU time covers the whole tree and ru_maxrss is the
    largest single process in it.
    """
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir, env=env,
                                start_new_session=True)
        # on timeout, kill the worker pool along with the CLI
        timer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = Path(out_path).read_text(encoding="utf-8", errors="replace")
    ok = proc.returncode == 0 and report == expected
    if not ok:
        tail = Path(err_path).read_text(encoding="utf-8", errors="replace")[-2000:]
        sys.stderr.write(f"bench: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"--- report ---\n{report}--- expected ---\n{expected}"
                         f"--- stderr ---\n{tail}\n")
    tally.count(ok, " ".join(argv[1:]))
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, ok)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    def __init__(self, workload, workdir, tally):
        self.workload = workload
        self.workdir = workdir
        self.tally = tally
        self.env = cli_env()

    def _fresh_checkpoint(self):
        if self.workload.checkpoint:
            shutil.copyfile(self.workload.checkpoint, self.workload.checkpoint_run)

    def main(self, workers):
        self._fresh_checkpoint()
        argv = [sys.executable, "-m", "twosquares", *self.workload.argv(workers)]
        return run_process(argv, self.workdir, self.env, self.workload.expected, self.tally)

    def traced(self, spans_path):
        self._fresh_checkpoint()
        argv = [sys.executable, str(HERE / "traced_cli.py"), spans_path,
                *self.workload.argv(1)]
        return run_process(argv, self.workdir, self.env, self.workload.expected, self.tally)

    def setup(self):
        argv = [sys.executable, "-m", "twosquares", *self.workload.setup_command]
        return run_process(argv, self.workdir, self.env, self.workload.setup_expected,
                           self.tally)


def helper(args, workdir):
    out = subprocess.run([sys.executable, str(HERE / "helper.py"), *args], cwd=workdir,
                         env=cli_env(), stdout=subprocess.PIPE, check=True,
                         timeout=RUN_TIMEOUT_S)
    return json.loads(out.stdout)


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------


def slow_level(values):
    """The 85th percentile of the samples.

    On a shared host the CLI runs at one of two speeds: a contended level,
    about 1.6 times slower, where most samples sit, and spells of full
    speed that come and go within seconds.  The share of fast spells in a
    run varies from run to run and moves the median and the quartiles; the
    contended level does not.  Above it lie rare spikes, mostly in the
    short 2-worker verify_1e8 runs, that a higher percentile would catch.
    In seven sets of six to ten 30-55 s runs of verify_1e8 or check_oracle
    on a 2-vCPU Xeon VM, the largest spread between runs (quartile distance
    over median) of wall_s, wall_s_par or cpu_s_par was 11% for this
    percentile, against 13% for the upper quartile, 18% for the 90th
    percentile and 25% for the median.
    """
    values = list(values)
    return quantiles(values, n=20, method="inclusive")[16] if len(values) > 1 else values[0]


def measure_end_to_end(runner, seconds, samples):
    """Loop over (setup, 1 worker, 2 workers) until `seconds` have passed.

    The set-up runs are spread over the loop, so that all percentiles see
    the same spells of machine load; the order of the two main runs
    alternates.  One untimed round comes first: it byte-compiles the
    package and fills the page cache, and without it the first resume_1e12
    run was the slowest of its run in nearly half of the trials.
    """
    runner.setup()  # warm-up, checked but not timed
    runner.main(1)
    runner.main(WORKERS_PAR)
    setup, one, par = [], [], []
    deadline = time.perf_counter() + seconds
    order = (1, WORKERS_PAR)
    while not one or time.perf_counter() < deadline:
        setup.append(runner.setup())
        for workers in order:
            (one if workers == 1 else par).append(runner.main(workers))
        order = order[::-1]
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.setup())
    values = runner.workload.limit - runner.workload.start + 1
    wall = slow_level(r.wall_s for r in one)
    wall_par = slow_level(r.wall_s for r in par)
    samples.update(setup_s=[r.wall_s for r in setup], wall_s=[r.wall_s for r in one],
                   wall_s_par=[r.wall_s for r in par], cpu_s=[r.cpu_s for r in one],
                   cpu_s_par=[r.cpu_s for r in par],
                   peak_rss_mb=[r.peak_rss_mb for r in one])
    return {
        "setup_s": (slow_level(r.wall_s for r in setup), "s"),
        "wall_s": (wall, "s"),
        "wall_s_par": (wall_par, "s"),
        "values_per_s": (values / wall, "1/s"),
        "values_per_s_par": (values / wall_par, "1/s"),
        "cpu_s_par": (slow_level(r.cpu_s for r in par), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in one), "MB"),
    }


LAYER_UNITS = {
    "calls": "count", "short_calls": "count", "columns": "count",
    "scatter_writes": "count", "set_bits": "count", "bytes_moved": "bytes",
    "bytes": "bytes", "report_bytes": "bytes", "ns_per_value": "ns",
    "us_per_call": "us", "useful_frac": "fraction", "scan_share": "fraction",
    "self_share": "fraction", "busy_frac": "fraction",
}


def measure_layers(runner, seconds, fixture, samples):
    """Loop over (traced, untraced) 1-worker runs, in alternating order, and
    an untraced 2-worker run, until `seconds` have passed."""
    runner.setup()  # warm-up
    plain, traced, par, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        spans.append(os.path.join(runner.workdir, f"spans{len(spans)}.json"))
        if len(spans) % 2:
            traced.append(runner.traced(spans[-1]))
            plain.append(runner.main(1))
        else:
            plain.append(runner.main(1))
            traced.append(runner.traced(spans[-1]))
        par.append(runner.main(WORKERS_PAR))
    w = runner.workload
    layers = helper(["layers", str(w.start), str(w.limit), *spans], runner.workdir)
    layers.update(fixture["io"])
    layers["analysis.pool.busy_frac"] = median(r.cpu_s / (WORKERS_PAR * r.wall_s) for r in par)
    layers["trace.overhead_s"] = median(r.wall_s for r in traced) - median(r.wall_s for r in plain)
    samples.update(traced_wall_s=[r.wall_s for r in traced],
                   wall_s=[r.wall_s for r in plain], wall_s_par=[r.wall_s for r in par])
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def layer_unit(name):
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")


def environment(fixture):
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": fixture["numpy"], "cpu": model, "caches": caches}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twosquares" / "__main__.py").is_file():
        sys.exit(f"bench: no twosquares sources under {SRC}")
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        window = resume_window(args.seed)
        fixture = helper(["fixture", workdir, str(window)] + (["--time-io"] if args.trace else []),
                         workdir)
        tally = Tally()
        runner = Runner(make_workload(args.workload, args.seed, fixture, workdir), workdir, tally)
        samples = {}
        if args.trace:
            metrics = measure_layers(runner, args.seconds, fixture, samples)
        else:
            metrics = measure_end_to_end(runner, args.seconds, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "resume_window": window,
            "environment": environment(fixture), "samples": samples,
            "fail_frac": tally.failed / tally.attempted, "failures": tally.notes}
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

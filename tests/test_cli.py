"""Black-box tests of the command line interface via subprocesses."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from twosquares import Checkpoint, RatioRecord, Threshold, analysis, cli, verify
from twosquares.cli import build_parser, run

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, timeout=300, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "twosquares", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        **kwargs,
    )


class TestExitCodes:
    def test_pass_is_zero(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2414/1000")
        assert proc.returncode == 0

    def test_threshold_exceeded_is_one(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2413/1000")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--limit", "2000", "--threshold", "2.4135"),
            ("verify", "--limit", "2000", "--threshold", "0"),
            ("verify", "--limit", "2000", "--threshold", "banana"),
            ("verify", "--limit", "1"),
            # the window size is the library's, not an option
            ("verify", "--limit", "2000", "--segment-size", "65536"),
            ("verify", "--limit", "2000", "--workers", "0"),
            ("verify", "--resume",),
            ("verify", "--limit", "2000", "--resume", "--checkpoint-path", "/no/such/file"),
            ("records", "--limit", "30", "--threshold", "2/1"),
            ("records", "--format", "yaml"),
            ("bogus",),
            (),
            ("check", "--limit", "100", "--output-path", ""),
            ("check", "--limit", "100", "--output-path", "/no/such/dir/out.json"),
            ("verify", "--limit", "300000000", "--checkpoint-path", "/no/such/dir/ck"),
            ("density", "--limit", str(10**12 + 1)),
            ("verify", "--limit", "2000", "--workers", "257"),
        ],
    )
    def test_usage_errors_are_two(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr

    def test_usage_errors_name_the_field(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2.4135")
        assert "threshold" in proc.stderr
        # unwritable paths are refused before any scanning
        proc = run_cli("check", "--limit", "100", "--output-path", "/no/such/dir/out.json")
        assert "output-path" in proc.stderr and "Traceback" not in proc.stderr
        proc = run_cli("verify", "--limit", "300000000", "--checkpoint-path", "/no/such/dir/ck",
                       timeout=60)
        assert "checkpoint-path" in proc.stderr and "Traceback" not in proc.stderr
        proc = run_cli("check", "--limit", "100", "--output-path", ".")
        assert "output-path" in proc.stderr
        # every subcommand names the field of an over-budget limit, before any work
        proc = run_cli("density", "--limit", str(10**12 + 1))
        assert "limit:" in proc.stderr
        # the library's bound on workers, which the CLI shares
        proc = run_cli("verify", "--limit", "2000", "--workers", "257")
        assert proc.stderr.startswith("error: workers: ")

    def test_unreadable_checkpoint_is_two_naming_the_path(self, tmp_path):
        # refused by the path check, and by the read in a writable directory
        for path in ("/no/such/file", str(tmp_path / "absent.txt")):
            proc = run_cli("verify", "--limit", "2000", "--resume", "--checkpoint-path", path)
            assert proc.returncode == 2
            assert "checkpoint-path" in proc.stderr and "Traceback" not in proc.stderr

    def test_non_utf8_checkpoint_is_two(self, tmp_path):
        ck = tmp_path / "ck.txt"
        ck.write_bytes(b"version=1\nlimit=\xff\n")
        proc = run_cli("verify", "--limit", "2000", "--resume", "--checkpoint-path", str(ck))
        assert proc.returncode == 2
        assert "checkpoint" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [("max_gap", 0), ("limit", 1), ("pairs_scanned", -3)])
    def test_checkpoint_field_out_of_range_is_two_naming_it(self, tmp_path, key, value):
        ck = tmp_path / "ck.txt"
        verify(10**5, Threshold.parse("2414/1000"), checkpoint_path=str(ck))
        ck.write_text(json.dumps(json.loads(ck.read_text()) | {key: value}))
        proc = run_cli("verify", "--limit", "100000", "--resume", "--checkpoint-path", str(ck))
        assert proc.returncode == 2 and proc.stdout == ""
        # max_gap is checked only against the record table, whose maximum is (1493, 15)
        if key == "max_gap":
            assert proc.stderr.startswith("error: checkpoint: max_s/max_gap 1493/0 is not ")
        else:
            assert proc.stderr.startswith(f"error: checkpoint: field '{key}' must be at least ")
            assert proc.stderr.endswith(f"got {value}\n")

    @pytest.mark.parametrize("subcommand, field", [("check", "output-path"),
                                                   ("verify", "checkpoint-path")])
    def test_unwritable_paths_fail_before_scanning(self, subcommand, field, monkeypatch, capsys):
        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the paths")

        monkeypatch.setattr(analysis, "verify", no_scan)
        monkeypatch.setattr(analysis, "cross_check", no_scan)
        args = build_parser().parse_args([
            subcommand, "--limit", str(10**5), "--workers", "1", "--format", "json",
            f"--{field}", f"/no/such/dir/{field}",
        ])
        assert run(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_checkpoint_path_that_is_not_a_regular_file_is_two(self, tmp_path):
        # the checkpoint is renamed into place, which would replace the FIFO
        fifo = tmp_path / "ck"
        os.mkfifo(fifo)
        proc = run_cli("verify", "--limit", "100000", "--checkpoint-path", str(fifo))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: checkpoint-path: ") and "Traceback" not in proc.stderr
        assert fifo.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["ck"]

    def test_report_over_the_checkpoint_is_two(self, tmp_path):
        # the report would replace the finished checkpoint, and a later
        # --resume would fail to parse it; an alias through a symlinked
        # directory names the same file
        ck = tmp_path / "ck.txt"
        (tmp_path / "alias").symlink_to(tmp_path)
        args = ("verify", "--limit", "2000", "--format", "json", "--checkpoint-path", str(ck))
        assert run_cli(*args).returncode == 0
        written = ck.read_bytes()
        for out in (ck, tmp_path / "alias" / "ck.txt"):
            for extra in ((), ("--resume",)):
                proc = run_cli(*args, *extra, "--output-path", str(out))
                assert proc.returncode == 2
                assert proc.stderr.startswith("error: output-path: ") and "Traceback" not in proc.stderr
                assert ck.read_bytes() == written
        assert run_cli(*args, "--resume").returncode == 0

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_report_write_is_two(self):
        proc = run_cli("check", "--limit", "100", "--output-path", "/dev/full")
        assert proc.returncode == 2
        assert "output-path" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_is_two(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "twosquares", "check", "--limit", "100", "--format", "json"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=300,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: stdout: ") and "Traceback" not in proc.stderr
        assert "No space left" in proc.stderr and "Exception ignored" not in proc.stderr

    def test_closed_stdout_is_two(self):
        # the shell closes the child's stdout, so the interpreter starts with
        # sys.stdout None
        cmd = [sys.executable, "-m", "twosquares", "check", "--limit", "100", "--format", "json"]
        proc = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *cmd],
                              stderr=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: stdout: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("written", [False, True])
    def test_interrupt_is_130_naming_a_written_checkpoint(self, tmp_path, monkeypatch, capsys,
                                                          written):
        def ctrl_c(*args, **kwargs):
            raise KeyboardInterrupt

        path = tmp_path / "ck.txt"
        if written:
            path.write_text("")
        monkeypatch.setattr(analysis, "verify", ctrl_c)
        args = build_parser().parse_args(["verify", "--limit", "2000",
                                          "--checkpoint-path", str(path)])
        try:
            code = run(args)
        except KeyboardInterrupt:  # else pytest would stop the whole session
            pytest.fail("run() let the interrupt through")
        assert code == 130
        hint = f", resume with --resume --checkpoint-path {path}" if written else ""
        assert capsys.readouterr().err == f"error: interrupted{hint}\n"

    def test_failed_checkpoint_write_is_two(self, tmp_path, monkeypatch, capsys):
        def disk_full(cp, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(analysis, "write_checkpoint", disk_full)
        args = build_parser().parse_args([
            "verify", "--limit", str(10**5), "--threshold", "2414/1000", "--workers", "1",
            "--checkpoint-path", str(tmp_path / "ck"), "--format", "json",
        ])
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "checkpoint-path" in captured.err and "No space left" in captured.err

    @pytest.mark.parametrize("exc, line", [
        (None, "child 1 ended before item 1"),
        # a class with no module-level name: pickle cannot send it back
        (type("Local", (Exception,), {})("lost"), "child 1: Local: lost"),
    ], ids=["child-dies", "exception-not-rebuilt"])
    def test_a_failed_worker_is_two_naming_workers(self, monkeypatch, capsys, windows, exc,
                                                   line):
        # the pool's own failure, not a threshold exceeded: one line, no
        # traceback, and no child left.  The forked child dies or raises
        # exc on its first window.
        parent, real = os.getpid(), analysis._scan_window

        def failing(args):
            if os.getpid() != parent:
                if exc is None:
                    os._exit(0)
                raise exc
            return real(args)

        monkeypatch.setattr(analysis, "_scan_window", failing)
        windows(1 << 12)
        args = build_parser().parse_args(["verify", "--limit", "100000", "--workers", "2"])
        assert run(args) == 2
        assert capsys.readouterr() == ("", f"error: workers: {line}\n")
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)


def scan_state(position, limit, pairs):
    return Checkpoint(version=1, limit=limit, position=position,
                      last_representable=position - 1, current_max=RatioRecord.of(1493, 15),
                      gap_records=((15, 1493),), pairs_scanned=pairs)


def test_progress_line_labels_the_max_ratio_record(monkeypatch, capsys):
    ticks = iter([0.0, 1.0, 3.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    printer = cli._progress_printer()
    printer(scan_state(1 << 24, 10**8, 1000))  # under 2 s: silent
    printer(scan_state(1 << 25, 10**8, 2000))
    assert capsys.readouterr().err == (
        "progress: 33,554,432/100,000,000 scanned, 2,000 pairs, 11.2 M/s, "
        "max ratio at s=1,493 gap=15\n"
    )


def test_progress_rate_after_resume_counts_from_the_resume_position(monkeypatch, capsys):
    ticks = iter([0.0, 3.0])
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    position = 999_972_405_248
    printer = cli._progress_printer(position)
    printer(scan_state(position + (1 << 24), 10**12, 2000))
    # 2^24 integers in 3 s
    assert capsys.readouterr().err == (
        "progress: 999,989,182,464/1,000,000,000,000 scanned, 2,000 pairs, 5.6 M/s, "
        "max ratio at s=1,493 gap=15\n"
    )


class TestVerifyCommand:
    def test_json_report(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2414/1000",
                       "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["passed"] is True
        assert doc["max_s"] == 1493
        assert doc["gap"] == 15
        assert doc["ratio"] == "2.41310548678"
        assert doc["threshold"] == "1207/500"
        assert doc["pairs_scanned"] == 619
        assert doc["first_offender_s"] is None

    def test_failure_names_offender_and_witness(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2413/1000",
                       "--format", "json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["passed"] is False
        assert doc["first_offender_s"] == 1493
        assert doc["offender_next"] == 1508
        assert doc["offender_witness"] == [8, 38]

    def test_csv_report(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2414/1000",
                       "--format", "csv")
        header, row = proc.stdout.strip().split("\n")
        assert header.startswith("limit,threshold,passed,max_s,gap,ratio")
        assert row.startswith("2000,1207/500,true,1493,15,2.41310548678,619")

    def test_human_report(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2413/1000")
        assert "passed          no" in proc.stdout
        assert "1,493" in proc.stdout
        assert "witness" in proc.stdout
        assert "38" in proc.stdout

    def test_progress_goes_to_stderr_only(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2414/1000",
                       "--format", "json")
        json.loads(proc.stdout)  # stdout must stay pure json

    def test_output_path(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--limit", "2000", "--format", "json",
                       "--output-path", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["max_s"] == 1493


class TestDeterminism:
    def test_reports_identical_across_workers_and_segments(self, tmp_path, windows):
        outputs = set()
        out = tmp_path / "report"
        for fmt in ("json", "csv"):
            per_fmt = set()
            for workers, seg in (("1", 1 << 14), ("2", 1 << 20), ("2", 1 << 14)):
                windows(seg)
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(["verify", "--limit", "100000", "--threshold", "2414/1000",
                              "--format", fmt, "--workers", workers, "--output-path", str(out)])
                assert exit_info.value.code == 0
                per_fmt.add(out.read_bytes())
            assert len(per_fmt) == 1
            outputs |= per_fmt
        assert len(outputs) == 2  # json and csv differ from each other


class TestResume:
    def test_cli_resume_matches_uninterrupted(self, tmp_path, checkpoints_written, windows):
        ck = tmp_path / "ck.txt"
        t = Threshold.parse("2414/1000")
        windows(1 << 16)
        verify(10**6, t, checkpoint_path=str(ck))
        # leave a mid-run checkpoint behind, as a killed run would
        analysis.write_checkpoint(checkpoints_written[3], str(ck))
        resumed = run_cli("verify", "--limit", "1000000",
                          "--threshold", "2414/1000", "--format", "json",
                          "--resume", "--checkpoint-path", str(ck))
        uninterrupted = run_cli("verify", "--limit", "1000000",
                                "--threshold", "2414/1000", "--format", "json")
        assert resumed.returncode == 0
        assert resumed.stdout == uninterrupted.stdout

    @pytest.mark.parametrize("workers, form", [
        ("1", "file"), ("2", "file"), ("1", "lists"), ("2", "lists"),
        ("1", "no-max"), ("2", "no-max"),
    ], ids=["1", "2", "1-lists", "2-lists", "1-no-max", "2-no-max"])
    def test_resume_from_the_finished_state_scans_nothing(self, tmp_path, monkeypatch, workers,
                                                          form, windows):
        # the finished state, read back from its file through the CLI or
        # built by hand from it with list tables or no current_max and passed
        # to verify, scans nothing, reports as the fresh run did and leaves
        # the file as it is, its mtime included
        windows(1 << 12)
        ck = tmp_path / "ck.txt"
        argv = ["verify", "--limit", "100000", "--workers", workers,
                "--checkpoint-path", str(ck), "--format", "json"]

        def run_to(out, *extra):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*argv, *extra, "--output-path", str(out)])
            assert exit_info.value.code == 0
            return out.read_bytes()

        def no_scan(*args, **kwargs):
            raise AssertionError("marked a window after the scan had finished")

        def no_write(*args, **kwargs):
            raise AssertionError("wrote over the finished checkpoint")

        base = run_to(tmp_path / "base.json")
        finished, state = ck.read_bytes(), analysis.read_checkpoint(ck)
        hand = {"lists": state._replace(gap_records=list(state.gap_records),
                                        decade_counts=list(state.decade_counts)),
                "no-max": state._replace(current_max=None)}
        os.utime(ck, ns=(10**9, 10**9))
        monkeypatch.setattr(analysis, "mark_segment", no_scan)
        monkeypatch.setattr(analysis, "write_checkpoint", no_write)
        if form == "file":
            resumed = run_to(tmp_path / "resumed.json", "--resume")
        else:
            report = verify(10**5, Threshold.parse("2414/1000"), hand[form],
                            workers=int(workers), checkpoint_path=ck)
            resumed = cli.emit_report(report, "json").encode()
        assert resumed == base
        assert ck.read_bytes() == finished and ck.stat().st_mtime_ns == 10**9

    @pytest.mark.parametrize("state, edit", [
        (0, {"position": 500000}),
        (-1, {"last_representable": 900000, "position": 900001}),
    ], ids=["mid-run", "finished"])
    def test_position_that_no_scan_reaches_is_two(self, tmp_path, checkpoints_written, windows,
                                                  state, edit):
        # a scan of limit 10^5 draws no window past limit + MAX_GAP + 1
        ck = tmp_path / "ck.txt"
        windows(1 << 12)
        verify(10**5, Threshold.parse("2414/1000"), checkpoint_path=str(ck))
        analysis.write_checkpoint(checkpoints_written[state], str(ck))
        ck.write_text(json.dumps(json.loads(ck.read_text()) | edit))
        proc = run_cli("verify", "--limit", "100000", "--resume", "--checkpoint-path", str(ck))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: checkpoint: position ") and proc.stdout == ""

    def test_mismatched_limit_is_usage_error(self, tmp_path, windows):
        ck = tmp_path / "ck.txt"
        windows(1 << 16)
        verify(10**6, Threshold.parse("2414/1000"), checkpoint_path=str(ck))
        proc = run_cli("verify", "--limit", "2000000", "--resume",
                       "--checkpoint-path", str(ck))
        assert proc.returncode == 2
        assert "limit" in proc.stderr


# Runs cli.main on its arguments in 4096-value windows; prints the pid of
# each child it forks, then holds after the first checkpoint write.
KILL_DRILL = """
import os, signal, sys, time
from twosquares import analysis, cli

fork, write = os.fork, analysis.write_checkpoint

def forking():
    pid = fork()
    if pid:
        print("child", pid, flush=True)
    return pid

def writing(cp, path):
    write(cp, path)
    print("written", cp.position, flush=True)
    time.sleep(600)

analysis.DEFAULT_SEGMENT_SIZE = 4096
os.fork, analysis.write_checkpoint = forking, writing
# a shell starts a background job with SIGINT ignored, and Python then
# installs no KeyboardInterrupt handler; the drill needs one
signal.signal(signal.SIGINT, signal.default_int_handler)
cli.main(sys.argv[1:])
"""


def process_state(pid):
    """The state letter of a process from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def running(pids):
    return [pid for pid in pids if process_state(pid) not in (None, "Z")]


def interrupt_drill(argv, workers, send):
    """Start KILL_DRILL on argv in a session of its own, call send(pid) once
    it has written its first checkpoint, and wait until every child it forked
    is gone or a zombie.  Returns the position written, the drill's exit
    status and its stderr."""
    drill = subprocess.Popen([sys.executable, "-c", KILL_DRILL, *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    watchdog = threading.Timer(60, drill.kill)
    watchdog.start()
    children, written = [], None
    try:
        for line in drill.stdout:
            word, value = line.split()
            if word == "written":
                written = int(value)
                break
            children.append(int(value))
        assert written is not None and len(children) == workers - 1
        assert running(children) == children
        send(drill.pid)
        code = drill.wait(timeout=10)
        deadline = time.monotonic() + 10
        while running(children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert running(children) == []
        return written, code, drill.stderr.read()
    finally:
        watchdog.cancel()
        watchdog.join()
        drill.kill()
        drill.wait(timeout=10)
        drill.stdout.close()
        drill.stderr.close()
        for pid in running(children):
            os.kill(pid, signal.SIGKILL)


needs_fork_and_proc = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.exists("/proc/self/stat"),
    reason="needs os.fork and Linux /proc")
DRILL_ARGS = ["verify", "--limit", "10000000", "--format", "json"]


@needs_fork_and_proc
@pytest.mark.parametrize("workers", [2, 3])
def test_killed_run_leaves_no_child_and_resumes_to_the_same_report(tmp_path, workers):
    # About 2400 windows: the children's results overfill their pipes, so
    # they are still running when the parent is killed after its first
    # checkpoint, and its finally never runs.  A child whose pipe has lost
    # its reader fails its next write and exits; at 3 workers the second
    # child holds the first one's read end too, so they end last first.
    # The reference run scans the default windows.
    args = [*DRILL_ARGS, "--workers", str(workers)]
    want = run_cli(*args)
    assert want.returncode == 0, want.stderr
    path = str(tmp_path / "ck.txt")
    # killed in a leg from a fresh start at 1, then in a leg resumed from its file
    for extra, start in (((), 1), (("--resume",), 4097)):
        written, code, _ = interrupt_drill([*args, "--checkpoint-path", path, *extra], workers,
                                           lambda pid: os.kill(pid, signal.SIGKILL))
        assert (written, code) == (start + 4096, -signal.SIGKILL)
    resumed = run_cli(*args, "--checkpoint-path", path, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == want.stdout


@needs_fork_and_proc
@pytest.mark.parametrize("workers", [2, 3])
def test_interrupted_run_exits_130_and_resumes_to_the_same_report(tmp_path, workers):
    # Ctrl-C at a terminal sends SIGINT to the whole foreground process
    # group, the forked children included
    args = [*DRILL_ARGS, "--workers", str(workers)]
    want = run_cli(*args)
    assert want.returncode == 0, want.stderr
    path = str(tmp_path / "ck.txt")
    written, code, err = interrupt_drill([*args, "--checkpoint-path", path], workers,
                                         lambda pid: os.killpg(pid, signal.SIGINT))
    assert (written, code) == (4097, 130)
    assert "Traceback" not in err
    assert err.endswith(f"error: interrupted, resume with --resume --checkpoint-path {path}\n")
    resumed = run_cli(*args, "--checkpoint-path", path, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == want.stdout


class TestRecordsCommand:
    def test_json_list_ends_with_gap_5(self):
        proc = run_cli("records", "--limit", "30", "--format", "json")
        docs = json.loads(proc.stdout)
        assert docs[-1]["gap"] == 5
        assert docs[-1]["first_s"] == 20
        assert docs[-1]["ratio"] == "2.36435402251"

    def test_csv_has_header(self):
        proc = run_cli("records", "--limit", "30", "--format", "csv")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "gap,first_s,ratio,erdos_norm,cramer_norm"
        assert lines[-1].startswith("5,20,2.36435402251,")

    def test_norms_blank_below_cutoff(self):
        proc = run_cli("records", "--limit", "30", "--format", "json")
        docs = json.loads(proc.stdout)
        assert docs[0]["erdos_norm"] is None  # s = 1
        assert docs[-1]["erdos_norm"] is not None  # s = 20

    def test_human_table(self):
        proc = run_cli("records", "--limit", "2000")
        assert "1,493" in proc.stdout
        assert "gap" in proc.stdout


class TestDensityCommand:
    def test_csv_row_for_limit_10(self):
        proc = run_cli("density", "--limit", "10", "--format", "csv")
        assert proc.stdout == "x,count,normalized\n10,7,1.06219899057\n"

    def test_decade_points_plus_limit(self):
        proc = run_cli("density", "--limit", "2500", "--format", "json")
        docs = json.loads(proc.stdout)
        assert [d["x"] for d in docs] == [10, 100, 1000, 2500]
        assert [d["count"] for d in docs] == [7, 43, 330, 761]

    def test_degenerate_records_range(self):
        proc = run_cli("records", "--limit", "2", "--format", "csv")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "gap,first_s,ratio,erdos_norm,cramer_norm"
        assert len(lines) == 3

    def test_empty_records_list_emits_header_only(self):
        from twosquares.cli import emit_report

        assert emit_report([], "csv") == "gap,first_s,ratio,erdos_norm,cramer_norm\n"
        assert json.loads(emit_report([], "json")) == []

    def test_unsupported_report_type_is_named(self):
        from twosquares.cli import emit_report

        with pytest.raises(TypeError, match="object"):
            emit_report(object(), "json")


class TestCheckCommand:
    def test_small_range_passes(self):
        proc = run_cli("check", "--limit", "20000", "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["mismatches"] == 0
        assert doc["checked"] == 20000
        assert doc["passed"] is True

    def test_limit_over_budget_is_usage_error(self):
        proc = run_cli("check", "--limit", "99999999999999999999", timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "limit" in proc.stderr

    def test_mismatch_fails_and_names_first(self, tmp_path, monkeypatch):
        real = analysis.mark_segment

        def flip_3000(lo, hi, **kwargs):
            seg = real(lo, hi, **kwargs)
            if lo <= 3000 < hi:
                seg.packed[(3000 - lo) >> 3] ^= 1 << ((3000 - lo) & 7)
            return seg

        monkeypatch.setattr(analysis, "mark_segment", flip_3000)
        args = build_parser().parse_args([
            "check", "--limit", "5000", "--workers", "1",
            "--format", "json", "--output-path", str(tmp_path / "r.json"),
        ])
        assert run(args) == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc == {
            "limit": 5000, "checked": 5000, "mismatches": 1,
            "passed": False, "first_mismatch": 3000,
        }


class TestRunConfigApi:
    """run() on a namespace from build_parser(), without a subprocess."""

    def test_run_returns_exit_code(self, tmp_path, capsys):
        args = build_parser().parse_args([
            "verify", "--limit", "2000", "--threshold", "2413/1000", "--workers", "1",
            "--format", "json", "--output-path", str(tmp_path / "r.json"),
        ])
        assert run(args) == 1
        assert json.loads((tmp_path / "r.json").read_text())["passed"] is False

    def test_invalid_config_returns_two(self):
        args = build_parser().parse_args([
            "verify", "--limit", "2000", "--threshold", "2414/1000",
            "--workers", "0", "--format", "json",
        ])
        assert run(args) == 2


# Reports written by the parent of the scan-core refactor (json, csv) and of
# the one-table report writer (human, the txt files, without the elapsed
# line); every later change must reproduce them byte for byte.
GOLDEN_RUNS = [
    ("verify_2414", ["verify", "--threshold", "2414/1000"], 0),
    ("verify_2413", ["verify", "--threshold", "2413/1000"], 1),
    ("records", ["records"], 0),
    ("density", ["density"], 0),
    ("check", ["check"], 0),
]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("name, argv, code", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
def test_reports_match_golden(tmp_path, name, argv, code, workers, windows):
    # at the default windows 10^6 is two windows; at 2^16 the decades fall
    # inside the forked workers' windows
    for size in (analysis.DEFAULT_SEGMENT_SIZE, 1 << 16):
        windows(size)
        for fmt, ext in (("json", "json"), ("csv", "csv"), ("human", "txt")):
            out = tmp_path / f"{name}.{ext}"
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*argv, "--limit", "1000000", "--format", fmt, "--workers", workers,
                          "--output-path", str(out)])
            assert exit_info.value.code == code
            # the elapsed time is the one line that differs from run to run
            lines = out.read_bytes().splitlines(keepends=True)
            got = b"".join(ln for ln in lines if not ln.startswith(b"  elapsed "))
            assert got == (GOLDEN / f"{name}.{ext}").read_bytes(), (size, fmt)

"""Black-box tests of the command line interface via subprocesses."""

import json
import subprocess
import sys

import pytest

from twosquares import Threshold, cli, verify
from twosquares.cli import RunConfig, run


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
            ("verify", "--limit", "2000", "--segment-size", "1000"),
            ("verify", "--limit", "2000", "--workers", "0"),
            ("verify", "--resume",),
            ("verify", "--limit", "2000", "--resume", "--checkpoint-path", "/no/such/file"),
            ("records", "--limit", "30", "--threshold", "2/1"),
            ("records", "--format", "yaml"),
            ("bogus",),
            (),
        ],
    )
    def test_usage_errors_are_two(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr

    def test_usage_errors_name_the_field(self):
        proc = run_cli("verify", "--limit", "2000", "--threshold", "2.4135")
        assert "threshold" in proc.stderr
        proc = run_cli("verify", "--limit", "2000", "--segment-size", "1000")
        assert "segment-size" in proc.stderr


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
    def test_reports_identical_across_workers_and_segments(self, tmp_path):
        outputs = set()
        for fmt in ("json", "csv"):
            per_fmt = set()
            for workers, seg in (("1", str(1 << 14)), ("2", str(1 << 20)),
                                 ("2", str(1 << 14))):
                proc = run_cli("verify", "--limit", "100000",
                               "--threshold", "2414/1000", "--format", fmt,
                               "--workers", workers, "--segment-size", seg)
                assert proc.returncode == 0
                per_fmt.add(proc.stdout)
            assert len(per_fmt) == 1
            outputs |= per_fmt
        assert len(outputs) == 2  # json and csv differ from each other


class TestResume:
    def test_cli_resume_matches_uninterrupted(self, tmp_path):
        ck = tmp_path / "ck.txt"
        t = Threshold.parse("2414/1000")
        # leave a mid-run checkpoint behind, as a killed run would
        verify(10**6, t, segment_size=1 << 16,
               checkpoint_path=str(ck), checkpoint_every=1 << 18)
        assert ck.exists()
        resumed = run_cli("verify", "--limit", "1000000",
                          "--threshold", "2414/1000", "--format", "json",
                          "--resume", "--checkpoint-path", str(ck))
        uninterrupted = run_cli("verify", "--limit", "1000000",
                                "--threshold", "2414/1000", "--format", "json")
        assert resumed.returncode == 0
        assert resumed.stdout == uninterrupted.stdout

    def test_mismatched_limit_is_usage_error(self, tmp_path):
        ck = tmp_path / "ck.txt"
        verify(10**6, Threshold.parse("2414/1000"), segment_size=1 << 16,
               checkpoint_path=str(ck), checkpoint_every=1 << 18)
        proc = run_cli("verify", "--limit", "2000000", "--resume",
                       "--checkpoint-path", str(ck))
        assert proc.returncode == 2
        assert "limit" in proc.stderr


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
        real = cli.mark_segment

        def flip_3000(lo, hi, **kwargs):
            seg = real(lo, hi, **kwargs)
            if lo <= 3000 < hi:
                seg.bits[3000 - lo] = not seg.bits[3000 - lo]
            return seg

        monkeypatch.setattr(cli, "mark_segment", flip_3000)
        config = RunConfig(
            subcommand="check", limit=5000, threshold=None,
            segment_size=1024, workers=1, checkpoint_path=None,
            resume=False, output_format="json",
            output_path=str(tmp_path / "r.json"),
        )
        assert run(config) == 1
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc == {
            "limit": 5000, "checked": 5000, "mismatches": 1,
            "passed": False, "first_mismatch": 3000,
        }


class TestRunConfigApi:
    def test_run_returns_exit_code(self, tmp_path, capsys):
        config = RunConfig(
            subcommand="verify", limit=2000, threshold="2413/1000",
            segment_size=1 << 20, workers=1, checkpoint_path=None,
            resume=False, output_format="json",
            output_path=str(tmp_path / "r.json"),
        )
        assert run(config) == 1
        assert json.loads((tmp_path / "r.json").read_text())["passed"] is False

    def test_invalid_config_returns_two(self):
        config = RunConfig(
            subcommand="verify", limit=2000, threshold="2414/1000",
            segment_size=1000, workers=1, checkpoint_path=None,
            resume=False, output_format="json", output_path=None,
        )
        assert run(config) == 2

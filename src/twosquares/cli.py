"""Command-line front end.

Subcommands: verify (threshold scan), records (gap record table), density
(count statistics), check (sieve vs the bulk even-exponent criterion).
Each validates its arguments, calls one library function through the
analysis module (verify, gap_records, density, cross_check) and serializes
what it returns; no scanning happens here.  Reports go to stdout or
--output-path; progress (position, pair count, rate and the current
maximum-ratio record) and diagnostics go to stderr only, so the report
stream stays byte-deterministic for a given configuration.

Exit status: 0 success/pass, 1 verification failure (a threshold was
exceeded, scientifically interesting), 2 usage or configuration error.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from . import analysis
from .analysis import (
    CheckpointError,
    CheckReport,
    DensityPoint,
    ScanProgress,
    Threshold,
    VerificationReport,
    significant,
)
from .representability import find_witness
from .sieve import DEFAULT_MEMORY_CAP, DEFAULT_SEGMENT_SIZE

__all__ = ["RunConfig", "run", "emit_report", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_LIMIT = 10**8
DEFAULT_THRESHOLD = "2414/1000"


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    limit: int
    threshold: str | None
    segment_size: int
    workers: int
    checkpoint_path: str | None
    resume: bool
    output_format: str
    output_path: str | None


@dataclass(frozen=True)
class RecordRow:
    """One gap record with display ratio and optional normalizations."""

    gap: int
    first_s: int
    ratio: str
    erdos_norm: str | None
    cramer_norm: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="Scan sums of two squares: gap records, short-interval "
        "threshold verification, density statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, default_limit: int = DEFAULT_LIMIT) -> None:
        p.add_argument("--limit", type=int, default=default_limit,
                       help=f"scan pairs with s up to this bound (default {default_limit})")
        p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE,
                       help="window size in integers, a power of two")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel sieve workers (default 1)")
        p.add_argument("--format", dest="output_format", default="human",
                       choices=("human", "json", "csv"))
        p.add_argument("--output-path", default=None,
                       help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="scan gaps against a ratio threshold")
    common(p_verify)
    p_verify.add_argument("--threshold", default=DEFAULT_THRESHOLD,
                          help='rational "p/q" or decimal with up to 3 places '
                               f"(default {DEFAULT_THRESHOLD})")
    p_verify.add_argument("--checkpoint-path", default=None,
                          help="write resumable state here periodically")
    p_verify.add_argument("--resume", action="store_true",
                          help="resume from --checkpoint-path")

    p_records = sub.add_parser("records", help="table of record gaps")
    common(p_records)

    p_density = sub.add_parser("density", help="counts at powers of 10 up to the limit")
    common(p_density)

    p_check = sub.add_parser("check", help="cross-check the sieve against the even-exponent "
                             "criterion, evaluated per window without the lattice walk")
    common(p_check, default_limit=10**5)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        limit=args.limit,
        threshold=getattr(args, "threshold", None),
        segment_size=args.segment_size,
        workers=args.workers,
        checkpoint_path=getattr(args, "checkpoint_path", None),
        resume=getattr(args, "resume", False),
        output_format=args.output_format,
        output_path=args.output_path,
    )


def _validate(config: RunConfig) -> None:
    if config.limit < 2:
        raise ValueError(f"limit: must be >= 2, got {config.limit}")
    if config.limit > analysis.MAX_S:
        raise analysis.BudgetError(
            f"limit: {config.limit} exceeds exact-comparison budget {analysis.MAX_S}"
        )
    size = config.segment_size
    if not 2 <= size <= DEFAULT_MEMORY_CAP or size & (size - 1):
        raise ValueError(
            f"segment-size: must be a power of two in [2, {DEFAULT_MEMORY_CAP}], got {size}"
        )
    if config.workers < 1 or config.workers > 256:
        raise ValueError(f"workers: must be in [1, 256], got {config.workers}")
    if config.resume and not config.checkpoint_path:
        raise ValueError("resume: requires --checkpoint-path")
    # Checked before any scanning.  The report is opened in place, so an
    # existing file (such as /dev/null) need only be writable; a checkpoint is
    # renamed into place, so its directory must be writable.
    for field, path in (("output-path", config.output_path),
                        ("checkpoint-path", config.checkpoint_path)):
        if path is None:
            continue
        if not path or os.path.isdir(path):
            raise ValueError(f"{field}: {path!r} is empty or a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if field == "output-path" and os.path.exists(path):
            writable = os.access(path, os.W_OK)
        else:
            writable = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
        if not writable:
            raise ValueError(f"{field}: {path} is not writable or its directory does not exist")


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def emit_report(report, output_format: str) -> str:
    """Serialize a report; json and csv are byte-deterministic for a given
    configuration (elapsed time appears only in the human format)."""
    if isinstance(report, VerificationReport):
        return _emit_verification(report, output_format)
    if isinstance(report, CheckReport):
        return _emit_check(report, output_format)
    if isinstance(report, list):
        if report and isinstance(report[0], DensityPoint):
            return _emit_density(report, output_format)
        # an empty list is a degenerate records table: header only
        return _emit_records(report, output_format)
    raise TypeError(f"emit_report: unsupported report type {type(report).__name__}")


def _witness_text(value: int) -> tuple[int, int] | None:
    w = find_witness(value)
    return (w.x, w.y) if w is not None else None


def _emit_verification(report: VerificationReport, fmt: str) -> str:
    rec = report.max_record
    ratio = significant(rec.ratio_display)
    offender = report.first_offender
    witness = _witness_text(offender.s_next) if offender is not None else None
    if fmt == "json":
        doc = {
            "limit": report.limit,
            "threshold": str(report.threshold),
            "passed": report.passed,
            "max_s": rec.s,
            "gap": rec.gap,
            "ratio": ratio,
            "pairs_scanned": report.pairs_scanned,
            "first_offender_s": offender.s if offender else None,
            "offender_next": offender.s_next if offender else None,
            "offender_witness": list(witness) if witness else None,
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        header = ("limit,threshold,passed,max_s,gap,ratio,pairs_scanned,"
                  "first_offender_s,offender_next,offender_witness_x,offender_witness_y")
        row = [
            str(report.limit),
            str(report.threshold),
            str(report.passed).lower(),
            str(rec.s),
            str(rec.gap),
            ratio,
            str(report.pairs_scanned),
            str(offender.s) if offender else "",
            str(offender.s_next) if offender else "",
            str(witness[0]) if witness else "",
            str(witness[1]) if witness else "",
        ]
        return header + "\n" + ",".join(row) + "\n"
    lines = [
        "sums-of-two-squares verification",
        f"  limit           {report.limit:,}",
        f"  threshold       {report.threshold}",
        f"  passed          {'yes' if report.passed else 'no'}",
        f"  max ratio       {ratio}",
        f"  at record       s={rec.s:,}  gap={rec.gap}  next={rec.s + rec.gap:,}",
        f"  pairs scanned   {report.pairs_scanned:,}",
        f"  elapsed         {report.elapsed:.2f} s",
    ]
    if offender is not None:
        lines.append(
            f"  first offender  s={offender.s:,}  gap={offender.gap}  next={offender.s_next:,}"
        )
        if witness is not None:
            lines.append(
                f"  witness         {offender.s_next:,} = {witness[0]}^2 + {witness[1]}^2"
            )
    return "\n".join(lines) + "\n"


def _emit_records(rows: list[RecordRow], fmt: str) -> str:
    if fmt == "json":
        docs = [
            {
                "gap": r.gap,
                "first_s": r.first_s,
                "ratio": r.ratio,
                "erdos_norm": r.erdos_norm,
                "cramer_norm": r.cramer_norm,
            }
            for r in rows
        ]
        return json.dumps(docs, indent=2) + "\n"
    if fmt == "csv":
        out = ["gap,first_s,ratio,erdos_norm,cramer_norm"]
        for r in rows:
            out.append(
                f"{r.gap},{r.first_s},{r.ratio},{r.erdos_norm or ''},{r.cramer_norm or ''}"
            )
        return "\n".join(out) + "\n"
    out = ["gap records", f"  {'gap':>5}  {'first s':>12}  {'ratio':>15}  "
                          f"{'erdos norm':>15}  {'cramer norm':>15}"]
    for r in rows:
        out.append(
            f"  {r.gap:>5}  {r.first_s:>12,}  {r.ratio:>15}  "
            f"{r.erdos_norm or '-':>15}  {r.cramer_norm or '-':>15}"
        )
    return "\n".join(out) + "\n"


def _emit_density(points: list[DensityPoint], fmt: str) -> str:
    rows = [(p.x, p.count, significant(p.normalized)) for p in points]
    if fmt == "json":
        docs = [{"x": x, "count": c, "normalized": norm} for x, c, norm in rows]
        return json.dumps(docs, indent=2) + "\n"
    if fmt == "csv":
        out = ["x,count,normalized"]
        out.extend(f"{x},{c},{norm}" for x, c, norm in rows)
        return "\n".join(out) + "\n"
    out = ["density of sums of two squares",
           f"  {'x':>14}  {'count':>14}  {'normalized':>15}"]
    for x, c, norm in rows:
        out.append(f"  {x:>14,}  {c:>14,}  {norm:>15}")
    return "\n".join(out) + "\n"


def _emit_check(report: CheckReport, fmt: str) -> str:
    passed = report.mismatches == 0
    if fmt == "json":
        doc = {
            "limit": report.limit,
            "checked": report.checked,
            "mismatches": report.mismatches,
            "passed": passed,
            "first_mismatch": report.first_mismatch,
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        header = "limit,checked,mismatches,passed,first_mismatch"
        row = (f"{report.limit},{report.checked},{report.mismatches},"
               f"{str(passed).lower()},"
               f"{report.first_mismatch if report.first_mismatch is not None else ''}")
        return header + "\n" + row + "\n"
    lines = [
        "oracle cross-check",
        f"  limit           {report.limit:,}",
        f"  values checked  {report.checked:,}",
        f"  mismatches      {report.mismatches:,}",
        f"  passed          {'yes' if passed else 'no'}",
    ]
    if report.first_mismatch is not None:
        lines.append(f"  first mismatch  {report.first_mismatch:,}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _progress_printer(start: int = 0):
    # the rate counts only the integers scanned since start, the resume position
    started = time.perf_counter()
    last = [started]

    def cb(p: ScanProgress) -> None:
        now = time.perf_counter()
        if now - last[0] < 2.0:
            return
        last[0] = now
        position = min(p.position, p.limit)
        rate = (position - start) / max(now - started, 1e-9) / 1e6
        sys.stderr.write(
            f"progress: {position:,}/{p.limit:,} scanned, "
            f"{p.pairs_scanned:,} pairs, {rate:.1f} M/s, "
            f"max ratio at s={p.champion_s:,} gap={p.champion_gap}\n"
        )
        sys.stderr.flush()

    return cb


def _density_points(limit: int) -> list[int]:
    points = []
    x = 10
    while x <= limit:
        points.append(x)
        x *= 10
    if not points or points[-1] != limit:
        points.append(limit)
    return points


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    try:
        _validate(config)
        scan_kwargs = dict(segment_size=config.segment_size, workers=config.workers)
        if config.subcommand == "verify":
            threshold = Threshold.parse(config.threshold)
            checkpoint = None
            if config.resume:
                try:
                    checkpoint = analysis.read_checkpoint(config.checkpoint_path)
                except OSError as exc:
                    raise CheckpointError(
                        f"checkpoint: cannot read {config.checkpoint_path}: {exc}"
                    ) from exc
            report = analysis.verify(
                config.limit,
                threshold,
                checkpoint,
                checkpoint_path=config.checkpoint_path,
                progress=_progress_printer(checkpoint.position if checkpoint else 0),
                **scan_kwargs,
            )
            _write_output(emit_report(report, config.output_format), config.output_path)
            return EXIT_PASS if report.passed else EXIT_FAIL
        if config.subcommand == "records":
            records = analysis.gap_records(config.limit, **scan_kwargs)
            stats = {st.s: st for st in analysis.normalized_stats(records)}
            rows = []
            for gap, s in records:
                st = stats.get(s)
                rows.append(
                    RecordRow(
                        gap=gap,
                        first_s=s,
                        ratio=significant(analysis.RatioRecord.of(s, gap).ratio_display),
                        erdos_norm=significant(st.erdos_norm) if st else None,
                        cramer_norm=significant(st.cramer_norm) if st else None,
                    )
                )
            _write_output(emit_report(rows, config.output_format), config.output_path)
            return EXIT_PASS
        if config.subcommand == "density":
            points = analysis.density(_density_points(config.limit), **scan_kwargs)
            _write_output(emit_report(points, config.output_format), config.output_path)
            return EXIT_PASS
        if config.subcommand == "check":
            report = analysis.cross_check(config.limit, config.segment_size)
            _write_output(emit_report(report, config.output_format), config.output_path)
            return EXIT_PASS if report.mismatches == 0 else EXIT_FAIL
        raise ValueError(f"subcommand: unknown {config.subcommand!r}")
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"output-path: cannot write {output_path}: {exc}") from exc


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    sys.exit(run(_config_from_args(args)))

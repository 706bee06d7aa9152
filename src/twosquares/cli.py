"""Command-line front end.

Subcommands: verify (threshold scan), records (gap record table), density
(count statistics), check (sieve vs the bulk even-exponent criterion).
Each calls one library function through the analysis module (verify,
gap_records, density, cross_check) and serializes what it returns; no
scanning happens here, and every scan uses the library's default window
size.  The CLI checks only its own options (the paths, --resume needing a
path); the library checks the rest, so both share one bound on workers.
density reports the counts at the decades below --limit and at --limit,
read from the scan's finished state.  Every report is a table, rows that
share the same keys: json writes verify and check as one object and
records and density as an array of objects; csv writes the keys as a
header line and then one line per row, with an empty cell for None and
booleans in lower case.  Reports go to stdout or --output-path; progress
(position, pair count, rate and the current maximum-ratio record, read
from the scan's Checkpoint state) and diagnostics go to stderr only, so
the report stream stays byte-deterministic for a given configuration.

Exit status: 0 success/pass, 1 verification failure (a threshold was
exceeded, scientifically interesting), 2 usage or configuration error,
or a report that could not be written, 130 interrupted (Ctrl-C).
"""

import argparse
import json
import os
import sys
import time
from functools import partial

from . import analysis
from .analysis import (
    Checkpoint,
    CheckReport,
    DensityPoint,
    Threshold,
    VerificationReport,
    significant,
)

__all__ = ["build_parser", "run", "emit_report", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

DEFAULT_LIMIT = 10**8
DEFAULT_THRESHOLD = "2414/1000"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description="Scan sums of two squares: gap records, short-interval "
        "threshold verification, density statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # verify's own options, so that every subcommand's namespace has them
    parser.set_defaults(threshold=None, checkpoint_path=None, resume=False)

    def common(p: argparse.ArgumentParser, default_limit: int = DEFAULT_LIMIT) -> None:
        p.add_argument("--limit", type=int, default=default_limit,
                       help=f"scan pairs with s up to this bound (default {default_limit})")
        p.add_argument("--workers", type=int, default=1,
                       help="processes that scan windows, this one included "
                            f"(1 to {analysis.MAX_WORKERS}, default 1)")
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
                          help="write resumable state here after every window")
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


def _validate(args: argparse.Namespace) -> None:
    if args.resume and not args.checkpoint_path:
        raise ValueError("resume: requires --checkpoint-path")
    if args.output_path and args.checkpoint_path and (
            os.path.realpath(args.output_path) == os.path.realpath(args.checkpoint_path)):
        raise ValueError(f"output-path: {args.output_path} is the checkpoint-path file")
    # Checked before any scanning.  The report is opened in place, so an
    # existing file (such as /dev/null) need only be writable; a checkpoint is
    # renamed into place, so its directory must be writable, and it must not
    # replace anything but a regular file.
    for field, path in (("output-path", args.output_path),
                        ("checkpoint-path", args.checkpoint_path)):
        if path is None:
            continue
        if not path or os.path.isdir(path):
            raise ValueError(f"{field}: {path!r} is empty or a directory")
        if field == "checkpoint-path" and os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{field}: {path} exists and is not a regular file")
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

_RECORD_COLUMNS = ("gap", "first_s", "ratio", "erdos_norm", "cramer_norm")


def emit_report(report, output_format: str) -> str:
    """Serialize a report; json and csv are byte-deterministic for a given
    configuration (elapsed time appears only in the human format)."""
    if isinstance(report, VerificationReport):
        rows = [_verification_row(report)]
        human = partial(_human_verification, elapsed=report.elapsed)
    elif isinstance(report, CheckReport):
        rows = [{
            "limit": report.limit,
            "checked": report.checked,
            "mismatches": report.mismatches,
            "passed": report.mismatches == 0,
            "first_mismatch": report.first_mismatch,
        }]
        human = _human_check
    elif isinstance(report, list) and report and isinstance(report[0], DensityPoint):
        rows = [{"x": p.x, "count": p.count, "normalized": significant(p.normalized)}
                for p in report]
        human = _human_density
    elif isinstance(report, list):
        # gap_records' (gap, s) table; an empty one still has its header
        rows, human = _record_rows(report), _human_records
    else:
        raise TypeError(f"emit_report: unsupported report type {type(report).__name__}")
    if output_format == "json":
        return json.dumps(rows if isinstance(report, list) else rows[0], indent=2) + "\n"
    if output_format == "csv":
        return _csv(rows)
    return "\n".join(human(rows)) + "\n"


def _csv(rows: list[dict]) -> str:
    """Header, then one line per row: None is an empty cell, booleans are
    lower case."""
    table = []
    for row in rows:
        row = dict(row)
        # verify's witness is one json value but two csv columns
        if "offender_witness" in row:
            row["offender_witness_x"], row["offender_witness_y"] = (
                row.pop("offender_witness") or (None, None))
        table.append(row)
    lines = [",".join(table[0] if table else _RECORD_COLUMNS)]
    for row in table:
        lines.append(",".join("" if v is None else str(v).lower() if isinstance(v, bool)
                              else str(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def _verification_row(report: VerificationReport) -> dict:
    rec, offender = report.max_record, report.first_offender
    witness = None
    if offender is not None:  # the oracle loads only for a failing verify
        from .representability import find_witness
        witness = find_witness(offender.s_next)
    return {
        "limit": report.limit,
        "threshold": str(report.threshold),
        "passed": report.passed,
        "max_s": rec.s,
        "gap": rec.gap,
        "ratio": significant(rec.ratio_display),
        "pairs_scanned": report.pairs_scanned,
        "first_offender_s": offender.s if offender else None,
        "offender_next": offender.s_next if offender else None,
        "offender_witness": [witness.x, witness.y] if witness is not None else None,
    }


def _record_rows(records: list[tuple[int, int]]) -> list[dict]:
    stats = {st.s: st for st in analysis.normalized_stats(records)}
    rows = []
    for gap, s in records:
        st = stats.get(s)
        norms = (significant(st.erdos_norm), significant(st.cramer_norm)) if st else (None, None)
        ratio = significant(analysis.RatioRecord.of(s, gap).ratio_display)
        rows.append(dict(zip(_RECORD_COLUMNS, (gap, s, ratio, *norms))))
    return rows


def _human_verification(rows: list[dict], elapsed: float) -> list[str]:
    r = rows[0]
    lines = [
        "sums-of-two-squares verification",
        f"  limit           {r['limit']:,}",
        f"  threshold       {r['threshold']}",
        f"  passed          {'yes' if r['passed'] else 'no'}",
        f"  max ratio       {r['ratio']}",
        f"  at record       s={r['max_s']:,}  gap={r['gap']}  next={r['max_s'] + r['gap']:,}",
        f"  pairs scanned   {r['pairs_scanned']:,}",
        f"  elapsed         {elapsed:.2f} s",
    ]
    s, s_next = r["first_offender_s"], r["offender_next"]
    if s is not None:
        lines.append(f"  first offender  s={s:,}  gap={s_next - s}  next={s_next:,}")
        if r["offender_witness"] is not None:
            x, y = r["offender_witness"]
            lines.append(f"  witness         {s_next:,} = {x}^2 + {y}^2")
    return lines


def _human_records(rows: list[dict]) -> list[str]:
    out = ["gap records", f"  {'gap':>5}  {'first s':>12}  {'ratio':>15}  "
                          f"{'erdos norm':>15}  {'cramer norm':>15}"]
    for r in rows:
        out.append(
            f"  {r['gap']:>5}  {r['first_s']:>12,}  {r['ratio']:>15}  "
            f"{r['erdos_norm'] or '-':>15}  {r['cramer_norm'] or '-':>15}"
        )
    return out


def _human_density(rows: list[dict]) -> list[str]:
    out = ["density of sums of two squares",
           f"  {'x':>14}  {'count':>14}  {'normalized':>15}"]
    for r in rows:
        out.append(f"  {r['x']:>14,}  {r['count']:>14,}  {r['normalized']:>15}")
    return out


def _human_check(rows: list[dict]) -> list[str]:
    r = rows[0]
    lines = [
        "oracle cross-check",
        f"  limit           {r['limit']:,}",
        f"  values checked  {r['checked']:,}",
        f"  mismatches      {r['mismatches']:,}",
        f"  passed          {'yes' if r['passed'] else 'no'}",
    ]
    if r["first_mismatch"] is not None:
        lines.append(f"  first mismatch  {r['first_mismatch']:,}")
    return lines


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _progress_printer(start: int = 0):
    # the rate counts only the integers scanned since start, the resume position
    started = time.perf_counter()
    last = [started]

    def cb(cp: Checkpoint) -> None:
        now = time.perf_counter()
        if now - last[0] < 2.0:
            return
        last[0] = now
        position = min(cp.position, cp.limit)
        rate = (position - start) / max(now - started, 1e-9) / 1e6
        sys.stderr.write(
            f"progress: {position:,}/{cp.limit:,} scanned, "
            f"{cp.pairs_scanned:,} pairs, {rate:.1f} M/s, "
            f"max ratio at s={cp.current_max.s:,} gap={cp.current_max.gap}\n"
        )
        sys.stderr.flush()

    return cb


def run(args: argparse.Namespace) -> int:
    """Execute one subcommand parsed by build_parser(); returns the exit status."""
    try:
        _validate(args)
        if args.subcommand == "verify":
            threshold = Threshold.parse(args.threshold)
            path = args.checkpoint_path
            checkpoint = analysis.read_checkpoint(path) if args.resume else None
            report = analysis.verify(
                args.limit,
                threshold,
                checkpoint,
                checkpoint_path=path,
                progress=_progress_printer(checkpoint.position if checkpoint else 0),
                workers=args.workers,
            )
            code = EXIT_PASS if report.passed else EXIT_FAIL
        elif args.subcommand == "records":
            report, code = analysis.gap_records(args.limit, workers=args.workers), EXIT_PASS
        elif args.subcommand == "density":
            report, code = analysis.density(args.limit, workers=args.workers), EXIT_PASS
        elif args.subcommand == "check":
            report = analysis.cross_check(args.limit, workers=args.workers)
            code = EXIT_PASS if report.mismatches == 0 else EXIT_FAIL
        else:
            raise ValueError(f"subcommand: unknown {args.subcommand!r}")
        _write_output(emit_report(report, args.output_format), args.output_path)
        return code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except KeyboardInterrupt:
        path = args.checkpoint_path
        written = path and os.path.exists(path)
        hint = f", resume with --resume --checkpoint-path {path}" if written else ""
        sys.stderr.write(f"error: interrupted{hint}\n")
        return EXIT_INTERRUPTED


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        if sys.stdout is None:
            raise ValueError("stdout: closed, cannot write the report")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Python flushes stdout again at exit; send what is left in its
            # buffer to devnull so that the exit status stays ours
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"stdout: cannot write the report: {exc}") from exc
        return
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"output-path: cannot write {output_path}: {exc}") from exc


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(build_parser().parse_args(argv)))

"""Exact-arithmetic gap analysis over the sums-of-two-squares stream.

Every record decision (largest gap / s^(1/4) ratio, record gaps, threshold
violations) is made with integer fourth-power cross-multiplications only.
Floating point and Decimal appear solely in display fields; a near-tie in
gap / s^(1/4) can sit closer than any double can resolve.

The scan exploits one monotonicity fact: with s increasing, a pair can only
improve on the current maximum ratio, or exceed a fixed threshold earlier
than any predecessor, if its gap strictly exceeds every earlier gap.  Record
tracking therefore reduces to the table of first occurrences of record gaps,
which is also exactly what a resumable checkpoint has to carry.
"""

import math
import os
import tempfile
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from .sieve import DEFAULT_SEGMENT_SIZE, GapPair, _windows, mark_segment

__all__ = [
    "MAX_GAP",
    "MAX_S",
    "MAX_DENOMINATOR",
    "BudgetError",
    "CheckpointError",
    "RatioRecord",
    "Threshold",
    "VerificationReport",
    "DensityPoint",
    "NormalizedGapStats",
    "Checkpoint",
    "ScanProgress",
    "ratio_less",
    "exceeds_threshold",
    "critical_constant",
    "verify",
    "gap_records",
    "normalized_gaps",
    "normalized_stats",
    "density",
    "significant",
    "read_checkpoint",
    "write_checkpoint",
]

# Overflow budget for exact comparisons: with gap <= 10^5, s <= 10^12 and
# q <= 10^3, every cross product stays below 2^127.
MAX_GAP = 10**5
MAX_S = 10**12
MAX_DENOMINATOR = 10**3

CHECKPOINT_VERSION = 1
DEFAULT_CHECKPOINT_EVERY = 1 << 28
DEFAULT_CHECKPOINT_SECONDS = 30.0

_DISPLAY_DIGITS = 12
# Gaps per block when screening a window for record candidates
_SUMMARY_BLOCK = 4096


class BudgetError(ValueError):
    """Input outside the documented exact-arithmetic budget."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint data."""


def significant(value: Decimal, digits: int = _DISPLAY_DIGITS) -> str:
    """Render with exactly `digits` significant digits, plain notation.

    Trailing zeros are kept, so exact values like 1 come out as
    1.00000000000 rather than collapsing to one digit.
    """
    if value == 0:
        return "0." + "0" * (digits - 1)
    with localcontext() as ctx:
        ctx.prec = digits + 4
        quantum = Decimal(1).scaleb(value.adjusted() - digits + 1)
        rounded = value.quantize(quantum)
        if rounded.adjusted() != value.adjusted():
            # rounding carried into a new decade (9.99... became 10.0...)
            rounded = rounded.quantize(Decimal(1).scaleb(rounded.adjusted() - digits + 1))
    return format(rounded, "f")


def _ratio_display(s: int, gap: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return +(Decimal(gap) / Decimal(s).sqrt().sqrt())


@dataclass(frozen=True)
class RatioRecord:
    """A pair's gap together with a display-only decimal for gap / s^(1/4).

    Ordering decisions never consult ratio_display; they go through the
    exact comparisons below.
    """

    s: int
    gap: int
    ratio_display: Decimal

    @classmethod
    def of(cls, s: int, gap: int) -> "RatioRecord":
        return cls(s, gap, _ratio_display(s, gap))


@dataclass(frozen=True)
class Threshold:
    """Rational threshold c = p/q in lowest terms, 0 < p/q <= 8, q <= 10^3."""

    p: int
    q: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise ValueError("threshold: p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"threshold: p and q must be positive, got {self.p}/{self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"threshold: {self.p}/{self.q} is not in lowest terms")
        if self.q > MAX_DENOMINATOR:
            raise BudgetError(
                f"threshold: denominator {self.q} exceeds budget {MAX_DENOMINATOR}"
            )
        if self.p > 8 * self.q:
            raise ValueError(f"threshold: {self.p}/{self.q} is outside (0, 8]")

    @classmethod
    def parse(cls, text: str) -> "Threshold":
        """Parse 'p/q' or a decimal with at most three fractional digits.

        Finer decimals are rejected rather than silently rounded.
        """
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if not num.isdigit() or not den.isdigit():
                raise ValueError(f"threshold: cannot parse {text!r} as p/q")
            p, q = int(num), int(den)
            if q == 0:
                raise ValueError("threshold: denominator must be nonzero")
        else:
            whole, dot, frac = text.partition(".")
            if not whole.isdigit() or (dot and not frac.isdigit()):
                raise ValueError(f"threshold: cannot parse {text!r} as a decimal")
            if len(frac) > 3:
                raise ValueError(
                    f"threshold: at most 3 decimal digits supported, got {text!r}"
                )
            p = int(whole + frac) if frac else int(whole)
            q = 10 ** len(frac)
        g = math.gcd(p, q)
        if g == 0:
            raise ValueError("threshold: must be positive")
        return cls(p // g, q // g)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a threshold scan over all pairs with s <= limit."""

    limit: int
    max_record: RatioRecord
    threshold: Threshold | None
    passed: bool | None
    pairs_scanned: int
    elapsed: float
    first_offender: GapPair | None = None


@dataclass(frozen=True)
class DensityPoint:
    """Count of representable n in [1, x] with its normalized value."""

    x: int
    count: int
    normalized: Decimal


@dataclass(frozen=True)
class NormalizedGapStats:
    """Record gap scaled by the two classical growth normalizations."""

    s: int
    gap: int
    erdos_norm: Decimal
    cramer_norm: Decimal


@dataclass(frozen=True)
class Checkpoint:
    """Resumable scanner state; position is the next unscanned value."""

    version: int
    limit: int
    position: int
    last_representable: int
    current_max: RatioRecord
    gap_records: tuple[tuple[int, int], ...]
    pairs_scanned: int


class ScanProgress(NamedTuple):
    position: int
    limit: int
    pairs_scanned: int
    champion_s: int
    champion_gap: int


def _check_pair_budget(pair: GapPair) -> None:
    if pair.s < 1:
        raise ValueError(f"pair: s must be positive, got {pair.s}")
    if pair.s_next <= pair.s:
        raise ValueError(f"pair: s_next must exceed s, got {pair.s}, {pair.s_next}")
    if pair.gap > MAX_GAP:
        raise BudgetError(f"pair: gap {pair.gap} exceeds budget {MAX_GAP}")
    if pair.s > MAX_S:
        raise BudgetError(f"pair: s {pair.s} exceeds budget {MAX_S}")


def ratio_less(a: GapPair, b: GapPair) -> bool:
    """Exact gap_a / s_a^(1/4) < gap_b / s_b^(1/4) via fourth powers.

    Equal cross products mean equal ratios, which is not "less".
    """
    _check_pair_budget(a)
    _check_pair_budget(b)
    return a.gap**4 * b.s < b.gap**4 * a.s


def exceeds_threshold(pair: GapPair, t: Threshold) -> bool:
    """Exact gap / s^(1/4) >= p/q.

    Equality counts as exceeding: the open interval following s then
    contains no representable value, which is a failure for that c.
    """
    _check_pair_budget(pair)
    return pair.gap**4 * t.q**4 >= t.p**4 * pair.s


# ---------------------------------------------------------------------------
# Segment scan machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Summary:
    """Per-window digest, sufficient for every record reduction."""

    lo: int
    hi: int
    pair_count: int
    first: int | None
    last: int | None
    candidates: tuple[tuple[int, int], ...]


def _summarize_window(args: tuple[int, int, int, bool]) -> _Summary:
    lo, hi, limit, allow_zero = args
    seg = mark_segment(lo, hi, allow_zero=allow_zero)
    offs = np.flatnonzero(seg.bits)
    if lo == 0 and offs.size and offs[0] == 0:
        # 0 is representable but pairs require positive s
        offs = offs[1:]
    if offs.size == 0:
        return _Summary(lo, hi, 0, None, None, ())
    # offsets are >= 1 when lo == 0, so everything below limit + 1 - lo is a pair
    pair_count = int(np.searchsorted(offs, min(hi, limit + 1) - lo))
    gaps = np.diff(offs)
    # a pair can set any kind of record only if its gap strictly exceeds
    # every earlier gap in the window, so the candidate list is tiny; only
    # blocks whose maximum beats every earlier block can hold one
    block_max = np.maximum.reduceat(gaps, np.arange(0, gaps.size, _SUMMARY_BLOCK))
    # prior[k]: the largest gap before block k (gaps are >= 1, so 0 for k = 0)
    prior = np.concatenate(([0], np.maximum.accumulate(block_max)[:-1]))
    candidates: list[tuple[int, int]] = []
    for k in np.flatnonzero(block_max > prior).tolist():
        # exact prefix maximum inside the block, seeded with every earlier gap
        base = k * _SUMMARY_BLOCK
        g = gaps[base : base + _SUMMARY_BLOCK]
        running = np.maximum.accumulate(np.concatenate(([prior[k]], g)))
        idx = np.flatnonzero(g > running[:-1]) + base
        candidates.extend(zip((offs[idx] + lo).tolist(), gaps[idx].tolist()))
    return _Summary(lo, hi, pair_count, lo + int(offs[0]), lo + int(offs[-1]), tuple(candidates))


def _count_window(args: tuple[int, int, tuple[int, ...], bool]) -> tuple[int, tuple[tuple[int, int], ...]]:
    lo, hi, points, allow_zero = args
    seg = mark_segment(lo, hi, allow_zero=allow_zero)
    base = max(lo, 1) - lo
    total = int(np.count_nonzero(seg.bits[base:]))
    partials = tuple(
        (x, int(np.count_nonzero(seg.bits[base : x + 1 - lo])))
        for x in points
        if lo <= x < hi
    )
    return total, partials


def _ordered_map(fn: Callable, args_iter: Iterable, workers: int) -> Iterator:
    """Apply fn across args in order, optionally through a process pool.

    Results come back strictly in submission order regardless of worker
    count, which is what keeps reports byte-identical.
    """
    if workers <= 1:
        for a in args_iter:
            yield fn(a)
        return
    # deferred: importing the process pool costs single-worker runs ~15 ms
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for a in args_iter:
                pending.append(pool.submit(fn, a))
                if len(pending) >= workers * 2:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            while pending:
                pending.popleft().cancel()


@dataclass
class _ScanState:
    limit: int
    prev: int | None = None
    champ_s: int = 0
    champ_gap: int = 0
    records: list[tuple[int, int]] = field(default_factory=list)
    pairs: int = 0
    done: bool = False

    def absorb_pair(self, s: int, gap: int) -> None:
        if gap > MAX_GAP:
            raise BudgetError(f"pair: gap {gap} at s={s} exceeds budget {MAX_GAP}")
        if self.champ_gap == 0:
            self.champ_s, self.champ_gap = s, gap
        elif gap > self.champ_gap and gap**4 * self.champ_s > self.champ_gap**4 * s:
            # strict comparison: an exact ratio tie keeps the smaller s
            self.champ_s, self.champ_gap = s, gap
        if not self.records or gap > self.records[-1][0]:
            self.records.append((gap, s))

    def absorb_summary(self, sm: _Summary) -> None:
        if sm.first is None:
            return
        if self.prev is not None and 1 <= self.prev <= self.limit:
            self.absorb_pair(self.prev, sm.first - self.prev)
        for s, gap in sm.candidates:
            if 1 <= s <= self.limit:
                self.absorb_pair(s, gap)
        self.pairs += sm.pair_count
        self.prev = sm.last
        if sm.last > self.limit:
            self.done = True


def _run_scan(
    state: _ScanState,
    start: int,
    segment_size: int,
    workers: int,
    allow_zero: bool,
    after_window: Callable[[int, _ScanState], None] | None = None,
) -> None:
    args = ((lo, hi, state.limit, allow_zero) for lo, hi in _windows(start, state.limit, segment_size))
    for sm in _ordered_map(_summarize_window, args, workers):
        state.absorb_summary(sm)
        if after_window is not None:
            after_window(sm.hi, state)
        if state.done:
            return


def _validate_scan_args(limit: int, segment_size: int, workers: int, floor: int = 2) -> None:
    if not isinstance(limit, int) or limit < floor:
        raise ValueError(f"limit: must be an integer >= {floor}, got {limit}")
    if limit > MAX_S:
        raise BudgetError(f"limit: {limit} exceeds exact-comparison budget {MAX_S}")
    if segment_size < 2:
        raise ValueError(f"segment_size: must be >= 2, got {segment_size}")
    if workers < 1:
        raise ValueError(f"workers: must be >= 1, got {workers}")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def critical_constant(
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    allow_zero: bool = True,
) -> RatioRecord:
    """The pair with s <= limit maximizing gap / s^(1/4), exact comparisons.

    On an exact ratio tie the smaller s wins, so the result does not depend
    on scan order or window size.
    """
    _validate_scan_args(limit, segment_size, workers)
    state = _ScanState(limit)
    _run_scan(state, 0, segment_size, workers, allow_zero)
    return RatioRecord.of(state.champ_s, state.champ_gap)


def gap_records(
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    allow_zero: bool = True,
) -> list[tuple[int, int]]:
    """First occurrence of each record gap among pairs with s <= limit.

    Returned as (gap, first_s), sorted by gap; only gaps strictly larger
    than every earlier gap appear.
    """
    _validate_scan_args(limit, segment_size, workers)
    state = _ScanState(limit)
    _run_scan(state, 0, segment_size, workers, allow_zero)
    return list(state.records)


def _first_offender(records: Sequence[tuple[int, int]], t: Threshold) -> GapPair | None:
    # the first pair exceeding a threshold must have a gap strictly larger
    # than every earlier gap, so it appears in the record table
    for gap, s in records:
        if gap**4 * t.q**4 >= t.p**4 * s:
            return GapPair(s, s + gap)
    return None


def verify(
    limit: int,
    threshold: Threshold,
    checkpoint: Checkpoint | None = None,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    allow_zero: bool = True,
    checkpoint_path: str | os.PathLike | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    checkpoint_seconds: float = DEFAULT_CHECKPOINT_SECONDS,
    on_checkpoint: Callable[[Checkpoint], None] | None = None,
    progress: Callable[[ScanProgress], None] | None = None,
) -> VerificationReport:
    """Scan all pairs with s <= limit against a rational threshold.

    passed is False exactly when some pair satisfies gap / s^(1/4) >= p/q;
    the report then names the first such pair.  The maximum-ratio record is
    reported either way.  When checkpoint_path is set, a checkpoint is
    written atomically every checkpoint_every scanned integers or
    checkpoint_seconds seconds, whichever comes first.  Resuming from one of
    those checkpoints reproduces the uninterrupted report field for field
    (elapsed excepted, since it measures the actual run).
    """
    _validate_scan_args(limit, segment_size, workers)
    if not isinstance(threshold, Threshold):
        raise ValueError("threshold: expected a Threshold instance")
    t0 = time.perf_counter()
    state = _ScanState(limit)
    start = 0
    if checkpoint is not None:
        if checkpoint.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint: version {checkpoint.version} does not match {CHECKPOINT_VERSION}"
            )
        if checkpoint.limit != limit:
            raise CheckpointError(
                f"checkpoint: limit {checkpoint.limit} does not match requested {limit}"
            )
        start = checkpoint.position
        state.prev = checkpoint.last_representable
        state.records = list(checkpoint.gap_records)
        state.champ_s = checkpoint.current_max.s
        state.champ_gap = checkpoint.current_max.gap
        state.pairs = checkpoint.pairs_scanned

    last_ck_pos = start
    last_ck_time = time.perf_counter()

    def after_window(position: int, st: _ScanState) -> None:
        nonlocal last_ck_pos, last_ck_time
        if progress is not None:
            progress(ScanProgress(position, limit, st.pairs, st.champ_s, st.champ_gap))
        if checkpoint_path is None or st.done or st.champ_gap == 0:
            return
        due = position - last_ck_pos >= checkpoint_every
        if not due and checkpoint_seconds is not None:
            due = time.perf_counter() - last_ck_time >= checkpoint_seconds
        if due:
            cp = Checkpoint(
                version=CHECKPOINT_VERSION,
                limit=limit,
                position=position,
                last_representable=st.prev,
                current_max=RatioRecord.of(st.champ_s, st.champ_gap),
                gap_records=tuple(st.records),
                pairs_scanned=st.pairs,
            )
            write_checkpoint(cp, checkpoint_path)
            last_ck_pos = position
            last_ck_time = time.perf_counter()
            if on_checkpoint is not None:
                on_checkpoint(cp)

    _run_scan(state, start, segment_size, workers, allow_zero, after_window)
    offender = _first_offender(state.records, threshold)
    return VerificationReport(
        limit=limit,
        max_record=RatioRecord.of(state.champ_s, state.champ_gap),
        threshold=threshold,
        passed=offender is None,
        pairs_scanned=state.pairs,
        elapsed=time.perf_counter() - t0,
        first_offender=offender,
    )


def normalized_stats(records: Iterable[tuple[int, int]]) -> list[NormalizedGapStats]:
    """Erdos and Cramer normalizations for record entries with s >= 16.

    The s >= 16 cutoff keeps ln(ln(s)) safely above 1.  Report-only output,
    no pass/fail semantics attached.
    """
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for gap, s in records:
            if s < 16:
                continue
            ln_s = Decimal(s).ln()
            erdos = Decimal(gap) * ln_s.ln().sqrt() / ln_s
            cramer = Decimal(gap) / (ln_s * ln_s)
            out.append(NormalizedGapStats(s, gap, +erdos, +cramer))
    return out


def normalized_gaps(
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    allow_zero: bool = True,
) -> list[NormalizedGapStats]:
    """Normalizations of every record gap with 16 <= s <= limit."""
    _validate_scan_args(limit, segment_size, workers, floor=16)
    return normalized_stats(
        gap_records(limit, segment_size=segment_size, workers=workers, allow_zero=allow_zero)
    )


def density(
    points: Sequence[int],
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
    allow_zero: bool = True,
) -> list[DensityPoint]:
    """Exact counts R(x) of representable n in [1, x], with normalization.

    The normalized value is count * sqrt(ln x) / x.  Points are returned in
    ascending order, deduplicated.
    """
    if not points:
        raise ValueError("density: need at least one point")
    for x in points:
        if not isinstance(x, int) or x < 2:
            raise ValueError(f"density: each point must be an integer >= 2, got {x}")
        if x > MAX_S:
            raise BudgetError(f"density: point {x} exceeds budget {MAX_S}")
    if segment_size < 2:
        raise ValueError(f"segment_size: must be >= 2, got {segment_size}")
    if workers < 1:
        raise ValueError(f"workers: must be >= 1, got {workers}")
    xs = sorted(set(points))
    top = xs[-1]
    counts: dict[int, int] = {}
    running = 0
    args = (
        (lo, min(lo + segment_size, top + 1), tuple(xs), allow_zero)
        for lo in range(0, top + 1, segment_size)
    )
    for total, partials in _ordered_map(_count_window, args, workers):
        for x, c in partials:
            counts[x] = running + c
        running += total
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for x in xs:
            normalized = Decimal(counts[x]) * Decimal(x).ln().sqrt() / Decimal(x)
            out.append(DensityPoint(x, counts[x], +normalized))
    return out


# ---------------------------------------------------------------------------
# Checkpoint file format: key=value lines, UTF-8, version 1
# ---------------------------------------------------------------------------

_CHECKPOINT_KEYS = (
    "version",
    "limit",
    "position",
    "last_representable",
    "max_s",
    "max_gap",
    "gap_records",
    "pairs_scanned",
)


def write_checkpoint(cp: Checkpoint, path: str | os.PathLike) -> None:
    """Serialize durably and atomically.

    The text goes to a uniquely named temp file beside the target, which is
    fsynced and renamed over it; the directory is fsynced after the rename.
    Concurrent writers never share a temp file, and a failure leaves the
    previous checkpoint in place and removes the temp file.
    """
    records = ",".join(f"{gap}:{s}" for gap, s in cp.gap_records)
    lines = [
        f"version={cp.version}",
        f"limit={cp.limit}",
        f"position={cp.position}",
        f"last_representable={cp.last_representable}",
        f"max_s={cp.current_max.s}",
        f"max_gap={cp.current_max.gap}",
        f"gap_records={records}",
        f"pairs_scanned={cp.pairs_scanned}",
    ]
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Parse and validate; unknown fields, duplicates and gaps in the record
    table are all rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    fields: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"checkpoint: line {ln} is not key=value: {line!r}")
        key = key.strip()
        if key not in _CHECKPOINT_KEYS:
            raise CheckpointError(f"checkpoint: unknown field {key!r}")
        if key in fields:
            raise CheckpointError(f"checkpoint: duplicate field {key!r}")
        fields[key] = value.strip()
    missing = [k for k in _CHECKPOINT_KEYS if k not in fields]
    if missing:
        raise CheckpointError(f"checkpoint: missing fields {missing}")

    def as_int(key: str) -> int:
        try:
            return int(fields[key])
        except ValueError:
            raise CheckpointError(f"checkpoint: field {key!r} is not an integer") from None

    version = as_int("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint: unsupported version {version}")
    limit = as_int("limit")
    position = as_int("position")
    last = as_int("last_representable")
    max_s = as_int("max_s")
    max_gap = as_int("max_gap")
    pairs = as_int("pairs_scanned")
    if limit < 2 or position < 0 or pairs < 0 or max_s < 1 or max_gap < 1 or last < 1:
        raise CheckpointError("checkpoint: field out of range")
    if last >= position:
        raise CheckpointError(
            f"checkpoint: last_representable {last} not below position {position}"
        )
    records: list[tuple[int, int]] = []
    raw = fields["gap_records"]
    if raw:
        for item in raw.split(","):
            gap_txt, sep, s_txt = item.partition(":")
            if not sep:
                raise CheckpointError(f"checkpoint: bad gap_records entry {item!r}")
            try:
                gap, s = int(gap_txt), int(s_txt)
            except ValueError:
                raise CheckpointError(f"checkpoint: bad gap_records entry {item!r}") from None
            if gap < 1 or s < 1:
                raise CheckpointError(f"checkpoint: bad gap_records entry {item!r}")
            if records and (gap <= records[-1][0] or s <= records[-1][1]):
                raise CheckpointError("checkpoint: gap_records not strictly increasing")
            records.append((gap, s))
    # the stored maximum must be the exact argmax over the record table
    best: tuple[int, int] | None = None
    for gap, s in records:
        if best is None or (gap > best[1] and gap**4 * best[0] > best[1] ** 4 * s):
            best = (s, gap)
    if best != (max_s, max_gap):
        raise CheckpointError(
            f"checkpoint: max_s/max_gap inconsistent with gap_records, got {max_s}/{max_gap}"
        )
    return Checkpoint(
        version=version,
        limit=limit,
        position=position,
        last_representable=last,
        current_max=RatioRecord.of(max_s, max_gap),
        gap_records=tuple(records),
        pairs_scanned=pairs,
    )

"""Exact-arithmetic gap analysis over the sums-of-two-squares stream.

Every record decision (largest gap / s^(1/4) ratio, record gaps, threshold
violations) is made with integer fourth-power cross-multiplications only.
Floating point and Decimal appear solely in display fields; a near-tie in
gap / s^(1/4) can sit closer than any double can resolve.

A scan walks one fixed grid of DEFAULT_SEGMENT_SIZE-value windows from 1
(_windows), has sieve.mark_segment mark each, and reads consecutive
representable integers s < s_next off the bitmaps as GapPairs.

The scan exploits one monotonicity fact: with s increasing, a pair can only
improve on the current maximum ratio, or exceed a fixed threshold earlier
than any predecessor, if its gap strictly exceeds every earlier gap.  Record
tracking therefore reduces to the table of first occurrences of record gaps,
which is also exactly what a resumable checkpoint has to carry.

Each window is summarized without listing its values.  A pair (s, s + g)
inside it leaves g - 1 unset bits between its ends in the window's bitmap,
one bit per value, which cover at least (g - 8) // 8 whole aligned bytes;
so one screen of the bitmap for maximal runs of _RUN = 3 or more zero bytes
finds every pair with g >= 32.  A run bounded by nonzero bytes holds
exactly one pair, from the last set bit before it to the first after it.
An exact prefix maximum (the head) runs up to the first screened pair with
g >= 32, or over the whole window; from there on the running maximum is at
least 32 and every pair the screen misses has g <= 31, so the screened
pairs give exactly the window's records.  A summary and its decade counts
cover the whole window: no window straddles the scan's limit, and _absorb
alone cuts at it.
"""

import itertools
import json
import math
import os
import pickle
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from .sieve import _is_int, mark_segment

__all__ = [
    "DEFAULT_SEGMENT_SIZE",
    "MAX_GAP",
    "MAX_S",
    "MAX_DENOMINATOR",
    "MAX_WORKERS",
    "BudgetError",
    "CheckpointError",
    "WorkerError",
    "GapPair",
    "RatioRecord",
    "Threshold",
    "VerificationReport",
    "DensityPoint",
    "NormalizedGapStats",
    "Checkpoint",
    "CheckReport",
    "ratio_less",
    "exceeds_threshold",
    "critical_constant",
    "verify",
    "gap_records",
    "normalized_stats",
    "density",
    "cross_check",
    "significant",
    "read_checkpoint",
    "write_checkpoint",
]

# Overflow budget for exact comparisons: with gap <= 10^5, s <= 10^12 and
# q <= 10^3, every cross product stays below 2^127.
MAX_GAP = 10**5
MAX_S = 10**12
MAX_DENOMINATOR = 10**3
MAX_WORKERS = 256  # processes a scan or check may use, this one included
# Width of the scan's windows, in values: one fixed grid from 1, read when
# a scan or check starts
DEFAULT_SEGMENT_SIZE = 1 << 24

CHECKPOINT_VERSION = 3

_DISPLAY_DIGITS = 12
# The zero-byte screen of a window summary finds every run of at least this
# many zero bytes, so every pair with gap 8 * _RUN + 8 = 32 or more
_RUN = 3
# Bytes of a packed bitmap that the screen reads at a time, 64 KB, and values
# in each chunk of the summary's head, whose unpacked bits take _SLICE bytes:
# their temporaries stay cache-sized however wide the window
_SLICE = 1 << 16
# Bit offset of the lowest and of the highest set bit of each nonzero byte
_LOW_BIT = np.array([(b & -b).bit_length() - 1 for b in range(256)], dtype=np.int64)
_HIGH_BIT = np.array([b.bit_length() - 1 for b in range(256)], dtype=np.int64)


class BudgetError(ValueError):
    """Input outside the documented exact-arithmetic budget."""


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint data."""


class WorkerError(RuntimeError):
    """A forked worker ended early, or raised what cannot be rebuilt here."""


def significant(value: Decimal) -> str:
    """Render with exactly _DISPLAY_DIGITS significant digits, plain notation.

    Trailing zeros are kept, so exact values like 1 come out as
    1.00000000000 rather than collapsing to one digit.
    """
    if value == 0:
        return "0." + "0" * (_DISPLAY_DIGITS - 1)
    with localcontext() as ctx:
        ctx.prec = _DISPLAY_DIGITS + 4
        quantum = Decimal(1).scaleb(value.adjusted() - _DISPLAY_DIGITS + 1)
        rounded = value.quantize(quantum)
        if rounded.adjusted() != value.adjusted():
            # rounding carried into a new decade (9.99... became 10.0...)
            rounded = rounded.quantize(Decimal(1).scaleb(rounded.adjusted() - _DISPLAY_DIGITS + 1))
    return format(rounded, "f")


def _ratio_display(s: int, gap: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return +(Decimal(gap) / Decimal(s).sqrt().sqrt())


class GapPair(NamedTuple):
    """Consecutive representable integers s < s_next; nothing representable between."""

    s: int
    s_next: int

    @property
    def gap(self) -> int:
        return self.s_next - self.s


class RatioRecord(NamedTuple):
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


class Threshold(NamedTuple("_ThresholdFields", [("p", int), ("q", int)])):
    """Rational threshold c = p/q in lowest terms, 0 < p/q <= 8, q <= 10^3;
    checked when called, by _make, by _replace (through _make) and unpickled."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Threshold":
        if not _is_int(p) or not _is_int(q):
            raise ValueError(f"threshold: p and q must be integers, got {p!r}/{q!r}")
        if p < 1 or q < 1:
            raise ValueError(f"threshold: p and q must be positive, got {p}/{q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"threshold: {p}/{q} is not in lowest terms")
        if q > MAX_DENOMINATOR:
            raise BudgetError(f"threshold: denominator {q} exceeds budget {MAX_DENOMINATOR}")
        if p > 8 * q:
            raise ValueError(f"threshold: {p}/{q} is outside (0, 8]")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Threshold":
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "Threshold":
        """Parse 'p/q' or a decimal with at most three fractional digits.

        Finer decimals are rejected rather than silently rounded.
        """
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if not num.isdecimal() or not den.isdecimal():
                raise ValueError(f"threshold: cannot parse {text!r} as p/q")
            p, q = int(num), int(den)
            if q == 0:
                raise ValueError("threshold: denominator must be nonzero")
        else:
            whole, dot, frac = text.partition(".")
            if not whole.isdecimal() or (dot and not frac.isdecimal()):
                raise ValueError(f"threshold: cannot parse {text!r} as a decimal")
            if len(frac) > 3:
                raise ValueError(
                    f"threshold: at most 3 decimal digits supported, got {text!r}"
                )
            p = int(whole + frac) if frac else int(whole)
            q = 10 ** len(frac)
        g = math.gcd(p, q)
        return cls(p // g, q // g)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class VerificationReport(NamedTuple):
    """Outcome of a threshold scan over all pairs with s <= limit."""

    limit: int
    max_record: RatioRecord
    threshold: Threshold
    passed: bool
    pairs_scanned: int
    elapsed: float
    first_offender: GapPair | None = None


class DensityPoint(NamedTuple):
    """Count of representable n in [1, x] with its normalized value."""

    x: int
    count: int
    normalized: Decimal


class NormalizedGapStats(NamedTuple):
    """Record gap scaled by the two classical growth normalizations."""

    s: int
    gap: int
    erdos_norm: Decimal
    cramer_norm: Decimal


class Checkpoint(NamedTuple):
    """The scan's state, and what a checkpoint file holds; position is the
    next unscanned value, 1 before the first window.  last_representable
    and current_max are None until the scan meets its first representable
    value and first pair.  decade_counts holds (x, R(x)), R(x) counting
    the representable n in [1, x], for each decade x = 10^k < limit that
    the scan has passed.  A file holds it as one JSON object (see
    write_checkpoint), and a state read from a file or passed to verify
    goes through one gate, _check_state."""

    version: int
    limit: int
    position: int
    last_representable: int | None
    current_max: RatioRecord | None
    gap_records: tuple[tuple[int, int], ...]
    pairs_scanned: int
    decade_counts: tuple[tuple[int, int], ...] = ()

    @property
    def done(self) -> bool:
        """True once the successor of the last pair with s <= limit is in."""
        return self.last_representable is not None and self.last_representable > self.limit


class CheckReport(NamedTuple):
    """Sieve membership against the even-exponent criterion on [1, limit]."""

    limit: int
    checked: int
    mismatches: int
    first_mismatch: int | None


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
    contains no representable value, which is a failure for that c.  The
    pair (q^4, q^4 + p) has ratio exactly p/q, and Threshold's budget keeps
    it within ratio_less's.
    """
    return not ratio_less(pair, GapPair(t.q**4, t.q**4 + t.p))


def _champion(records: Iterable[tuple[int, int]]) -> RatioRecord | None:
    """The pair maximizing gap / s^(1/4) over a (gap, s) record table.

    By the monotonicity fact in the module docstring this is also the
    maximum over every pair the table was built from.  An exact ratio tie
    keeps the smaller s; None for an empty table.
    """
    best = None
    for gap, s in records:
        pair = GapPair(s, s + gap)
        if best is None or ratio_less(best, pair):
            best = pair
    return None if best is None else RatioRecord.of(best.s, best.gap)


def _first_offender(records: Iterable[tuple[int, int]], t: Threshold) -> GapPair | None:
    # the first pair exceeding a threshold must have a gap strictly larger
    # than every earlier gap, so it appears in the record table
    for gap, s in records:
        pair = GapPair(s, s + gap)
        if exceeds_threshold(pair, t):
            return pair
    return None


# ---------------------------------------------------------------------------
# Segment scan machinery
# ---------------------------------------------------------------------------


class _Summary(NamedTuple):
    """Per-window digest, sufficient for every record reduction."""

    lo: int
    hi: int
    pair_count: int
    first: int | None
    last: int | None
    candidates: tuple[tuple[int, int], ...]


def _new_records(s: np.ndarray, gaps: np.ndarray, best: int) -> tuple[list[tuple[int, int]], int]:
    # the pairs (s, gap) whose gap exceeds best and every earlier gap, in
    # order, and the largest gap seen
    running = np.maximum.accumulate(np.concatenate(([best], gaps)))
    idx = np.flatnonzero(gaps > running[:-1])
    return list(zip(s[idx].tolist(), gaps[idx].tolist())), int(running[-1])


def _set_offsets(packed: np.ndarray, p: int, q: int) -> np.ndarray:
    """Offsets i with p <= i < q whose bit is set in packed, ascending int64."""
    b = p >> 3
    bits = np.unpackbits(packed[b : (q + 7) >> 3], bitorder="little")[p - 8 * b : q - 8 * b]
    return np.flatnonzero(bits) + p


def _count_set(packed: np.ndarray, q: int) -> int:
    """Number of offsets i < q whose bit is set in packed."""
    if q <= 0:
        return 0
    b = (q - 1) >> 3
    # bytes 0..b as 64-bit words and 0-7 tail bytes, less the bits above q - 1
    whole = packed[: b + 1]
    k = whole.size & -8
    total = int(np.bitwise_count(whole[:k].view(np.uint64)).sum())
    total += int(np.bitwise_count(whole[k:]).sum())
    total -= (int(packed[b]) >> ((q - 1) & 7) + 1).bit_count()
    return total


def _last_set(packed: np.ndarray) -> int:
    # the offset of the last set bit of a bitmap that has one, scanning back
    # from the end in chunks that double in width
    end, width = packed.size, 8
    while True:
        begin = max(0, end - width)
        found = np.flatnonzero(packed[begin:end])
        if found.size:
            i = begin + int(found[-1])
            return 8 * i + int(_HIGH_BIT[packed[i]])
        end, width = begin, 2 * width


def _summarize_window(packed: np.ndarray, lo: int, hi: int) -> _Summary:
    # the summary of the window [lo, hi) whose bitmap is packed, its pad
    # bits 0; every set value starts a pair, so the scan's windows start at 1
    n = hi - lo
    # screen: the run starts i, bytes i .. i + _RUN - 1 all zero; each slice
    # holds _SLICE starts and reads _RUN - 1 bytes past them, so a run across
    # a slice edge is found once
    starts = [np.empty(0, dtype=np.int64)]
    for s0 in range(0, packed.size - _RUN + 1, _SLICE):
        zero = packed[s0 : s0 + _SLICE + _RUN - 1] == 0
        run = zero[: zero.size - _RUN + 1]
        for j in range(1, _RUN):
            run = run & zero[j : j + run.size]
        starts.append(np.flatnonzero(run) + s0)
    at = np.concatenate(starts)
    # the bytes on either side of each maximal run; a run at either end of
    # the window holds no pair of it
    left = at[np.diff(at, prepend=-2) > 1] - 1
    right = at[np.diff(at, append=packed.size + 1) > 1] + _RUN
    inside = (left >= 0) & (right < packed.size)
    left, right = left[inside], right[inside]
    a = 8 * left + _HIGH_BIT[packed[left]]
    gaps = 8 * right + _LOW_BIT[packed[right]] - a
    # head: the exact prefix maximum up to the first screened pair with a gap
    # of 8 * _RUN + 8 or more; no gap the screen misses is a record past it
    long = np.flatnonzero(gaps >= 8 * _RUN + 8)
    end = int(a[long[0]]) + 1 if long.size else n
    candidates, m, first, last = [], 0, None, None
    for p in range(0, end, _SLICE):
        offs = _set_offsets(packed, p, min(end, p + _SLICE))
        if offs.size:
            if last is None:
                first = int(offs[0])
            else:
                offs = np.concatenate(([last], offs))
            found, m = _new_records(offs[:-1] + lo, np.diff(offs), m)
            candidates.extend(found)
            last = int(offs[-1])
    if first is None:
        return _Summary(lo, hi, 0, None, None, ())
    if long.size:
        candidates.extend(_new_records(a[long[0]:] + lo, gaps[long[0]:], m)[0])
    return _Summary(lo, hi, _count_set(packed, n), lo + first, lo + _last_set(packed),
                    tuple(candidates))


def _decades(end: int) -> list[int]:
    """The decades 10^k < end; a scan of limit records R(10^k) at those below limit."""
    return [10**k for k in range(1, len(str(end))) if 10**k < end]


def _scan_window(window: tuple[int, int]) -> tuple[_Summary, list[tuple[int, int]]]:
    """Mark the window [lo, hi), lo >= 1, and summarize it; beside the
    summary, the count of representable n in [lo, x] for each decade x
    inside it.  Neither depends on the scan's limit."""
    lo, hi = window
    packed = mark_segment(lo, hi).packed
    counts = [(x, _count_set(packed, x + 1 - lo)) for x in _decades(hi) if lo <= x]
    return _summarize_window(packed, lo, hi), counts


def _ordered_map(fn: Callable, args_iter: Iterable, workers: int) -> Iterator:
    """Apply fn across args in order, here and in forked children.

    The first workers items (all, if fewer) are drawn before any fork, and
    n drawn items make n processes.  Child i pickles to its pipe fn of
    drawn item i and of the items k = i (mod n) of its copy of the undrawn
    rest; this process walks both in turn, computes k = 0 (mod n) itself
    and reads item k from child k % n: results keep submission order, and
    each item is drawn here once.  A child's exception is sent if its
    pickle can be rebuilt, else a WorkerError that names it; a child that
    ends early raises WorkerError here."""
    rest = iter(args_iter)
    head = list(itertools.islice(rest, workers))
    n = len(head)
    pids, pipes = [], []
    try:
        for i in range(1, n):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb", buffering=0) as out:
                if (pid := os.fork()) == 0:  # the child: writes its results and never returns
                    try:
                        pipes[-1].close()
                        for a in itertools.chain((head[i],), itertools.islice(rest, i, None, n)):
                            out.write(pickle.dumps(fn(a)))
                    except BaseException as exc:
                        try:  # send only an exception that the parent can rebuild
                            pickle.loads(pickle.dumps(exc))
                        except Exception:
                            exc = WorkerError(f"workers: child {i}: {type(exc).__name__}: {exc}")
                        out.write(pickle.dumps(exc))
                    finally:
                        os._exit(0)
            pids.append(pid)
        for k, a in enumerate(itertools.chain(head, rest)):
            got = fn(a) if k % n == 0 else pickle.load(pipes[k % n - 1])
            if isinstance(got, BaseException):
                raise got
            yield got
    except (EOFError, pickle.UnpicklingError):
        raise WorkerError(f"workers: child {k % n} ended before item {k}") from None
    finally:  # kill and reap every child, however the caller stops
        for pid in pids:
            import signal  # deferred: its import costs about 0.4 ms, and one process kills no child
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _absorb(cp: Checkpoint, sm: _Summary, counts: list[tuple[int, int]]) -> Checkpoint:
    """cp with the window sm, which starts at cp.position, folded in: its
    pairs and records with s <= limit, and R(x) from its counts up to each
    decade x < limit inside it.  The one place where the scan cuts at its
    limit; no window straddles it, so one past it counts no pair."""
    cp = cp._replace(position=sm.hi, decade_counts=cp.decade_counts + tuple(
        (x, cp.pairs_scanned + count) for x, count in counts if x < cp.limit))
    if sm.first is None:
        return cp
    records, prev = cp.gap_records, cp.last_representable
    head = () if prev is None else ((prev, sm.first - prev),)
    for s, gap in head + sm.candidates:
        if s > cp.limit:
            continue
        if gap > MAX_GAP:
            raise BudgetError(f"pair: gap {gap} at s={s} exceeds budget {MAX_GAP}")
        if not records or gap > records[-1][0]:
            records += ((gap, s),)
    return cp._replace(
        last_representable=sm.last,
        current_max=cp.current_max if len(records) == len(cp.gap_records) else _champion(records),
        gap_records=records,
        pairs_scanned=cp.pairs_scanned + (sm.pair_count if sm.lo <= cp.limit else 0),
    )


def _windows(start: int, end: int, segment_size: int) -> Iterator[tuple[int, int]]:
    """Windows [lo, hi) stepping by segment_size from start over [start, end],
    the last one clamped to end + 1; none if start > end, and lazy."""
    for lo in range(start, end + 1, segment_size):
        yield lo, min(lo + segment_size, end + 1)


def _scan(
    limit: int,
    workers: int,
    resume: Checkpoint | None = None,
) -> Iterator[Checkpoint]:
    """Reduce every pair with s <= limit, from 1 or from a checkpoint of the
    same limit, yielding the start state, then the state at each window edge.

    The start state, fresh or resumed, passes _check_state as a file's does
    (tables as tuples, current_max recomputed); a done one is yielded alone,
    and no window is marked.  Windows step by DEFAULT_SEGMENT_SIZE, read
    when the scan starts, from the start up to limit + 1, then read ahead to
    limit + MAX_GAP, as far as the successor of a pair with s <= limit can
    lie within the gap budget; so each lies wholly at or below limit or
    wholly above it.  Each is marked and summarized once, whole
    (_scan_window), with its counts up to the decades inside it, and
    _absorb cuts at limit.  The last state yielded is done; running out of
    windows first raises BudgetError.
    """
    _validate_scan_args(limit, workers)
    fresh = Checkpoint(CHECKPOINT_VERSION, limit, 1, None, None, (), 0)
    cp = _check_state(fresh if resume is None else resume, limit)
    yield cp
    if cp.done:  # resumed from the finished state
        return
    windows = itertools.chain(
        _windows(cp.position, limit, DEFAULT_SEGMENT_SIZE),
        _windows(max(cp.position, limit + 1), limit + MAX_GAP, DEFAULT_SEGMENT_SIZE),
    )
    for sm, counts in _ordered_map(_scan_window, windows, workers):
        cp = _absorb(cp, sm, counts)
        yield cp
        if cp.done:
            return
    raise BudgetError(f"pair: gap at s={cp.last_representable} exceeds budget {MAX_GAP}")


def _finished(limit: int, workers: int) -> Checkpoint:
    return deque(_scan(limit, workers), maxlen=1).pop()


def _validate_scan_args(limit: int, workers: int) -> None:
    if not _is_int(limit) or limit < 2:
        raise ValueError(f"limit: must be an integer >= 2, got {limit}")
    if limit > MAX_S:
        raise BudgetError(f"limit: {limit} exceeds exact-comparison budget {MAX_S}")
    most = MAX_WORKERS if hasattr(os, "fork") else 1  # a second process is a fork
    if not _is_int(workers) or not 1 <= workers <= most:
        raise ValueError(f"workers: must be an integer in [1, {most}], got {workers!r}")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def critical_constant(limit: int, *, workers: int = 1) -> RatioRecord:
    """The pair with s <= limit maximizing gap / s^(1/4), exact comparisons.

    On an exact ratio tie the smaller s wins, so the result does not depend
    on scan order or window size.
    """
    return _finished(limit, workers).current_max


def gap_records(limit: int, *, workers: int = 1) -> list[tuple[int, int]]:
    """First occurrence of each record gap among pairs with s <= limit.

    Returned as (gap, first_s), sorted by gap; only gaps strictly larger
    than every earlier gap appear.
    """
    return list(_finished(limit, workers).gap_records)


def verify(
    limit: int,
    threshold: Threshold,
    checkpoint: Checkpoint | None = None,
    *,
    workers: int = 1,
    checkpoint_path: str | os.PathLike | None = None,
    progress: Callable[[Checkpoint], None] | None = None,
) -> VerificationReport:
    """Scan all pairs with s <= limit against a rational threshold.

    passed is False exactly when some pair satisfies gap / s^(1/4) >= p/q;
    the report then names the first such pair.  The maximum-ratio record is
    reported either way.  Each state _scan yields after its start state, one
    per window edge, is written to checkpoint_path if set and then passed to
    progress if given, once the record table is not empty; so a resumed file
    is never rewritten.  A failed write raises CheckpointError naming
    checkpoint-path.  Resuming from any written state reproduces the
    uninterrupted report field for field (elapsed excepted: it times the run).
    """
    if not isinstance(threshold, Threshold):
        raise ValueError("threshold: expected a Threshold instance")
    t0 = time.perf_counter()
    for k, state in enumerate(_scan(limit, workers, checkpoint)):
        if k == 0 or not state.gap_records:  # the start state is reached by no window
            continue
        if checkpoint_path is not None:
            try:
                write_checkpoint(state, checkpoint_path)
            except OSError as exc:
                raise CheckpointError(
                    f"checkpoint-path: cannot write {checkpoint_path}: {exc}") from exc
        if progress is not None:
            progress(state)
    offender = _first_offender(state.gap_records, threshold)
    return VerificationReport(
        limit=limit,
        max_record=state.current_max,
        threshold=threshold,
        passed=offender is None,
        pairs_scanned=state.pairs_scanned,
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


def density(limit: int, *, workers: int = 1) -> list[DensityPoint]:
    """Exact counts R(x) of representable n in [1, x], with normalization,
    at the decades 10^k < limit and at limit, in ascending order.

    Read from the finished state: its decade_counts, then its pair count,
    which is R(limit).  The normalized value is count * sqrt(ln x) / x.
    """
    state = _finished(limit, workers)
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for x, count in (dict(state.decade_counts) | {limit: state.pairs_scanned}).items():
            normalized = Decimal(count) * Decimal(x).ln().sqrt() / Decimal(x)
            out.append(DensityPoint(x, count, +normalized))
    return out


def _check_window(window: tuple[int, int]) -> tuple[int, int | None]:
    # the window's mismatch count and its first mismatch, or None
    from .representability import representable_mask  # loaded by cross_check
    lo, hi = window
    diff = mark_segment(lo, hi).packed ^ np.packbits(representable_mask(lo, hi), bitorder="little")
    wrong = np.flatnonzero(diff)
    at = lo + 8 * int(wrong[0]) + int(_LOW_BIT[diff[wrong[0]]]) if wrong.size else None
    return int(np.bitwise_count(diff[wrong]).sum()), at


def cross_check(limit: int, *, workers: int = 1) -> CheckReport:
    """Compare sieve membership with the even-exponent criterion for every
    n in [1, limit], over the scan's windows from 1, in order across workers."""
    _validate_scan_args(limit, workers)
    from . import representability  # noqa: F401  here once, not in each forked child
    windows = _windows(1, limit, DEFAULT_SEGMENT_SIZE)
    counts, ats = zip(*_ordered_map(_check_window, windows, workers))
    first = next((at for at in ats if at is not None), None)
    return CheckReport(limit=limit, checked=limit, mismatches=sum(counts), first_mismatch=first)


# ---------------------------------------------------------------------------
# Checkpoint file format: one JSON object, UTF-8, version 3
# ---------------------------------------------------------------------------


def _check_state(cp: Checkpoint, limit: int) -> Checkpoint:
    """The gate for every state a scan of limit starts from, read from a
    file or built by hand: cp with both tables as tuples, so that a
    caller's list is read as a file's and never extended, and current_max
    recomputed.  Refused, naming the field: an int field that holds no int
    (a bool is not one; last_representable may be None), a table that is not
    a list or tuple of two-int pairs, and a state that no scan of limit
    from 1 yields: another version or limit, a position outside [1, limit
    + MAX_GAP + 1], a last_representable not below it, or None past 1, more
    pairs than values scanned, no record past last_representable 1,
    gap_records out of order, over budget or past limit or
    last_representable, and decade_counts that are not R(x) at decades
    already passed."""
    if type(cp.version) is not int or cp.version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint: unsupported version {cp.version!r}")
    for key, least in (("limit", 2), ("position", 1), ("last_representable", 1),
                       ("pairs_scanned", 0)):
        value = getattr(cp, key)
        if type(value) is not int and not (key == "last_representable" and value is None):
            raise CheckpointError(f"checkpoint: field {key!r} is not an integer: {value!r}")
        if value is not None and value < least:
            raise CheckpointError(
                f"checkpoint: field {key!r} must be at least {least}, got {value}")
    for key in ("gap_records", "decade_counts"):
        items = getattr(cp, key)  # a table that is not a list or tuple is a bad entry of its own
        for item in items if type(items) in (list, tuple) else [items]:
            if type(item) not in (list, tuple) or [type(v) for v in item] != [int, int]:
                raise CheckpointError(
                    f"checkpoint: field {key!r} holds {item!r}, not an [a, b] pair of integers")
        cp = cp._replace(**{key: tuple(map(tuple, items))})
    if cp.limit != limit:
        raise CheckpointError(f"checkpoint: limit {cp.limit} does not match requested {limit}")
    # last_representable is None until the scan meets its first
    # representable value; till then no pair and no record is scanned, as
    # if the last value were 0
    position, pairs, last = cp.position, cp.pairs_scanned, cp.last_representable or 0
    if last >= position:
        raise CheckpointError(
            f"checkpoint: last_representable {last} not below position {position}")
    if pairs > min(last, limit):
        raise CheckpointError(
            f"checkpoint: pairs_scanned {pairs} exceeds last_representable {last} or limit {limit}")
    # every window a scan draws ends at or below limit + MAX_GAP + 1
    if position > limit + MAX_GAP + 1:
        raise CheckpointError(f"checkpoint: position {position} is past limit + MAX_GAP + 1 "
                              f"= {limit + MAX_GAP + 1}, which no scan reaches")
    # 1 is representable, so a scan past position 1 has met it, and (1, 2)
    # is its first record once it meets a second value
    if cp.last_representable is None and position != 1:
        raise CheckpointError(f"checkpoint: last_representable is None at position {position}")
    if not cp.gap_records and last > 1:
        raise CheckpointError(f"checkpoint: gap_records is empty at last_representable {last}, "
                              "past (1, 2), every scan's first record")
    # a record's s is at most the limit and the last value scanned
    for (prev_gap, prev_s), (gap, s) in zip([(0, 0), *cp.gap_records], cp.gap_records):
        if not (prev_gap < gap <= MAX_GAP and prev_s < s <= min(limit, last, MAX_S)):
            raise CheckpointError(f"checkpoint: gap_records entry [{gap}, {s}] is out of order, "
                                  f"over budget or past limit {limit} or last_representable {last}")
    # R(x) for decades already scanned: pairs_scanned, R(min(position - 1,
    # limit)), bounds each
    below = min(limit, position)
    for (prev_x, prev_count), (x, count) in zip([(0, 0), *cp.decade_counts], cp.decade_counts):
        if not (x in _decades(below) and x > prev_x and prev_count <= count <= min(x, pairs)):
            raise CheckpointError(f"checkpoint: decade_counts entry [{x}, {count}] is out of order "
                                  f"or not R(x) at a decade below {below}")
    return cp._replace(current_max=_champion(cp.gap_records))


def _check_checkpoint_path(path: str | os.PathLike) -> None:
    # a path that is not a regular file: a rename would replace it, a read block on a FIFO
    if os.path.exists(path) and not os.path.isfile(path):
        raise CheckpointError(f"checkpoint-path: {path} exists and is not a regular file")


def write_checkpoint(cp: Checkpoint, path: str | os.PathLike) -> None:
    """Serialize as one JSON object, durably and atomically.

    The object holds the state's fields, with current_max as max_s and
    max_gap, and gap_records and decade_counts as lists of [a, b] pairs.
    It goes to a uniquely named temp file beside the target, which is
    fsynced and renamed over it; the directory is fsynced after the rename.
    Concurrent writers never share a temp file, and a failure leaves the
    previous checkpoint in place and removes the temp file.  A state with
    no record yet, or a path _check_checkpoint_path refuses, raises
    CheckpointError before any file is made.
    """
    import tempfile  # numpy alone does not load it, and most runs write no checkpoint
    if not cp.gap_records or cp.current_max is None:
        raise CheckpointError("checkpoint: no record to write, gap_records or current_max is empty")
    _check_checkpoint_path(path)
    fields = cp._asdict()
    best = fields.pop("current_max")
    text = json.dumps(fields | {"max_s": best.s, "max_gap": best.gap})
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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


def _unique_keys(items: list[tuple[str, object]]) -> dict:
    # json's object_pairs_hook: a repeated key is refused, not overwritten
    out = {}
    for key, value in items:
        if key in out:
            raise CheckpointError(f"checkpoint: duplicate field {key!r}")
        out[key] = value
    return out


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Parse a version 3 file, one JSON object, and pass the state it holds
    through _check_state, the gate for every state a scan starts from.

    Here only what is particular to a file is refused, naming the field or
    the file: text that is not UTF-8 and one JSON object (a version 2 file
    is key=value lines), another version, a duplicate, unknown or missing
    field, and max_s/max_gap other than the two integers of the exact
    maximum of gap_records.  An unreadable file, or a path that
    _check_checkpoint_path refuses, raises CheckpointError naming checkpoint-path."""
    _check_checkpoint_path(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"checkpoint-path: cannot read {path}: {exc}") from exc
    try:
        fields = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint: {path} is not UTF-8 JSON, as a version "
                              f"{CHECKPOINT_VERSION} file is: {exc}") from None
    if not isinstance(fields, dict):
        raise CheckpointError(f"checkpoint: {path} holds no JSON object")
    # before the other fields, which another version may name differently
    if fields.get("version", CHECKPOINT_VERSION) != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint: unsupported version {json.dumps(fields['version'])}")
    keys = {*Checkpoint._fields, "max_s", "max_gap"} - {"current_max"}
    if fields.keys() != keys:
        raise CheckpointError(f"checkpoint: unknown fields {sorted(fields.keys() - keys)}, "
                              f"missing fields {sorted(keys - fields.keys())}")
    max_s, max_gap = fields.pop("max_s"), fields.pop("max_gap")
    cp = _check_state(Checkpoint(current_max=None, **fields), fields["limit"])
    # the stored maximum is redundant; a disagreement, or another type, marks a corrupt file
    best = cp.current_max
    if best is None or (type(max_s), type(max_gap), max_s, max_gap) != (int, int, best.s, best.gap):
        raise CheckpointError(
            f"checkpoint: max_s/max_gap {max_s}/{max_gap} is not the maximum of gap_records")
    return cp

"""Segmented enumeration of sums of two squares.

Marks every value x^2 + y^2 inside a half-open window by walking lattice
rows y with x <= y, then stitches windows into an ordered stream of
consecutive representable pairs.  Integer square roots come from
math.isqrt throughout; flooring a floating-point root is never safe once
x^2 + y^2 approaches 2^53.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SEGMENT_SIZE",
    "DEFAULT_MEMORY_CAP",
    "MAX_VALUE",
    "Segment",
    "GapPair",
    "mark_segment",
    "gap_stream",
]

DEFAULT_SEGMENT_SIZE = 1 << 24

# Cap on the per-window bitmap, in bitmap entries (one byte each).
DEFAULT_MEMORY_CAP = 1 << 30

MAX_VALUE = 2**63 - 1

# Width of the windows that read past limit for the successor of the last pair
_READAHEAD_WINDOW = 4096


@dataclass(frozen=True)
class Segment:
    """Membership bitmap for the window [lo, hi)."""

    lo: int
    hi: int
    bits: np.ndarray

    def values(self) -> np.ndarray:
        """Representable values in the window, ascending int64."""
        return np.flatnonzero(self.bits).astype(np.int64) + self.lo


@dataclass(frozen=True)
class GapPair:
    """Consecutive representable integers s < s_next; nothing representable between."""

    s: int
    s_next: int

    @property
    def gap(self) -> int:
        return self.s_next - self.s


def _ceil_sqrt(v: int) -> int:
    # least y >= 0 with y*y >= v
    if v <= 0:
        return 0
    return math.isqrt(v - 1) + 1


def mark_segment(
    lo: int,
    hi: int,
    *,
    allow_zero: bool = True,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> Segment:
    """Mark every sum of two squares in [lo, hi).

    Enumerates by the larger coordinate: every x^2 + y^2 in the window with
    x <= y has lo/2 <= y^2 < hi, so rows run from ceil(sqrt(ceil(lo/2))) to
    isqrt(hi - 1).  Row y marks the run of x <= y with lo <= x^2 + y^2 < hi,
    which is one scatter of a shared table of x^2 - lo shifted by y^2.  At
    high windows that is about 0.29 sqrt(hi) rows against the 0.71 sqrt(hi)
    columns x <= sqrt(hi/2).  Marking is idempotent, so values with several
    representations are harmless.  With allow_zero=False both summands must
    be at least 1.
    """
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise ValueError("mark_segment: lo and hi must be integers")
    if lo < 0 or hi <= lo or hi > MAX_VALUE:
        raise ValueError(
            f"mark_segment: need 0 <= lo < hi <= 2**63 - 1, got lo={lo}, hi={hi}"
        )
    if hi - lo > memory_cap:
        raise ValueError(
            f"mark_segment: window of {hi - lo} values exceeds memory cap {memory_cap}"
        )
    bits = np.zeros(hi - lo, dtype=bool)
    xmin = 0 if allow_zero else 1
    # x <= y forces 2 x^2 <= hi - 1; x^2 - lo fits int64 since lo < 2^63
    xs = np.arange(math.isqrt((hi - 1) // 2) + 1, dtype=np.int64)
    xsq = xs * xs - lo
    for y in range(max(xmin, _ceil_sqrt(-(-lo // 2))), math.isqrt(hi - 1) + 1):
        y2 = y * y
        x0 = max(xmin, _ceil_sqrt(lo - y2))
        x1 = min(y, math.isqrt(hi - 1 - y2))
        if x0 <= x1:
            bits[xsq[x0 : x1 + 1] + y2] = True
    return Segment(lo, hi, bits)


def _windows(start: int, limit: int, segment_size: int) -> Iterator[tuple[int, int]]:
    # clamp to limit + 1 first, then read ahead in small windows until the
    # consumer has seen a representable value beyond limit and stops
    lo = start
    while lo <= limit:
        yield lo, min(lo + segment_size, limit + 1)
        lo = min(lo + segment_size, limit + 1)
    while True:
        yield lo, lo + _READAHEAD_WINDOW
        lo += _READAHEAD_WINDOW


def gap_stream(
    start: int,
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    allow_zero: bool = True,
    memory_cap: int = DEFAULT_MEMORY_CAP,
) -> Iterator[GapPair]:
    """Yield every GapPair with start <= s <= limit, in increasing s order.

    The final pair may have s_next beyond limit; the stream reads ahead in
    small windows until that successor appears.  Windows with no set bits
    simply carry the pending predecessor forward.
    """
    if start < 0:
        raise ValueError(f"gap_stream: start must be >= 0, got {start}")
    if start >= limit:
        raise ValueError(f"gap_stream: need start < limit, got {start} >= {limit}")
    if segment_size < 2:
        raise ValueError(f"gap_stream: segment_size must be >= 2, got {segment_size}")
    prev = None
    for lo, hi in _windows(start, limit, segment_size):
        if lo >= MAX_VALUE:
            raise ValueError("gap_stream: window ran past 2**63 - 1")
        seg = mark_segment(lo, min(hi, MAX_VALUE), allow_zero=allow_zero, memory_cap=memory_cap)
        for v in seg.values().tolist():
            if prev is not None and prev >= 1:
                yield GapPair(prev, v)
            prev = v
            if prev > limit:
                return

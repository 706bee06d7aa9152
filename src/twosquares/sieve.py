"""Segmented enumeration of sums of two squares.

Marks every value x^2 + y^2 inside a half-open window into a bitmap of one
bit per value, walking the window in blocks with every lattice row y
(x <= y) at once; the block width grows with the window's height, since
each block roots every row once.  Integer square roots of whole arrays come
from a float64 estimate that _isqrt corrects to the exact value with one -1
step; its docstring proves that the estimate is never low and at most one
high, and that no int64 product overflows, for every argument in [0, 2^63).
The float estimate alone is not safe once x^2 + y^2 approaches 2^53.  The
offsets of lattice points inside a block are computed in uint32, modulo
2^32, which mark_segment's docstring proves exact.

This module is the marker and its block-width table alone: the grid of
windows a scan walks, and the gap pairs it reports, live in analysis.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

__all__ = ["DEFAULT_MEMORY_CAP", "MAX_VALUE", "Segment", "mark_segment"]

# Cap on the window width, in values; the bitmap holds one bit per value,
# 128 MB at the cap.
DEFAULT_MEMORY_CAP = 1 << 30

# Bound on hi for mark_segment and representable_mask: their arrays grow with sqrt(hi)
MAX_VALUE = 2**42

# Values per marking block, by window height: (largest hi, width) pairs in
# ascending order, each width a multiple of 8 and at most 2^24.  A block
# roots every row once, about 0.29 sqrt(hi) rows, while each lattice point
# costs a few numpy passes and a scatter into a one-byte-per-value block
# that leaves the L2 cache as it widens; so wider blocks pay off as the rows
# grow.  The tops are the crossovers of median per-window marking times on
# a 2-vCPU Xeon with a 2 MB L2: 2^19 against 2^20 near 2 * 10^9 (about
# 13k rows), 2^20 against 2^21 near 4 * 10^10 (about 58k rows), and 2^21
# against 2^24, a whole scan window, near 10^11 (about 92k rows); above it
# 2^22 and 2^23 lost to 2^24 at every height tried.
_BLOCK_WIDTHS = (
    (2 * 10**9, 1 << 19), (4 * 10**10, 1 << 20), (10**11, 1 << 21), (MAX_VALUE, 1 << 24)
)
# Lattice points expanded at a time, in whole rows: a row has at most
# sqrt(width) + 1 points in a block, so each group's uint32 temporaries hold
# fewer than _CHUNK + 4098 entries (about 80 KB, twice that widened to intp
# for the scatter) at every width.
_CHUNK = 1 << 14
# 0, 1, 2, ...: the step of x along a group's rows, as long as the bound
# above on a group at the widest block, and sliced rather than allocated
# for each group
_RAMP = np.arange(_CHUNK + math.isqrt(_BLOCK_WIDTHS[-1][1]) + 2, dtype=np.uint32)


class Segment(NamedTuple):
    """Membership bitmap for the window [lo, hi), one bit per value.

    Bit i % 8 of byte i // 8 of packed (numpy's little bit order) is set
    exactly when lo + i is a sum of two squares; the pad bits of the last
    byte are 0.
    """

    lo: int
    hi: int
    packed: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        """The bitmap unpacked to one bool per value, as a new array."""
        return np.unpackbits(self.packed, count=self.hi - self.lo, bitorder="little").view(np.bool_)


def _is_int(v) -> bool:
    """An int and not a bool, which Python counts as an int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_bounds(op: str, lo, hi, least: int) -> None:
    """Refuse a window [lo, hi) unless least <= lo < hi <= MAX_VALUE and it
    fits DEFAULT_MEMORY_CAP; each message names op and the field at fault."""
    for name, v in (("lo", lo), ("hi", hi)):
        if not _is_int(v):
            raise ValueError(f"{op}: {name} must be an integer, got {v!r}")
    if lo < least:
        raise ValueError(f"{op}: lo must be >= {least}, got lo={lo}")
    if hi <= lo:
        raise ValueError(f"{op}: hi must be > lo, got hi={hi}, lo={lo}")
    if hi > MAX_VALUE:
        raise ValueError(f"{op}: hi must be <= {MAX_VALUE}, got hi={hi}")
    if hi - lo > DEFAULT_MEMORY_CAP:
        raise ValueError(f"{op}: window of {hi - lo} values exceeds memory cap {DEFAULT_MEMORY_CAP}")


def _ceil_sqrt(v: int) -> int:
    # least y >= 0 with y*y >= v
    if v <= 0:
        return 0
    return math.isqrt(v - 1) + 1


def _isqrt(v: np.ndarray, scratch: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """floor(sqrt(v)) for an int64 array with every entry in [0, 2^63).

    scratch is a float64 array and two int64 arrays of v's shape that the
    steps write into, the second of which is returned.

    Exact for every such entry.  Let k = isqrt(v), so k < 2^32.  The
    conversion to float64 and np.sqrt each round to nearest, and truncation
    then gives s = floor(fl(sqrt(fl(v)))).  s is k or k + 1:

    s <= k + 1.  Each rounding has relative error at most 2^-53, so the
    float root lies within sqrt(v) * 2^-52 < 2^31.5 * 2^-52 < 1 of
    sqrt(v) < k + 1.

    s >= k.  Both roundings are monotone, so the float root is at least
    fl(sqrt(fl(k^2))), which is k.  If fl(k^2) >= k^2 its root is at least
    k.  Otherwise k^2 > 2^53 and k is no power of 2: with 2^E < k < 2^(E+1),
    the float below k is k - u, u = 2^(E-52), and fl(k^2) = k^2 - d with
    0 < d <= half an ulp of k^2, that is d <= 2^(2E-53) when
    k^2 < 2^(2E+1) and d <= 2^(2E-52) otherwise.  Since k u > 2^(2E-52) in
    the first case and k u >= 2^(2E-51.5) in the second, d < k u - u^2/4,
    so sqrt(k^2 - d) > k - u/2, which rounds to k or above.

    One -1 step where s^2 > v therefore returns k.  No int64 product
    overflows: v < 2^63 rounds to at most 2^63 as a float, whose root
    3037000499.97... rounds below 3037000500, so s <= 3037000499 and
    s^2 < 2^63.
    """
    f, s, t = scratch
    np.sqrt(v, out=f)
    np.copyto(s, f, casting="unsafe")  # truncates, as astype does
    np.multiply(s, s, out=t)
    np.greater(t, v, out=t)
    np.subtract(s, t, out=s)
    return s


def _x_below(e: int, y2: np.ndarray, out: np.ndarray, roots: tuple[np.ndarray, ...]) -> np.ndarray:
    # for the rows with y^2 < e, a prefix since y2 ascends, the number of
    # x >= 0 with x^2 + y^2 < e: ceil(sqrt(e - y^2)), at least 1; returned as
    # a view of the prefix of out, with the prefixes of roots as _isqrt's
    # scratch
    r = int(np.searchsorted(y2, e))
    v = np.subtract(e - 1, y2[:r], out=out[:r])
    np.add(_isqrt(v, tuple(a[:r] for a in roots)), 1, out=v)
    return v


def _block_width(hi: int) -> int:
    """Values per marking block for a window that ends at hi (_BLOCK_WIDTHS)."""
    return next(width for top, width in _BLOCK_WIDTHS if hi <= top)


def mark_segment(lo: int, hi: int, *, allow_zero: bool = True) -> Segment:
    """Mark every sum of two squares in [lo, hi), 0 <= lo < hi <= MAX_VALUE.

    Enumerates by the larger coordinate: every x^2 + y^2 in the window with
    x <= y has lo/2 <= y^2 < hi, so rows run from ceil(sqrt(ceil(lo/2))) to
    isqrt(hi - 1).  The window is cut into blocks of _block_width(hi)
    values.  At each block edge e the count of x with x^2 + y^2 < e comes
    for every row with y^2 < e at once from _isqrt, so row y's run in the
    block [b0, b1) is x from its count at b0 to its count at b1, both capped
    at y + 1.  Each block builds its row tables once: the runs, their
    cumulative ends, each row's first x less the block-wide index of its
    first point, and y^2 - b0.  Groups of whole rows of about _CHUNK points
    take slices of these tables, and np.repeat and a slice of the shared
    ramp _RAMP expand them into offsets x^2 + y^2 - b0, which are scattered
    into a reused byte block that np.packbits then packs into the window's
    bitmap.  Marking is idempotent, so values with several representations
    are harmless.  With allow_zero=False both summands must be at least 1.

    The per-point arithmetic is in uint32, modulo 2^32, and exact.  The two
    tables are reduced modulo 2^32 by a C cast, which wraps, and the
    expansion only adds and multiplies, so every step is a ring operation
    and the result is x^2 + y^2 - b0 modulo 2^32, even where x >= 2^16 makes
    x^2 wrap.  Every point lies in the block, so that offset is in
    [0, b1 - b0) with b1 - b0 <= 2^24 < 2^32, and the residue is the offset
    itself.  It is widened to intp once, for the scatter.
    """
    _check_bounds("mark_segment", lo, hi, 0)
    width = _block_width(hi)
    xmin = 0 if allow_zero else 1
    ys = np.arange(max(xmin, _ceil_sqrt(-(-lo // 2))), math.isqrt(hi - 1) + 1, dtype=np.int64)
    y2 = ys * ys
    ys += 1  # x <= y: every run ends before y + 1
    packed = np.empty((hi - lo + 7) // 8, dtype=np.uint8)
    block = np.empty(min(hi - lo, width), dtype=np.bool_)
    # Row by row, the least x not yet marked and the least x past the block,
    # in [xmin, y + 1].  Rows enter the prefix with y^2 < b1 in order, and a
    # row's count there is at least 1, so one that has not entered keeps
    # xmin and no count needs a floor at xmin.
    x_lo, x_hi = np.full_like(y2, xmin), np.full_like(y2, xmin)
    ends = np.empty_like(y2)
    firsts, bases = np.empty(y2.size, np.uint32), np.empty(y2.size, np.uint32)
    # allocated once, not at each block edge: the allocator hands large
    # temporaries back to the system, and each reuse would fault them in again
    roots = (np.empty(y2.size), np.empty_like(y2), np.empty_like(y2))
    head = _x_below(lo, y2, x_lo, roots)
    np.minimum(head, ys[: head.size], out=head)
    for b0 in range(lo, hi, width):
        b1 = min(b0 + width, hi)
        top = _x_below(b1, y2, x_hi, roots)
        r = top.size
        np.minimum(top, ys[:r], out=top)
        # the runs overwrite x_lo's prefix, which is not read again: after
        # the swap below it is the next x_hi, whose prefix _x_below rewrites
        n = np.subtract(top, x_lo[:r], out=x_lo[:r])
        end = np.cumsum(n, out=ends[:r])
        # a row's point at block-wide index k has x = first + k
        first = np.subtract(top, end, out=firsts[:r], casting="unsafe")
        base = np.subtract(y2[:r], b0, out=bases[:r], casting="unsafe")
        cells = block[: b1 - b0]
        cells[:] = False
        cuts = np.searchsorted(end, np.arange(_CHUNK, end[-1] if r else 0, _CHUNK))
        p0 = 0  # block-wide index of the group's first point
        for r0, r1 in itertools.pairwise([0, *cuts.tolist(), r]):
            counts, g = n[r0:r1], first[r0:r1]
            g += np.uint32(p0)  # now x = g + k at the group's index k
            x = g.repeat(counts)
            p0 += x.size
            x += _RAMP[: x.size]
            x *= x
            x += base[r0:r1].repeat(counts)
            cells[x.astype(np.intp)] = True
        packed[(b0 - lo) >> 3 : (b1 - lo + 7) >> 3] = np.packbits(cells, bitorder="little")
        x_lo, x_hi = x_hi, x_lo
    return Segment(lo, hi, packed)

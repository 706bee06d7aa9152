"""Ground-truth oracle for membership in {x^2 + y^2}.

An integer n >= 1 is a sum of two squares (zero summands allowed) exactly
when every prime p = 3 (mod 4) divides n to an even power.  Everything here
decides membership from that criterion, independently of the enumeration
sieve: per integer by trial division, which stops at the first prime
p = 3 (mod 4) found to an odd power, or for a whole window at once by
sieving the primes p = 3 (mod 4), both for 1 <= n <= MAX_VALUE = 2^42.
Explicit witnesses serve human-readable reports.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .sieve import MAX_VALUE, _check_bounds, _is_int

__all__ = [
    "Witness",
    "is_sum_of_two_squares",
    "representable_mask",
    "find_witness",
]


class Witness(NamedTuple):
    """Pair x <= y with x^2 + y^2 equal to the queried integer."""

    x: int
    y: int


def _odd_primes(bound: int) -> np.ndarray:
    """Odd primes p <= bound, ascending."""
    composite = np.zeros(bound + 1, dtype=bool)
    for p in range(3, math.isqrt(bound) + 1, 2):
        if not composite[p]:
            composite[p * p :: 2 * p] = True
    return np.flatnonzero(~composite[3::2]) * 2 + 3


@functools.cache
def _trial_primes() -> tuple[int, ...]:
    """The primes up to isqrt(MAX_VALUE) = 2^21, built by the first is_sum_of_two_squares call."""
    return (2, *_odd_primes(math.isqrt(MAX_VALUE)).tolist())


def _check_positive(n, op: str) -> None:
    if not _is_int(n):
        raise ValueError(f"{op}: n must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"{op}: n must be >= 1, got {n}")
    if n > MAX_VALUE:
        raise ValueError(f"{op}: n must be <= {MAX_VALUE}, got {n}")


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n is x^2 + y^2 for nonnegative integers x, y.

    The even-exponent criterion by trial division: each prime p with
    p^2 <= m, m the part of n not yet divided out, is divided out in turn,
    and one p = 3 (mod 4) that divides n to an odd power decides False at
    once.  What is left has no prime factor up to its own square root, so it
    is 1 or a prime, and n is representable exactly when it is not
    3 (mod 4).  The prime table, up to isqrt(MAX_VALUE), is built once, on
    the first call.
    """
    _check_positive(n, "is_sum_of_two_squares")
    m = n
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                e += 1
                m //= p
            if e % 2 and p % 4 == 3:
                return False
    return m % 4 != 3


def representable_mask(lo: int, hi: int) -> np.ndarray:
    """Membership of every n in [lo, hi) as a bool array, 1 <= lo < hi <= MAX_VALUE.

    The even-exponent criterion for a whole window: for each prime
    p = 3 (mod 4) with p^2 < hi, adding +1, -1, +1, ... over the multiples
    of p, p^2, p^3, ... leaves 1 exactly where p divides n to an odd power.
    A prime p = 3 (mod 4) with p^2 >= hi divides n < hi at most once; then
    the odd part of n is 3 (mod 4), and those n are exactly
    n = 3 * 2^k (mod 2^(k+2)).  So n is representable exactly when its
    count is 0 and it lies in none of those classes.  Integer arithmetic
    only; costs a byte per value, for at most DEFAULT_MEMORY_CAP values as in
    mark_segment, plus a sieve up to sqrt(hi).
    """
    _check_bounds("representable_mask", lo, hi, 1)
    # int8 suffices: each distinct prime leaves at most 1 on n, and no
    # n < 2^42 has 20 distinct prime factors
    width = hi - lo
    count = np.zeros(width, dtype=np.int8)
    primes = _odd_primes(math.isqrt(hi - 1))
    for p in primes[primes % 4 == 3].tolist():
        q, step = p, 1
        while q < hi:
            first = -lo % q
            # skipping empty slices keeps narrow windows high up cheap
            if first < width:
                count[first::q] += step
            q, step = q * p, -step
    k = 0
    while 3 << k < hi:
        count[((3 << k) - lo) % (4 << k) :: 4 << k] = 1
        k += 1
    return count == 0


def find_witness(n: int) -> Witness | None:
    """Some (x, y) with x^2 + y^2 = n and x <= y, or None.

    Scans x upward from 0, so the returned witness is the one with the
    smallest x.  Intended for reports, not bulk scanning.
    """
    _check_positive(n, "find_witness")
    x = 0
    while 2 * x * x <= n:
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2:
            return Witness(x, y)
        x += 1
    return None

"""Ground-truth oracle for membership in {x^2 + y^2}.

An integer n >= 1 is a sum of two squares (zero summands allowed) exactly
when every prime p = 3 (mod 4) divides n to an even power.  Everything here
decides membership from that criterion, independently of the enumeration
sieve: per integer through factoring, or for a whole window at once by
sieving the primes p = 3 (mod 4).  Explicit witnesses serve human-readable
reports.
"""

import math
from typing import NamedTuple

import numpy as np

from .sieve import MAX_VALUE, _is_int

__all__ = [
    "Factorization",
    "Witness",
    "factorize",
    "is_sum_of_two_squares",
    "representable_mask",
    "find_witness",
]

MAX_N = 2**63 - 1

# Trial division handles everything below _TRIAL_LIMIT**2 on its own;
# larger cofactors are split with deterministic Miller-Rabin plus Brent rho.
_TRIAL_LIMIT = 10_000

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Factorization(NamedTuple):
    """Complete prime factorization; primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def recompose(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


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


_TRIAL_PRIMES = (2, *_odd_primes(_TRIAL_LIMIT - 1).tolist())


def _check_positive(n, op: str) -> None:
    if not _is_int(n):
        raise ValueError(f"{op}: n must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"{op}: n must be >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"{op}: n must be <= 2**63 - 1, got {n}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Some nontrivial factor of an odd composite n.

    Deterministic: sweeps the polynomial offset c upward, so repeated calls
    always return the same factor.
    """
    if n % 2 == 0:
        return 2
    r0 = math.isqrt(n)
    if r0 * r0 == n:
        return r0
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 2, 2
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")


def _split_large(m: int) -> dict[int, int]:
    """Prime/exponent map for m, assuming m has no prime factor <= _TRIAL_LIMIT."""
    counts: dict[int, int] = {}
    stack = [m]
    while stack:
        v = stack.pop()
        if _is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        f = _brent_rho(v)
        stack.append(f)
        stack.append(v // f)
    return counts


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n; empty factor list for n = 1.

    Trial division by the primes below 10^4, then deterministic
    Miller-Rabin and Brent rho for any remaining cofactor, so arbitrary
    64-bit inputs complete quickly.  Pure function, no caches.
    """
    _check_positive(n, "factorize")
    m = n
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                e += 1
                m //= p
            counts[p] = e
    if m > 1:
        # m has no prime factor among the primes tried, and m < p^2 if the
        # loop stopped early, so a cofactor below _TRIAL_LIMIT^2 is prime
        if m < _TRIAL_LIMIT**2:
            counts[m] = 1
        else:
            for p, e in _split_large(m).items():
                counts[p] = counts.get(p, 0) + e
    return Factorization(n, tuple(sorted(counts.items())))


def is_sum_of_two_squares(n: int) -> bool:
    """True iff n is x^2 + y^2 for nonnegative integers x, y.

    The even-exponent criterion read off factorize(n): every prime
    p = 3 (mod 4) divides n to an even power.
    """
    _check_positive(n, "is_sum_of_two_squares")
    return all(e % 2 == 0 for p, e in factorize(n).factors if p % 4 == 3)


def representable_mask(lo: int, hi: int) -> np.ndarray:
    """Membership of every n in [lo, hi) as a bool array, 1 <= lo < hi <= MAX_VALUE.

    The even-exponent criterion for a whole window: for each prime
    p = 3 (mod 4) with p^2 < hi, adding +1, -1, +1, ... over the multiples
    of p, p^2, p^3, ... leaves 1 exactly where p divides n to an odd power.
    A prime p = 3 (mod 4) with p^2 >= hi divides n < hi at most once; then
    the odd part of n is 3 (mod 4), and those n are exactly
    n = 3 * 2^k (mod 2^(k+2)).  So n is representable exactly when its
    count is 0 and it lies in none of those classes.  Integer arithmetic
    only; costs O(hi - lo) bytes plus a sieve up to sqrt(hi).
    """
    for name, v in (("lo", lo), ("hi", hi)):
        if not _is_int(v):
            raise ValueError(f"representable_mask: {name} must be an integer, got {v!r}")
    if lo < 1:
        raise ValueError(f"representable_mask: lo must be >= 1, got {lo}")
    if hi <= lo:
        raise ValueError(f"representable_mask: hi must be > lo, got hi={hi}, lo={lo}")
    if hi > MAX_VALUE:
        raise ValueError(f"representable_mask: hi must be <= {MAX_VALUE}, got {hi}")
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

"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately simple and slow: plain double loops and
Fraction arithmetic, no numpy, no imports from the package under test.
"""

import math
from fractions import Fraction


def brute_is_sum(n: int, allow_zero: bool = True) -> bool:
    """Double loop over x <= y testing x^2 + y^2 == n."""
    x = 0 if allow_zero else 1
    while 2 * x * x <= n:
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2 and (allow_zero or y >= 1):
            return True
        x += 1
    return False


def brute_membership(limit: int, allow_zero: bool = True) -> bytearray:
    """Membership table for [0, limit] built by marking x^2 + y^2 directly."""
    table = bytearray(limit + 1)
    x = 0 if allow_zero else 1
    while 2 * x * x <= limit:
        y = x
        while x * x + y * y <= limit:
            table[x * x + y * y] = 1
            y += 1
        x += 1
    return table


def brute_values(limit: int, allow_zero: bool = True, extra: int = 200) -> list[int]:
    """Representable integers in [1, limit], plus read-ahead successors."""
    table = brute_membership(limit + extra, allow_zero)
    return [n for n in range(1, limit + extra + 1) if table[n]]


def brute_pairs(start: int, limit: int, allow_zero: bool = True) -> list[tuple[int, int]]:
    """All (s, s_next) with start <= s <= limit, read-ahead included."""
    vals = brute_values(limit, allow_zero)
    pairs = []
    for i in range(len(vals) - 1):
        s, s_next = vals[i], vals[i + 1]
        if s < max(start, 1):
            continue
        if s > limit:
            break
        pairs.append((s, s_next))
    return pairs


def brute_records(limit: int, allow_zero: bool = True) -> list[tuple[int, int]]:
    """First occurrences of record gaps, as (gap, first_s)."""
    best = 0
    records = []
    for s, s_next in brute_pairs(0, limit, allow_zero):
        gap = s_next - s
        if gap > best:
            best = gap
            records.append((gap, s))
    return records


def ratio_fraction(s: int, gap: int) -> Fraction:
    """Monotone proxy for gap / s^(1/4): the exact value of its 4th power."""
    return Fraction(gap**4, s)


def brute_champion(limit: int, allow_zero: bool = True) -> tuple[int, int]:
    """(s, gap) maximizing gap / s^(1/4); smaller s wins exact ties."""
    champ = None
    for s, s_next in brute_pairs(0, limit, allow_zero):
        gap = s_next - s
        if champ is None or ratio_fraction(s, gap) > ratio_fraction(*champ):
            champ = (s, gap)
    return champ


def brute_count(limit: int, allow_zero: bool = True) -> int:
    """Number of representable n in [1, limit]."""
    table = brute_membership(limit, allow_zero)
    return sum(table[1:])


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """Plain trial division by every d >= 2; about 0.3 s for a prime near 2^42."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors

"""Derive the benchmark's expected report values, independently of the sieve.

    PYTHONPATH=src python3 bench/derive_expected.py   # rewrites bench/expected.json

The CLI marks sums of two squares by walking lattice columns
(`twosquares.sieve.mark_segment`).  The counts here come from a different
method: the even-exponent criterion, evaluated for a whole window at once.
For every prime p = 3 (mod 4) with p^2 < hi, add +1, -1, +1, ... over the
multiples of p, p^2, p^3, ...; the sum at n is the number of such primes
dividing n to an odd power.  At most one prime factor of n exceeds
sqrt(hi), so n >= 1 is representable exactly when that sum is 0 and the odd
part of n is 1 (mod 4).  The criterion is spot-checked against the
factorization oracle `is_sum_of_two_squares` on a seeded sample of every
window, and against the counts pinned by the acceptance tests.
"""

import json
import math
import random
from pathlib import Path

import numpy as np

from twosquares import DEFAULT_SEGMENT_SIZE, is_sum_of_two_squares

OUT = Path(__file__).with_name("expected.json")

VERIFY_LIMIT = 10**8
RESUME_TOP = 10**12
RESUME_WINDOWS = 8
CHECK_LIMIT = 200_000
# pinned by tests/test_acceptance.py (density criterion)
KNOWN_COUNTS = {10**5: 24028, 10**6: 216341, 10**7: 1985459}
LANDAU_RAMANUJAN = 0.7642236535892206
_CHUNK = 1 << 22
_SAMPLE = 300


def primes_3_mod_4(bound: int) -> np.ndarray:
    """Primes p <= bound with p = 3 (mod 4), by the sieve of Eratosthenes."""
    is_prime = np.ones(bound + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    return primes[primes % 4 == 3]


def criterion_mask(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Membership of n in [lo, hi), lo >= 1; `primes` must reach sqrt(hi - 1)."""
    odd_count = np.zeros(hi - lo, dtype=np.int8)
    for p in primes.tolist():
        if p * p >= hi:
            break
        pk, sign = p, 1
        while pk < hi:
            odd_count[(-lo) % pk :: pk] += sign
            pk, sign = pk * p, -sign
    n = np.arange(lo, hi, dtype=np.int64)
    odd_part = n // (n & -n)
    return (odd_count == 0) & (odd_part % 4 == 1)


def count_representable(lo: int, hi: int, primes: np.ndarray, rng: random.Random) -> int:
    """Representable n in [lo, hi), lo >= 1, with an oracle spot check."""
    total = 0
    for a in range(lo, hi, _CHUNK):
        b = min(a + _CHUNK, hi)
        mask = criterion_mask(a, b, primes)
        for n in rng.sample(range(a, b), min(_SAMPLE, b - a)):
            if bool(mask[n - a]) != is_sum_of_two_squares(n):
                raise SystemExit(f"criterion and oracle disagree at n={n}")
        total += int(np.count_nonzero(mask))
    return total


def resume_windows(primes: np.ndarray, rng: random.Random) -> list[dict]:
    """Seeded resume windows just below 10^12, all of equal cost.

    Window j resumes at the start of the (j+1)-th last whole segment below
    10^12 and its limit is that segment's last value, so every window scans
    one full segment and the read-ahead past the limit.
    """
    seg = DEFAULT_SEGMENT_SIZE
    windows = []
    for j in range(RESUME_WINDOWS):
        position = (RESUME_TOP // seg - 1 - j) * seg
        limit = position + seg - 1
        # a real run stores the exact count below position, which would take
        # the full scan; the fixture stores the Landau-Ramanujan estimate
        fixture_pairs = round(LANDAU_RAMANUJAN * position / math.sqrt(math.log(position)))
        windows.append({
            "limit": limit,
            "position": position,
            "fixture_pairs": fixture_pairs,
            "window_pairs": count_representable(position, limit + 1, primes, rng),
        })
    return windows


def main() -> None:
    rng = random.Random(20171220)
    primes = primes_3_mod_4(math.isqrt(RESUME_TOP) + 1)
    counts = {}
    running, lo = 0, 1
    for x in sorted([*KNOWN_COUNTS, VERIFY_LIMIT]):
        running += count_representable(lo, x + 1, primes, rng)
        counts[x], lo = running, x + 1
    for x, known in KNOWN_COUNTS.items():
        if counts[x] != known:
            raise SystemExit(f"criterion count {counts[x]} at {x} differs from {known}")
    doc = {
        "verify_1e8": {"limit": VERIFY_LIMIT, "max_s": 1493, "gap": 15,
                       "ratio": "2.41310548678", "pairs_scanned": counts[VERIFY_LIMIT]},
        "resume_1e12": resume_windows(primes, rng),
        "check_oracle": {"limit": CHECK_LIMIT},
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

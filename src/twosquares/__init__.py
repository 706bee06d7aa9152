"""Sums of two squares in short intervals: sieve, gap records, verification.

The package decides representability through the classical even-exponent
criterion, enumerates x^2 + y^2 over segmented windows, and tracks the
critical ratio gap / s^(1/4) between consecutive representable integers
with exact integer arithmetic.

The public names load on first use, so `import twosquares` imports neither
numpy nor any submodule, and `python -m twosquares` reaches `__main__`
before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BudgetError": "analysis",
    "Checkpoint": "analysis",
    "CheckpointError": "analysis",
    "CheckReport": "analysis",
    "DEFAULT_SEGMENT_SIZE": "analysis",
    "DensityPoint": "analysis",
    "GapPair": "analysis",
    "NormalizedGapStats": "analysis",
    "RatioRecord": "analysis",
    "Threshold": "analysis",
    "VerificationReport": "analysis",
    "WorkerError": "analysis",
    "critical_constant": "analysis",
    "cross_check": "analysis",
    "density": "analysis",
    "exceeds_threshold": "analysis",
    "gap_records": "analysis",
    "normalized_stats": "analysis",
    "ratio_less": "analysis",
    "read_checkpoint": "analysis",
    "significant": "analysis",
    "verify": "analysis",
    "write_checkpoint": "analysis",
    "Witness": "representability",
    "find_witness": "representability",
    "is_sum_of_two_squares": "representability",
    "representable_mask": "representability",
    "Segment": "sieve",
    "mark_segment": "sieve",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS.values():  # `twosquares.sieve` without importing it first
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value

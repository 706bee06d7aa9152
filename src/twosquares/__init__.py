"""Sums of two squares in short intervals: sieve, gap records, verification.

The package decides representability through the classical even-exponent
criterion, enumerates x^2 + y^2 over segmented windows, and tracks the
critical ratio gap / s^(1/4) between consecutive representable integers
with exact integer arithmetic.
"""

from .analysis import (
    BudgetError,
    Checkpoint,
    CheckpointError,
    DensityPoint,
    NormalizedGapStats,
    RatioRecord,
    ScanProgress,
    Threshold,
    VerificationReport,
    critical_constant,
    density,
    exceeds_threshold,
    gap_records,
    normalized_gaps,
    normalized_stats,
    ratio_less,
    read_checkpoint,
    significant,
    verify,
    write_checkpoint,
)
from .representability import (
    Factorization,
    Witness,
    factorize,
    find_witness,
    is_sum_of_two_squares,
    representable_mask,
)
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    GapPair,
    Segment,
    gap_stream,
    mark_segment,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Checkpoint",
    "CheckpointError",
    "DEFAULT_SEGMENT_SIZE",
    "DensityPoint",
    "Factorization",
    "GapPair",
    "NormalizedGapStats",
    "RatioRecord",
    "ScanProgress",
    "Segment",
    "Threshold",
    "VerificationReport",
    "Witness",
    "critical_constant",
    "density",
    "exceeds_threshold",
    "factorize",
    "find_witness",
    "gap_records",
    "gap_stream",
    "is_sum_of_two_squares",
    "mark_segment",
    "normalized_gaps",
    "normalized_stats",
    "ratio_less",
    "read_checkpoint",
    "representable_mask",
    "significant",
    "verify",
    "write_checkpoint",
]

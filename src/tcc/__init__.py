"""Twisted centralizer codes over prime fields.

Fix a square matrix A over GF(p) and a constant a; the matrices B with
AB = aBA form a linear space, and column-stacking its members yields a
linear code of length n^2.  This package constructs those codes exactly,
computes their parameters, checks the spectral facts behind them, and
simulates their behaviour on a symbol-error channel.
"""

from .linalg import (
    GuardExceededError,
    Matrix,
    MatrixFormatError,
    Prime,
    RrefResult,
    is_prime,
    kernel_basis,
    parse_matrix_text,
    rank,
    rref,
)
from .comb import (
    CombParams,
    Spectrum,
    comb_matrix,
    comb_spectrum,
    eigen_scan,
)
from .centralizer import (
    TwistSpec,
    centralizer_code,
    twisted_operator,
)
from .code import (
    CodeReport,
    LinearCode,
    analyze,
    min_distance,
)
from .channel import (
    ChannelStats,
    exhaustive_stats,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelStats",
    "CodeReport",
    "CombParams",
    "GuardExceededError",
    "LinearCode",
    "Matrix",
    "MatrixFormatError",
    "Prime",
    "RrefResult",
    "Spectrum",
    "TwistSpec",
    "analyze",
    "centralizer_code",
    "comb_matrix",
    "comb_spectrum",
    "eigen_scan",
    "exhaustive_stats",
    "is_prime",
    "kernel_basis",
    "min_distance",
    "monte_carlo",
    "parse_matrix_text",
    "rank",
    "rref",
    "twisted_operator",
]

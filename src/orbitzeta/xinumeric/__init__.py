"""Numeric layer: evaluation, Laurent expansion, residues, formal certificates."""

from .config import (
    ExpansionOrderError,
    GUARD_DIGITS,
    PrecisionConfig,
    PrecisionError,
)
from .formal import CancellationReport, FormalPoly, formal_cancellation_check
from .kernel import (
    ValueWithError,
    XiPointExpansion,
    expansion_at,
    residue_anchor,
    xi_one_correction_limit,
    xi_point,
    xi_value,
    xi_value_fd,
    zeta_euler_maclaurin,
)
from .laurent import (
    FLOOR_MARGIN,
    NOISE_FLOOR_FACTOR,
    LaurentSeries,
    ResidueReport,
    laurent_expand,
    residue_at_zero,
)

__all__ = [
    "GUARD_DIGITS",
    "ExpansionOrderError",
    "PrecisionConfig",
    "PrecisionError",
    "CancellationReport",
    "FormalPoly",
    "formal_cancellation_check",
    "ValueWithError",
    "XiPointExpansion",
    "expansion_at",
    "residue_anchor",
    "xi_one_correction_limit",
    "xi_point",
    "xi_value",
    "xi_value_fd",
    "zeta_euler_maclaurin",
    "FLOOR_MARGIN",
    "NOISE_FLOOR_FACTOR",
    "LaurentSeries",
    "ResidueReport",
    "laurent_expand",
    "residue_at_zero",
]

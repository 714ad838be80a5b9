"""Precision configuration and error types for the numeric layer."""

from __future__ import annotations

from dataclasses import dataclass

# extra decimal digits carried internally beyond the requested working digits
GUARD_DIGITS = 15


class PrecisionError(ArithmeticError):
    """Requested accuracy cannot be certified with the current settings."""


class ExpansionOrderError(ValueError):
    """The configured expansion order cannot cover the expression's poles."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Settings for evaluation and Laurent expansion.

    working_digits: decimal digits the results are expected to carry.
    expansion_order: number of stored series orders per expansion point; when
        analyzing orbits of gl(n) use at least n + 3 so the window reaches a
        few orders past the residue after all pole cancellations.
    contour_radius, contour_nodes: circle radius (below 1/2, so a circle
        around an integer point keeps clear of the neighboring integers and
        the poles at 0 and 1) and trapezoid node count of the contour
        quadrature that checks the Taylor tables in the tests.  The tables
        themselves come from the power-series sum and depend on
        working_digits only; both knobs are validated and serialised so a
        report records the whole configuration.
    """

    working_digits: int = 30
    expansion_order: int = 9
    contour_radius: float = 0.25
    contour_nodes: int = 128

    def __post_init__(self):
        if self.working_digits < 5:
            raise ValueError("working_digits must be >= 5")
        if self.expansion_order < 1:
            raise ValueError("expansion_order must be >= 1")
        if not (0 < self.contour_radius < 0.5):
            raise ValueError("contour_radius must lie in (0, 1/2)")
        if self.contour_nodes < 16:
            raise ValueError("contour_nodes must be >= 16")

    @classmethod
    def default(cls, **overrides):
        """Default config with the given fields overridden."""
        return cls(**overrides)

    @property
    def internal_dps(self):
        return self.working_digits + GUARD_DIGITS

    @property
    def target_abs_error(self):
        """Contract bound for point values: 10^-(working_digits - 2)."""
        return 10.0 ** (-(self.working_digits - 2))

    def for_orbit_size(self, n):
        """Same config with expansion_order raised to at least n + 3."""
        if self.expansion_order >= n + 3:
            return self
        return PrecisionConfig(
            working_digits=self.working_digits,
            expansion_order=n + 3,
            contour_radius=self.contour_radius,
            contour_nodes=self.contour_nodes,
        )

    def to_json(self):
        return {
            "working_digits": self.working_digits,
            "expansion_order": self.expansion_order,
            "contour_radius": self.contour_radius,
            "contour_nodes": self.contour_nodes,
        }

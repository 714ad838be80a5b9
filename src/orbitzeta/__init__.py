"""Nilpotent orbit zeta products, residues at the origin, and truncation cones.

The package has four mathematical layers and a command-line front end:

- partitions: partition/Young-diagram combinatorics and orbit induction;
- xi_algebra: exact symbolic products of completed-zeta factors xi(a + b*s),
  per-orbit products, weighted class sums, and the formal log identity;
- xinumeric: arbitrary-precision evaluation, Laurent expansion at s = 0,
  residues, and formal cancellation certificates;
- truncation: an exact rational model of degree instability, canonical
  destabilizing pairs, cone partitions, and the indicator-function identities
  they satisfy.
"""

__version__ = "0.1.0"

from .partitions import (
    Cell,
    LeviOrbitClass,
    Partition,
    YoungDiagram,
    enumerate_classes,
    induce,
    partitions_of,
    young_stats,
)
from .xi_algebra import (
    OrbitSeries,
    XiExpression,
    XiFactor,
    h_orbit,
    orbit_series_log,
    series_log,
    xi_expr_equal,
    z_levi,
    z_orbit,
    z_series,
)

__all__ = [
    "__version__",
    "Cell",
    "LeviOrbitClass",
    "Partition",
    "YoungDiagram",
    "enumerate_classes",
    "induce",
    "partitions_of",
    "young_stats",
    "OrbitSeries",
    "XiExpression",
    "XiFactor",
    "h_orbit",
    "orbit_series_log",
    "series_log",
    "xi_expr_equal",
    "z_levi",
    "z_orbit",
    "z_series",
]

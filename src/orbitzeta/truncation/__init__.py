"""Exact rational truncation combinatorics for block decompositions.

roots: compositions, standard and semi-standard block data, rearrangement
enumeration, the half-sums, and the SubsetTable whose one pairing every
root and weight sign test reads, with each type's table keys.
instability: degrees of instability, canonical destabilizing pairs,
chamber cones, and extremal maximizers.  indicators: the step functions
built from root pairings and their alternating-sum identities.  sampling:
seeded bulk verification sweeps over random rational points.
"""

from .indicators import (
    ArthurReport,
    arthur_partition_report,
    e_sum_terms,
    indicator_chi,
    indicator_E,
    indicator_sigma,
    indicator_tau,
    indicator_tau_hat,
    langlands_sum,
    levi_sum_tau_hat,
)
from .instability import (
    CanonicalPair,
    ExtremalPair,
    block_degree,
    canonical_pair,
    canonical_pair_brute,
    cone_accepts,
    cone_membership,
    degree_instability,
    extremal_max_pair,
    indicator_F,
    pair_pairing,
)
from .roots import (
    SemiStandardParabolic,
    StandardParabolic,
    WallError,
    WallTie,
    arrangements,
    as_exact,
    coarsenings_of,
    compositions,
    epsilon_between,
    group,
    minimal_parabolic,
    ordered_set_partitions,
    refinements_within,
    semistandard_all,
    standard_parabolics,
)
from .sampling import (
    VerifyReport,
    full_suite,
    verify_E,
    verify_canonical,
    verify_cones,
    verify_langlands,
    verify_levi_sum,
    verify_partition,
    verify_sigma,
)

__all__ = [name for name in dir() if not name.startswith("_")]

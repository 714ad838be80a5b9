"""Indicator functions and the alternating-sum identities built from them.

Every indicator reads only block sums of an exact point, through pairings
scaled by positive block sizes, compared strictly or weakly against zero.
On an integer point (every point the sweeps draw, once cleared) these are
integer sign tests; on a rational one the same comparisons run on exact
Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instability import arranged_semistable, indicator_F, subset_sums
from .roots import (
    WallError,
    arranged_pairs,
    as_exact,
    coarsening_splits,
    consecutive_root_gaps,
    epsilon_between,
    leading_sums,
    relative_weight_gaps,
    root_gaps,
    run_totals,
)

__all__ = [
    "indicator_tau",
    "indicator_tau_hat",
    "indicator_chi",
    "indicator_E",
    "e_sum_terms",
    "indicator_sigma",
    "langlands_sum",
    "levi_sum_tau_hat",
    "ordering_gaps",
    "arthur_partition_check",
    "arthur_partition_report",
    "ArthurReport",
    "indicator_F",
]


def _check_length(H, n):
    if len(H) != n:
        raise ValueError("point has %d coordinates, expected %d" % (len(H), n))


def _split_sums(P, Q, H):
    """P.split_by(Q) and P's block sums of the exact point H, after
    checking that P refines Q and that H has Q.n coordinates."""
    try:
        subs = P.split_by(Q)
    except ValueError:
        raise ValueError("%s does not refine %s" % (P, Q)) from None
    _check_length(H, Q.n)
    return subs, P.block_sums(H)


def indicator_tau(P, Q, H):
    """1 iff every simple-root pairing of P relative to Q is > 0: block
    averages strictly decrease within each ambient block."""
    subs, sums = _split_sums(P, Q, as_exact(H))
    return 1 if all(g > 0 for g in consecutive_root_gaps(subs, sums)) else 0


def indicator_tau_hat(P, Q, H):
    """1 iff every fundamental-weight pairing of P relative to Q is > 0:
    each leading partial block sum strictly exceeds its proportional share
    of the ambient block total."""
    subs, sums = _split_sums(P, Q, as_exact(H))
    return 1 if all(g > 0 for g in relative_weight_gaps(subs, sums)) else 0


def indicator_chi(P, Q, H):
    """1 iff the leading sub-block coordinate sum in each ambient block
    is <= 0 (the scaled leading-weight pairing)."""
    subs, sums = _split_sums(P, Q, as_exact(H))
    return 1 if all(s <= 0 for s in leading_sums(subs, sums)) else 0


def e_sum_terms(Q, H):
    """Contributing pairs of the structured slope-truncation sum.

    A pair (refinement P, arrangement) contributes when the rearranged
    point is semistable for P's blocks, the arranged block averages
    strictly decrease within each Q-block, and each Q-block's leading
    arranged sum is <= 0.  At most one pair can contribute; callers
    assert that.
    """
    H = as_exact(H)
    _check_length(H, Q.n)
    return [
        (P, arr)
        for P, subs, arr, sums in arranged_pairs(Q, H)
        if all(g > 0 for g in consecutive_root_gaps(subs, sums))
        and all(s <= 0 for s in leading_sums(subs, sums))
        and arranged_semistable(arr, H)
    ]


def _e_subsets(Q, H):
    """Literal closure criterion: inside each block of Q every nonempty
    index subset must have coordinate sum <= 0."""
    H = as_exact(H)
    return all(s <= 0 for a, b in Q.intervals for _, s in subset_sums(H[a:b]))


def indicator_E(Q, H):
    """Slope truncation indicator, computed two ways and cross-checked.

    The structured sum over (refinement, arrangement) pairs must have at
    most one contributing term, and its count must equal the literal
    subset-closure criterion per block; the agreement is a theorem, so
    either failure raises ArithmeticError as an implementation bug.
    """
    terms = e_sum_terms(Q, H)
    if len(terms) > 1:
        raise ArithmeticError("structured sum produced %d overlapping terms" % len(terms))
    by_sum = len(terms)
    by_subsets = 1 if _e_subsets(Q, H) else 0
    if by_sum != by_subsets:
        raise ArithmeticError(
            "the two routes disagree: sum=%d subsets=%d" % (by_sum, by_subsets)
        )
    return by_sum


def indicator_sigma(P1, P2, H):
    """Alternating sum over coarsenings P of P2 of
    sign(P2,P) * tau(P1 within P) * tau_hat(P within G).

    Lands in {0,1}; the test suite asserts that range, the function
    returns the raw integer.  P's block sums are run totals of P1's.
    """
    H = as_exact(H)
    if not P1.refines(P2):
        raise ValueError("%s does not refine %s" % (P1, P2))
    _check_length(H, P2.n)
    sums = P1.block_sums(H)
    total = 0
    for P, subs in coarsening_splits(P1, P2):
        if all(g > 0 for g in consecutive_root_gaps(subs, sums)) and all(
            g > 0 for g in relative_weight_gaps((P.blocks,), run_totals(subs, sums))
        ):
            total += epsilon_between(P2, P)
    return total


def langlands_sum(P, H):
    """Alternating sum over coarsenings Q of P of
    sign(P,Q) * tau_hat(P within Q) * tau(Q within G); identically 0 for
    P a proper decomposition.  Q's block sums are run totals of P's."""
    H = as_exact(H)
    if P.r < 2:
        raise ValueError("the sum needs a proper decomposition")
    _check_length(H, P.n)
    sums = P.block_sums(H)
    total = 0
    for Q, subs in coarsening_splits(P, P):
        if all(g > 0 for g in relative_weight_gaps(subs, sums)) and all(
            g > 0 for g in root_gaps(Q.blocks, run_totals(subs, sums))
        ):
            total += epsilon_between(P, Q)
    return total


def ordering_gaps(sizes, sums):
    """(order, weight pairings inside the one-block group) per ordering of
    the blocks; the sums may be exact numbers or int64 sample columns."""
    for order in itertools.permutations(range(len(sizes))):
        # the ordered blocks inside the one-block group: the split is one run
        subs = (tuple(sizes[u] for u in order),)
        yield order, relative_weight_gaps(subs, tuple(sums[u] for u in order))


def levi_sum_tau_hat(M, H):
    """Count the block orderings whose weight pairings are all strictly
    positive; equals (r-1)! off walls for r blocks.

    H must be constant on each block of M.  A vanishing pairing in any
    ordering puts H on a wall: WallError, never a silent count.
    """
    H = as_exact(H)
    _check_length(H, M.n)
    for a, b in M.intervals:
        if any(H[i] != H[a] for i in range(a, b)):
            raise ValueError("point is not block-constant on %s" % (M,))
    count = 0
    for order, gaps in ordering_gaps(M.blocks, M.block_sums(H)):
        if 0 in gaps:
            raise WallError("ordering %r pairs to zero" % (order,))
        count += all(g > 0 for g in gaps)
    return count


@dataclass(frozen=True)
class ArthurReport:
    """Evaluations of the two partition identities at one point."""

    partition_sum: int
    semistable_direct: int
    semistable_alternating: int

    @property
    def ok(self):
        return self.partition_sum == 1 and (
            self.semistable_direct == self.semistable_alternating
        )

    def __bool__(self):
        return self.ok


def arthur_partition_report(Q, H):
    """Evaluate both partition identities at H.

    Identity one: over all (refinement, arrangement) pairs the terms
    [rearranged point semistable] * [arranged averages strictly decrease]
    sum to exactly 1.  Identity two: the semistability indicator of Q
    equals the signed sum over pairs of the weight indicators.
    """
    H = as_exact(H)
    _check_length(H, Q.n)
    partition_sum = 0
    alternating = 0
    for P, subs, arr, sums in arranged_pairs(Q, H):
        if all(g > 0 for g in consecutive_root_gaps(subs, sums)) and arranged_semistable(arr, H):
            partition_sum += 1
        if all(g > 0 for g in relative_weight_gaps(subs, sums)):
            alternating += epsilon_between(P, Q)
    return ArthurReport(
        partition_sum=partition_sum,
        semistable_direct=indicator_F(Q, H),
        semistable_alternating=alternating,
    )


def arthur_partition_check(Q, H):
    """True iff both partition identities hold exactly at H."""
    return arthur_partition_report(Q, H).ok

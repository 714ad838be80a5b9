"""Indicator functions and the alternating-sum identities built from them.

Every indicator and identity body evaluates its type's roots.SignPlan once
per call and returns arrays whose first axis runs over its terms, from an
exact point or from a tuple of int64 sample columns alike (then with a
second axis over the samples, the plan's packed verdicts unpacked once;
e_pair_tests keeps them packed, for sampling to count); the public
functions read it on one point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .instability import subset_sums
from .roots import (
    WallError,
    _pairs_below,
    as_exact,
    coarsening_plan,
    constancy_tests,
    leading_tests,
    ordering_plan,
    partition_plan,
    root_tests,
    slope_plan,
    type_plan,
    weight_tests,
)
from .verdicts import unpacked


def _check_length(H, n):
    if len(H) != n:
        raise ValueError("point has %d coordinates, expected %d" % (len(H), n))


def _type_test(P, Q, tests, H):
    """1 iff the tests of P relative to Q (roots.type_plan) hold at the
    exact point, after checking that P refines Q and that H has Q.n
    coordinates."""
    H, plan = as_exact(H), type_plan(P, Q, tests)  # split_by refuses a non-refinement
    _check_length(H, Q.n)
    return int(plan.holds(H)[0])


def indicator_tau(P, Q, H):
    """1 iff every simple-root pairing of P relative to Q is > 0: block
    averages strictly decrease within each ambient block."""
    return _type_test(P, Q, root_tests, H)


def indicator_tau_hat(P, Q, H):
    """1 iff every fundamental-weight pairing of P relative to Q is > 0:
    the average of each leading run of blocks strictly exceeds the
    ambient block's average."""
    return _type_test(P, Q, weight_tests, H)


def indicator_chi(P, Q, H):
    """1 iff the leading sub-block coordinate sum in each ambient block
    is <= 0 (the scaled leading-weight pairing)."""
    return _type_test(P, Q, leading_tests, H)


def e_pair_tests(Q, H):
    """Per pair (P, arrangement) below Q (roots.slope_plan), whether it
    contributes to the structured slope-truncation sum (its chamber tests
    hold and each Q-block's leading sum is <= 0), packed along the
    samples (verdicts.packed): a row of bytes per pair."""
    return slope_plan(Q).evaluate(H)


def e_sum_terms(Q, H):
    """Contributing pairs (P, arrangement) of the structured
    slope-truncation sum (e_pair_tests), named by roots._pairs_below.  At
    most one pair can contribute; callers assert that."""
    H = as_exact(H)
    _check_length(H, Q.n)
    return list(itertools.compress(_pairs_below(Q), unpacked(e_pair_tests(Q, H), 1)[:, 0]))


def e_subset_tests(Q, H):
    """Literal closure criterion: inside each block of Q every nonempty
    index subset must have coordinate sum <= 0, one test per subset.  The
    singletons are subsets, so for every Q this, and indicator_E(Q, H), is
    "every coordinate <= 0": the sandwich's lower and middle sides agree."""
    return (s <= 0 for a, b in Q.intervals for _, s in subset_sums(H[a:b]))


def e_verdict(by_sum, by_subsets):
    """The slope indicator from its two routes' values at one point.

    The structured sum over (refinement, arrangement) pairs must have at
    most one contributing term (by_sum counts them), and its count must
    equal the literal subset-closure criterion per block (by_subsets, 0 or
    1); the agreement is a theorem, so either failure raises
    ArithmeticError as an implementation bug.
    """
    if by_sum > 1:
        raise ArithmeticError("structured sum produced %d overlapping terms" % by_sum)
    if by_sum != by_subsets:
        raise ArithmeticError("the two routes disagree: sum=%d subsets=%d" % (by_sum, by_subsets))
    return by_sum


def indicator_E(Q, H):
    """Slope truncation indicator, computed two ways and cross-checked by
    e_verdict."""
    terms = e_sum_terms(Q, H)
    return e_verdict(len(terms), 1 if all(e_subset_tests(Q, as_exact(H))) else 0)


def signed_count(terms):
    """The sum of the signs of the (signs, holds) terms that hold: at a
    point, or per sample on columns."""
    signs, holds = terms
    return signs @ holds


def sigma_terms(P1, P2, H):
    """indicator_sigma's (signs, holds) per coarsening P of P2
    (roots.coarsening_plan): tau(P1 within P) * tau_hat(P within G)."""
    plan = coarsening_plan(P1, P2, root_tests, weight_tests)
    return plan.signs, plan.holds(H)


def indicator_sigma(P1, P2, H):
    """Alternating sum over coarsenings P of P2 of
    sign(P2,P) * tau(P1 within P) * tau_hat(P within G).

    Lands in {0,1}; the test suite asserts that range, the function
    returns the raw integer.
    """
    H = as_exact(H)
    if not P1.refines(P2):
        raise ValueError("%s does not refine %s" % (P1, P2))
    _check_length(H, P2.n)
    return int(signed_count(sigma_terms(P1, P2, H)))


def langlands_terms(P, H):
    """langlands_sum's (signs, holds) per coarsening Q of P
    (roots.coarsening_plan): tau_hat(P within Q) * tau(Q within G)."""
    plan = coarsening_plan(P, P, weight_tests, root_tests)
    return plan.signs, plan.holds(H)


def langlands_sum(P, H):
    """Alternating sum over coarsenings Q of P of
    sign(P,Q) * tau_hat(P within Q) * tau(Q within G); identically 0 for
    P a proper decomposition."""
    H = as_exact(H)
    if P.r < 2:
        raise ValueError("the sum needs a proper decomposition")
    _check_length(H, P.n)
    return int(signed_count(langlands_terms(P, H)))


def levi_sum_tau_hat(M, H):
    """Count the block orderings whose weight pairings are all strictly
    positive; equals (r-1)! off walls for r blocks.

    H must be constant on each block of M.  A vanishing pairing in any
    ordering puts H on a wall: WallError, never a silent count.
    """
    H = as_exact(H)
    _check_length(H, M.n)
    if not blocks_constant(M, H):
        raise ValueError("point is not block-constant on %s" % (M,))
    plan, orders = ordering_plan(M), math.factorial(M.r)
    holds = plan.holds(H)
    walls = holds[orders:].nonzero()[0]
    if len(walls):  # the wall terms test the operator.eq tests, in order
        _, S, _ = [test for test in plan.tests if test[0] is operator.eq][walls[0]]
        raise WallError("the blocks before a cut, index set %r, pair to zero" % (S,))
    return int(holds[:orders].sum())


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


def partition_terms(Q, H):
    """(chamber holds, signs, weight holds) per pair below Q
    (roots.partition_plan): identity one counts the pairs whose chamber
    tests all hold, identity two sums the signs of those whose weight gaps
    all hold."""
    plan = partition_plan(Q)
    holds, pairs = plan.holds(H), len(plan.signs) // 2
    return holds[:pairs], plan.signs[pairs:], holds[pairs:]


def blocks_constant(Q, H):
    """Q-semistability: each block of Q carries one value (indicator_F's
    degree route gives the same verdict), at a point or per sample."""
    return type_plan(Q, Q, constancy_tests).holds(H)[0]


def arthur_partition_report(Q, H):
    """Evaluate both partition identities at H.

    Identity one: over all (refinement, arrangement) pairs the terms
    [rearranged point semistable] * [arranged averages strictly decrease]
    sum to exactly 1.  Identity two: the semistability indicator of Q
    equals the signed sum over pairs of the weight indicators.
    """
    H = as_exact(H)
    _check_length(H, Q.n)
    chambers, signs, weights = partition_terms(Q, H)
    return ArthurReport(
        partition_sum=int(chambers.sum()),
        semistable_direct=int(blocks_constant(Q, H)),
        semistable_alternating=int(signs @ weights),
    )

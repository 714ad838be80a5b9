"""Indicator functions and the alternating-sum identities built from them.

Every indicator reads its sign tests as keys of one roots.SubsetTable per
call: gap(S, T) for a root or weight pairing, nonpositive(S) for a leading
sum, constant(S) for semistability.  On an integer point (every point the
sweeps draw, once cleared) these are integer sign tests; on a rational one
the same comparisons run on exact Fractions.

Each identity's body (the *_terms and *_tests generators) yields its signs
and tests lazily, from a point or a tuple of int64 sample columns alike;
the public functions read it on one exact point with short-circuiting all().
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instability import chamber_tests, subset_sums
from .roots import (
    SubsetTable,
    WallError,
    arranged_pairs,
    as_exact,
    block_sets,
    coarsening_splits,
    epsilon_between,
    ordering_keys,
    root_keys,
    runs,
    weight_keys,
)


def _check_length(H, n):
    if len(H) != n:
        raise ValueError("point has %d coordinates, expected %d" % (len(H), n))


def _type_table(P, Q, H):
    """P.split_by(Q), P's index sets and a SubsetTable of the exact point,
    after checking that P refines Q and that H has Q.n coordinates."""
    H = as_exact(H)
    try:
        subs = P.split_by(Q)
    except ValueError:
        raise ValueError("%s does not refine %s" % (P, Q)) from None
    _check_length(H, Q.n)
    return subs, block_sets(P), SubsetTable(H)


def indicator_tau(P, Q, H):
    """1 iff every simple-root pairing of P relative to Q is > 0: block
    averages strictly decrease within each ambient block."""
    subs, sets, table = _type_table(P, Q, H)
    return 1 if all(itertools.starmap(table.gap, root_keys(subs, sets))) else 0


def indicator_tau_hat(P, Q, H):
    """1 iff every fundamental-weight pairing of P relative to Q is > 0:
    the average of each leading run of blocks strictly exceeds the
    ambient block's average."""
    subs, sets, table = _type_table(P, Q, H)
    return 1 if all(itertools.starmap(table.gap, weight_keys(subs, sets))) else 0


def indicator_chi(P, Q, H):
    """1 iff the leading sub-block coordinate sum in each ambient block
    is <= 0 (the scaled leading-weight pairing)."""
    subs, sets, table = _type_table(P, Q, H)
    return 1 if all(table.nonpositive(run[0]) for run in runs(sets, map(len, subs))) else 0


def e_pair_tests(Q, H):
    """(P, arrangement, tests) per pair below Q, in arranged_pairs order.

    The pair contributes to the structured slope-truncation sum when every
    test holds: its chamber tests, and each Q-block's leading arranged sum
    is <= 0.
    """
    for P, subs, arr, table in arranged_pairs(Q, H):
        leading = (sets[0] for sets in runs(arr, map(len, subs)))
        yield P, arr, itertools.chain(chamber_tests(subs, arr, table),
                                      map(table.nonpositive, leading))


def e_sum_terms(Q, H):
    """Contributing pairs of the structured slope-truncation sum
    (e_pair_tests).  At most one pair can contribute; callers assert that.
    """
    H = as_exact(H)
    _check_length(H, Q.n)
    return [(P, arr) for P, arr, tests in e_pair_tests(Q, H) if all(tests)]


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


def _coarsening_terms(finer, base, inner, outer, H):
    """(sign(base,Q), tests) per coarsening Q of base: Q's term counts when
    every test holds, the gaps of the inner keys (root_keys or weight_keys)
    of finer within Q and then of the outer ones of Q within the group."""
    table = SubsetTable(H)
    for Q, subs in coarsening_splits(finer, base):
        keys = itertools.chain(inner(subs, block_sets(finer)), outer((Q.blocks,), block_sets(Q)))
        yield epsilon_between(base, Q), itertools.starmap(table.gap, keys)


def _signed_sum(terms):
    return sum(sign for sign, tests in terms if all(tests))


def sigma_terms(P1, P2, H):
    """indicator_sigma's terms: tau(P1 within P) * tau_hat(P within G)."""
    return _coarsening_terms(P1, P2, root_keys, weight_keys, H)


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
    return _signed_sum(sigma_terms(P1, P2, H))


def langlands_terms(P, H):
    """langlands_sum's terms: tau_hat(P within Q) * tau(Q within G)."""
    return _coarsening_terms(P, P, weight_keys, root_keys, H)


def langlands_sum(P, H):
    """Alternating sum over coarsenings Q of P of
    sign(P,Q) * tau_hat(P within Q) * tau(Q within G); identically 0 for
    P a proper decomposition."""
    H = as_exact(H)
    if P.r < 2:
        raise ValueError("the sum needs a proper decomposition")
    _check_length(H, P.n)
    return _signed_sum(langlands_terms(P, H))


def levi_sum_tau_hat(M, H):
    """Count the block orderings whose weight pairings are all strictly
    positive; equals (r-1)! off walls for r blocks.

    H must be constant on each block of M.  A vanishing pairing in any
    ordering puts H on a wall: WallError, never a silent count.
    """
    H = as_exact(H)
    _check_length(H, M.n)
    if not all(blocks_constant(M, H)):
        raise ValueError("point is not block-constant on %s" % (M,))
    table, count = SubsetTable(H), 0
    for order, keys in ordering_keys(M):
        pairings = list(itertools.starmap(table.pairing, keys))
        if 0 in pairings:
            raise WallError("ordering %r pairs to zero" % (order,))
        count += all(p > 0 for p in pairings)
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


def partition_terms(Q, H):
    """(chamber tests, sign(P,Q), weight tests) per pair below Q: identity
    one counts the pairs whose chamber tests all hold, identity two sums
    the signs of those whose weight gaps all hold."""
    for P, subs, arr, table in arranged_pairs(Q, H):
        weights = itertools.starmap(table.gap, weight_keys(subs, arr))
        yield chamber_tests(subs, arr, table), epsilon_between(P, Q), weights


def blocks_constant(Q, H):
    """Q-semistability as one test per block of Q: it carries one value
    (indicator_F's degree route gives the same verdict)."""
    return map(SubsetTable(H).constant, [tuple(range(a, b)) for a, b in Q.intervals])


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
    for tests, sign, weights in partition_terms(Q, H):
        partition_sum += all(tests)
        if all(weights):
            alternating += sign
    return ArthurReport(
        partition_sum=partition_sum,
        semistable_direct=1 if all(blocks_constant(Q, H)) else 0,
        semistable_alternating=alternating,
    )

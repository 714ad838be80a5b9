"""Instability degrees, canonical destabilizing pairs, and chamber cones.

The degree of a point relative to a block decomposition is the largest
half-sum pairing over refinements and rearrangements.  Sorting a block in
descending order and grouping equal values realizes the maximum, which is
what the fast paths below exploit; the brute-force enumerations stay
available as the oracles they are tested against, each pair's doubled
pairing one integer form (roots.pairing_plan).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .roots import (
    SemiStandardParabolic,
    StandardParabolic,
    WallTie,
    _pairs_below,
    as_exact,
    cleared,
    cone_plan,
    cones_plan,
    doubled_half_sums,
    doubled_relative_rho,
    form_values,
    group,
    pair_merges,
    pairing_plan,
    runs,
)
from .verdicts import fold, packed, packed_cells, unpacked

MAX_SUBSET_BLOCK = 22  # 2^22 subset scans are the ceiling for literal routes


def subset_sums(values):
    """(index subset, coordinate sum) for every nonempty subset of values,
    smaller subsets first, each size in lexicographic order.

    A literal 2^m scan, refused beyond MAX_SUBSET_BLOCK values.
    """
    m = len(values)
    if m > MAX_SUBSET_BLOCK:
        raise ValueError("block too large for literal subset scan")
    for size in range(1, m + 1):
        for T in itertools.combinations(range(m), size):
            yield T, sum(map(values.__getitem__, T))


def _value_classes(values):
    """Index sets of equal coordinates, largest value first, each ascending."""
    # a stable sort keeps ascending indices among equal values
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return tuple(tuple(c) for _, c in itertools.groupby(order, key=values.__getitem__))


def block_degree(values):
    """Instability degree of a single block: half-sum pairing of the
    descending value-class rearrangement.

    Equal values are grouped; each class of size m at value v sitting
    between `before` earlier and `after` later coordinates contributes
    (after - before)/2 * m * v.  Always >= 0; zero iff the block is
    constant.
    """
    return Fraction(_doubled_block_degree(as_exact(values)), 2)


def _doubled_block_degree(vals):
    """Twice block_degree of exact values."""
    classes = _value_classes(vals)
    rho2 = doubled_half_sums(tuple(len(c) for c in classes))
    return sum(r * len(c) * vals[c[0]] for r, c in zip(rho2, classes))


def _rho_pairing(rho2, sums):
    """Doubled half-sum values against block sums: sum of rho2_j * s_j,
    twice the half-sum pairing."""
    return sum(map(operator.mul, rho2, sums))


def pair_pairing(P, Q, arrangement, H):
    """Half-sum pairing <rho_P^Q, sums of the rearranged point>."""
    sums = [sum(map(H.__getitem__, S)) for S in arrangement]
    return Fraction(_rho_pairing(doubled_relative_rho(P.split_by(Q)), sums), 2)


def degree_instability(Q, H):
    """Largest half-sum pairing over refinements of Q and rearrangements.

    The trivial pair (pairing 0) is admitted, so the degree is >= 0 and
    vanishes exactly on the Q-semistable points (each Q-block constant).
    """
    H = as_exact(H)
    if len(H) != Q.n:
        raise ValueError("point has %d coordinates, expected %d" % (len(H), Q.n))
    return Fraction(sum(_doubled_block_degree(H[a:b]) for a, b in Q.intervals), 2)


def indicator_F(P, H):
    """Semistability indicator: 1 iff the instability degree within each
    block is <= 0, i.e. every block of the point is constant."""
    return 1 if degree_instability(P, H) <= 0 else 0


@dataclass(frozen=True)
class CanonicalPair:
    """Destabilizing data of a point: block type, index assignment, degree.

    weyl is the minimal coset representative as a one-line permutation; its
    consecutive runs of the type's lengths are the index blocks, each
    ascending.
    """

    parabolic: StandardParabolic
    weyl: tuple
    degree: Fraction

    @property
    def blocks(self):
        return tuple(runs(self.weyl, self.parabolic.blocks))


def canonical_pair(H):
    """The unique maximal maximizing pair, built from value classes.

    Group coordinates by value, classes in descending value order: the
    class sizes are the block type, the class index sets (ascending inside
    each class) concatenate to the permutation, and the degree is the
    half-sum pairing of the sorted point.  The pair's chamber conditions
    are re-verified exactly before returning: each class carries one
    value, and the class values, so the averages, strictly decrease.
    """
    H = as_exact(H)
    if not H:
        raise ValueError("empty point")
    blocks = _value_classes(H)
    values = [H[S[0]] for S in blocks]
    if (any(H[i] != v for S, v in zip(blocks, values) for i in S)
            or any(a <= b for a, b in zip(values, values[1:]))):
        raise AssertionError("value-class pair failed its defining conditions")
    P = StandardParabolic(tuple(map(len, blocks)))
    degree = pair_pairing(P, group(len(H)), blocks, H)
    return CanonicalPair(P, tuple(itertools.chain(*blocks)), degree)


def _maximal_maximizers(H):
    """Twice the largest half-sum pairing (form_values of pairing_plan's
    forms), and per pair in pairing_plan order whether it attains it while
    none of its proper merges (roots.pair_merges) does, the merges folded
    on packed hits; at an integer point, or per sample on a tuple of int64
    columns."""
    ds = form_values(pairing_plan(group(len(H)))[1], H)
    best = ds.max(axis=0)
    hits = (ds == best).reshape(len(ds), -1)  # a point is one sample
    bits = packed(hits)
    flags = unpacked(bits & ~fold(np.bitwise_or, bits, pair_merges(len(H))), hits.shape[1])
    return best, flags.reshape(ds.shape)


def maximizer_width(n):
    """Cells of 8 bytes per sample that _maximal_maximizers holds at once
    on columns: the operand, per pair its doubled pairing, its hit folded
    over its merges (verdicts.packed_cells), and a byte and two bits for its
    flag, packed and unpacked."""
    pairs = len(pairing_plan(group(n))[1])
    return n + pairs + packed_cells(pairs, pair_merges(n)) + -(-10 * pairs // 64)


def _select_pair(n, best, survivors):
    """The canonical pair from _maximal_maximizers' doubled maximum and
    survivor flags, named by roots._pairs_below; WallTie unless exactly
    one pair survives."""
    found = list(itertools.compress(_pairs_below(group(n)), survivors))
    if len(found) != 1:
        raise WallTie("%d maximal maximizers at degree %s" % (len(found), Fraction(best, 2)))
    P, arr = found[0]
    return CanonicalPair(P, tuple(itertools.chain.from_iterable(arr)), Fraction(best, 2))


def canonical_pair_brute(H):
    """Definitional canonical pair: maximize the half-sum pairing over all
    pairs, then keep the maximizers none of whose proper merges attains the
    maximum.  Raises WallTie if that filter leaves more than one pair.

    Exponential in n; this is the oracle the fast construction is tested
    against.  The point is cleared to integers (roots.cleared) once.
    """
    scale, H = cleared(as_exact(H))
    best, survivors = _maximal_maximizers(H)
    return _select_pair(len(H), Fraction(best, scale), survivors)


def cone_tests(prime, H):
    """Whether the point lies in the chamber cone of the ordered index
    partition (roots.cone_plan), at a point or per sample on a tuple of
    sample columns."""
    return cone_plan(prime).holds(H)[0]


def all_cone_tests(n, H):
    """Per ordered index partition of n indices, in semistandard_all
    order, whether the point lies in its chamber cone (roots.cones_plan):
    cone_tests of every partition from one plan."""
    return cones_plan(n).holds(H)


def cone_accepts(prime, H):
    """True iff the exact point passes every cone_tests test."""
    return bool(cone_tests(prime, as_exact(H)))


def cone_membership(H):
    """The unique ordered index partition whose cone contains the point.

    Construction: value classes in descending order.  Existence and
    uniqueness against the literal acceptance test are exercised
    exhaustively in the test suite, including on walls.
    """
    pair = canonical_pair(H)
    return SemiStandardParabolic(pair.blocks)


@dataclass(frozen=True)
class ExtremalPair:
    """Largest leading-weight maximizer: a two-block type (or the full
    group) with the index set assigned to its first block."""

    parabolic: StandardParabolic
    first_block: tuple
    value: Fraction


def _extremal_maximizers(H, top):
    """Per size k the largest sum of k coordinates (top: max, or the columns'
    maximum), and per subset in subset_sums order whether it attains the
    largest average at the largest size that does.  Size k does iff
    tops[k]/k >= tops[j]/j for every size j, strictly for j > k."""
    sums = list(subset_sums(H))
    tops = [top([s for T, s in sums if len(T) == k]) for k in range(1, len(H) + 1)]
    # averages cross-multiplied by the positive sizes
    largest = [reduce(operator.and_, (a * j > b * k if j > k else a * j >= b * k
                                      for j, b in enumerate(tops, 1)))
               for k, a in enumerate(tops, 1)]
    return tops, [(T, largest[len(T) - 1] & (s == tops[len(T) - 1])) for T, s in sums]


def extremal_max_pair(H):
    """Maximize the leading-block average over all index subsets.

    Candidates are every nonempty subset (two-block type (k, n-k)) plus
    the full set (the one-block type).  Among maximizers of the average
    the largest subset wins; maximizers are closed under union, so that
    largest one is unique.  WallTie guards the impossible tie anyway.
    """
    H = as_exact(H)
    tops, flags = _extremal_maximizers(H, max)
    winners = [T for T, win in flags if win]
    k, n = max(map(len, winners)), len(H)
    if len(winners) != 1:
        raise WallTie("%d extremal maximizers of size %d" % (len(winners), k))
    P = group(n) if k == n else StandardParabolic((k, n - k))
    return ExtremalPair(parabolic=P, first_block=winners[0], value=Fraction(tops[k - 1], k))

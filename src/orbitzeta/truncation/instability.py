"""Instability degrees, canonical destabilizing pairs, and chamber cones.

The degree of a point relative to a block decomposition is the largest
half-sum pairing over refinements and rearrangements.  Sorting a block in
descending order and grouping equal values realizes the maximum, which is
what the fast paths below exploit; the brute-force enumerations stay
available as the oracles they are tested against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .roots import (
    SemiStandardParabolic,
    StandardParabolic,
    SubsetTable,
    WallTie,
    arranged_pairs,
    as_exact,
    coarsening_splits,
    doubled_half_sums,
    doubled_relative_rho,
    group,
    runs,
)

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
    sums = map(SubsetTable(H).sum, arrangement)
    return Fraction(_rho_pairing(doubled_relative_rho(P.split_by(Q)), sums), 2)


def _doubled_pairs(Q, H):
    """(refinement, arrangement, doubled pairing) below Q, in arranged_pairs
    order, at an exact point or on a tuple of sample columns."""
    for P, subs, arr, table in arranged_pairs(Q, H):
        yield P, arr, _rho_pairing(doubled_relative_rho(subs), map(table.sum, arr))


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


def chamber_tests(subs, arr, table):
    """A pair's arranged block averages strictly decrease within each
    Q-block (subs = P.split_by(Q), arr the index set per P-block), and the
    rearranged point is semistable for P's blocks: each test read from the
    call's SubsetTable."""
    for sets in runs(arr, map(len, subs)):
        yield from map(table.gap, sets, sets[1:])
    yield from (table.constant(S) for S in arr if len(S) > 1)


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

    def to_json(self):
        return {
            "type": list(self.parabolic.blocks),
            "weyl": list(self.weyl),
            "degree": {"num": self.degree.numerator, "den": self.degree.denominator},
        }


def canonical_pair(H):
    """The unique maximal maximizing pair, built from value classes.

    Group coordinates by value, classes in descending value order: the
    class sizes are the block type, the class index sets (ascending inside
    each class) concatenate to the permutation, and the degree is the
    half-sum pairing of the sorted point.  The two characterizing
    conditions, the pair's chamber tests in the group (each assigned block
    constant, assigned block averages strictly decreasing), are re-verified
    exactly before returning.
    """
    H = as_exact(H)
    if not H:
        raise ValueError("empty point")
    blocks = _value_classes(H)
    P = StandardParabolic(tuple(len(S) for S in blocks))
    if not all(chamber_tests((P.blocks,), blocks, SubsetTable(H))):
        raise AssertionError("value-class pair failed its defining conditions")
    degree = pair_pairing(P, group(len(H)), blocks, H)
    return CanonicalPair(P, tuple(itertools.chain.from_iterable(blocks)), degree)


@lru_cache(maxsize=None)
def _pair_merges(n):
    """(P, arrangement, positions of its proper merges) per pair below the
    group of GL(n), in _doubled_pairs order.  A proper merge is again such a
    pair: a proper coarsening of P, the index sets of each run united."""
    pairs = [(P, arr) for P, arr, _ in _doubled_pairs(group(n), range(n))]
    at = {arr: i for i, (_, arr) in enumerate(pairs)}
    return tuple((P, arr, [at[tuple(tuple(sorted(itertools.chain(*run)))
                                    for run in runs(arr, map(len, subs)))]
                           for _, subs in coarsening_splits(P, P)[:-1]])  # [-1] is P itself
                 for P, arr in pairs)


def _maximal_maximizers(H, top):
    """Twice the largest half-sum pairing, and per pair in _doubled_pairs
    order whether it attains it while none of its proper merges does; at a
    point, or on a tuple of sample columns with top their maximum."""
    ds = [d for _, _, d in _doubled_pairs(group(len(H)), H)]
    best = top(ds)
    hits = [d == best for d in ds]
    # a hit (True, 1) exceeds the count of its merges' hits only when that is 0
    return best, [h > sum(hits[j] for j in m) for h, (*_, m) in zip(hits, _pair_merges(len(H)))]


def _select_pair(n, best, survivors):
    """The canonical pair from _maximal_maximizers' doubled maximum and
    survivor flags; WallTie unless exactly one pair survives."""
    found = list(itertools.compress(_pair_merges(n), survivors))
    if len(found) != 1:
        raise WallTie("%d maximal maximizers at degree %s" % (len(found), Fraction(best, 2)))
    P, arr, _ = found[0]
    return CanonicalPair(P, tuple(itertools.chain.from_iterable(arr)), Fraction(best, 2))


def canonical_pair_brute(H):
    """Definitional canonical pair: maximize the half-sum pairing over all
    pairs, then keep the maximizers none of whose proper merges attains the
    maximum.  Raises WallTie if that filter leaves more than one pair.

    Exponential in n; this is the oracle the fast construction is tested
    against.
    """
    H = as_exact(H)
    return _select_pair(len(H), *_maximal_maximizers(H, max))


def cone_tests(prime, H):
    """Literal chamber-cone membership tests for an ordered index partition,
    lazily, at a point or on a tuple of sample columns.

    Strictly decreasing block averages, and for every block S every
    nonempty proper subset T must have average <= S's, pairing(S, T) >= 0
    (each such subset is the leading group of some ordered refinement, and
    those exhaust the refinement weights; the full block passes trivially).
    """
    table = SubsetTable(H)
    yield from map(table.gap, prime.blocks, prime.blocks[1:])
    for S in prime.blocks:
        for k in range(1, len(S)):
            yield from (table.pairing(S, T) >= 0 for T in itertools.combinations(S, k))


def cone_accepts(prime, H):
    """True iff the exact point passes every cone_tests test."""
    return all(cone_tests(prime, as_exact(H)))


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

    def to_json(self):
        return {
            "type": list(self.parabolic.blocks),
            "first_block": list(self.first_block),
            "value": {"num": self.value.numerator, "den": self.value.denominator},
        }


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

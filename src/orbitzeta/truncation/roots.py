"""Exact rational root data for block decompositions of GL(n).

Points live in Q^n (one rational coordinate per basis line).  A standard
parabolic is a composition of n: consecutive index blocks.  A semi-standard
one is an ordered set partition: arbitrary index blocks in a given order.
A coset of permutations modulo the block-preserving subgroup is an
arrangement assigning index sets to blocks, the representation used
throughout.

Every root and weight sign test compares pairing(S, T) = s_S * |T| - s_T *
|S| with 0, s_S the coordinate sum over S: a simple root pairs adjacent
blocks of one ambient block, a fundamental weight the union of the blocks
before its cut with the whole ambient block (root_tests, weight_tests).
Each pairing is an integer linear form in the point: each identity lists
its tests once per type as the rows of a cached SignPlan (the *_plan
builders, next to _pairs_below), one matrix product (form_values) on an
exact point or on int64 sample columns, there in float64, exact below 2^53.
Points are exact (as_exact: Python ints, and Fractions where not integral).
Half-sums of radical roots are carried doubled, as the integers after -
before, and halved once where a public value is returned.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


class WallError(ValueError):
    """A pairing that must be strictly signed vanished exactly on this point."""


class WallTie(ValueError):
    """Two maximal maximizers exist; the point sits on a degeneracy wall."""


def compositions(n):
    """All compositions of n (ordered tuples of positive parts), 2^(n-1) many."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for cuts in range(1 << (n - 1)):
        # bit pos set: a part ends after coordinate pos
        ends = [pos + 1 for pos in range(n - 1) if cuts >> pos & 1] + [n]
        out.append(tuple(b - a for a, b in zip([0] + ends, ends)))
    return out


@dataclass(frozen=True)
class StandardParabolic:
    """Composition of n: consecutive index blocks of the given sizes."""

    blocks: tuple

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise ValueError("blocks must be positive, got %r" % (self.blocks,))
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))

    @property
    def n(self):
        return sum(self.blocks)

    @property
    def r(self):
        return len(self.blocks)

    @property
    def intervals(self):
        """Half-open index intervals (start, stop) per block."""
        return tuple((r.start, r.stop) for r in runs(range(self.n), self.blocks))

    def refines(self, other):
        """True when this composition splits each block of the other."""
        return self._split(other) is not None

    def split_by(self, coarser):
        """Sub-compositions of this refinement inside each block of coarser."""
        out = self._split(coarser)
        if out is None:
            raise ValueError("%r does not refine %r" % (self.blocks, coarser.blocks))
        return out

    def _split(self, coarser):
        """split_by's value, or None when this does not refine coarser: its
        cuts must be among this one's, at the same total."""
        ends, cuts = (list(itertools.accumulate(c.blocks)) for c in (self, coarser))
        if ends[-1] != cuts[-1] or not set(cuts) <= set(ends):
            return None
        stops = [ends.index(c) + 1 for c in cuts]
        return tuple(self.blocks[a:b] for a, b in zip([0] + stops, stops))

    def __str__(self):
        return "(" + ",".join(str(b) for b in self.blocks) + ")"


def group(n):
    """The full group as the one-block parabolic."""
    return StandardParabolic((n,))


def minimal_parabolic(n):
    return StandardParabolic((1,) * n)


@lru_cache(maxsize=None)
def standard_parabolics(n):
    """All standard parabolics of GL(n), coarsest-first deterministic order."""
    return tuple(
        StandardParabolic(c) for c in sorted(compositions(n), key=lambda c: (len(c), c))
    )


def refinements_within(coarser):
    """All standard parabolics refining the given one (itself included)."""
    return [StandardParabolic(tuple(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*(compositions(b) for b in coarser.blocks))]


def runs(items, lengths):
    """Consecutive runs of a sequence with the given lengths, lazily."""
    start = 0
    for m in lengths:
        yield items[start : start + m]
        start += m


@lru_cache(maxsize=None)
def coarsenings_of(finer):
    """All standard parabolics the given one refines (itself included).

    A coarsening merges runs of adjacent blocks; the run lengths range over
    compositions(finer.r), in that order.  Built once per parabolic.
    """
    return tuple(
        StandardParabolic(tuple(sum(run) for run in runs(finer.blocks, lengths)))
        for lengths in compositions(finer.r)
    )


@lru_cache(maxsize=None)
def coarsening_splits(finer, base):
    """(Q, finer.split_by(Q)) for each Q in coarsenings_of(base), where
    finer refines base.  Built once per pair."""
    return tuple((Q, finer.split_by(Q)) for Q in coarsenings_of(base))


@lru_cache(maxsize=None)
def block_sets(P):
    """P's blocks as ascending index tuples (its identity arrangement)."""
    return tuple(runs(tuple(range(P.n)), P.blocks))


def root_tests(subs, arr):
    """P's simple roots relative to Q, with subs = P.split_by(Q) and arr
    the index set per P-block: a gap, pairing(S, T) > 0, per adjacent sets
    S, T inside one Q-block."""
    return [(operator.gt, S, T)
            for sets in runs(arr, map(len, subs)) for S, T in zip(sets, sets[1:])]


def weight_tests(subs, arr):
    """P's fundamental weights relative to Q (subs and arr as in
    root_tests): per cut inside a Q-block, a gap of the union S of the sets
    before it against the whole Q-block T."""
    tests = []
    for sets in runs(arr, map(len, subs)):
        unions = list(itertools.accumulate(sets, lambda S, T: tuple(sorted(S + T))))
        tests += [(operator.gt, S, unions[-1]) for S in unions[:-1]]
    return tests


def leading_tests(subs, arr):
    """Each Q-block's leading arranged sum is <= 0 (subs and arr as in
    root_tests)."""
    return [(operator.le, sets[0], None) for sets in runs(arr, map(len, subs))]


def constancy_tests(subs, arr):
    """Each arranged set carries one value: each coordinate equals the
    set's first (subs and arr as in root_tests)."""
    return [(operator.eq, S[:1], (i,)) for S in arr for i in S[1:]]


def chamber_tests(subs, arr):
    """A pair's chamber tests (subs and arr as in root_tests): its arranged
    block averages strictly decrease within each Q-block, and each arranged
    set carries one value (the rearranged point is semistable for P)."""
    return root_tests(subs, arr) + constancy_tests(subs, arr)


@dataclass(frozen=True)
class SemiStandardParabolic:
    """Ordered set partition of {0..n-1}: arbitrary index blocks in order."""

    blocks: tuple  # tuple of tuples of ascending indices

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in blk)) for blk in self.blocks)
        seen = set()
        for blk in blocks:
            if not blk:
                raise ValueError("empty block")
            for i in blk:
                if i in seen:
                    raise ValueError("index %d repeated" % i)
                seen.add(i)
        if seen != set(range(len(seen))):
            raise ValueError("blocks must cover 0..n-1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self):
        return sum(len(b) for b in self.blocks)

    def to_json(self):
        return {"blocks": [list(b) for b in self.blocks]}

    def __str__(self):
        return "|".join("{%s}" % ",".join(str(i) for i in blk) for blk in self.blocks)


def ordered_set_partitions(indices, sizes):
    """All ways to split the index tuple into ordered parts of the given sizes."""
    indices = tuple(indices)
    if sum(sizes) != len(indices):
        raise ValueError("sizes must sum to the number of indices")
    if not sizes:
        return iter([()])
    return ((combo,) + rest for combo in itertools.combinations(indices, sizes[0])
            for rest in ordered_set_partitions([i for i in indices if i not in combo], sizes[1:]))


def arrangements(P, Q):
    """Cosets of block permutations: assignments of index sets to P's blocks.

    P must refine Q; each Q-block's indices are distributed among the
    P-blocks it contains.  Yields tuples of index tuples aligned with
    P.blocks.  For Q the full group this enumerates all ordered set
    partitions with part sizes P.blocks.
    """
    subs = P.split_by(Q)
    per_block = [
        list(ordered_set_partitions(range(a, b), sub))
        for (a, b), sub in zip(Q.intervals, subs)
    ]
    for combo in itertools.product(*per_block):
        yield tuple(itertools.chain.from_iterable(combo))


def semistandard_all(n):
    """Every ordered set partition of {0..n-1} (all semi-standard parabolics)."""
    return [SemiStandardParabolic(arr) for _, _, arr in _pairs_below(group(n))]


def _exact(h):
    try:
        return operator.index(h)
    except TypeError:
        q = Fraction(h)
        return q.numerator if q.denominator == 1 else q


def as_exact(point):
    """Validate and convert a point to exact coordinates.

    Integral values (ints, numpy integers, Fractions with denominator 1)
    become Python ints; every other value becomes a Fraction.
    """
    return tuple(_exact(h) for h in point)


@lru_cache(maxsize=None)
def _pairs_below(Q):
    """(P, P.split_by(Q), arrangement) per pair below Q: P over
    refinements_within(Q), the arrangement over arrangements(P, Q)."""
    return tuple((P, subs, arr) for P in refinements_within(Q) for subs in [P.split_by(Q)]
                 for arr in arrangements(P, Q))


def ragged(lists):
    """Lists of row positions grouped by length once, fold's operand: their
    number, and per length k the lists' own positions and theirs as k rows."""
    by_length = {}
    for at, positions in enumerate(lists):
        by_length.setdefault(len(positions), []).append(at)
    return len(lists), [(np.array(ats, np.intp),
                         np.array([lists[a] for a in ats], np.intp).reshape(len(ats), k).T)
                        for k, ats in by_length.items()]


def fold(ufunc, values, lists):
    """Per list of rows (ragged), ufunc folded over those rows of values:
    one gather and one reduction per list length (ufunc.reduceat is several
    times slower on many short lists).  An empty list reads the ufunc's
    identity on every column: True for logical_and, False for logical_or."""
    size, groups = lists
    out = np.empty((size, *values.shape[1:]), values.dtype)
    for at, index in groups:
        out[at] = ufunc.reduce(values[index], axis=0)
    return out


def cleared(H):
    """(scale, integers): the lcm of an exact point's denominators, and the
    point multiplied by it as Python ints."""
    scale = math.lcm(*(h.denominator for h in H))
    return scale, [h.numerator * (scale // h.denominator) for h in H]


def form_values(forms, H):
    """forms @ H: an object product at a point of Python ints; on int64
    sample columns one float64 BLAS product, exact since every product and
    partial sum is an integer below 2^53 (sampling._columns' guard)."""
    if isinstance(H[0], np.ndarray):
        return forms.astype(np.float64) @ np.stack(H, dtype=np.float64)[:forms.shape[1]]
    return forms @ np.array(H, object)[:forms.shape[1]]


_COMPARISONS = (operator.gt, operator.ge, operator.eq, operator.le)


class SignPlan:
    """One type's sign tests, listed once: the distinct tests, each a row of
    one integer form matrix, and per term its sign and the positions of the
    tests that must all hold.

    A test (compare, S, T) compares pairing(S, T) = s_S * |T| - s_T * |S|
    with 0, or s_S alone when T is None: operator.gt for a root or weight
    gap, ge for a cone test, eq for a wall or for two coordinates of a set
    that carries one value, le for a leading sum.  Each is linear in the
    point, so its row of forms holds the coefficients |T| * 1_S - |S| * 1_T,
    or 1_S: the hyperplane normals of the type's arrangement, of absolute
    sum at most n^2 / 2 (or |S|), so form_values is exact on columns.
    """

    def __init__(self, terms, signs=None):
        # the tests ordered by comparison, so that each comparison reads one slice
        self.tests = tuple(sorted(dict.fromkeys(itertools.chain(*terms)),
                                  key=lambda test: _COMPARISONS.index(test[0])))
        position = {test: i for i, test in enumerate(self.tests)}
        self.terms = [[position[test] for test in tests] for tests in terms]
        self.signs = np.array([1] * len(terms) if signs is None else signs, np.int64)
        width = 1 + max((max(S + (T or ())) for _, S, T in self.tests), default=-1)
        self.forms = np.zeros((len(self.tests), width), np.int64)
        for row, (_, S, T) in zip(self.forms, self.tests):
            row[list(S)] = 1 if T is None else len(T)
            if T is not None:
                row[list(T)] -= len(S)
        self._compares = [(compare, len(list(group)))
                          for compare, group in itertools.groupby(t[0] for t in self.tests)]
        self._terms = ragged(self.terms)
        # cells per sample that evaluate holds at once, each of at most 8
        # bytes: the operand, per test its value and verdict, and one per
        # term; the one-byte verdicts leave room for fold's gather of them
        self.width = width + 2 * len(self.tests) + len(terms)

    def evaluate(self, H):
        """Per term whether all its tests hold: an array (terms,) at an
        exact point, (terms, samples) on a tuple of int64 columns.  Every
        test is form_values on the columns or on the point cleared to
        integers (each test is homogeneous of degree one)."""
        values = form_values(self.forms, H if isinstance(H[0], np.ndarray) else cleared(H)[1])
        tests, lo = np.empty(values.shape, bool), 0
        for compare, count in self._compares:
            tests[lo:lo + count] = compare(values[lo:lo + count], 0)
            lo += count
        return fold(np.logical_and, tests, self._terms)


def doubled_half_sums(sizes):
    """Twice the half-sum of radical roots per block of a composition: a
    block with `before` earlier and `after` later coordinates gets the
    integer after - before."""
    total = sum(sizes)
    return tuple(total - 2 * before - m
                 for before, m in zip(itertools.accumulate(sizes, initial=0), sizes))


@lru_cache(maxsize=None)
def doubled_relative_rho(subs):
    """Doubled half-sums of P relative to Q from subs = P.split_by(Q),
    aligned with P's blocks: each Q-block's sub-composition gets its own
    local vector, and the Q-blocks contribute independently."""
    return tuple(itertools.chain.from_iterable(doubled_half_sums(sub) for sub in subs))


def epsilon_between(P, Q):
    """Sign (-1)^(r(P) - r(Q)) for P refining Q."""
    return -1 if (P.r - Q.r) % 2 else 1


@lru_cache(maxsize=None)
def type_plan(P, Q, tests):
    """One term, the tests of P relative to Q: root_tests (tau),
    weight_tests (tau_hat), leading_tests (chi) or constancy_tests."""
    return SignPlan([tests(P.split_by(Q), block_sets(P))])


@lru_cache(maxsize=None)
def slope_plan(Q):
    """(pairs, plan): per pair (P, arrangement) below Q, in _pairs_below
    order, its chamber tests and then its leading sums."""
    pairs = _pairs_below(Q)
    plan = SignPlan([chamber_tests(subs, arr) + leading_tests(subs, arr) for _, subs, arr in pairs])
    return tuple((P, arr) for P, _, arr in pairs), plan


@lru_cache(maxsize=None)
def partition_plan(Q):
    """Per pair below Q its chamber tests (the partition identity), then
    per pair its weight gaps with sign(P, Q) (the alternating identity)."""
    pairs = _pairs_below(Q)
    return SignPlan([chamber_tests(subs, arr) for _, subs, arr in pairs]
                    + [weight_tests(subs, arr) for _, subs, arr in pairs],
                    [1] * len(pairs) + [epsilon_between(P, Q) for P, _, _ in pairs])


@lru_cache(maxsize=None)
def coarsening_plan(finer, base, inner, outer):
    """Per coarsening Q of base, with sign(base, Q): the inner tests
    (root_tests or weight_tests) of finer within Q, then the outer ones of
    Q within the group."""
    splits = coarsening_splits(finer, base)
    return SignPlan([inner(subs, block_sets(finer)) + outer((Q.blocks,), block_sets(Q))
                     for Q, subs in splits],
                    [epsilon_between(base, Q) for Q, _ in splits])


@lru_cache(maxsize=None)
def ordering_plan(M):
    """Per ordering of M's blocks (itertools.permutations order) the weight
    tests of the ordered blocks in the one-block group; then one wall term,
    pairing(S, T) == 0, per distinct weight pairing (S, T) of those."""
    sets = block_sets(M)
    orders = [weight_tests((tuple(M.blocks[u] for u in order),), tuple(sets[u] for u in order))
              for order in itertools.permutations(range(M.r))]
    walls = dict.fromkeys((S, T) for _, S, T in itertools.chain.from_iterable(orders))
    return SignPlan(orders + [[(operator.eq, S, T)] for S, T in walls])


@lru_cache(maxsize=None)
def cone_plan(prime):
    """The chamber-cone tests of an ordered index partition, one term:
    strictly decreasing block averages, and for every block S every
    nonempty proper subset T has average <= S's, pairing(S, T) >= 0 (each
    such T leads some ordered refinement, and those exhaust the refinement
    weights; the full block passes trivially)."""
    blocks = prime.blocks
    return SignPlan([root_tests((tuple(map(len, blocks)),), blocks)
                     + [(operator.ge, S, T) for S in blocks
                        for k in range(1, len(S)) for T in itertools.combinations(S, k)]])


@lru_cache(maxsize=None)
def pairing_plan(Q):
    """(pairs, ranks, forms): the pairs (P, arrangement) below Q in
    _pairs_below order, and per pair and coordinate the position of the
    arranged set that holds it (ranks) and that set's doubled_relative_rho
    weight (forms), so that forms @ point is each pair's doubled pairing."""
    pairs = _pairs_below(Q)
    ranks, forms = np.zeros((2, len(pairs), Q.n), np.int64)
    for rank, form, (_, subs, arr) in zip(ranks, forms, pairs):
        for j, (S, weight) in enumerate(zip(arr, doubled_relative_rho(subs))):
            rank[list(S)], form[list(S)] = j, weight
    return tuple((P, arr) for P, _, arr in pairs), ranks, forms


@lru_cache(maxsize=None)
def pair_merges(n):
    """Per pair below the group of GL(n), in pairing_plan order, the
    positions of its proper merges (ragged): again such pairs, each a
    proper coarsening of P with the index sets of each run united."""
    pairs = _pairs_below(group(n))
    # each index set as a bit mask: a run's united set is the sum of its masks
    masks = [tuple(sum(1 << i for i in S) for S in arr) for _, _, arr in pairs]
    at = {mask: i for i, mask in enumerate(masks)}
    return ragged([[at[tuple(map(sum, runs(mask, map(len, subs))))]
                    for _, subs in coarsening_splits(P, P)[:-1]]  # [-1] is P itself
                   for (P, _, _), mask in zip(pairs, masks)])

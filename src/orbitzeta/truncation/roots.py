"""Exact rational root data for block decompositions of GL(n).

Points live in Q^n (one rational coordinate per basis line).  A standard
parabolic is a composition of n: consecutive index blocks.  A semi-standard
one is an ordered set partition: arbitrary index blocks in a given order.
A coset of permutations modulo the block-preserving subgroup is an
arrangement assigning index sets to blocks, the representation used
throughout.  The plan builders hold an index set as one int bit mask.

Every root and weight sign test compares pairing(S, T) = s_S * |T| - s_T *
|S| with 0, s_S the coordinate sum over S: a simple root pairs adjacent
blocks of one ambient block, a fundamental weight the union of the blocks
before its cut with the whole ambient block (root_tests, weight_tests).
Each pairing is an integer linear form in the point: each identity lists
its tests once per type as the rows of a cached SignPlan (the *_plan
builders, below a type from the masks of all arrangements of each
refinement at once), one matrix product (form_values) on an exact point or
on int64 sample columns, there in float64, exact below 2^53, its
verdicts packed along the samples and folded per term (verdicts).  Below a
type, plans and bodies hold a row per pair: _pairs_below names them.
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

from .verdicts import fold, packed, packed_cells, unpacked


class WallError(ValueError):
    """A pairing that must be strictly signed vanished exactly on this point."""


class WallTie(ValueError):
    """Two maximal maximizers exist; the point sits on a degeneracy wall."""


def compositions(n):
    """All compositions of n (ordered tuples of positive parts), 2^(n-1) many:
    for cuts with bit i set, a part ends after coordinate i."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [tuple(b - a for a, b in itertools.pairwise([0, *(i + 1 for i in index_set(cuts)), n]))
            for cuts in range(1 << (n - 1))]


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
        try:
            return bool(self.split_by(other))
        except ValueError:
            return False

    def split_by(self, coarser):
        """Sub-compositions of this refinement inside each block of coarser,
        whose cuts must be among this one's, at the same total."""
        ends, cuts = (list(itertools.accumulate(c.blocks)) for c in (self, coarser))
        if ends[-1] != cuts[-1] or not set(cuts) <= set(ends):
            raise ValueError("%r does not refine %r" % (self.blocks, coarser.blocks))
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
    return tuple(StandardParabolic(c) for c in sorted(compositions(n), key=lambda c: (len(c), c)))


def refinements_within(coarser):
    """All standard parabolics refining the given one (itself included)."""
    return [StandardParabolic(tuple(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*(compositions(b) for b in coarser.blocks))]


def runs(items, lengths):
    """Consecutive runs of a sequence with the given lengths, lazily."""
    return (items[a:b] for a, b in itertools.pairwise(itertools.accumulate(lengths, initial=0)))


@lru_cache(maxsize=None)
def coarsenings_of(finer):
    """All standard parabolics the given one refines (itself included): a
    coarsening merges runs of adjacent blocks, whose lengths range over
    compositions(finer.r), in that order.  Built once per parabolic."""
    return tuple(StandardParabolic(tuple(sum(run) for run in runs(finer.blocks, lengths)))
                 for lengths in compositions(finer.r))


@lru_cache(maxsize=None)
def block_sets(P):
    """P's blocks as index-set masks (its identity arrangement)."""
    return tuple((1 << b) - (1 << a) for a, b in P.intervals)


@lru_cache(maxsize=None)
def index_set(mask):
    """The ascending index tuple of a bit mask (bit i for index i)."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def root_tests(subs, arr):
    """P's simple roots relative to Q, with subs = P.split_by(Q) and arr
    the index-set mask per P-block (ints for one arrangement, or int array
    rows with one column per arrangement): a gap, pairing(S, T) > 0, per
    adjacent sets S, T inside one Q-block."""
    return [(operator.gt, S, T)
            for sets in runs(arr, map(len, subs)) for S, T in zip(sets, sets[1:])]


def weight_tests(subs, arr):
    """P's fundamental weights relative to Q (subs and arr as in
    root_tests): per cut inside a Q-block, a gap of the union S of the sets
    before it against the whole Q-block T."""
    return [(operator.gt, S, unions[-1]) for sets in runs(arr, map(len, subs))
            for unions in [list(itertools.accumulate(sets, operator.or_))] for S in unions[:-1]]


def leading_tests(subs, arr):
    """Each Q-block's leading arranged sum is <= 0 (as in root_tests)."""
    return [(operator.le, sets[0], None) for sets in runs(arr, map(len, subs))]


def constancy_tests(subs, arr):
    """Each arranged set carries one value: each further coordinate equals
    the set's lowest (subs and arr as in root_tests)."""
    tests = []
    for S, size in zip(arr, itertools.chain.from_iterable(subs)):
        lowest = S & -S
        for _ in range(size - 1):
            S = S & S - 1  # the set without its lowest index
            tests.append((operator.eq, lowest, S & -S))
    return tests


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

    def __str__(self):
        return "|".join("{%s}" % ",".join(str(i) for i in blk) for blk in self.blocks)


@lru_cache(maxsize=None)
def _partitions(mask, sizes):
    """ordered_set_partitions of mask's indices, one row of part masks each."""
    if not sizes:
        return np.zeros((1, 0), np.int64)
    firsts = [sum(1 << i for i in S) for S in itertools.combinations(index_set(mask), sizes[0])]
    rests = [_partitions(mask ^ S, sizes[1:]) for S in firsts]
    return np.concatenate([np.repeat(firsts, list(map(len, rests)))[:, None],
                           np.concatenate(rests)], axis=1)


def ordered_set_partitions(indices, sizes):
    """All ways to split the index tuple into ordered parts of the given sizes."""
    indices = tuple(indices)
    if sum(sizes) != len(indices):
        raise ValueError("sizes must sum to the number of indices")
    return (tuple(tuple(map(indices.__getitem__, index_set(S))) for S in row)
            for row in _partitions((1 << len(indices)) - 1, tuple(sizes)).tolist())


@lru_cache(maxsize=None)
def _arranged(P, Q):
    """(P.split_by(Q), arrangements(P, Q) as masks, a row per block of P and
    a column per arrangement; Python ints beyond 30 indices, for SignPlan)."""
    subs, masks = P.split_by(Q), np.zeros((1, 0), np.int64 if Q.n <= 30 else object)
    for (a, b), sub in zip(Q.intervals, subs):
        block = _partitions((1 << b - a) - 1, sub).astype(masks.dtype) << a
        masks = np.concatenate([masks.repeat(len(block), axis=0),
                                np.resize(block, (len(masks) * len(block), len(sub)))], axis=1)
    return subs, masks.T


def arrangements(P, Q):
    """Cosets of block permutations: assignments of index sets to P's blocks,
    P refining Q, each Q-block's indices distributed among the P-blocks it
    contains, as tuples of index tuples aligned with P.blocks (for Q the
    full group, all ordered set partitions with part sizes P.blocks)."""
    yield from (tuple(map(index_set, row)) for row in _arranged(P, Q)[1].T.tolist())


@lru_cache(maxsize=None)
def _pairs_below(Q):
    """(P, arrangement) per pair below Q, in refinements_within(Q) order:
    the order of the rows of slope_plan's terms and of pairing_plan."""
    return tuple((P, arr) for P in refinements_within(Q) for arr in arrangements(P, Q))


def semistandard_all(n):
    """Every ordered set partition of {0..n-1} (all semi-standard parabolics)."""
    return [SemiStandardParabolic(arr) for _, arr in _pairs_below(group(n))]


def _exact(h):
    try:
        return operator.index(h)
    except TypeError:
        q = Fraction(h)
        return q.numerator if q.denominator == 1 else q


def as_exact(point):
    """Validate and convert a point to exact coordinates: integral values
    (ints, numpy integers, Fractions with denominator 1) become Python ints,
    every other value a Fraction."""
    return tuple(_exact(h) for h in point)


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
    Builders pass batches of tests on masks: one term of ints, or one per column of mask rows.
    """

    def __init__(self, n, terms, signs=None):
        keys, batches = [], []
        for tests in terms:
            batch = [_COMPARISONS.index(compare) | S << 2 | (0 if T is None else T) << 2 + n
                     for compare, S, T in tests]
            columns = batch and isinstance(batch[0], np.ndarray)  # one term per column
            keys += np.ravel(batch, "F").tolist() if columns else batch
            batches.append((len(batch), len(batch[0]) if columns else 1))  # empty (P = Q): one term
        tests = sorted(dict.fromkeys(keys), key=lambda key: key & 3)  # by comparison: a slice each
        self.tests = tuple((_COMPARISONS[key & 3], index_set(key >> 2 & (1 << n) - 1),
                            index_set(key >> 2 + n) or None) for key in tests)
        width = 1 + max((max(S + (T or ())) for _, S, T in self.tests), default=-1)
        rows = [[0] * width for _ in tests]
        for row, (_, S, T) in zip(rows, self.tests):
            for i in S:
                row[i] = len(T) if T else 1
            for i in T or ():
                row[i] -= len(S)
        self.forms = np.array(rows, np.int64).reshape(len(rows), width)
        positions, groups, at = map(dict(zip(tests, itertools.count())).__getitem__, keys), {}, 0
        for k, count in batches:  # the terms' positions as rows, per test count
            ats, lists = groups.setdefault(k, ([], []))
            ats += range(at, at + count)
            lists += itertools.islice(positions, k * count)
            at += count
        self._terms = at, [(np.array(ats, np.intp), np.array(lists, np.intp).reshape(len(ats), k).T)
                           for k, (ats, lists) in groups.items()]
        self.signs = np.array([1] * at if signs is None else signs, np.int64)
        self._compares = [(c, len(list(g))) for c, g in itertools.groupby(t[0] for t in self.tests)]
        # cells of 8 bytes per sample that evaluate holds at once: the operand, per test its
        # value, and the verdicts packed and folded
        self.width = width + len(tests) + packed_cells(len(tests), self._terms)

    def evaluate(self, H):
        """Per term whether all its tests hold, packed (terms, bytes): one
        sample at an exact point, one per entry of a tuple of int64
        columns.  Every test is form_values on the columns or on the point
        cleared to integers (each test is homogeneous of degree one)."""
        columns = isinstance(H[0], np.ndarray)
        values = form_values(self.forms, H if columns else cleared(H)[1])
        values = values if columns else values[:, None]  # a point is one sample
        tests, lo = np.empty(values.shape, bool), 0
        for compare, count in self._compares:
            tests[lo:lo + count] = compare(values[lo:lo + count], 0)
            lo += count
        return fold(np.bitwise_and, packed(tests), self._terms)

    def holds(self, H):
        """evaluate(H) unpacked: per term whether all its tests hold, an
        array (terms,) at an exact point, (terms, samples) on columns."""
        columns = isinstance(H[0], np.ndarray)
        holds = unpacked(self.evaluate(H), len(H[0]) if columns else 1)
        return holds if columns else holds[:, 0]

    def cells(self, term_bits):
        """Cells of 8 bytes per sample that a caller of evaluate holds at
        once when it holds term_bits bits per term beyond the result: 8 for
        holds, fewer for a count over the packed terms."""
        return self.width + -(-term_bits * len(self.signs) // 64)


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
    return SignPlan(Q.n, [tests(P.split_by(Q), block_sets(P))])


@lru_cache(maxsize=None)
def slope_plan(Q):
    """Per pair (P, arrangement) below Q, in _pairs_below order, one term:
    its chamber tests (root and constancy tests: the rearranged point lies
    in the chamber and is semistable for P), then its leading sums."""
    return SignPlan(Q.n, [
        root_tests(subs, arr) + constancy_tests(subs, arr) + leading_tests(subs, arr)
        for P in refinements_within(Q) for subs, arr in [_arranged(P, Q)]])


@lru_cache(maxsize=None)
def partition_plan(Q):
    """Per pair below Q its chamber tests (as in slope_plan: the partition
    identity), then per pair its weight gaps with sign(P, Q) (the
    alternating identity)."""
    types = [(P, *_arranged(P, Q)) for P in refinements_within(Q)]
    return SignPlan(Q.n, [root_tests(subs, arr) + constancy_tests(subs, arr)
                          for _, subs, arr in types]
                    + [weight_tests(subs, arr) for _, subs, arr in types],
                    np.repeat([1] * len(types) + [epsilon_between(P, Q) for P, _, _ in types],
                              [arr.shape[-1] for _, _, arr in types] * 2))


@lru_cache(maxsize=None)
def coarsening_plan(finer, base, inner, outer):
    """Per coarsening Q of base, with sign(base, Q): the inner tests
    (root_tests or weight_tests) of finer within Q, then the outer ones of
    Q within the group."""
    splits = [(Q, finer.split_by(Q)) for Q in coarsenings_of(base)]
    return SignPlan(finer.n, [inner(subs, block_sets(finer)) + outer((Q.blocks,), block_sets(Q))
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
    return SignPlan(M.n, orders + [[(operator.eq, S, T)] for S, T in walls])


def chamber_cone_tests(subs, arr):
    """The chamber-cone tests of arranged sets (subs and arr as in
    root_tests): strictly decreasing averages of adjacent sets, and for
    every set S every nonempty proper subset T has average <= S's,
    pairing(S, T) >= 0 (each such T leads some ordered refinement, and
    those exhaust the refinement weights; the full set passes trivially),
    the subsets of each size in combinations order of S's indices."""
    tests = root_tests(subs, arr)
    for S, size in zip(arr, itertools.chain.from_iterable(subs)):
        bits, rest = [], S
        for _ in range(size):  # S's indices as single bits, ascending
            bits.append(rest & -rest)
            rest = rest & rest - 1
        tests += [(operator.ge, S, sum(T)) for k in range(1, size)
                  for T in itertools.combinations(bits, k)]
    return tests


@lru_cache(maxsize=None)
def cone_plan(prime):
    """The chamber-cone tests of an ordered index partition, one term."""
    sizes, sets = tuple(map(len, prime.blocks)), [sum(1 << i for i in S) for S in prime.blocks]
    return SignPlan(prime.n, [chamber_cone_tests((sizes,), sets)])


@lru_cache(maxsize=None)
def cones_plan(n):
    """The chamber-cone tests of every ordered partition of n indices, a
    term each, in semistandard_all order (read from _arranged's masks)."""
    return SignPlan(n, [chamber_cone_tests(*_arranged(P, group(n)))
                        for P in refinements_within(group(n))])


@lru_cache(maxsize=None)
def pairing_plan(Q):
    """(ranks, forms): per pair (P, arrangement) below Q, in _pairs_below
    order, a row with per coordinate the position of the arranged set that
    holds it (ranks) and that set's doubled_relative_rho weight (forms),
    so that forms @ point is each pair's doubled pairing."""
    ranks, forms = np.concatenate([np.tensordot([range(P.r), doubled_relative_rho(subs)], bits, 1)
                                   for P in refinements_within(Q) for subs, arr in [_arranged(P, Q)]
                                   for bits in [arr[..., None] >> np.arange(Q.n) & 1]], axis=1)
    return ranks, forms


@lru_cache(maxsize=None)
def pair_merges(n):
    """Per pair below the group of GL(n), in pairing_plan order, the
    positions of its proper merges (ragged): again its rows, each a proper
    coarsening of P with the index sets of each run united.  A pair is
    found by its ranks as base-n digits, a merge by the pair's sets'
    digits read against their runs under a proper composition of P.r."""
    ranks, _ = pairing_plan(group(n))
    digits, blocks = n ** np.arange(n), ranks.max(axis=1) + 1
    codes = ranks @ digits
    order, out = np.argsort(codes), []
    for r in dict.fromkeys(blocks.tolist()):
        at = np.flatnonzero(blocks == r)
        cuts = np.array([np.repeat(np.arange(len(c)), c) for c in compositions(r)[:-1]], np.int64)
        sets = (ranks[at, None] == np.arange(r)[:, None]) @ digits  # each set's digits per pair
        out.append((at, order[np.searchsorted(codes, cuts.reshape(-1, r) @ sets.T, sorter=order)]))
    return len(codes), out

"""Exact rational root data for block decompositions of GL(n).

Points live in Q^n (one rational coordinate per basis line).  A standard
parabolic is a composition of n: consecutive index blocks.  A semi-standard
one is an ordered set partition: arbitrary index blocks in a given order.
The Weyl group is the symmetric group; a coset of permutations modulo the
block-preserving subgroup is exactly an arrangement assigning index sets to
blocks, which is the representation used throughout.

Every root and weight sign test compares the averages of two index sets,
scaled by their sizes: SubsetTable.pairing(S, T) = s_S * |T| - s_T * |S|.
A restricted simple root pairs adjacent blocks S, T of one ambient block;
a fundamental weight relative to an ambient block pairs the union S of the
blocks before its cut with the whole ambient block T.  The *_keys helpers
list those (S, T) once per type.  The half-sum of radical roots pairs a
block sum with (n - N_i - N_{i-1})/2, N_i the i-th partial composition sum.

Points are exact: integral coordinates stay Python ints and only genuinely
rational ones are Fractions (as_exact), so on cleared integer points every
pairing is integer arithmetic; no floats enter this subpackage.  Half-sums
are carried doubled, as the integers after - before, and halved once where a
public value is returned.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce


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

    @property
    def rho_values(self):
        """Per-block value of the half-sum of radical roots (block-constant)."""
        return tuple(Fraction(d, 2) for d in doubled_half_sums(self.blocks))

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


@lru_cache(maxsize=None)
def root_keys(subs, arr):
    """SubsetTable keys (S, T) of P's simple roots relative to Q, with
    subs = P.split_by(Q) and arr the index set per P-block: the adjacent
    sets inside each Q-block."""
    return tuple(key for sets in runs(arr, map(len, subs)) for key in zip(sets, sets[1:]))


@lru_cache(maxsize=None)
def weight_keys(subs, arr):
    """SubsetTable keys (S, T) of P's fundamental weights relative to Q
    (subs and arr as in root_keys): per cut inside a Q-block, S the union
    of the sets before it and T the whole Q-block."""
    keys = []
    for sets in runs(arr, map(len, subs)):
        unions = list(itertools.accumulate(sets, lambda S, T: tuple(sorted(S + T))))
        keys += [(S, unions[-1]) for S in unions[:-1]]
    return tuple(keys)


@lru_cache(maxsize=None)
def ordering_keys(M):
    """(order, weight keys of the ordered blocks inside the one-block
    group) per ordering of M's blocks."""
    sets = block_sets(M)
    return tuple((order, weight_keys((tuple(M.blocks[u] for u in order),),
                                     tuple(sets[u] for u in order)))
                 for order in itertools.permutations(range(M.r)))


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

    def gen(pool, remaining):
        if not remaining:
            yield ()
            return
        size = remaining[0]
        for combo in itertools.combinations(pool, size):
            rest_pool = tuple(i for i in pool if i not in combo)
            for rest in gen(rest_pool, remaining[1:]):
                yield (combo,) + rest

    return gen(indices, tuple(sizes))


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
    return [SemiStandardParabolic(arr) for _, _, arrs in _pairs_below(group(n)) for arr in arrs]


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
    """(P, P.split_by(Q), arrangements(P, Q)) per P in refinements_within(Q)."""
    return tuple(
        (P, P.split_by(Q), tuple(arrangements(P, Q))) for P in refinements_within(Q)
    )


def arranged_pairs(Q, H):
    """Every pair below Q, with one SubsetTable of H for the call.

    Yields (refinement P, P.split_by(Q), arrangement, table) for P over
    refinements_within(Q) and the arrangement over arrangements(P, Q), in
    that order; table.sum(S) is the coordinate sum of H over the index set
    S assigned to one of P's blocks.  The enumeration is built once per Q;
    the table is shared by the call's pairs and goes with the call.
    """
    table = SubsetTable(H)
    for P, subs, arrs in _pairs_below(Q):
        for arr in arrs:
            yield P, subs, arr, table


class SubsetTable:
    """One call's subset sums and sign tests of H, an exact point or a
    tuple of int64 sample columns, keyed by index set (ascending tuples).

    pairing(S, T) = s_S * |T| - s_T * |S| is computed on each use; every
    other entry on first use, then kept for the call: sum(S), S[:-1]'s sum
    plus one coordinate; gap(S, T), pairing(S, T) > 0; constant(S), S
    carries one value; nonpositive(S), S's sum is <= 0.
    """

    def __init__(self, H):
        self.H, self.entries = H, {}

    def _entry(self, key, evaluate):
        if key not in self.entries:
            self.entries[key] = evaluate()
        return self.entries[key]

    def sum(self, S):
        return self._entry(("sum", S), lambda: self.sum(S[:-1]) + self.H[S[-1]]
                           if len(S) > 1 else self.H[S[0]])

    def pairing(self, S, T):
        return self.sum(S) * len(T) - self.sum(T) * len(S)

    def gap(self, S, T):
        return self._entry(("gap", S, T), lambda: self.pairing(S, T) > 0)

    def constant(self, S):
        return self._entry(("constant", S), lambda: reduce(
            operator.and_, (self.H[i] == self.H[S[0]] for i in S[1:]), True))

    def nonpositive(self, S):
        return self._entry(("nonpositive", S), lambda: self.sum(S) <= 0)


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

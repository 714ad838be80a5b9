"""Partitions, Young diagrams, and orbit induction for gl(n).

Nilpotent conjugacy classes of n x n matrices are indexed by partitions of n
(Jordan types).  This module provides the combinatorial layer: partition
arithmetic, per-cell diagram statistics (arm, leg, hook), induction of orbits
along block decompositions, and the enumeration of block-Levi orbit classes
together with their rational weights.

The Young diagram attached to a partition here uses the column convention:
the columns of the diagram, read left to right, are the parts in weakly
decreasing order.  The zero orbit (1, ..., 1) therefore has a single row of
n cells, and the regular orbit (n) a single column of n cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True, slots=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty)."""

    parts: tuple = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be >= 1, got %r" % (parts,))
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing, got %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated partition string such as '2,1'."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError("cannot parse partition from %r" % text) from None
        return cls(parts)

    @property
    def n(self):
        """The integer being partitioned (sum of parts)."""
        return sum(self.parts)

    def conjugate(self):
        """Transpose partition: k-th part counts parts >= k."""
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p >= k) for k in range(1, self.parts[0] + 1))
        )

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def partitions_of(n):
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield Partition(())
        return

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


@dataclass(frozen=True)
class Cell:
    """One diagram cell with its statistics.

    row, col are 1-based.  arm counts cells strictly right in the same row,
    leg counts cells strictly below in the same column, hook = 1 + arm + leg.
    """

    row: int
    col: int
    arm: int
    leg: int
    hook: int


@dataclass(frozen=True, slots=True)
class YoungDiagram:
    """Young diagram of a partition, column convention.

    Column j (1-based) has height parts[j-1]; row i has one cell per part >= i.
    """

    partition: Partition
    cells: tuple = field(init=False, repr=False)

    def __post_init__(self):
        partition = self.partition
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        parts = partition.parts
        row_lengths = partition.conjugate().parts
        cells = []
        for j, height in enumerate(parts, start=1):
            for i in range(1, height + 1):
                arm = row_lengths[i - 1] - j
                leg = height - i
                cells.append(Cell(row=i, col=j, arm=arm, leg=leg, hook=1 + arm + leg))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "cells", tuple(cells))

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)


def young_stats(partition):
    """Diagram of the partition with per-cell (arm, leg, hook) statistics."""
    return YoungDiagram(partition)


def induce(levi, orbits):
    """Induce a nilpotent orbit from block data.

    levi is a tuple of block sizes (n_1, ..., n_r); orbits is a sequence of
    partitions with orbits[i] a partition of n_i.  The induced orbit is the
    componentwise sum of the zero-padded parts sequences, which is again
    weakly decreasing.
    """
    levi = tuple(int(m) for m in levi)
    if any(m < 1 for m in levi):
        raise ValueError("block sizes must be >= 1")
    orbits = tuple(o if isinstance(o, Partition) else Partition(o) for o in orbits)
    if len(levi) != len(orbits):
        raise ValueError("got %d blocks but %d orbits" % (len(levi), len(orbits)))
    for m, o in zip(levi, orbits):
        if o.n != m:
            raise ValueError("orbit %s is not a partition of block size %d" % (o, m))
    width = max((len(o) for o in orbits), default=0)
    summed = tuple(
        sum(o.parts[k] if k < len(o) else 0 for o in orbits) for k in range(width)
    )
    return Partition(tuple(p for p in summed if p > 0))


@dataclass(frozen=True)
class LeviOrbitClass:
    """A block decomposition with one orbit per block, up to block permutation.

    Canonical representative: blocks sorted by (size, orbit) descending.
    weight = epsilon * r_factorial / stab_order where r is the number of
    blocks, epsilon = (-1)^(r-1), r_factorial = (r-1)!, and stab_order is the
    product of multiplicity factorials over repeated (size, orbit) pairs.
    """

    levi: tuple
    orbits: tuple

    def __post_init__(self):
        pairs = tuple(zip(self.levi, self.orbits))
        if pairs != tuple(sorted(pairs, key=lambda t: (t[0], t[1].parts), reverse=True)):
            raise ValueError("class representative must be sorted descending")

    @property
    def r(self):
        return len(self.levi)

    @property
    def epsilon(self):
        return -1 if self.r % 2 == 0 else 1

    @property
    def r_factorial(self):
        return math.factorial(self.r - 1)

    @property
    def stab_order(self):
        order = 1
        for _, group in itertools.groupby(zip(self.levi, (o.parts for o in self.orbits))):
            order *= math.factorial(sum(1 for _ in group))
        return order

    @property
    def weight(self):
        return Fraction(self.epsilon * self.r_factorial, self.stab_order)

    @property
    def induced(self):
        return induce(self.levi, self.orbits)


@lru_cache(maxsize=None)
def _block_choices(n):
    """All (size, partition) pairs with size <= n, sorted descending."""
    pairs = []
    for m in range(n, 0, -1):
        for lam in partitions_of(m):
            pairs.append((m, lam))
    pairs.sort(key=lambda t: (t[0], t[1].parts), reverse=True)
    return tuple(pairs)


def _multisets_totaling(n):
    """All multisets of (size, partition) pairs with sizes summing to n.

    Yielded as descending-sorted tuples of pairs, in a deterministic order.
    """
    choices = _block_choices(n)

    def gen(remaining, start):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(choices)):
            m, lam = choices[idx]
            if m > remaining:
                continue
            for rest in gen(remaining - m, idx):
                yield ((m, lam),) + rest

    return gen(n, 0)


@lru_cache(maxsize=None)
def _classes_by_orbit(n):
    """Every block-orbit class of n, grouped by induced orbit, in
    _multisets_totaling order within each group."""
    groups = {}
    for pairs in _multisets_totaling(n):
        levi = tuple(m for m, _ in pairs)
        orbits = tuple(lam for _, lam in pairs)
        groups.setdefault(induce(levi, orbits), []).append(
            LeviOrbitClass(levi=levi, orbits=orbits)
        )
    return {target: tuple(classes) for target, classes in groups.items()}


def enumerate_classes(target):
    """All block-orbit classes inducing the target orbit, with weights.

    Returns a fresh list of LeviOrbitClass values in a deterministic order:
    descending by the sorted (size, orbit) pair sequence.  The full group
    itself always appears (with weight +1); the total count is 1 exactly
    when the target is the zero orbit (1^n).  The classes of all orbits of
    n are enumerated together, once per n.
    """
    if not isinstance(target, Partition):
        target = Partition(target)
    n = target.n
    if n < 1:
        raise ValueError("target must be a partition of n >= 1")
    return list(_classes_by_orbit(n)[target])

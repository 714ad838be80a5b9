"""The sign-test plans built from index tuples: the oracle for the bit-mask
builders of roots.

The same pairs, tests, forms, terms, ranks and merges as roots, written
the direct way: each index set an ascending tuple, the pairs enumerated
through ordered_set_partitions, each test a (compare, S, T) tuple of index
tuples interned through a dict, each form row set by fancy assignment, the
pairing ranks and forms one arranged set at a time, and each proper merge
looked up by the run sums of the pair's masks, on compositions, runs,
refinements and coarsenings of its own.  roots must build every plan of
this module field for field.
"""

from __future__ import annotations

import collections
import itertools
import operator
from functools import lru_cache

import numpy as np

from orbitzeta.truncation import roots, verdicts
from orbitzeta.truncation.roots import (
    StandardParabolic,
    doubled_relative_rho,
    epsilon_between,
    group,
)


def compositions(n):
    """All compositions of n, a part ending after coordinate pos for each
    bit pos of cuts."""
    out = []
    for cuts in range(1 << (n - 1)):
        ends = [pos + 1 for pos in range(n - 1) if cuts >> pos & 1] + [n]
        out.append(tuple(b - a for a, b in zip([0] + ends, ends)))
    return out


def runs(items, lengths):
    start = 0
    for m in lengths:
        yield items[start : start + m]
        start += m


def refinements_within(coarser):
    return [StandardParabolic(tuple(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*(compositions(b) for b in coarser.blocks))]


def coarsenings_of(finer):
    return tuple(StandardParabolic(tuple(sum(run) for run in runs(finer.blocks, lengths)))
                 for lengths in compositions(finer.r))


def ordered_set_partitions(indices, sizes):
    """All ways to split the index tuple into ordered parts of the given sizes."""
    indices = tuple(indices)
    if not sizes:
        return iter([()])
    return ((combo,) + rest for combo in itertools.combinations(indices, sizes[0])
            for rest in ordered_set_partitions([i for i in indices if i not in combo], sizes[1:]))


def arrangements(P, Q):
    """Assignments of index sets to P's blocks, per Q-block the ordered set
    partitions of its indices, in itertools.product order."""
    per_block = [list(ordered_set_partitions(range(a, b), sub))
                 for (a, b), sub in zip(Q.intervals, P.split_by(Q))]
    for combo in itertools.product(*per_block):
        yield tuple(itertools.chain.from_iterable(combo))


@lru_cache(maxsize=None)
def pairs_below(Q):
    """(P, P.split_by(Q), arrangement) per pair below Q."""
    return tuple((P, subs, arr) for P in refinements_within(Q) for subs in [P.split_by(Q)]
                 for arr in arrangements(P, Q))


def coarsening_splits(finer, base):
    return tuple((Q, finer.split_by(Q)) for Q in coarsenings_of(base))


def block_sets(P):
    return tuple(runs(tuple(range(P.n)), P.blocks))


def root_tests(subs, arr):
    return [(operator.gt, S, T)
            for sets in runs(arr, map(len, subs)) for S, T in zip(sets, sets[1:])]


def weight_tests(subs, arr):
    tests = []
    for sets in runs(arr, map(len, subs)):
        unions = list(itertools.accumulate(sets, lambda S, T: tuple(sorted(S + T))))
        tests += [(operator.gt, S, unions[-1]) for S in unions[:-1]]
    return tests


def leading_tests(subs, arr):
    return [(operator.le, sets[0], None) for sets in runs(arr, map(len, subs))]


def constancy_tests(subs, arr):
    return [(operator.eq, S[:1], (i,)) for S in arr for i in S[1:]]


def chamber_tests(subs, arr):
    return root_tests(subs, arr) + constancy_tests(subs, arr)


# the roots builder standing for each oracle builder, as plan arguments
BUILDERS = {roots.root_tests: root_tests, roots.weight_tests: weight_tests,
            roots.leading_tests: leading_tests, roots.constancy_tests: constancy_tests}


def ragged(lists):
    """Lists of row positions grouped by length once, in first-seen order."""
    by_length = {}
    for at, positions in enumerate(lists):
        by_length.setdefault(len(positions), []).append(at)
    return len(lists), [(np.array(ats, np.intp),
                         np.array([lists[a] for a in ats], np.intp).reshape(len(ats), k).T)
                        for k, ats in by_length.items()]


class SignPlan(roots.SignPlan):
    """roots.SignPlan built from lists of (compare, S, T) index-tuple tests."""

    def __init__(self, terms, signs=None):
        self.tests = tuple(sorted(dict.fromkeys(itertools.chain(*terms)),
                                  key=lambda test: roots._COMPARISONS.index(test[0])))
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
        # per test its value, a byte and a bit for its verdict; a bit per term and per
        # entry of the largest gather of lists of one length, with its reduction: a run
        # of at most verdicts.GATHER_ROWS rows
        lengths = collections.Counter(map(len, self.terms))
        gather = max(((k + 1) * min(count, max(1, verdicts.GATHER_ROWS // max(k, 1)))
                      for k, count in lengths.items()), default=0)
        self.width = width + len(self.tests) + -(-(9 * len(self.tests) + len(terms) + gather) // 64)


def type_plan(P, Q, tests):
    return SignPlan([BUILDERS[tests](P.split_by(Q), block_sets(P))])


def slope_plan(Q):
    return SignPlan([chamber_tests(subs, arr) + leading_tests(subs, arr)
                     for _, subs, arr in pairs_below(Q)])


def partition_plan(Q):
    pairs = pairs_below(Q)
    return SignPlan([chamber_tests(subs, arr) for _, subs, arr in pairs]
                    + [weight_tests(subs, arr) for _, subs, arr in pairs],
                    [1] * len(pairs) + [epsilon_between(P, Q) for P, _, _ in pairs])


def coarsening_plan(finer, base, inner, outer):
    inner, outer = BUILDERS[inner], BUILDERS[outer]
    splits = coarsening_splits(finer, base)
    return SignPlan([inner(subs, block_sets(finer)) + outer((Q.blocks,), block_sets(Q))
                     for Q, subs in splits],
                    [epsilon_between(base, Q) for Q, _ in splits])


def ordering_plan(M):
    sets = block_sets(M)
    orders = [weight_tests((tuple(M.blocks[u] for u in order),), tuple(sets[u] for u in order))
              for order in itertools.permutations(range(M.r))]
    walls = dict.fromkeys((S, T) for _, S, T in itertools.chain.from_iterable(orders))
    return SignPlan(orders + [[(operator.eq, S, T)] for S, T in walls])


def cone_tests(blocks):
    return (root_tests((tuple(map(len, blocks)),), blocks)
            + [(operator.ge, S, T) for S in blocks
               for k in range(1, len(S)) for T in itertools.combinations(S, k)])


def cone_plan(prime):
    return SignPlan([cone_tests(prime.blocks)])


def cones_plan(n):
    return SignPlan([cone_tests(arr) for _, _, arr in pairs_below(group(n))])


def pairing_plan(Q):
    pairs = pairs_below(Q)
    ranks, forms = np.zeros((2, len(pairs), Q.n), np.int64)
    for rank, form, (_, subs, arr) in zip(ranks, forms, pairs):
        for j, (S, weight) in enumerate(zip(arr, doubled_relative_rho(subs))):
            rank[list(S)], form[list(S)] = j, weight
    return ranks, forms


def pair_merges(n):
    pairs = pairs_below(group(n))
    masks = [tuple(sum(1 << i for i in S) for S in arr) for _, _, arr in pairs]
    at = {mask: i for i, mask in enumerate(masks)}
    return ragged([[at[tuple(map(sum, runs(mask, map(len, subs))))]
                    for _, subs in coarsening_splits(P, P)[:-1]]
                   for (P, _, _), mask in zip(pairs, masks)])


def bool_holds(plan, H):
    """Per term of a roots.SignPlan whether all its tests hold, by a plain
    bool fold: each test's verdict a bool per sample from exact values
    (forms @ H in int64 on sample columns, in Python at a point), then per
    term a logical_and over its tests' rows, one gather per list length,
    from True (an empty term holds).  An array (terms,) at a point,
    (terms, samples) on a tuple of int64 columns."""
    columns = isinstance(H[0], np.ndarray)
    operand = np.stack(H) if columns else np.array(H, object)[:, None]
    values = plan.forms @ operand[:plan.forms.shape[1]]
    verdicts = np.array([compare(row, 0) for (compare, _, _), row in zip(plan.tests, values)],
                        bool).reshape(len(values), operand.shape[1])
    size, groups = plan._terms
    holds = np.ones((size, operand.shape[1]), bool)
    for at, index in groups:
        holds[at] = np.logical_and.reduce(verdicts[index], axis=0)
    return holds if columns else holds[:, 0]

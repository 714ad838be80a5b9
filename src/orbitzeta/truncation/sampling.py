"""Bulk randomized verification of the truncation identities.

Sampling convention: coordinates are fractions with integer numerators in
[-100, 100] and denominators in [1, 20].  Each identity is homogeneous of
degree one in the point, so every sample row is cleared to an integer
vector (multiplied by the lcm of its denominators, at most lcm(1..20) =
232792560) before evaluation.  One numpy generator per verifier, seeded
from its seed (the slope sandwich has its own at seed + 1), draws every
point, wall point and random choice, so every run is reproducible; sample
rows stay int64 arrays, and a failure records its point as a list of
Python ints.

The sweeps read the same bodies as the public operations (indicators,
instability), on a tuple of int64 columns, one entry per sample: all
sampled points at once, the large plans in chunks of at most CHUNK_CELLS
cells (_chunked).  A plan's verdicts are packed along the samples, 8 per
byte (verdicts); the bodies unpack them once per chunk, and the slope
sweep counts its terms on the packed bytes (held_counts).  Value classes
are read per row as dense ranks (_value_ranks, against
roots.pairing_plan's), and the Levi count as chains of prefix sets
(_levi_counts); scalar calls only word a failing row.

Exactness: with M the largest |entry| of a cleared sample, each sign test
is a form row of absolute sum at most n^2 / 2 (|S| <= n for a lone sum),
each doubled pairing of the canonical-pair oracle one of at most n(n - 1),
and each extremal cross-product s_T * |U| at most n^2 * M.  _columns asserts
n^2 * M < 2^53 before any sweep, so every product and partial sum is an
integer below 2^53, which roots.form_values' float64 products hold exactly
in any summation order.  The Levi sweep asserts M * max size * n * r < 2^53
on per-block values, bounding each subset gap n * sum(S) - |S| * total and
each block's share of it.  M <= 100 * lcm(1..20) < 2^34.5 meets both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .indicators import (
    blocks_constant,
    e_pair_tests,
    e_subset_tests,
    e_verdict,
    langlands_terms,
    partition_terms,
    sigma_terms,
    signed_count,
)
from .instability import (
    _extremal_maximizers,
    _maximal_maximizers,
    _select_pair,
    all_cone_tests,
    extremal_max_pair,
    maximizer_width,
)
from .roots import (
    StandardParabolic,
    WallTie,
    constancy_tests,
    group,
    minimal_parabolic,
    pairing_plan,
    partition_plan,
    refinements_within,
    slope_plan,
    standard_parabolics,
    type_plan,
)
from .verdicts import held_counts

NUMERATOR_BOUND = 100
DENOMINATOR_BOUND = 20
CHUNK_CELLS = 2**17  # bounds the cells of 8 bytes a chunk of samples holds at once (_chunked)
# a bit per prime power up to DENOMINATOR_BOUND: each d's mask, each mask's primes' product
_POWERS = [2, 4, 8, 16, 3, 9, 5, 7, 11, 13, 17, 19]
_PRIMES = [2, 2, 2, 2, 3, 3, 5, 7, 11, 13, 17, 19]
_DENOMINATOR_MASKS = np.array([sum(1 << k for k, q in enumerate(_POWERS) if d % q == 0)
                               for d in range(DENOMINATOR_BOUND + 1)], np.int16)
_MASK_PRODUCTS = functools.reduce(lambda table, p: np.concatenate([table, table * p]),
                                  _PRIMES, np.ones(1, np.int64))


@dataclass
class VerifyReport:
    """Outcome of one identity sweep: pass iff failures is empty."""

    identity: str
    n: int
    samples: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures

    def fail(self, point, details):
        """Record a failing point, given as a list of Python ints."""
        self.failures.append({"H": point, "details": details})

    def to_json(self):
        return {**asdict(self), "pass": self.ok}


def _generator(seed, *counts, sizes=()):
    """A verifier's numpy generator, after refusing a negative seed or
    sample count, or a point size below 1."""
    if seed < 0:
        raise ValueError("seed must be non-negative, got %d" % seed)
    if counts and min(counts) < 0:
        raise ValueError("sample counts must be non-negative, got %d" % min(counts))
    if sizes and min(sizes) < 1:
        raise ValueError("point sizes must be at least 1, got %d" % min(sizes))
    return np.random.default_rng(seed)


def _draw_cleared(rng, shape):
    """Rows of sampled rationals, each cleared to integers by its lcm.

    Draws every numerator, then every denominator, from the numpy generator.
    A row's lcm has the OR of its denominators' prime-power masks (a column
    fold), and lcm / d the primes' product on the bits OR ^ mask[d].
    """
    nums = rng.integers(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1, size=shape)
    masks = _DENOMINATOR_MASKS[rng.integers(1, DENOMINATOR_BOUND + 1, size=shape)]
    return nums * _MASK_PRODUCTS[functools.reduce(np.bitwise_or, masks.T)[:, None] ^ masks]


def _columns(points, width, factor):
    """Integer sample rows (samples, width) as the tuple of their int64
    columns, after the exactness guard factor * max|entry| < 2^53 (above)."""
    rows = np.asarray(points, dtype=np.int64).reshape(-1, width)
    if int(np.abs(rows).max(initial=0)) * factor >= 2**53:
        raise OverflowError("cleared integers too large for exact float64 evaluation")
    return tuple(rows.T)


def _chunked(cols, width, evaluate):
    """evaluate(columns), a tuple of results whose last axis runs over the
    samples, on consecutive slices of the columns (one empty slice when
    there are none); each result concatenated.  A slice holds
    CHUNK_CELLS // width samples, at least one, width the cells of 8 bytes
    per sample that evaluate holds at once (roots.SignPlan.cells: a
    float64 value per test, a byte or a bit per verdict).  A slice need
    not fill its last packed byte."""
    rows = max(1, CHUNK_CELLS // width)
    parts = [evaluate(tuple(col[lo:lo + rows] for col in cols))
             for lo in range(0, max(len(cols[0]), 1), rows)]
    return tuple(np.concatenate(part, axis=-1) for part in zip(*parts))


def _sweep(rep, points, cases, values, bad, details):
    """Evaluate values(case, columns), a tuple of result columns, for each
    case on all integer rows of points at once; rep.fail(row, details(case,
    *results at the row)) wherever bad(*results) holds, in row order, then
    case order.  Returns rep; with no cases there is nothing to test."""
    if not cases:
        return rep
    cols = _columns(points, rep.n, rep.n**2)
    vals = [values(case, cols) for case in cases]
    for i, j in np.argwhere(np.stack([bad(*v) for v in vals], axis=1)):
        rep.fail(points[i].tolist(), details(cases[j], *(c[i] for c in vals[j])))
    return rep


def verify_langlands(max_n=4, samples=10000, sampled_n=(4, 5), seed=20260816):
    """The alternating coarsening sum vanishes for every proper type.

    Exhaustive over the n! strict-chamber representatives for n <= max_n,
    then random sampling at the sizes in sampled_n (the identity holds for
    every point, walls included, so no off-wall filtering is applied).
    """
    rng = _generator(seed, samples, sizes=sampled_n)
    sweeps = [
        (n, np.array(list(itertools.permutations(range(1, n + 1)))),
         "exhaustive chamber representatives")
        for n in range(2, max_n + 1)
    ] + [(n, _draw_cleared(rng, (samples, n)), "random") for n in sampled_n]
    return [
        _sweep(VerifyReport("langlands-vanishing", n, len(points), stats={"mode": mode}),
               points, [P for P in standard_parabolics(n) if P.r >= 2],
               lambda P, cols: (signed_count(langlands_terms(P, cols)),),
               lambda v: v != 0,
               lambda P, v: "type %s sums to %d" % (P, v))
        for n, points, mode in sweeps
    ]


def _levi_counts(sizes, values):
    """levi_sum_tau_hat's ordering count for block-constant points, all
    samples at once, as chains of prefix sets.

    sizes: block sizes (r,); values: int64 array (samples, r) of per-block
    values.  Returns (counts, wall_mask): counts[i] is the number of block
    orderings whose weight pairings are all strictly positive; wall_mask
    marks samples where some pairing is exactly zero (excluded from the
    count contract).

    In the one-block group the pairing at a cut is gap(S) = n * sum(S) -
    |S| * total, S the set of blocks before the cut: a sum over S of each
    block's share m * (n * v - total), blind to the order inside S.  An
    ordering is a maximal chain of prefix sets and fires iff every proper
    one has gap > 0, so f(()) = 1, f(S) = [gap(S) > 0] * sum over b in S
    of f(S - b) and the count is f(all blocks), one subset size at a time
    with two layers alive.  Every proper nonempty S prefixes some
    ordering, so the wall is gap(S) == 0 for any of them.  f(S) <= |S|!,
    and the count is at most (r-1)!, since a wall point fires no ordering
    that a nearby point off the walls does not; so the counts take the
    narrowest int type holding (r-1)!: int8 up to r = 6, int16 up to 8.
    """
    n, r, samples = sum(sizes), len(sizes), values.shape[0]
    cols = _columns(values, r, max(sizes) * n * r)
    total = sum(col * m for col, m in zip(cols, sizes))
    shares = [m * (n * col - total) for col, m in zip(cols, sizes)]
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= math.factorial(r - 1))
    wall = np.zeros(samples, dtype=bool)
    gaps, chains = {(): 0}, {(): np.ones(samples, dtype=dtype)}
    for k in range(1, r):
        below_gaps, below_chains, gaps, chains = gaps, chains, {}, {}
        for S in itertools.combinations(range(r), k):
            gap = below_gaps[S[:-1]] + shares[S[-1]]
            wall |= gap == 0
            chains[S] = (gap > 0) * sum(below_chains[S[:i] + S[i + 1:]] for i in range(k))
            gaps[S] = gap
    # the last layer holds every set of r - 1 blocks: f(all) sums them
    return sum(chains.values()), wall


def verify_levi_sum(max_n=6, samples=10000, seed=20260816):
    """Off walls, the number of firing block orderings is (r-1)!.

    One sweep per block type of each n <= max_n; block values are sampled
    (the point is block-constant by construction), cleared to integers,
    and evaluated with the batched ordering scan.
    """
    rng = _generator(seed, samples)
    reports = []
    for n in range(1, max_n + 1):
        types = standard_parabolics(n)
        rep = VerifyReport("levi-ordering-count", n, samples * len(types),
                           stats={"wall_samples_skipped": 0})
        for M in types:
            values = _draw_cleared(rng, (samples, M.r))
            counts, wall = _levi_counts(M.blocks, values)
            expected = math.factorial(M.r - 1)
            rep.stats["wall_samples_skipped"] += int(wall.sum())
            for i in np.flatnonzero(~wall & (counts != expected))[:5]:
                rep.fail(values[i].tolist(), "type %s: %d orderings fired, expected %d"
                         % (M, int(counts[i]), expected))
        reports.append(rep)
    return reports


def _value_ranks(rows):
    """Per entry of the integer rows (samples, n), the number of distinct
    values above it in its row: the position of its value class, largest
    value first, as instability._value_classes orders them."""
    order = np.argsort(-rows, axis=1, kind="stable")
    steps = np.cumsum(np.diff(np.take_along_axis(rows, order, axis=1), axis=1) != 0, axis=1)
    ranks = np.zeros_like(rows)  # the largest value's class is at 0
    np.put_along_axis(ranks, order[:, 1:], steps, axis=1)
    return ranks


def _one_matches(flags, table, rows):
    """Per sample, whether exactly one case of flags (samples, cases) holds
    and that case's row of table equals the sample's row of rows."""
    return (flags.sum(axis=1) == 1) & (table[flags.argmax(axis=1)] == rows).all(axis=1)


def verify_canonical(sample_plan=((2, 1000), (3, 2000), (4, 3000), (5, 4000)),
                     seed=20260816):
    """Destabilizing-pair sweep: the value-class construction must match the
    definitional brute-force pair (unique by construction of the filter),
    and the largest leading-average maximizer must be its two-block
    projection.  Every check reads all points at once, the value classes
    as ranks; the scalar routes word the failing rows only."""
    rng = _generator(seed, *(count for _, count in sample_plan),
                     sizes=[n for n, _ in sample_plan])
    reports = []
    for n, count in sample_plan:
        rep = VerifyReport(identity="canonical-pair", n=n, samples=count)
        points = _draw_cleared(rng, (count, n))
        cols, ranks = _columns(points, n, n**2), _value_ranks(points)
        best, survivors = _chunked(cols, maximizer_width(n), _maximal_maximizers)
        survivors = survivors.T  # (samples, pairs)
        paired = _one_matches(survivors, pairing_plan(group(n))[0], ranks)
        _, flags = _extremal_maximizers(cols, np.maximum.reduce)
        subsets = np.array([[i in T for i in range(n)] for T, _ in flags])
        projected = _one_matches(np.stack([win for _, win in flags], axis=1), subsets, ranks == 0)
        for i in np.flatnonzero(~paired | (best < 0) | ~projected):
            H = points[i].tolist()
            try:
                _select_pair(n, int(best[i]), survivors[i])
            except WallTie as exc:  # uniqueness failed
                rep.fail(H, repr(exc))
                continue
            if not paired[i]:
                rep.fail(H, "fast/brute pair mismatch")
                continue
            if best[i] < 0:
                rep.fail(H, "negative degree")
            if not projected[i]:
                extremal_max_pair(H)  # raises its WallTie where the extremal maximizer ties
                rep.fail(H, "extremal projection mismatch")
        reports.append(rep)
    return reports


def _wall_variants(rng, n, count):
    """Rows sitting on walls on purpose: count small base rows, each
    followed (n >= 2) by itself with a repeated value, the zero row, and
    itself with a mirrored pair."""
    base = rng.integers(-5, 6, size=(count, n))
    if n < 2:
        return base
    tied, mirrored = base.copy(), base.copy()
    tied[:, 1] = base[:, 0]
    mirrored[:, -1] = -base[:, 0]
    return np.stack([base, tied, np.zeros_like(base), mirrored], axis=1).reshape(-1, n)


def verify_cones(n=3, samples=1000, seed=20260816):
    """Chamber-cone partition: every point, walls included, is accepted by
    exactly one ordered index partition, the one the fast path returns.
    The acceptance tests of every cone run from one plan on all points at
    once, and the accepting cone's rank vector must be the point's
    value-class ranks."""
    rng = _generator(seed, samples, sizes=(n,))
    points = np.concatenate([_draw_cleared(rng, (samples, n)),
                             _wall_variants(rng, n, max(1, samples // 20))])
    rep = VerifyReport(identity="cone-partition", n=n, samples=len(points))
    accepted = all_cone_tests(n, _columns(points, n, n**2)).T
    member = _one_matches(accepted, pairing_plan(group(n))[0], _value_ranks(points))
    for H, count in zip(points[~member].tolist(), accepted[~member].sum(axis=1)):
        rep.fail(H, "%d cones accept the point" % count if count != 1
                 else "fast membership disagrees")
    rep.stats["ordered_partitions_checked"] = accepted.shape[1]
    return rep


def _e_counts(Q, points):
    """(len(e_sum_terms), all(e_subset_tests)) in the type Q for every
    integer row (samples, Q.n), as two columns; e_pair_tests reads the
    rows in chunks (_chunked) and its packed holds are counted there."""
    cols = _columns(points, Q.n, Q.n**2)
    (counts,) = _chunked(cols, slope_plan(Q).cells(2),
                         lambda part: (held_counts(e_pair_tests(Q, part), len(part[0])),))
    every = functools.reduce(np.logical_and, e_subset_tests(Q, cols), np.ones(len(points), bool))
    return counts, every


def _sandwich_sides(rows):
    """indicator_E(P, H), indicator_E(group(n), H) and
    indicator_E(group(m), H[:m]), m = P.blocks[0], per row (P, H), as an
    array (rows, 3), grouped by the type each side reads.  e_verdict raises
    at the first failing (row, side), in row then side order."""
    by_type = {}
    for i, (P, H) in enumerate(rows):
        m = P.blocks[0]
        for side, (Q, point) in enumerate(((P, H), (group(P.n), H), (group(m), H[:m]))):
            by_type.setdefault(Q, []).append((i, side, point))
    counts, subset_ok = np.zeros((2, len(rows), 3), dtype=np.int64)
    for Q, entries in by_type.items():
        i, side, points = zip(*entries)
        counts[i, side], subset_ok[i, side] = _e_counts(Q, points)
    for row, side in np.argwhere((counts > 1) | (counts != subset_ok))[:1]:
        e_verdict(int(counts[row, side]), int(subset_ok[row, side]))
    return counts


def verify_E(max_n=5, samples=10000, sandwich_samples=2000, seed=20260816):
    """Slope-indicator sweep.

    Batched over all samples: the structured sum has at most one
    contributing term and agrees with the literal subset criterion.  Then
    the block sandwich E(refined) <= E(full) <= E(first block alone), with
    a random type per sample: every sample is drawn first, and each side
    is read with both routes on columns and cross-checked by e_verdict.
    """
    rng = _generator(seed, samples, sandwich_samples)
    sandwich_rng = _generator(seed + 1)
    if sandwich_samples and max_n < 2:
        raise ValueError("max_n must be at least 2 for the slope sandwich, got %d" % max_n)
    reports = []
    for n in range(1, max_n + 1):
        rep = VerifyReport(identity="slope-indicator", n=n, samples=samples)
        points = _draw_cleared(rng, (samples, n))
        counts, subset_ok = _e_counts(group(n), points)
        for i in np.flatnonzero(counts > 1)[:5]:
            rep.fail(points[i].tolist(), "%d overlapping structured terms" % int(counts[i]))
        for i in np.flatnonzero((counts == 1) != subset_ok)[:5]:
            rep.fail(points[i].tolist(), "structured sum %d vs subset criterion %d"
                     % (int(counts[i]), int(subset_ok[i])))
        rep.stats["positive_rate"] = float(subset_ok.mean()) if samples else None
        reports.append(rep)

    rep = VerifyReport(identity="slope-sandwich", n=max_n, samples=sandwich_samples)
    rows = []
    for _ in range(sandwich_samples):
        n = int(sandwich_rng.integers(2, max_n + 1))
        H = _draw_cleared(sandwich_rng, (1, n))[0].tolist()
        types = [P for P in standard_parabolics(n) if P.r >= 2]
        rows.append((types[sandwich_rng.integers(len(types))], H))
    for (P, H), (lower, middle, upper) in zip(rows, _sandwich_sides(rows)):
        if not (lower <= middle <= upper):
            rep.fail(H, "type %s: %d <= %d <= %d violated" % (P, lower, middle, upper))
    reports.append(rep)
    return reports


def verify_sigma(max_n=4, samples=1000, focus_samples=10000, seed=20260816):
    """The alternating coarsening-refinement sum stays in {0,1}.

    Every nested pair of types is swept at the base sample count; the
    minimal-inside-(2,1) pair at n=3 gets a deeper dedicated run.
    """
    rng = _generator(seed, samples, focus_samples)

    def sweep(rep, pairs, details):
        return _sweep(rep, _draw_cleared(rng, (rep.samples, rep.n)), pairs,
                      lambda pair, cols: (signed_count(sigma_terms(*pair, cols)),),
                      lambda v: (v != 0) & (v != 1), details)

    reports = []
    for n in range(2, max_n + 1):
        nested = [(P1, P2) for P2 in standard_parabolics(n) for P1 in refinements_within(P2)]
        rep = VerifyReport("sigma-range", n, samples, stats={"nested_pairs": len(nested)})
        reports.append(sweep(rep, nested, lambda pair, v: "pair (%s, %s) gives %d" % (*pair, v)))
    focus = [(minimal_parabolic(3), StandardParabolic((2, 1)))]
    rep = VerifyReport("sigma-range-focus", 3, focus_samples)
    reports.append(sweep(rep, focus, lambda pair, v: "focus pair gives %d" % v))
    return reports


def _partition_values(Q, cols):
    """(partition_sum, semistable_direct, semistable_alternating) of
    arthur_partition_report, per sample, read in chunks (_chunked)."""
    def values(part):
        chambers, signs, weights = partition_terms(Q, part)
        return chambers.sum(axis=0), blocks_constant(Q, part), signs @ weights

    plans = partition_plan(Q), type_plan(Q, Q, constancy_tests)
    return _chunked(cols, sum(plan.cells(8) for plan in plans), values)


def verify_partition(max_n=4, samples=1000, seed=20260816):
    """Both partition identities hold at every sampled point for every
    ambient type."""
    rng = _generator(seed, samples)
    return [
        _sweep(VerifyReport("partition-identities", n, samples),
               _draw_cleared(rng, (samples, n)), standard_parabolics(n), _partition_values,
               lambda part, direct, alt: (part != 1) | (direct != alt),
               lambda Q, *v: "ambient %s: sum=%d direct=%d alt=%d" % (Q, *v))
        for n in range(2, max_n + 1)
    ]


def full_suite(seed=20260816, fast=False):
    """Run every verifier; returns the flat list of reports.

    fast=True shrinks the sample counts for smoke runs; the defaults are
    the sizes the acceptance tests require.
    """
    scale = 10 if fast else 1
    reports = []
    reports += verify_langlands(samples=10000 // scale, seed=seed)
    reports += verify_levi_sum(samples=10000 // scale, seed=seed)
    reports += verify_canonical(
        sample_plan=tuple((n, c // scale) for n, c in ((2, 1000), (3, 2000), (4, 3000), (5, 4000))),
        seed=seed,
    )
    reports.append(verify_cones(n=3, samples=1000 // scale, seed=seed))
    reports.append(verify_cones(n=4, samples=1000 // scale, seed=seed))
    reports += verify_E(samples=10000 // scale, sandwich_samples=2000 // scale, seed=seed)
    reports += verify_sigma(samples=1000 // scale, focus_samples=10000 // scale, seed=seed)
    reports += verify_partition(samples=1000 // scale, seed=seed)
    return reports

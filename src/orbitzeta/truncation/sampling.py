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

Every sign-test identity has one body in indicators or instability that
yields its signs and tests from a point or from a tuple of int64 columns,
one entry per sample.  The public operations read it on one exact point;
the sweeps here read it on all sampled points at once and only combine
the boolean columns; so do the canonical-pair oracle's filter, the
extremal maximizers and the slope sandwich, whose samples are all drawn
first.  Every body reads each subset sum and each gap, constancy and
leading-sign test once per call, from that call's roots.SubsetTable;
_e_counts and the canonical-pair oracle read their rows in chunks
(_chunked), so a table holds few columns.  The value classes of
canonical_pair and cone_membership are read per row as dense ranks
(_value_ranks) and matched to each pair's rank vector (_pair_ranks);
scalar calls only word a failing row.  The Levi count reads orderings as
chains of prefix sets (_levi_counts), not the r! orderings of
indicators.levi_sum_tau_hat.

Overflow: with M the largest |entry| of a cleared sample, every subset
sum is at most n * M.  Every swept root, weight and cone pairing is
SubsetTable.pairing(S, T) = s_S * |T| - s_T * |S|, a difference of two
products bounded by n^2 * M, such a sum times a set size (at most n); so
are the extremal cross-products s_T * |U|, and the oracle's doubled
pairings have |d| <= (n - 1) * n * M.  _columns asserts n^2 * M < 2^62
before any sweep, so every difference stays below 2^63.  The Levi sweep
takes per-block values and asserts M * max size * n * r < 2^62, which is
at least n^2 * M: each subset gap n * sum(S) - |S| * total and each
block's share of it stays below 2^63.
With M <= 100 * lcm(1..20) both hold for every n used here; tests pin
each sweep to the scalar operation row by row.
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
)
from .instability import (
    _extremal_maximizers,
    _maximal_maximizers,
    _pair_merges,
    _select_pair,
    cone_tests,
    extremal_max_pair,
)
from .roots import (
    StandardParabolic,
    WallTie,
    group,
    minimal_parabolic,
    refinements_within,
    semistandard_all,
    standard_parabolics,
)

NUMERATOR_BOUND = 100
DENOMINATOR_BOUND = 20
E_ROWS = 8192  # rows per e_pair_tests call in _e_counts: bounds its table's columns
CANONICAL_ROWS = 1024  # rows per _maximal_maximizers call: bounds its pairs' columns


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
    The row lcms are folded column by column, which gives np.lcm.reduce's
    values and dtype faster than its reduction along rows.
    """
    nums = rng.integers(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1, size=shape)
    dens = rng.integers(1, DENOMINATOR_BOUND + 1, size=shape)
    lcms = functools.reduce(np.lcm, dens.T)
    return nums * (lcms[:, None] // dens)


def _every(flags, samples):
    """all() of each sample's entries over a stream of boolean columns."""
    out = np.ones(samples, dtype=bool)
    for flag in flags:
        out &= flag
    return out


def _columns(points, width, factor):
    """Integer sample rows (samples, width) as the tuple of their int64
    columns, after the overflow guard factor * max|entry| < 2^62 (above)."""
    rows = np.asarray(points, dtype=np.int64).reshape(-1, width)
    if int(np.abs(rows).max(initial=0)) * factor >= 2**62:
        raise OverflowError("cleared integers too large for int64 evaluation")
    return tuple(rows.T)


def _signed_counts(terms, samples):
    """Per sample, the sum of sign over the (sign, tests) terms whose tests
    all hold."""
    signed = (sign * _every(tests, samples) for sign, tests in terms)
    return sum(signed, np.zeros(samples, dtype=np.int64))


def _chunked(cols, rows, evaluate):
    """evaluate(columns), a tuple of results whose last axis runs over the
    samples, on consecutive slices of at most rows samples of the columns
    (one empty slice when there are none); each result concatenated."""
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
               lambda P, cols: (_signed_counts(langlands_terms(P, cols), len(cols[0])),),
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


@functools.lru_cache(maxsize=None)
def _pair_ranks(n):
    """The pairs' rank vectors (pairs, n), in _pair_merges order, which is
    also semistandard_all's: entry i is the position of index i's block."""
    return np.array([[j for _, j in sorted((i, j) for j, S in enumerate(arr) for i in S)]
                     for _, arr, _ in _pair_merges(n)], dtype=np.int64).reshape(-1, n)


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
        best, survivors = _chunked(cols, CANONICAL_ROWS,
                                   lambda part: _maximal_maximizers(part, np.maximum.reduce))
        survivors = survivors.T  # (samples, pairs)
        paired = _one_matches(survivors, _pair_ranks(n), ranks)
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
    The acceptance tests run on all points at once, and the accepting
    cone's rank vector must be the point's value-class ranks."""
    rng = _generator(seed, samples, sizes=(n,))
    all_primes = semistandard_all(n)
    points = np.concatenate([_draw_cleared(rng, (samples, n)),
                             _wall_variants(rng, n, max(1, samples // 20))])
    rep = VerifyReport(identity="cone-partition", n=n, samples=len(points))
    cols = _columns(points, n, n**2)
    accepted = np.stack([_every(cone_tests(pp, cols), len(points)) for pp in all_primes], axis=1)
    member = _one_matches(accepted, _pair_ranks(n), _value_ranks(points))
    for H, count in zip(points[~member].tolist(), accepted[~member].sum(axis=1)):
        rep.fail(H, "%d cones accept the point" % count if count != 1
                 else "fast membership disagrees")
    rep.stats["ordered_partitions_checked"] = len(all_primes)
    return rep


def _e_counts(Q, points):
    """(len(e_sum_terms), all(e_subset_tests)) in the type Q for every
    integer row (samples, Q.n), as two columns; e_pair_tests reads the
    rows E_ROWS at a time."""
    cols = _columns(points, Q.n, Q.n**2)
    def count(part):
        counts = np.zeros(len(part[0]), dtype=np.int64)
        for _, _, tests in e_pair_tests(Q, part):
            counts += _every(tests, len(counts))
        return (counts,)

    (counts,) = _chunked(cols, E_ROWS, count)
    return counts, _every(e_subset_tests(Q, cols), len(points))


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
                      lambda pair, cols: (_signed_counts(sigma_terms(*pair, cols), len(cols[0])),),
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
    arthur_partition_report, per sample."""
    samples = len(cols[0])
    part, alternating = np.zeros((2, samples), dtype=np.int64)
    for tests, sign, weights in partition_terms(Q, cols):
        part += _every(tests, samples)
        alternating += sign * _every(weights, samples)
    return part, _every(blocks_constant(Q, cols), samples), alternating


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

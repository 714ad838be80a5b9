"""Bulk randomized verification of the truncation identities.

Sampling convention: coordinates are fractions with integer numerators in
[-100, 100] and denominators in [1, 20], drawn from a seeded generator so
every run is reproducible.  Each identity is homogeneous of degree one in
the point, so samples are cleared to integer vectors (multiply by the lcm
of the denominators, at most lcm(1..20) = 232792560) before evaluation.

The scalar verifiers call the public operations unchanged; those keep the
cleared integers as Python ints (as_exact), so their sign tests are exact
integer comparisons.  The Levi-sum and slope-indicator sweeps (720
orderings x 10^4 samples is out of reach for per-sample Python) run the
same enumerations and pairings (ordering_gaps, arranged_pairs,
subset_sums) on int64 columns, one entry per sample, in place of ints;
only combining the boolean columns is their own.  Their sign tests are
int64 comparisons: the largest intermediate is bounded by
n^2 * 100 * lcm(1..20) < 2^63 for every n used here, which those sweeps
assert.  Tests pin them to the scalar operations point by point.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .indicators import (
    arthur_partition_report,
    indicator_E,
    indicator_sigma,
    langlands_sum,
    ordering_gaps,
)
from .instability import (
    canonical_pair,
    canonical_pair_brute,
    cone_accepts,
    cone_membership,
    extremal_max_pair,
    subset_sums,
)
from .roots import (
    StandardParabolic,
    arranged_pairs,
    consecutive_root_gaps,
    group,
    leading_sums,
    minimal_parabolic,
    refinements_within,
    semistandard_all,
    standard_parabolics,
)

NUMERATOR_BOUND = 100
DENOMINATOR_BOUND = 20


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

    def to_json(self):
        return {
            "identity": self.identity,
            "n": self.n,
            "samples": self.samples,
            "failures": self.failures,
            "stats": self.stats,
            "pass": self.ok,
        }


def sample_point(rng, n):
    return tuple(
        Fraction(
            rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND),
            rng.randint(1, DENOMINATOR_BOUND),
        )
        for _ in range(n)
    )


def clear_denominators(H):
    """Scale a rational point by the positive lcm of its denominators."""
    scale = math.lcm(*(h.denominator for h in H))
    return tuple(int(h * scale) for h in H)


def sample_integer_point(rng, n):
    return clear_denominators(sample_point(rng, n))


def _point_json(H):
    return [str(h) for h in H]


def _draw_cleared(rng, shape):
    """Rows of sampled rationals, each cleared to integers by its lcm.

    Draws every numerator, then every denominator, from the numpy generator.
    """
    nums = rng.integers(-NUMERATOR_BOUND, NUMERATOR_BOUND + 1, size=shape)
    dens = rng.integers(1, DENOMINATOR_BOUND + 1, size=shape)
    lcms = np.lcm.reduce(dens, axis=1)
    return nums * (lcms[:, None] // dens)


def _every(flags, samples):
    """all() of each sample's entries over a stream of boolean columns."""
    out = np.ones(samples, dtype=bool)
    for flag in flags:
        out &= flag
    return out


def verify_langlands(max_n=4, samples=10000, sampled_n=(4, 5), seed=20260816):
    """The alternating coarsening sum vanishes for every proper type.

    Exhaustive over the n! strict-chamber representatives for n <= max_n,
    then random sampling at the sizes in sampled_n (the identity holds for
    every point, walls included, so no off-wall filtering is applied).
    """
    rng = random.Random(seed)
    sweeps = [
        (n, list(itertools.permutations(range(1, n + 1))), list,
         "exhaustive chamber representatives")
        for n in range(2, max_n + 1)
    ] + [
        (n, [sample_integer_point(rng, n) for _ in range(samples)], _point_json, "random")
        for n in sampled_n
    ]
    reports = []
    for n, points, point_json, mode in sweeps:
        rep = VerifyReport(identity="langlands-vanishing", n=n, samples=len(points))
        for H in points:
            for P in standard_parabolics(n):
                if P.r >= 2 and (val := langlands_sum(P, H)) != 0:
                    rep.failures.append(
                        {"H": point_json(H), "details": "type %s sums to %d" % (P, val)}
                    )
        rep.stats["mode"] = mode
        reports.append(rep)
    return reports


def _levi_counts(sizes, values):
    """levi_sum_tau_hat's ordering scan for block-constant points, all
    samples at once.

    sizes: block sizes (r,); values: int64 array (samples, r) of per-block
    values.  Returns (counts, wall_mask): counts[i] is the number of block
    orderings whose weight pairings are all strictly positive; wall_mask
    marks samples where some pairing is exactly zero (excluded from the
    count contract).
    """
    n, r, samples = sum(sizes), len(sizes), values.shape[0]
    bound = int(np.abs(values).max(initial=0)) * max(sizes) * n * r
    if bound >= 2**62:
        raise OverflowError("cleared integers too large for int64 evaluation")
    sums = [values[:, j] * m for j, m in enumerate(sizes)]
    counts = np.zeros(samples, dtype=np.int64)
    wall = np.zeros(samples, dtype=bool)
    for _, gaps in ordering_gaps(sizes, sums):
        for g in gaps:
            wall |= g == 0
        counts += _every((g > 0 for g in gaps), samples)
    return counts, wall


def verify_levi_sum(max_n=6, samples=10000, seed=20260816):
    """Off walls, the number of firing block orderings is (r-1)!.

    One sweep per block type of each n <= max_n; block values are sampled
    (the point is block-constant by construction), cleared to integers,
    and evaluated with the batched ordering scan.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(1, max_n + 1):
        rep = VerifyReport(identity="levi-ordering-count", n=n, samples=0)
        walls_total = 0
        for M in standard_parabolics(n):
            values = _draw_cleared(rng, (samples, M.r))
            counts, wall = _levi_counts(M.blocks, values)
            expected = math.factorial(M.r - 1)
            bad = (~wall) & (counts != expected)
            walls_total += int(wall.sum())
            rep.samples += samples
            for i in np.flatnonzero(bad)[:5]:
                rep.failures.append(
                    {
                        "H": [int(v) for v in values[i]],
                        "details": "type %s: %d orderings fired, expected %d"
                        % (M, int(counts[i]), expected),
                    }
                )
        rep.stats["wall_samples_skipped"] = walls_total
        reports.append(rep)
    return reports


def verify_canonical(sample_plan=((2, 1000), (3, 2000), (4, 3000), (5, 4000)),
                     seed=20260816):
    """Destabilizing-pair sweep: the value-class construction must match the
    definitional brute-force pair (unique by construction of the filter),
    and the largest leading-average maximizer must be its two-block
    projection."""
    rng = random.Random(seed)
    reports = []
    for n, count in sample_plan:
        rep = VerifyReport(identity="canonical-pair", n=n, samples=count)
        for _ in range(count):
            H = sample_integer_point(rng, n)
            fast = canonical_pair(H)
            try:
                brute = canonical_pair_brute(H)
            except Exception as exc:  # WallTie included: uniqueness failed
                rep.failures.append({"H": _point_json(H), "details": repr(exc)})
                continue
            if (fast.parabolic, fast.weyl, fast.degree) != (
                brute.parabolic,
                brute.weyl,
                brute.degree,
            ):
                rep.failures.append(
                    {"H": _point_json(H), "details": "fast/brute pair mismatch"}
                )
                continue
            if fast.degree < 0:
                rep.failures.append(
                    {"H": _point_json(H), "details": "negative degree"}
                )
            ext = extremal_max_pair(H)
            n1 = fast.parabolic.blocks[0]
            want = (n,) if fast.parabolic.r == 1 else (n1, n - n1)
            if ext.parabolic.blocks != want or set(ext.first_block) != set(
                fast.blocks[0]
            ):
                rep.failures.append(
                    {"H": _point_json(H), "details": "extremal projection mismatch"}
                )
        reports.append(rep)
    return reports


def _wall_variants(rng, n):
    """Points sitting on walls on purpose: repeated values, zeros, and
    mirrored pairs."""
    base = [rng.randint(-5, 5) for _ in range(n)]
    out = [tuple(base)]
    if n >= 2:
        tied = list(base)
        tied[1] = tied[0]
        out.append(tuple(tied))
        out.append(tuple([0] * n))
        mirrored = list(base)
        mirrored[-1] = -mirrored[0]
        out.append(tuple(mirrored))
    return out


def verify_cones(n=3, samples=1000, seed=20260816):
    """Chamber-cone partition: every point, walls included, is accepted by
    exactly one ordered index partition, the one the fast path returns."""
    rng = random.Random(seed)
    rep = VerifyReport(identity="cone-partition", n=n, samples=0)
    all_primes = semistandard_all(n)
    points = [sample_integer_point(rng, n) for _ in range(samples)]
    for _ in range(max(1, samples // 20)):
        points.extend(_wall_variants(rng, n))
    for H in points:
        rep.samples += 1
        accepted = [pp for pp in all_primes if cone_accepts(pp, H)]
        if len(accepted) != 1:
            rep.failures.append(
                {
                    "H": _point_json(H),
                    "details": "%d cones accept the point" % len(accepted),
                }
            )
            continue
        if accepted[0] != cone_membership(H):
            rep.failures.append(
                {"H": _point_json(H), "details": "fast membership disagrees"}
            )
    rep.stats["ordered_partitions_checked"] = len(all_primes)
    return rep


def _e_counts(n, points):
    """len(e_sum_terms) and _e_subsets in the group of GL(n), all samples
    at once: points is an int64 array (samples, n), read as the tuple of
    its columns in place of a point.  Returns (term_counts, subset_ok).
    """
    samples = points.shape[0]
    bound = int(np.abs(points).max(initial=0)) * n * n
    if bound >= 2**62:
        raise OverflowError("cleared integers too large for int64 evaluation")
    cols = tuple(points.T)
    counts = np.zeros(samples, dtype=np.int64)
    for _, subs, arr, sums in arranged_pairs(group(n), cols):
        counts += _every(
            itertools.chain(
                (g > 0 for g in consecutive_root_gaps(subs, sums)),
                (s <= 0 for s in leading_sums(subs, sums)),
                # semistable rearrangement: each assigned set is constant
                (cols[i] == cols[S[0]] for S in arr for i in S[1:]),
            ),
            samples,
        )
    subset_ok = _every((s <= 0 for _, s in subset_sums(cols)), samples)
    return counts, subset_ok


def verify_E(max_n=5, samples=10000, sandwich_samples=2000, seed=20260816):
    """Slope-indicator sweep.

    Batched over all samples: the structured sum has at most one
    contributing term and agrees with the literal subset criterion.  A
    scalar pass then checks the block sandwich E(refined) <= E(full) <=
    E(first block alone) with a random type per sample, evaluating each
    side with both routes.
    """
    rng = np.random.default_rng(seed)
    scalar_rng = random.Random(seed + 1)
    reports = []
    for n in range(1, max_n + 1):
        rep = VerifyReport(identity="slope-indicator", n=n, samples=samples)
        points = _draw_cleared(rng, (samples, n))
        counts, subset_ok = _e_counts(n, points)
        for i in np.flatnonzero(counts > 1)[:5]:
            rep.failures.append(
                {
                    "H": [int(v) for v in points[i]],
                    "details": "%d overlapping structured terms" % int(counts[i]),
                }
            )
        for i in np.flatnonzero((counts == 1) != subset_ok)[:5]:
            rep.failures.append(
                {
                    "H": [int(v) for v in points[i]],
                    "details": "structured sum %d vs subset criterion %d"
                    % (int(counts[i]), int(subset_ok[i])),
                }
            )
        rep.stats["positive_rate"] = float(subset_ok.mean())
        reports.append(rep)

    rep = VerifyReport(identity="slope-sandwich", n=max_n, samples=sandwich_samples)
    for _ in range(sandwich_samples):
        n = scalar_rng.randint(2, max_n)
        H = sample_integer_point(scalar_rng, n)
        comps = [P for P in standard_parabolics(n) if P.r >= 2]
        P = scalar_rng.choice(comps)
        lower = indicator_E(P, H)
        middle = indicator_E(group(n), H)
        first = H[: P.blocks[0]]
        upper = indicator_E(group(P.blocks[0]), first)
        if not (lower <= middle <= upper):
            rep.failures.append(
                {
                    "H": _point_json(H),
                    "details": "type %s: %d <= %d <= %d violated"
                    % (P, lower, middle, upper),
                }
            )
    reports.append(rep)
    return reports


def verify_sigma(max_n=4, samples=1000, focus_samples=10000, seed=20260816):
    """The alternating coarsening-refinement sum stays in {0,1}.

    Every nested pair of types is swept at the base sample count; the
    minimal-inside-(2,1) pair at n=3 gets a deeper dedicated run.
    """
    rng = random.Random(seed)
    reports = []
    for n in range(2, max_n + 1):
        nested = []
        for P2 in standard_parabolics(n):
            for P1 in refinements_within(P2):
                nested.append((P1, P2))
        rep = VerifyReport(identity="sigma-range", n=n, samples=samples)
        rep.stats["nested_pairs"] = len(nested)
        for _ in range(samples):
            H = sample_integer_point(rng, n)
            for P1, P2 in nested:
                val = indicator_sigma(P1, P2, H)
                if val not in (0, 1):
                    rep.failures.append(
                        {
                            "H": _point_json(H),
                            "details": "pair (%s, %s) gives %d" % (P1, P2, val),
                        }
                    )
        reports.append(rep)

    rep = VerifyReport(identity="sigma-range-focus", n=3, samples=focus_samples)
    P1 = minimal_parabolic(3)
    P2 = StandardParabolic((2, 1))
    for _ in range(focus_samples):
        H = sample_integer_point(rng, 3)
        val = indicator_sigma(P1, P2, H)
        if val not in (0, 1):
            rep.failures.append(
                {"H": _point_json(H), "details": "focus pair gives %d" % val}
            )
    reports.append(rep)
    return reports


def verify_partition(max_n=4, samples=1000, seed=20260816):
    """Both partition identities hold at every sampled point for every
    ambient type."""
    rng = random.Random(seed)
    reports = []
    for n in range(2, max_n + 1):
        rep = VerifyReport(identity="partition-identities", n=n, samples=samples)
        for _ in range(samples):
            H = sample_integer_point(rng, n)
            for Q in standard_parabolics(n):
                report = arthur_partition_report(Q, H)
                if not report.ok:
                    rep.failures.append(
                        {
                            "H": _point_json(H),
                            "details": "ambient %s: sum=%d direct=%d alt=%d"
                            % (
                                Q,
                                report.partition_sum,
                                report.semistable_direct,
                                report.semistable_alternating,
                            ),
                        }
                    )
        reports.append(rep)
    return reports


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

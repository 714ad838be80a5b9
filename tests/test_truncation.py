"""Truncation combinatorics: root data, indicator functions, canonical pairs.

Random points follow the house convention: numerators in [-100, 100],
denominators in [1, 20], fixed seed.  The exhaustive brute-force oracles are
the authority everywhere they appear; the fast paths must match them exactly.
"""

import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plan_oracle
from orbitzeta.truncation import (
    ArthurReport,
    CanonicalPair,
    ExtremalPair,
    StandardParabolic,
    WallError,
    WallTie,
    arrangements,
    arthur_partition_report,
    as_exact,
    block_degree,
    canonical_pair,
    canonical_pair_brute,
    coarsenings_of,
    compositions,
    cone_accepts,
    cone_membership,
    degree_instability,
    e_sum_terms,
    epsilon_between,
    extremal_max_pair,
    group,
    indicator_E,
    indicator_F,
    indicator_chi,
    indicator_sigma,
    indicator_tau,
    indicator_tau_hat,
    langlands_sum,
    levi_sum_tau_hat,
    minimal_parabolic,
    ordered_set_partitions,
    pair_pairing,
    refinements_within,
    semistandard_all,
    standard_parabolics,
)
from orbitzeta.truncation import indicators, instability, roots, sampling, verdicts
from orbitzeta.truncation.indicators import (
    blocks_constant,
    e_subset_tests,
    langlands_terms,
    sigma_terms,
    signed_count,
)
from orbitzeta.truncation.instability import cone_tests
from orbitzeta.truncation.roots import (
    constancy_tests,
    doubled_half_sums,
    doubled_relative_rho,
    leading_tests,
    pair_merges,
    pairing_plan,
    root_tests,
    runs,
    slope_plan,
    weight_tests,
)
from orbitzeta.truncation.sampling import (
    _columns,
    _draw_cleared,
    _e_counts,
    _levi_counts,
    _partition_values,
    _sandwich_sides,
    _value_ranks,
    _wall_variants,
    full_suite,
    verify_E,
    verify_canonical,
    verify_cones,
    verify_langlands,
    verify_levi_sum,
    verify_partition,
    verify_sigma,
)

SEED = 20260816


def rng():
    return random.Random(SEED)


def rand_point(r, n):
    return tuple(
        Fraction(r.randint(-100, 100), r.randint(1, 20)) for _ in range(n)
    )


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------


def test_composition_counts():
    for n in range(1, 8):
        assert len(list(compositions(n))) == 2 ** (n - 1)
    assert len(standard_parabolics(4)) == 8


def test_parabolic_validation():
    with pytest.raises(ValueError):
        StandardParabolic((0, 2))
    with pytest.raises(ValueError):
        StandardParabolic(())
    p = StandardParabolic((2, 1))
    assert p.n == 3 and p.r == 2
    assert str(p) == "(2,1)"


def rho_values(P):
    """Per-block value of P's half-sum of radical roots (block-constant)."""
    return tuple(Fraction(d, 2) for d in doubled_half_sums(P.blocks))


def test_rho_values_minimal_gl2():
    b = minimal_parabolic(2)
    assert rho_values(b) == (Fraction(1, 2), Fraction(-1, 2))


def test_rho_values_sum_to_zero_weighted():
    for n in range(1, 6):
        for p in standard_parabolics(n):
            assert sum(v * m for v, m in zip(rho_values(p), p.blocks)) == 0


def relative_rho_values(P, Q):
    """Half-sum values of P relative to Q, aligned with P's blocks.

    For Q the full group this reduces to rho_values(P).
    """
    return tuple(Fraction(d, 2) for d in doubled_relative_rho(P.split_by(Q)))


def test_relative_rho_against_full_group():
    for n in range(1, 6):
        for p in standard_parabolics(n):
            assert relative_rho_values(p, group(n)) == rho_values(p)


def test_coarsenings_are_the_types_a_parabolic_refines():
    for n in range(1, 7):
        for p in standard_parabolics(n):
            coarser = coarsenings_of(p)
            assert len(coarser) == len(set(coarser)) == 2 ** (p.r - 1)
            assert set(coarser) == {q for q in standard_parabolics(n) if p.refines(q)}


def test_split_by_raises_exactly_when_refines_fails():
    types = [p for n in range(1, 7) for p in standard_parabolics(n)]

    def cuts(p):
        return set(itertools.accumulate(p.blocks))

    for p in types:
        for q in types:
            # oracle: same n and every cut of q is a cut of p
            expected = p.n == q.n and cuts(q) <= cuts(p)
            assert p.refines(q) == expected
            if not expected:
                with pytest.raises(ValueError, match="does not refine"):
                    p.split_by(q)
                continue
            subs = p.split_by(q)
            assert tuple(itertools.chain.from_iterable(subs)) == p.blocks
            assert tuple(sum(sub) for sub in subs) == q.blocks


def test_refinement_and_arrangement_counts():
    g = group(3)
    b = minimal_parabolic(3)
    assert b.refines(g)
    assert not g.refines(b)
    assert len(list(arrangements(b, g))) == 6  # ordered set partitions into singletons
    q = StandardParabolic((2, 1))
    assert len(list(arrangements(q, g))) == 3  # choose the pair, order forced


def test_ordered_set_partitions_are_exhaustive():
    blocks = list(ordered_set_partitions((0, 1, 2), (1, 2)))
    assert len(blocks) == 3
    for arrangement in blocks:
        assert sorted(itertools.chain.from_iterable(arrangement)) == [0, 1, 2]


def test_epsilon_between():
    b, g = minimal_parabolic(3), group(3)
    assert epsilon_between(b, g) == 1  # rank difference 2
    assert epsilon_between(StandardParabolic((2, 1)), g) == -1


# ---------------------------------------------------------------------------
# Fraction block averages: oracles independent of roots.SignPlan
# ---------------------------------------------------------------------------


def average(H, S):
    """The exact average of the coordinates of H over the index set S."""
    return Fraction(sum(H[i] for i in S), len(S))


def grouped_sets(P, Q, arr=None):
    """P's index sets (arr, or P's consecutive blocks), grouped by the
    Q-block that holds them, in block order."""
    sets = arr or [tuple(range(a, b)) for a, b in P.intervals]
    return [[S for S in sets if c <= min(S) < d] for c, d in Q.intervals]


def tau_by_averages(P, Q, H, arr=None):
    """Adjacent block averages strictly decrease inside each Q-block."""
    return all(average(H, S) > average(H, T)
               for sets in grouped_sets(P, Q, arr) for S, T in zip(sets, sets[1:]))


def weight_margins(P, Q, H, arr=None):
    """Per cut inside a Q-block, the average of the blocks before it minus
    the Q-block's average."""
    return [average(H, sum(sets[:k], ())) - average(H, sum(sets, ()))
            for sets in grouped_sets(P, Q, arr) for k in range(1, len(sets))]


def tau_hat_by_averages(P, Q, H, arr=None):
    """Every weight margin is > 0."""
    return all(m > 0 for m in weight_margins(P, Q, H, arr))


def chi_by_averages(P, Q, H):
    """The first block inside each Q-block has average <= 0."""
    return all(average(H, sets[0]) <= 0 for sets in grouped_sets(P, Q))


def levi_by_averages(M, H):
    """(on a wall, number of block orderings of M whose weight margins in
    the one-block group are all > 0): a wall is a zero margin.  A margin
    depends only on the set of blocks before its cut, so each is averaged
    once."""
    sets, whole = [tuple(range(a, b)) for a, b in M.intervals], average(H, range(M.n))

    @functools.cache
    def margin(blocks):
        return average(H, sum((sets[u] for u in blocks), ())) - whole

    margins = [[margin(tuple(sorted(order[:k]))) for k in range(1, M.r)]
               for order in itertools.permutations(range(M.r))]
    return (any(0 in ms for ms in margins), sum(all(m > 0 for m in ms) for ms in margins))


def _oracle_points(n):
    """The battery points of size n and wall rows: ties, zeros, mirrors."""
    walls = _wall_variants(np.random.default_rng(SEED + n), n, 30).tolist()
    return [H for H in _battery_points() if len(H) == n] + [tuple(H) for H in walls]


def test_wall_variants_follow_each_base_row_with_its_walls():
    """Each base row is followed by itself with H[1] = H[0], the zero row,
    and itself with the mirrored pair H[-1] = -H[0], in that order; size 1
    has base rows only."""
    for n in range(2, 7):
        rows = _wall_variants(np.random.default_rng(SEED + n), n, 12)
        assert rows.shape == (48, n)
        base, tied, zero, mirrored = rows.reshape(12, 4, n).transpose(1, 0, 2)
        assert (tied[:, 1] == base[:, 0]).all() and (np.delete(tied - base, 1, axis=1) == 0).all()
        assert not zero.any()
        assert (mirrored[:, -1] == -base[:, 0]).all() and (mirrored[:, :-1] == base[:, :-1]).all()
    assert _wall_variants(np.random.default_rng(SEED), 1, 5).shape == (5, 1)


def test_type_indicators_match_fraction_averages():
    """indicator_tau, indicator_tau_hat and indicator_chi for every pair of
    types with n <= 4, on the battery and wall points, against block
    averages computed here; a pair that does not refine is refused."""
    for n in range(1, 5):
        types = standard_parabolics(n)
        for H in _oracle_points(n):
            for P, Q in itertools.product(types, types):
                if not P.refines(Q):
                    for indicator in (indicator_tau, indicator_tau_hat, indicator_chi):
                        with pytest.raises(ValueError, match="does not refine"):
                            indicator(P, Q, H)
                    continue
                assert indicator_tau(P, Q, H) == tau_by_averages(P, Q, H), (P, Q, H)
                assert indicator_tau_hat(P, Q, H) == tau_hat_by_averages(P, Q, H), (P, Q, H)
                assert indicator_chi(P, Q, H) == chi_by_averages(P, Q, H), (P, Q, H)


def test_levi_count_matches_fraction_averages():
    """levi_sum_tau_hat for every type with n <= 4 at block-constant points
    whose block values are battery or wall points: the ordering count off
    walls, WallError on them."""
    walls = 0
    for n in range(1, 5):
        for M in standard_parabolics(n):
            for values in _oracle_points(M.r):
                H = tuple(v for v, m in zip(values, M.blocks) for _ in range(m))
                on_wall, count = levi_by_averages(M, H)
                walls += on_wall
                if on_wall:
                    with pytest.raises(WallError):
                        levi_sum_tau_hat(M, H)
                else:
                    assert levi_sum_tau_hat(M, H) == count == math.factorial(M.r - 1), (M, H)
    assert walls > 100


# ---------------------------------------------------------------------------
# tau and tau-hat
# ---------------------------------------------------------------------------


def test_tau_and_tau_hat_gl2_chamber():
    b, g = minimal_parabolic(2), group(2)
    H = (Fraction(1), Fraction(-1))
    assert indicator_tau(b, g, H) == 1
    assert indicator_tau_hat(b, g, H) == 1


def test_tau_and_tau_hat_vanish_on_the_wall():
    b, g = minimal_parabolic(2), group(2)
    H = (Fraction(0), Fraction(0))
    assert indicator_tau(b, g, H) == 0
    assert indicator_tau_hat(b, g, H) == 0


def test_tau_block_example_gl3():
    p, g = StandardParabolic((2, 1)), group(3)
    H = (Fraction(1), Fraction(1), Fraction(-2))
    assert indicator_tau(p, g, H) == 1
    assert indicator_tau_hat(p, g, H) == 1


def test_tau_hat_implies_nothing_about_tau():
    # near-dominant point where the coarse weight fires but a root gap fails
    b, g = minimal_parabolic(3), group(3)
    H = (Fraction(5), Fraction(-1), Fraction(-1))
    assert indicator_tau(b, g, H) == 0  # -1 > -1 fails
    assert indicator_tau_hat(b, g, H) == 1  # 5 > 0 and 5 - 1 > 0


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def test_chi_full_group_examples():
    b, g = minimal_parabolic(2), group(2)
    assert indicator_chi(b, g, (Fraction(-1), Fraction(3))) == 1
    assert indicator_chi(b, g, (Fraction(1), Fraction(-5))) == 0


def test_chi_per_block_example():
    q = StandardParabolic((2, 2))
    p = minimal_parabolic(4)
    H = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1))
    assert indicator_chi(p, q, H) == 1  # h1 <= 0 and h3 <= 0
    H2 = (Fraction(1), Fraction(-2), Fraction(-3), Fraction(1))
    assert indicator_chi(p, q, H2) == 0  # h1 > 0


# ---------------------------------------------------------------------------
# degrees of instability, F, canonical pairs
# ---------------------------------------------------------------------------


def test_degree_examples_gl2():
    g = group(2)
    assert degree_instability(g, (Fraction(1), Fraction(-1))) == 1
    assert degree_instability(g, (Fraction(0), Fraction(0))) == 0
    assert indicator_F(g, (Fraction(0), Fraction(0))) == 1
    assert indicator_F(g, (Fraction(1), Fraction(-1))) == 0


def test_degree_vanishes_on_constants():
    for n in range(1, 6):
        H = (Fraction(7, 3),) * n
        assert degree_instability(group(n), H) == 0
        assert indicator_F(group(n), H) == 1


def test_degree_zero_iff_constant():
    """block_degree vanishes exactly on constant blocks, and indicator_F
    equals the equality test on Q's blocks that the identities use."""
    grid = [v for m in range(1, 6) for v in itertools.product(range(-2, 3), repeat=m)]
    for v in grid + _battery_points():
        assert (block_degree(v) == 0) == (len(set(v)) == 1), v
    r = rng()
    for H in _battery_points():
        for Q in standard_parabolics(len(H)):
            assert indicator_F(Q, H) == blocks_constant(Q, H), (Q, H)
        Q = r.choice(standard_parabolics(len(H)))
        assert indicator_F(Q, H) == arthur_partition_report(Q, H).semistable_direct


def test_degree_is_nonnegative_on_samples():
    r = rng()
    for n in range(2, 6):
        for _ in range(50):
            H = rand_point(r, n)
            for q in standard_parabolics(n):
                assert degree_instability(q, H) >= 0


def test_canonical_pair_examples():
    cp = canonical_pair((Fraction(1), Fraction(-1)))
    assert cp.parabolic == minimal_parabolic(2)
    assert cp.weyl == (0, 1)
    assert cp.degree == 1
    cp2 = canonical_pair((Fraction(-1), Fraction(1)))
    assert cp2.parabolic == minimal_parabolic(2)
    assert cp2.weyl == (1, 0)
    assert cp2.degree == 1
    cp3 = canonical_pair((Fraction(4), Fraction(4), Fraction(4)))
    assert cp3.parabolic == group(3)
    assert cp3.degree == 0


def test_canonical_pair_gl3_block():
    cp = canonical_pair((Fraction(1), Fraction(1), Fraction(-2)))
    assert cp.parabolic == StandardParabolic((2, 1))
    assert cp.degree == 3


def test_canonical_matches_brute_force():
    r = rng()
    for n in range(2, 5):
        for _ in range(120):
            H = rand_point(r, n)
            fast = canonical_pair(H)
            brute = canonical_pair_brute(H)
            assert (fast.parabolic, fast.weyl, fast.degree) == (
                brute.parabolic,
                brute.weyl,
                brute.degree,
            )


def semistable_three_ways(Q, H):
    """Evaluate the three equivalent semistability criteria independently.

    Returns (by_degree, by_all_weights, by_corank_one_weights):
    degree <= 0; every relative fundamental-weight pairing over every
    refinement and rearrangement <= 0, read as Fraction averages; the same
    restricted to refinements splitting a single block once (one block
    more than Q).
    """
    H = as_exact(H)
    by_degree = degree_instability(Q, H) <= 0

    def destabilized(Ps):
        return any(m > 0 for P in Ps for arr in arrangements(P, Q)
                   for m in weight_margins(P, Q, H, arr))

    by_all = not destabilized(refinements_within(Q))
    by_maximal = not destabilized(P for P in refinements_within(Q) if P.r == Q.r + 1)
    return by_degree, by_all, by_maximal


def test_three_semistability_routes_agree():
    r = rng()
    for n in range(2, 5):
        for q in standard_parabolics(n):
            for _ in range(40):
                H = rand_point(r, n)
                a, b, c = semistable_three_ways(q, H)
                assert a == b == c
            # degenerate and tied points too
            a, b, c = semistable_three_ways(q, (Fraction(0),) * n)
            assert a == b == c == True  # noqa: E712


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_cone_membership_examples():
    m = cone_membership((Fraction(1), Fraction(-1)))
    assert m.blocks == ((0,), (1,))
    m2 = cone_membership((Fraction(-1), Fraction(1)))
    assert m2.blocks == ((1,), (0,))
    m3 = cone_membership((Fraction(0), Fraction(0)))
    assert m3.blocks == ((0, 1),)


def test_cone_partition_exhaustive_small():
    """Every point, walls included, lands in exactly one cone."""
    r = rng()
    for n in (2, 3):
        cones = semistandard_all(n)
        grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        for H in itertools.product(grid, repeat=n):
            hits = [c for c in cones if cone_accepts(c, H)]
            assert len(hits) == 1, H
            assert cone_membership(H) == hits[0]
        for _ in range(100):
            H = rand_point(r, n)
            hits = [c for c in cones if cone_accepts(c, H)]
            assert len(hits) == 1


# ---------------------------------------------------------------------------
# E
# ---------------------------------------------------------------------------


def test_indicator_E_examples():
    g = group(2)
    assert indicator_E(g, (Fraction(-1), Fraction(-2))) == 1
    assert indicator_E(g, (Fraction(-2), Fraction(1))) == 0
    g1 = group(1)
    assert indicator_E(g1, (Fraction(0),)) == 1
    assert indicator_E(g1, (Fraction(-3),)) == 1
    assert indicator_E(g1, (Fraction(2),)) == 0


def test_E_sum_has_at_most_one_term():
    r = rng()
    for n in range(2, 5):
        for q in standard_parabolics(n):
            for _ in range(30):
                H = rand_point(r, n)
                assert len(e_sum_terms(q, H)) <= 1


def test_E_routes_cross_check():
    r = rng()
    g = group(3)
    for _ in range(100):
        H = rand_point(r, 3)
        assert len(e_sum_terms(g, H)) == all(e_subset_tests(g, H))


def test_E_on_block_zero_vector():
    assert indicator_E(group(3), (Fraction(0), Fraction(0), Fraction(0))) == 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
        min_size=1,
        max_size=4,
    ),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
)
def test_E_is_scale_invariant(coords, lam):
    H = tuple(coords)
    g = group(len(H))
    scaled = tuple(lam * h for h in H)
    assert indicator_E(g, H) == indicator_E(g, scaled)


def test_E_sandwich_on_samples():
    r = rng()
    for _ in range(80):
        H = rand_point(r, 4)
        p = StandardParabolic((2, 2))
        lower = indicator_E(p, H)
        mid = indicator_E(group(4), H)
        upper = indicator_E(group(2), H[:2])
        assert lower <= mid <= upper


# ---------------------------------------------------------------------------
# sigma, Langlands, Levi sums, partition identities
# ---------------------------------------------------------------------------


def test_sigma_trivial_pair_is_one():
    g = group(3)
    r = rng()
    for _ in range(20):
        H = rand_point(r, 3)
        assert indicator_sigma(g, g, H) == 1


def test_sigma_in_unit_range_on_samples():
    r = rng()
    for n in range(2, 5):
        paras = standard_parabolics(n)
        for p2 in paras:
            for p1 in paras:
                if not p1.refines(p2):
                    continue
                for _ in range(25):
                    H = rand_point(r, n)
                    assert indicator_sigma(p1, p2, H) in (0, 1)


def test_langlands_sum_gl2_chambers():
    b = minimal_parabolic(2)
    assert langlands_sum(b, (Fraction(1), Fraction(-1))) == 0
    assert langlands_sum(b, (Fraction(-1), Fraction(1))) == 0
    assert langlands_sum(b, (Fraction(0), Fraction(0))) == 0


def test_langlands_sum_gl3_chamber_representatives():
    b = minimal_parabolic(3)
    for w in itertools.permutations((Fraction(2), Fraction(1), Fraction(0))):
        assert langlands_sum(b, w) == 0
    p21 = StandardParabolic((2, 1))
    for w in itertools.permutations((Fraction(2), Fraction(1), Fraction(0))):
        assert langlands_sum(p21, w) == 0


def test_langlands_sum_sampled_gl4():
    r = rng()
    p = StandardParabolic((2, 2))
    for _ in range(200):
        assert langlands_sum(p, rand_point(r, 4)) == 0


def test_langlands_rejects_full_group():
    with pytest.raises(ValueError):
        langlands_sum(group(2), (Fraction(1), Fraction(-1)))


def test_sums_match_their_definition_by_public_indicators():
    """langlands_sum and indicator_sigma take each coarsening's block sums
    as run totals of the finer type's; on the battery points they equal
    their defining alternating sums of the public indicators."""
    r = random.Random(SEED)
    for H in _battery_points():
        G = group(len(H))
        (P,) = _proper_type(r, H)
        if P.r >= 2:
            assert langlands_sum(P, H) == sum(
                epsilon_between(P, Q) for Q in coarsenings_of(P)
                if indicator_tau_hat(P, Q, H) and indicator_tau(Q, G, H)
            )
        P1, P2 = _type_pair(r, H)
        if P1.refines(P2):
            assert indicator_sigma(P1, P2, H) == sum(
                epsilon_between(P2, P) for P in coarsenings_of(P2)
                if indicator_tau(P1, P, H) and indicator_tau_hat(P, G, H)
            )
    b = minimal_parabolic(3)
    for operation, args in ((langlands_sum, (b,)), (indicator_sigma, (b, group(3)))):
        with pytest.raises(ValueError, match="point has 2 coordinates, expected 3"):
            operation(*args, (1, -1))
    with pytest.raises(ValueError, match=r"does not refine"):
        indicator_sigma(group(3), b, (1, 0, -1))


def test_levi_sum_examples():
    t0 = minimal_parabolic(2)
    assert levi_sum_tau_hat(t0, (Fraction(1), Fraction(-1))) == 1
    g = group(3)
    assert levi_sum_tau_hat(g, (Fraction(2), Fraction(2), Fraction(2))) == 1
    t3 = minimal_parabolic(3)
    r = rng()
    for _ in range(30):
        H = rand_point(r, 3)
        try:
            assert levi_sum_tau_hat(t3, H) == 2
        except WallError:
            pass  # tied pairings are excluded from the contract


def test_levi_sum_raises_on_walls():
    t0 = minimal_parabolic(2)
    with pytest.raises(WallError):
        levi_sum_tau_hat(t0, (Fraction(1), Fraction(1)))


def test_levi_sum_requires_block_constant_points():
    p = StandardParabolic((2, 1))
    with pytest.raises(ValueError):
        levi_sum_tau_hat(p, (Fraction(1), Fraction(2), Fraction(0)))


def test_scalar_and_vectorized_levi_counts_agree():
    """Dual-route check: the exact scalar sum and the batched sweep over
    int64 columns must count the same orderings, and see a wall exactly
    where the scalar sum raises WallError.  Every type with n <= 6, the
    range full_suite sweeps; small values put many rows on walls, where
    the count must still be that of the orderings whose pairings are all
    > 0, read from Fraction block averages."""
    r = rng()
    walls = 0
    for n in range(1, 7):
        for p in standard_parabolics(n):
            rows = []
            expected = []
            for k in range(80):
                bound = 50 if k % 2 else 3
                vals = [r.randint(-bound, bound) for _ in p.blocks]
                rows.append(vals)
                H = tuple(
                    Fraction(v) for v, m in zip(vals, p.blocks) for _ in range(m)
                )
                try:
                    expected.append((False, levi_sum_tau_hat(p, H)))
                except WallError:
                    expected.append(levi_by_averages(p, H))
            counts, wall = _levi_counts(p.blocks, np.asarray(rows, dtype=np.int64))
            for got, on_wall, (want_wall, want) in zip(counts, wall, expected):
                assert bool(on_wall) == want_wall
                assert int(got) == want
                walls += want_wall
    assert walls > 100


def _e_rows(n):
    """Drawn cleared points plus tied, zero, mirrored and all-nonpositive
    rows, as an int64 array (samples, n)."""
    gen = np.random.default_rng(SEED + n)
    drawn = _draw_cleared(gen, (150, n))
    small = gen.integers(-3, 4, size=(150, n))
    tied = small.copy()
    tied[:, -1] = tied[:, 0]
    mirrored = small.copy()
    mirrored[:, -1] = -mirrored[:, 0]
    return np.concatenate(
        [drawn, small, tied, mirrored, -np.abs(drawn), -np.abs(small),
         np.zeros((1, n), dtype=np.int64)]
    )


def test_batched_E_matches_scalar_routes_pointwise(monkeypatch):
    """The batched slope sweep, row by row, against the scalar structured
    sum (its term count) and the scalar subset route (its verdict), for
    every type with n <= 5; the rows are read 64 at a time, so the last
    call gets a short remainder."""
    for n in range(1, 6):
        points = _e_rows(n)
        assert points.shape[0] % 64
        for Q in standard_parabolics(n):
            monkeypatch.setattr(sampling, "CHUNK_CELLS", 64 * slope_plan(Q).cells(2))
            counts, subset_ok = _e_counts(Q, points)
            assert counts.shape == subset_ok.shape == (points.shape[0],)
            for row, got_count, got_ok in zip(points, counts, subset_ok):
                H = tuple(int(v) for v in row)
                assert int(got_count) == len(e_sum_terms(Q, H)), (Q, H)
                assert bool(got_ok) == all(e_subset_tests(Q, H)), (Q, H)
            assert 0 < subset_ok.sum() < points.shape[0]


def _interval(a, b):
    return tuple(range(a, b))


def _root_gaps(P, Q):
    """(S, T) per pair of adjacent blocks of P inside one block of Q."""
    return {(_interval(*u), _interval(*v)) for u, v in zip(P.intervals, P.intervals[1:])
            if any(c <= u[0] and v[1] <= d for c, d in Q.intervals)}


def _weight_gaps(P, Q):
    """(S, T) per cut of P strictly inside a block of Q: the part of the
    block before the cut, and the whole block."""
    return {(_interval(c, b), _interval(c, d))
            for _, b in P.intervals for c, d in Q.intervals if c < b < d}


def test_pair_bodies_evaluate_each_subset_entry_once(monkeypatch):
    """Each body call evaluates its roots.SignPlan, which lists each test
    once: on columns below group(5) the slope and partition bodies evaluate
    each of the 180 adjacent (S, T) gaps once per call, again in a second
    call, and the partition body adds exactly the 30 (leading union, whole
    block) weight gaps; the Langlands and sigma bodies on columns evaluate
    their root and weight gaps exactly; the scalar routes evaluate no test
    twice, and the canonical-pair oracle evaluates no plan."""
    evaluated = []
    evaluate = roots.SignPlan.evaluate

    def counting(self, H):
        evaluated.append(self)
        return evaluate(self, H)

    monkeypatch.setattr(roots.SignPlan, "evaluate", counting)
    Q, rows = group(5), _e_rows(5)
    adjacent = {(arr[u], arr[u + 1]) for P in refinements_within(Q)
                for arr in arrangements(P, Q) for u in range(P.r - 1)}
    weights = {(tuple(sorted(itertools.chain(*arr[:u]))), _interval(0, 5))
               for P in refinements_within(Q) for arr in arrangements(P, Q)
               for u in range(1, P.r)}
    subsets = {T for k in range(1, 6) for T in itertools.combinations(range(5), k)}
    equal = {((i,), (j,)) for i, j in itertools.combinations(range(5), 2)}
    assert (len(adjacent), len(weights), len(subsets)) == (180, 30, 31)
    kinds = {operator.gt: "gap", operator.ge: "cone", operator.eq: "equal",
             operator.le: "leading"}

    def evaluations(run):
        """The tests of the plans run evaluates, by kind, after checking
        that no plan lists a test twice."""
        evaluated.clear()
        run()
        got = {kind: set() for kind in kinds.values()}
        for plan in evaluated:
            assert len(set(plan.tests)) == len(plan.tests)
            for compare, S, T in plan.tests:
                got[kinds[compare]].add(S if T is None else (S, T))
        return got

    H = tuple(int(v) for v in rows[0])
    for run, plans, gaps, leading in (
            (lambda: _e_counts(Q, rows), 1, adjacent, subsets),
            (lambda: _e_counts(Q, rows[::-1]), 1, adjacent, subsets),
            (lambda: _partition_values(Q, _columns(rows, 5, 25)), 2, adjacent | weights, set())):
        got = evaluations(run)
        # one slope plan, or the partition and blocks plans, once per chunk
        assert len({id(plan) for plan in evaluated}) == plans, run
        assert got == {"gap": gaps, "cone": set(), "equal": equal, "leading": leading}, run
    cols = _columns(rows, 5, 25)
    G = group(5)
    for P in standard_parabolics(5):
        # Langlands: tau_hat(P within Q) * tau(Q within G); sigma(P1, P):
        # tau(P1 within Q) * tau_hat(Q within G), over the coarsenings Q of P
        calls = [((langlands_terms, P), set().union(*(_weight_gaps(P, Q) | _root_gaps(Q, G)
                                                      for Q in coarsenings_of(P))))]
        calls += [((sigma_terms, P1, P), set().union(*(_root_gaps(P1, Q) | _weight_gaps(Q, G)
                                                       for Q in coarsenings_of(P))))
                  for P1 in refinements_within(P)]
        for (body, *types), gaps in calls:
            got = evaluations(lambda: signed_count(body(*types, cols)))
            assert len(evaluated) == 1, (body, types)
            assert got == {"gap": gaps, "cone": set(), "equal": set(),
                           "leading": set()}, (body, types)
    for run in (lambda: e_sum_terms(Q, H), lambda: arthur_partition_report(Q, H)):
        got = evaluations(run)
        assert got["gap"] <= adjacent | weights and got["leading"] <= subsets
    evaluations(lambda: canonical_pair_brute(H))
    assert evaluated == []


def _every_plan(n, builders=roots):
    """Every roots.SignPlan the identity bodies build for points of size n:
    the slope, partition and ordering plans per type, the coarsening plans
    and type plans per nested pair, the cone plan per ordered partition and
    the cones plan of all of them; with builders=plan_oracle, the oracle's
    plans in the same order."""
    types = standard_parabolics(n)
    nested = [(P, Q) for Q in types for P in refinements_within(Q)]
    yield from (builders.slope_plan(Q) for Q in types)
    yield from (builders.partition_plan(Q) for Q in types)
    yield from (builders.ordering_plan(M) for M in types)
    yield from (builders.coarsening_plan(P, Q, inner, outer) for P, Q in nested
                for inner, outer in ((root_tests, weight_tests), (weight_tests, root_tests)))
    yield from (builders.type_plan(P, Q, tests) for P, Q in nested
                for tests in (root_tests, weight_tests, leading_tests, constancy_tests))
    yield from (builders.cone_plan(prime) for prime in semistandard_all(n))
    yield builders.cones_plan(n)


def _dot(forms, H):
    """Each row of the form matrix against the exact point, in Python."""
    return [sum(c * h for c, h in zip(row, H)) for row in forms.tolist()]


def test_sign_plan_forms_are_the_pairings():
    """Every plan's form rows for n <= 5 are the pairings of its tests at
    exact points, some with coordinates beyond 2^63, some fractional:
    row . H == s_S * |T| - s_T * |S|, or s_S for a lone sum, and each
    row's absolute sum is at most n^2 / 2, or |S| <= n for a lone sum.
    pairing_plan's forms give twice pair_pairing, each row's absolute sum
    at most n(n - 1)."""
    gen = random.Random(SEED)
    for n in range(1, 6):
        points = [tuple(gen.randint(-2**70, 2**70) for _ in range(n)), rand_point(gen, n),
                  tuple(gen.randint(-3, 3) for _ in range(n))]
        for plan in _every_plan(n):
            for (_, S, T), size in zip(plan.tests, np.abs(plan.forms).sum(axis=1).tolist()):
                assert size == len(S) if T is None else 2 * size <= n * n, (S, T)
            for H in points:
                sums = {S: sum(H[i] for i in S) for _, *pair in plan.tests for S in pair if S}
                want = [sums[S] if T is None else sums[S] * len(T) - sums[T] * len(S)
                        for _, S, T in plan.tests]
                assert _dot(plan.forms, H) == want, (plan.tests, H)
        _, forms = pairing_plan(group(n))
        assert np.abs(forms).sum(axis=1).max() <= n * (n - 1)
        for H in points:
            assert _dot(forms, H) == [2 * pair_pairing(P, group(n), arr, H)
                                      for P, arr in roots._pairs_below(group(n))]


def _guard_rows(n, gen):
    """Integer rows of size n at the exactness guard of _columns, limit =
    _guard_limit(n * n): every sign pattern of limit - 1, and near ties
    +-(limit - 2) + e, e a unit vector, its negative or a random vector in
    {-1, 0, 1}^n, where a pairing's terms reach about 2^51 while its value
    is 0, +-1 or a few units."""
    top = _guard_limit(n * n) - 1
    rows = [[sign * top for sign in signs] for signs in itertools.product((1, -1), repeat=n)]
    steps = [[int(i == j) * s for j in range(n)] for i in range(n) for s in (1, -1)]
    steps += [[gen.choice((-1, 0, 1)) for _ in range(n)] for _ in range(4)]
    rows += [[sign * (top - 1) + e for e in step] for sign in (1, -1) for step in steps]
    return np.array(rows, dtype=np.int64)


def test_column_route_is_exact_at_the_guard():
    """Every plan for n <= 5 and pairing_plan(group(n)) on int64 columns at
    the exactness guard (_guard_rows): the float64 form values and the
    verdicts equal the exact-point route's, row by row."""
    gen = random.Random(SEED)
    for n in range(1, 6):
        rows = _guard_rows(n, gen)
        cols, points = _columns(rows, n, n * n), [tuple(map(int, row)) for row in rows]
        for plan in _every_plan(n):
            values = roots.form_values(plan.forms, cols).T.tolist()
            assert values == [roots.form_values(plan.forms, H).tolist() for H in points], plan.tests
            want = np.stack([plan.holds(H) for H in points], axis=-1)
            assert np.array_equal(plan.holds(cols), want), plan.tests
        _, forms = pairing_plan(group(n))
        assert roots.form_values(forms, cols).T.tolist() == [
            roots.form_values(forms, H).tolist() for H in points], n


def _same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (a, b)


def _same_ragged(got, want):
    """Equal fold operands: the list count, and per length group, in order,
    the lists' positions and theirs as rows, dtypes and shapes included."""
    assert got[0] == want[0] and len(got[1]) == len(want[1])
    for group, want_group in zip(got[1], want[1]):
        _same_arrays(group, want_group)


def _same_plan(got, want):
    """Equal plans, field for field: the tests in order, the form matrix,
    the signs, the cell width, the comparison slices and the terms."""
    assert got.tests == want.tests
    _same_arrays((got.forms, got.signs), (want.forms, want.signs))
    assert (got.width, got._compares) == (want.width, want._compares)
    _same_ragged(got._terms, want._terms)


def _oracle_pairs(Q):
    """tests/plan_oracle.py's pairs below Q, as (P, arrangement)."""
    return tuple((P, arr) for P, _, arr in plan_oracle.pairs_below(Q))


def test_mask_builders_match_the_tuple_oracle():
    """The bit-mask builders make every plan that tests/plan_oracle.py
    builds from index tuples, field for field: every plan of _every_plan(n)
    for n <= 5, the slope and partition plans of every type with n = 6 and
    of two sparse types with n = 31 and 70, and for n <= 6 pairing_plan
    (ranks, forms) and pair_merges; the pairs below each of those types
    (roots._pairs_below), the compositions, the arrangements below every
    type and the ordered set partitions under them match too."""
    for n in range(1, 6):
        for got, want in zip(_every_plan(n), _every_plan(n, plan_oracle), strict=True):
            _same_plan(got, want)
        for Q in standard_parabolics(n):
            for P in refinements_within(Q):
                assert list(arrangements(P, Q)) == list(plan_oracle.arrangements(P, Q))
    # past 30 indices the masks and keys are Python ints
    for Q in standard_parabolics(6) + (StandardParabolic((1,) * 29 + (2,)),
                                       StandardParabolic((2, 1, 3) + (1,) * 64)):
        assert roots._pairs_below(Q) == _oracle_pairs(Q)
        _same_plan(slope_plan(Q), plan_oracle.slope_plan(Q))
        _same_plan(roots.partition_plan(Q), plan_oracle.partition_plan(Q))
    for n in range(1, 7):
        assert roots._pairs_below(group(n)) == _oracle_pairs(group(n))
        _same_arrays(pairing_plan(group(n)), plan_oracle.pairing_plan(group(n)))
        _same_ragged(pair_merges(n), plan_oracle.pair_merges(n))
        assert compositions(n) == plan_oracle.compositions(n)
        for sizes in compositions(n) + [(0, n), (n, 0)]:
            assert (list(ordered_set_partitions(range(10, 10 + n), sizes))
                    == list(plan_oracle.ordered_set_partitions(range(10, 10 + n), sizes)))


def test_pairs_below_the_group_are_the_ordered_set_partitions():
    """For n = 1..7 the pairs below group(n) number the ordered Bell
    (Fubini) numbers, types in refinements_within order: each arrangement
    is an ordered set partition of range(n) into ascending index sets of
    the sizes P.blocks, and none repeats."""
    for n, count in enumerate((1, 3, 13, 75, 541, 4683, 47293), 1):
        pairs = roots._pairs_below(group(n))
        assert len(pairs) == len({arr for _, arr in pairs}) == count
        assert list(dict.fromkeys(P for P, _ in pairs)) == refinements_within(group(n))
        for P, arr in pairs:
            assert tuple(map(len, arr)) == P.blocks
            assert sorted(itertools.chain(*arr)) == list(range(n))
            assert all(list(S) == sorted(S) for S in arr)


def test_sweeps_build_no_pair_tuples():
    """The sweeps read plans and bodies as arrays: with every cache of
    roots cleared, verify_E, verify_partition, verify_canonical,
    verify_langlands, verify_sigma, verify_levi_sum and verify_cones pass
    at small sample counts and leave roots._pairs_below's cache empty,
    since only a named pair (e_sum_terms, _select_pair, semistandard_all)
    needs it."""
    for cached in vars(roots).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    reports = (verify_E(max_n=4, samples=200, sandwich_samples=100)
               + verify_partition(samples=50)
               + verify_canonical(sample_plan=((2, 100), (3, 100), (4, 100)))
               + verify_langlands(max_n=3, samples=100)
               + verify_sigma(samples=50, focus_samples=100)
               + verify_levi_sum(max_n=4, samples=100)
               + [verify_cones(n=n, samples=50) for n in (3, 4)])
    assert all(rep.ok for rep in reports)
    assert roots._pairs_below.cache_info().currsize == 0


def test_each_named_pair_is_the_one_whose_tests_hold():
    """e_sum_terms names pairs from roots._pairs_below and reads their
    holds from roots.slope_plan, so the two must stay aligned.  For every
    type Q with n <= 5, on 40 rows with every coordinate <= 0 (drawn, and
    small with ties), E holds and exactly one pair (P, arr) contributes:
    at the rearranged point H' (arr's index sets in order) P's blocks are
    constant, their averages strictly decrease inside each Q-block
    (indicator_tau) and each Q-block's leading block sums to <= 0
    (indicator_chi), checked through the scalar type plans."""
    for n in range(1, 6):
        gen = np.random.default_rng(SEED + n)
        rows = np.concatenate([-np.abs(_draw_cleared(gen, (20, n))),
                               gen.integers(-3, 1, size=(20, n))])
        for Q in standard_parabolics(n):
            for row in rows:
                H = tuple(int(v) for v in row)
                ((P, arr),) = e_sum_terms(Q, H)
                arranged = tuple(H[i] for S in arr for i in S)
                assert blocks_constant(P, arranged), (Q, H)
                assert indicator_tau(P, Q, arranged) == indicator_chi(P, Q, arranged) == 1, (Q, H)


def test_cold_slope_counts_at_seven_build_their_plan_quickly():
    """A cold 10-row _e_counts(group(7), ...) in a fresh interpreter, plan
    build included (2,080 tests in 47,293 pair terms), takes under 0.5 s:
    0.100 to 0.159 s over 12 runs on a 2-vCPU host (0.096 to 0.161 s over
    10 beside another busy process), against 0.16 to 0.29 s while the
    plan also built the pair tuples and 0.92 to 1.32 s with the
    tuple-interning builders.  Both routes agree on every row, and no
    (P, arrangement) tuple is built."""
    script = (
        "import json, time\n"
        "import numpy as np\n"
        "from orbitzeta.truncation import roots, sampling\n"
        "rows = np.random.default_rng(7).integers(-100, 101, size=(10, 7))\n"
        "rows[:3] = -np.abs(rows[:3])\n"
        "start = time.perf_counter()\n"
        "counts, every = sampling._e_counts(roots.group(7), rows)\n"
        "seconds = time.perf_counter() - start\n"
        "named = roots._pairs_below.cache_info().currsize\n"
        "print(json.dumps([seconds, counts.tolist(), every.tolist(), named]))\n"
    )
    src = str(pathlib.Path(roots.__file__).resolve().parents[2])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seconds, counts, every, named = json.loads(done.stdout)
    assert counts[:3] == [1, 1, 1] and counts == [int(ok) for ok in every], (counts, every)
    assert named == 0
    assert seconds < 0.5, seconds


def test_chunk_sizes_stay_as_stated(monkeypatch):
    """The GL(5) slope plan has 221 rows for 541 pairs and width 317, 334
    with the count's cells, so the slope sweep reads it 392 rows per chunk,
    and the canonical-pair sweep reads 175: a builder change cannot move
    the chunking, or the page-fault margin below twice CHUNK_CELLS,
    unnoticed.  On a 2-vCPU host, in verify_E at n <= 5 with 25,000
    samples, the GL(5) slope counts took 14-17 ms with 20 minor faults
    (ru_minflt) on the first sweep and none on a repeat; at twice
    CHUNK_CELLS, 784 rows per chunk, 12-16 ms with 20-21 faults, then
    none."""
    plan = slope_plan(group(5))
    assert (len(plan.tests), len(plan.signs), plan.width, plan.cells(2)) == (221, 541, 317, 334)
    for name, sweep, rows in (
            ("e_pair_tests", lambda: _e_counts(group(5), np.zeros((2000, 5), np.int64)), 392),
            ("_maximal_maximizers", lambda: verify_canonical(sample_plan=((5, 800),)), 175)):
        sizes, body = [], getattr(sampling, name)
        monkeypatch.setattr(sampling, name,
                            lambda *args: sizes.append(len(args[-1][0])) or body(*args))
        sweep()
        total = sum(sizes)
        assert sizes == [rows] * (total // rows) + [total % rows], name


def test_packed_folds_match_the_bool_reference():
    """Every plan's packed verdicts, unpacked, equal the plain bool fold of
    tests/plan_oracle.py, for every plan with n <= 4 and the GL(5) slope
    and partition plans: on 0 samples (no byte), 1, 7, 9 and 67 (a partial
    last byte), 8 and 64 (whole bytes), and at single exact points; each
    packed row holds one byte per 8 samples, the last one partial."""
    plans = [plan for n in range(1, 5) for plan in _every_plan(n)]
    plans += [slope_plan(group(5)), roots.partition_plan(group(5))]
    for plan in plans:
        n = plan.forms.shape[1] or 1
        rows = _e_rows(n)
        for samples in (0, 1, 7, 8, 9, 64, 67):
            cols = _columns(rows[:samples], n, n * n)
            assert plan.evaluate(cols).shape == (len(plan.signs), -(-samples // 8))
            assert np.array_equal(plan.holds(cols), plan_oracle.bool_holds(plan, cols)), plan.tests
        for row in rows[::150]:
            H = tuple(int(v) for v in row)
            assert plan.evaluate(H).shape == (len(plan.signs), 1)
            assert np.array_equal(plan.holds(H), plan_oracle.bool_holds(plan, H)), (plan.tests, H)


def _spread(holds):
    """Each row holding also where the next two rows hold: a row that held
    alone becomes three where the type has three pairs or more."""
    return holds | np.roll(holds, 1, axis=0) | np.roll(holds, 2, axis=0)


def test_packed_counts_match_the_bool_reference(monkeypatch):
    """verdicts.held_counts on packed rows equals the bool rows' sums for 0 to 541
    rows and 0 to 100 samples at densities from none to all, exact past
    two; _e_counts for every type with n <= 4 equals the plain bool fold's
    counts: on no sample, and read 13 rows at a time, so every chunk ends
    inside a byte, with the slope body as it is and with its holding pair
    spread to the next two (_spread, planted on the packed rows and on the
    reference alike), so that counts of two and three must come out
    exactly; at one exact point e_pair_tests holds one byte per pair."""
    gen = np.random.default_rng(SEED)
    for terms, samples, density in itertools.product((0, 1, 2, 3, 5, 8, 541), (0, 1, 7, 8, 13, 100),
                                                     (0.0, 0.01, 0.3, 1.0)):
        rows = gen.random((terms, samples)) < density
        assert np.array_equal(verdicts.held_counts(verdicts.packed(rows), samples),
                              rows.sum(axis=0))
    body = sampling.e_pair_tests
    for n in range(1, 5):
        points = _e_rows(n)
        cols = _columns(points, n, n * n)
        for Q in standard_parabolics(n):
            plan, want = slope_plan(Q), plan_oracle.bool_holds(slope_plan(Q), cols)
            counts, every = _e_counts(Q, points[:0])
            assert counts.shape == every.shape == (0,)
            H = tuple(int(v) for v in points[-2])
            bits = indicators.e_pair_tests(Q, H)
            assert bits.shape == (len(plan.signs), 1)
            assert np.array_equal(verdicts.unpacked(bits, 1)[:, 0], plan_oracle.bool_holds(plan, H))
            monkeypatch.setattr(sampling, "CHUNK_CELLS", 13 * plan.cells(2))
            for mutate, reference in ((lambda bits: bits, want), (_spread, _spread(want))):
                sizes = []
                monkeypatch.setattr(sampling, "e_pair_tests", lambda Q, H: (
                    sizes.append(len(H[0])) or mutate(body(Q, H))))
                counts, _ = _e_counts(Q, points)
                assert sizes[0] % 8 and sum(sizes) == len(points), sizes
                assert np.array_equal(counts, reference.sum(axis=0)), Q
            if len(plan.signs) >= 3:
                assert counts.max() == 3
            monkeypatch.undo()


def test_cold_slope_counts_at_seven_stay_fast_and_bounded():
    """A cold 2,000-row _e_counts(group(7), ...) in a fresh interpreter,
    plan build included, takes under 0.5 s: 0.24 to 0.27 s over 6 runs on
    a 2-vCPU host, against 2.4 to 2.5 s with one bool per sample and term
    (26 and 5 rows per chunk).  Its counts equal the plain bool fold's row
    by row.  Reading 8,000 rows more raises the peak RSS by under 16 MB
    (by nothing in those runs): the chunks bound it, where the packed fold
    unchunked reached 614 MB at 8,192 rows."""
    script = (
        "import json, resource, time\n"
        "import numpy as np\n"
        "from orbitzeta.truncation import roots, sampling\n"
        "rows = np.random.default_rng(7).integers(-100, 101, size=(2000, 7))\n"
        "rows[::3] = -np.abs(rows[::3])\n"
        "start = time.perf_counter()\n"
        "counts, every = sampling._e_counts(roots.group(7), rows)\n"
        "seconds = time.perf_counter() - start\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sampling._e_counts(roots.group(7), np.tile(rows, (4, 1)))\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak\n"
        "print(json.dumps([seconds, counts.tolist(), every.tolist(), grown]))\n"
    )
    src = str(pathlib.Path(roots.__file__).resolve().parents[2])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seconds, counts, every, grown = json.loads(done.stdout)
    rows = np.random.default_rng(7).integers(-100, 101, size=(2000, 7))
    rows[::3] = -np.abs(rows[::3])
    plan = slope_plan(group(7))
    want = np.concatenate([plan_oracle.bool_holds(plan, _columns(part, 7, 49)).sum(axis=0)
                           for part in np.split(rows, 40)])
    assert counts == want.tolist() == [int(ok) for ok in every]
    assert sum(counts) >= 600
    assert grown < 16 * 1024, grown
    assert seconds < 0.5, seconds


def test_E_is_every_coordinate_nonpositive():
    """Singletons are among the scanned subsets, so the slope indicator of
    every type is "every coordinate <= 0": on every drawn and wall row
    through its column route, and on every 25th row through indicator_E."""
    for n in range(1, 6):
        points = _e_rows(n)
        want = (points <= 0).all(axis=1)
        for Q in standard_parabolics(n):
            counts, subset_ok = _e_counts(Q, points)
            assert (counts == want).all() and (subset_ok == want).all(), Q
            for row, w in zip(points[::25], want[::25]):
                assert indicator_E(Q, tuple(int(v) for v in row)) == w, (Q, row)


def _proper_types(n):
    return [P for P in standard_parabolics(n) if P.r >= 2]


def _sandwich_loop(rows):
    """The per-sample slope sandwich: indicator_E on the lower, middle and
    upper side of each row (P, H), in that order."""
    return [
        (indicator_E(P, H), indicator_E(group(P.n), H),
         indicator_E(group(P.blocks[0]), H[: P.blocks[0]]))
        for P, H in rows
    ]


def _sandwich_rows(seed, samples, max_n):
    """verify_E's sandwich draws (type, point), in its order: per sample a
    size, a cleared point and a type index from one generator."""
    gen = np.random.default_rng(seed + 1)
    rows = []
    for _ in range(samples):
        n = int(gen.integers(2, max_n + 1))
        H = _draw_cleared(gen, (1, n))[0].tolist()
        types = _proper_types(n)
        rows.append((types[gen.integers(len(types))], H))
    return rows


def test_sandwich_sides_match_indicator_E_rows():
    """The column sandwich, row by row, against indicator_E per sample, for
    every proper type of n = 2..5: each type on every len(types)-th drawn
    or wall row (every third row at n = 5, whose scalar loop is the slow
    one) and on the zero row; and an empty draw list."""
    assert _sandwich_sides([]).shape == (0, 3)
    seen = set()
    for n in range(2, 6):
        types = _proper_types(n)
        rows = [(types[i % len(types)], tuple(int(v) for v in row))
                for i, row in enumerate(_e_rows(n)[:: 3 if n == 5 else 1])]
        rows += [(P, (0,) * n) for P in types]
        got = _sandwich_sides(rows)
        assert got.shape == (len(rows), 3)
        assert [tuple(int(v) for v in sides) for sides in got] == _sandwich_loop(rows)
        seen.update(map(tuple, got.tolist()))
    assert {(0, 0, 0), (0, 0, 1), (1, 1, 1)} <= seen


def _sigma_pairs(n):
    return [(P1, P2) for P2 in standard_parabolics(n) for P1 in refinements_within(P2)]


# name -> (sizes n, cases(n), column route(case, columns) -> tuple of
# columns, scalar(case, H) -> tuple); each route is what the sweep evaluates
COLUMN_ROUTES = {
    "langlands_sum": (
        range(2, 6),
        lambda n: [P for P in standard_parabolics(n) if P.r >= 2],
        lambda P, cols: (signed_count(langlands_terms(P, cols)),),
        lambda P, H: (langlands_sum(P, H),),
    ),
    "indicator_sigma": (
        range(2, 5),
        _sigma_pairs,
        lambda pair, cols: (signed_count(sigma_terms(*pair, cols)),),
        lambda pair, H: (indicator_sigma(*pair, H),),
    ),
    "arthur_partition_report": (
        range(1, 6),
        standard_parabolics,
        _partition_values,
        lambda Q, H: dataclasses.astuple(arthur_partition_report(Q, H)),
    ),
    "cone_accepts": (
        range(1, 5),
        semistandard_all,
        lambda prime, cols: (cone_tests(prime, cols),),
        lambda prime, H: (cone_accepts(prime, H),),
    ),
}


def _route_matches_scalar(name, n, rows):
    """Every case of the route on the rows, against the scalar function."""
    _, cases, route, scalar = COLUMN_ROUTES[name]
    cols = _columns(rows, n, n * n)
    for case in cases(n):
        got = route(case, cols)
        assert all(c.shape == (len(rows),) for c in got)
        for i, row in enumerate(rows):
            H = tuple(int(v) for v in row)
            assert tuple(c[i] for c in got) == scalar(case, H), (case, H)


# (route, n) -> stride through _e_rows(n): the scalar partition report
# takes about 0.02 s per row over the 16 types of n = 5
ROW_STRIDES = {("arthur_partition_report", 5): 10}


@pytest.mark.parametrize("name", sorted(COLUMN_ROUTES))
def test_column_routes_match_scalar_rows(name):
    """Each sweep's column route, row by row on drawn and wall rows,
    against the scalar operation, for every case of each size."""
    sizes = COLUMN_ROUTES[name][0]
    rows = [_e_rows(n)[:: ROW_STRIDES.get((name, n), 1)] for n in sizes]
    for n, points in zip(sizes, rows):
        _route_matches_scalar(name, n, points)
    assert sum(map(len, rows)) >= 1000


def _langlands_loop(points):
    return [
        {"H": list(H), "details": "type %s sums to %d" % (P, val)}
        for H in points
        for P in standard_parabolics(len(H))
        if P.r >= 2 and (val := langlands_sum(P, H)) != 0
    ]


def _sigma_loop(points, pairs, text):
    return [
        {"H": list(H), "details": text(P1, P2, val)}
        for H in points
        for P1, P2 in pairs
        if (val := indicator_sigma(P1, P2, H)) not in (0, 1)
    ]


def _partition_loop(points):
    return [
        {"H": list(H),
         "details": "ambient %s: sum=%d direct=%d alt=%d" % (Q, *dataclasses.astuple(rep))}
        for H in points
        for Q in standard_parabolics(len(H))
        if not (rep := arthur_partition_report(Q, H)).ok
    ]


def _cones_loop(points):
    out = []
    for H in points:
        accepted = [pp for pp in semistandard_all(len(H)) if cone_accepts(pp, H)]
        if len(accepted) != 1:
            details = "%d cones accept the point" % len(accepted)
        elif accepted[0] != cone_membership(H):
            details = "fast membership disagrees"
        else:
            continue
        out.append({"H": list(H), "details": details})
    return out


def _drop_first(body):
    """The body without its first term: each of its per-term arrays loses
    its first entry."""
    return lambda *args: tuple(part[1:] for part in body(*args))


def _negated(body):
    """The body with every sign flipped."""
    def broken(*args):
        signs, holds = body(*args)
        return -signs, holds
    return broken


def _one_block_negated(body):
    """The cone body with the verdict of the one-block cone negated."""
    return lambda prime, H: ~body(prime, H) if len(prime.blocks) == 1 else body(prime, H)


def _one_block_row_negated(body):
    """The body of all cones with the verdict of the one-block cone, its
    first row (semistandard_all order), negated."""
    def broken(n, H):
        holds = body(n, H).copy()
        holds[0] = ~holds[0]
        return holds
    return broken


def _never_first(holds):
    """The per-term holds with the first term failing on every row."""
    holds = holds.copy()
    holds[0] = False
    return holds


def test_sweep_failures_match_per_sample_loops(monkeypatch):
    """With a body broken in both its scalar and its column use, each
    column sweep lists the failures a per-sample loop over the scalar
    operation finds: every failing (point, case), same text, in point
    order, each point a list of Python ints.  The cone sweep reads all
    cones from one plan (all_cone_tests) and cone_accepts one cone's
    (cone_tests), so both carry the one-block negation."""
    for modules, name, mutate in (
        ((indicators, sampling), "langlands_terms", _drop_first),
        ((indicators, sampling), "sigma_terms", _negated),
        ((indicators, sampling), "partition_terms", _drop_first),
        ((instability, sampling), "all_cone_tests", _one_block_row_negated),
        ((instability,), "cone_tests", _one_block_negated),
    ):
        broken = mutate(getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, broken)
    seed = 5
    sampled = _draw_cleared(np.random.default_rng(seed), (60, 4)).tolist()
    reports = verify_langlands(max_n=3, samples=60, sampled_n=(4,), seed=seed)
    expected = [_langlands_loop(itertools.permutations(range(1, n + 1))) for n in (2, 3)]
    expected.append(_langlands_loop(sampled))
    gen = np.random.default_rng(seed)
    base = [_draw_cleared(gen, (40, n)).tolist() for n in (2, 3)]
    focus = _draw_cleared(gen, (50, 3)).tolist()
    focus_pair = [(minimal_parabolic(3), StandardParabolic((2, 1)))]

    def pair_text(P1, P2, val):
        return "pair (%s, %s) gives %d" % (P1, P2, val)

    reports += verify_sigma(max_n=3, samples=40, focus_samples=50, seed=seed)
    expected += [
        _sigma_loop(base[0], _sigma_pairs(2), pair_text),
        _sigma_loop(base[1], _sigma_pairs(3), pair_text),
        _sigma_loop(focus, focus_pair, lambda P1, P2, val: "focus pair gives %d" % val),
    ]
    gen = np.random.default_rng(seed)
    drawn = [_draw_cleared(gen, (30, n)).tolist() for n in (2, 3)]
    reports += verify_partition(max_n=3, samples=30, seed=seed)
    expected += [_partition_loop(points) for points in drawn]
    gen = np.random.default_rng(seed)
    points = np.concatenate([_draw_cleared(gen, (100, 3)), _wall_variants(gen, 3, 5)])
    reports.append(verify_cones(n=3, samples=100, seed=seed))
    expected.append(_cones_loop(points.tolist()))
    assert [rep.failures for rep in reports] == expected
    assert all(expected), [len(e) for e in expected]
    assert all(type(v) is int for rep in reports for f in rep.failures for v in f["H"])


def _first_raise(evaluate, rows):
    """The ArithmeticError text evaluate(rows) raises, or None."""
    try:
        evaluate(rows)
    except ArithmeticError as exc:
        return str(exc)
    return None


def _first_never(body):
    """The body with the first pair's tests failing."""
    return lambda Q, H: _never_first(body(Q, H))


def _overlapping(body):
    """The body with each pair holding also wherever the one before it
    does, the first wherever the last does (a type with one pair is left
    as it is), bitwise on its packed rows."""
    def broken(Q, H):
        holds = body(Q, H)
        return holds | np.roll(holds, 1, axis=0)
    return broken


def _break_e_pairs(monkeypatch, mutate):
    broken = mutate(indicators.e_pair_tests)
    monkeypatch.setattr(indicators, "e_pair_tests", broken)
    monkeypatch.setattr(sampling, "e_pair_tests", broken)


@pytest.mark.parametrize(
    "mutate, text",
    [(_overlapping, "structured sum produced 2 overlapping terms"),
     (_first_never, "the two routes disagree: sum=0 subsets=1")],
    ids=["overlapping", "disagree"],
)
def test_sandwich_raises_the_loops_first_verdict(monkeypatch, mutate, text):
    """With e_pair_tests broken in both its scalar and its column use,
    verify_E raises the text the per-sample loop raises first, and the
    column sandwich passes every row before the loop's first failing one."""
    _break_e_pairs(monkeypatch, mutate)
    seed, samples = 7, 200
    rows = _sandwich_rows(seed, samples, 4)
    want = _first_raise(_sandwich_loop, rows)
    assert want == text
    with pytest.raises(ArithmeticError) as exc:
        verify_E(max_n=4, samples=20, sandwich_samples=samples, seed=seed)
    assert str(exc.value) == want
    first = next(i for i, row in enumerate(rows) if _first_raise(_sandwich_loop, [row]))
    assert _sandwich_sides(rows[:first]).shape == (first, 3)
    assert _first_raise(_sandwich_sides, rows[: first + 1]) == want


def test_sandwich_raises_in_row_then_side_order(monkeypatch):
    """Each pair holding also where the one before it does below proper
    types, the first pair failing below the one-block ones: at (-1,-2,-3)
    with type (1,2) the lower side overlaps and the upper side disagrees.
    The sandwich raises the loop's text: lower before upper within a row,
    an earlier row before a later one."""
    _break_e_pairs(monkeypatch, lambda body: lambda Q, H: (
        (_overlapping if Q.r >= 2 else _first_never)(body)(Q, H)))
    P = StandardParabolic((1, 2))
    both, upper_only = (P, (-1, -2, -3)), (P, (-1, 5, 0))
    for rows, text in (([both], "structured sum produced 2 overlapping terms"),
                       ([upper_only, both], "the two routes disagree: sum=0 subsets=1")):
        assert _first_raise(_sandwich_loop, rows) == text
        assert _first_raise(_sandwich_sides, rows) == text


def _slope_loop(points):
    """verify_E's batched listing, one indicator_E call per point: where it
    raises, the overlap and then the disagreement failures, five of each."""
    overlap, disagree = [], []
    for row in points:
        H = tuple(int(v) for v in row)
        Q = group(len(H))
        try:
            indicator_E(Q, H)
        except ArithmeticError:
            count, ok = len(e_sum_terms(Q, H)), int(all(e_subset_tests(Q, H)))
            if count > 1:
                overlap.append({"H": list(H),
                                "details": "%d overlapping structured terms" % count})
            if (count == 1) != ok:
                text = "structured sum %d vs subset criterion %d" % (count, ok)
                disagree.append({"H": list(H), "details": text})
    return overlap[:5] + disagree[:5]


def test_slope_sweep_lists_failures_when_no_pair_is_left(monkeypatch):
    """With e_pair_tests dropping its first pair in both its scalar and its
    column use, n = 1 has no pair left: the batched sweep counts zero terms
    on a zero column and lists the failures the per-sample loop finds."""
    _break_e_pairs(monkeypatch, lambda body: lambda Q, H: body(Q, H)[1:])
    seed, samples = 5, 20
    points = _draw_cleared(np.random.default_rng(seed), (samples, 1))
    rep = verify_E(max_n=1, samples=samples, sandwich_samples=0, seed=seed)[0]
    assert rep.failures == _slope_loop(points)
    assert rep.failures


def _last_negated(body):
    """The body read at the point with its last coordinate negated, for
    the one-block types only."""
    return lambda Q, H: body(Q, H if Q.r >= 2 else H[:-1] + (-H[-1],))


def test_sandwich_violations_match_the_per_sample_loop(monkeypatch):
    """With both routes of the slope indicator broken alike, so that they
    agree and nothing raises, the sandwich lists the violations the
    per-sample loop finds: same points, same text, in sample order."""
    for name in ("e_pair_tests", "e_subset_tests"):
        broken = _last_negated(getattr(indicators, name))
        monkeypatch.setattr(indicators, name, broken)
        monkeypatch.setattr(sampling, name, broken)
    seed, samples = 5, 300
    rows = _sandwich_rows(seed, samples, 5)
    sides = _sandwich_loop(rows)
    expected = [
        {"H": H, "details": "type %s: %d <= %d <= %d violated" % (P, *s)}
        for (P, H), s in zip(rows, sides)
        if not s[0] <= s[1] <= s[2]
    ]
    reports = verify_E(max_n=5, samples=10, sandwich_samples=samples, seed=seed)
    assert all(rep.ok for rep in reports[:-1])
    assert reports[-1].failures == expected
    assert all(type(v) is int for f in reports[-1].failures for v in f["H"])
    assert any(s[0] > s[1] for s in sides) and any(s[1] > s[2] for s in sides)


def _canonical_rows(n):
    """_e_rows plus constant rows and the battery points of size n."""
    small = np.random.default_rng(SEED - n).integers(-3, 4, size=(60, 1))
    battery = [H for H in _battery_points() if len(H) == n]
    return np.concatenate([_e_rows(n), np.repeat(small, n, axis=1), np.array(battery)])


def _brute_outcome(select):
    try:
        return select()
    except WallTie as exc:
        return repr(exc)


def _canonical_columns(n, rows):
    """The canonical-pair filter on the int64 columns of the rows, as
    verify_canonical reads it: the doubled maximum, and the survivor flags
    as an array (samples, pairs)."""
    best, survivors = instability._maximal_maximizers(_columns(rows, n, n * n))
    return best, survivors.T


def _column_extremal(n, rows):
    """Per row, the winning subsets of the extremal maximizers on the int64
    columns of the rows, each with its average."""
    tops, flags = instability._extremal_maximizers(_columns(rows, n, n * n), np.maximum.reduce)
    return [[(T, Fraction(int(tops[len(T) - 1][i]), len(T))) for T, win in flags if win[i]]
            for i in range(len(rows))]


@functools.lru_cache(maxsize=None)
def _self_merging(n):
    """A broken merge table: every odd position is its own merge, so it
    never survives, and every even one has no merges."""
    return plan_oracle.ragged([[i] if i % 2 else [] for i in range(pair_merges(n)[0])])


def _outcome_kind(got, H):
    if isinstance(got, str):
        return "no survivor" if got.startswith("WallTie('0 ") else "several survivors"
    return "pair" if got == canonical_pair(H) else "other pair"


@pytest.mark.parametrize(
    "sizes, table",
    [(range(2, 6), pair_merges), (range(2, 5), _self_merging)],
    ids=["merges", "self-merging"],
)
def test_column_oracle_matches_canonical_pair_brute(monkeypatch, sizes, table):
    """The canonical-pair filter on int64 columns, row by row on drawn and
    wall rows, against canonical_pair_brute: the selected pair with its
    degree, or the WallTie text with its survivor count.  With the broken
    table, rows of no survivor, of several and of a wrong pair all occur."""
    monkeypatch.setattr(instability, "pair_merges", table)
    kinds = set()
    for n in sizes:
        rows = _canonical_rows(n)
        assert len(rows) >= 1000
        best, survivors = _canonical_columns(n, rows)
        assert best.shape == (len(rows),) and survivors.shape == (len(rows), table(n)[0])
        for row, got_best, got_survivors in zip(rows, best, survivors):
            H = tuple(int(v) for v in row)
            got = _brute_outcome(
                lambda: instability._select_pair(n, int(got_best), got_survivors))
            assert got == _brute_outcome(lambda: canonical_pair_brute(H)), H
            kinds.add(_outcome_kind(got, H))
    want = {"pair", "other pair", "no survivor", "several survivors"}
    assert kinds == (want if table is _self_merging else {"pair"}), kinds


def _listed(lists):
    """The ragged lists of positions, rebuilt from their groups by length."""
    size, groups = lists
    listed = {}
    for at, index in groups:
        listed.update(zip(at.tolist(), map(tuple, index.T.tolist())))
    return [listed[a] for a in range(size)]


def test_merge_table_matches_run_arithmetic():
    """Each pair's listed merges are its proper run compositions, in
    compositions order: the merged type has the run sizes, the merged
    index sets unite each run, and the merge's doubled pairing equals the
    half-sums of the run sizes against the run totals."""
    for n in range(1, 5):
        pairs, table = roots._pairs_below(group(n)), _listed(pair_merges(n))
        assert list(pairs) == [
            (P, arr) for P in refinements_within(group(n)) for arr in arrangements(P, group(n))
        ]
        points = [H for H in _battery_points() if len(H) == n]
        doubled = [roots.form_values(pairing_plan(group(n))[1], H) for H in points]
        sums = [[tuple(sum(H[i] for i in S) for S in arr) for _, arr in pairs] for H in points]
        for i, ((P, arr), merges) in enumerate(zip(pairs, table)):
            lengths = compositions(P.r)[:-1]
            assert len(merges) == len(lengths)
            for m, lens in zip(merges, lengths):
                Q, merged = pairs[m]
                sizes = tuple(sum(run) for run in runs(P.blocks, lens))
                assert Q.blocks == sizes
                assert merged == tuple(
                    tuple(sorted(itertools.chain(*run))) for run in runs(arr, lens))
                for ds, point_sums in zip(doubled, sums):
                    totals = [sum(run) for run in runs(point_sums[i], lens)]
                    assert ds[m] == instability._rho_pairing(doubled_half_sums(sizes), totals)


def _canonical_loop(points):
    """verify_canonical's checks, one canonical_pair_brute call per point."""
    out = []
    for H in points:
        n, point = len(H), list(H)
        fast = canonical_pair(H)
        try:
            brute = canonical_pair_brute(H)
        except WallTie as exc:
            out.append({"H": point, "details": repr(exc)})
            continue
        if fast != brute:
            out.append({"H": point, "details": "fast/brute pair mismatch"})
            continue
        if fast.degree < 0:
            out.append({"H": point, "details": "negative degree"})
        ext = extremal_max_pair(H)
        n1 = fast.parabolic.blocks[0]
        want = (n,) if fast.parabolic.r == 1 else (n1, n - n1)
        if ext.parabolic.blocks != want or set(ext.first_block) != set(fast.blocks[0]):
            out.append({"H": point, "details": "extremal projection mismatch"})
    return out


def test_canonical_sweep_failures_match_per_sample_loop(monkeypatch):
    """With the broken merge table, the sweep lists the failures a
    per-sample loop over canonical_pair_brute finds, in point order with
    the same text: here the WallTie rows whose canonical pair sits at an
    odd position."""
    monkeypatch.setattr(instability, "pair_merges", _self_merging)
    plan = ((2, 60), (3, 60), (4, 40))
    gen = np.random.default_rng(5)
    points = [_draw_cleared(gen, (count, n)).tolist() for n, count in plan]
    reports = verify_canonical(sample_plan=plan, seed=5)
    expected = [_canonical_loop(p) for p in points]
    assert [rep.failures for rep in reports] == expected
    assert all(type(v) is int for rep in reports for f in rep.failures for v in f["H"])
    assert all(expected) and all(len(e) < count for e, (_, count) in zip(expected, plan))


def _rank_vector(blocks, n):
    """Entry i: the position of the block that holds index i."""
    return [j for _, j in sorted((i, j) for j, S in enumerate(blocks) for i in S)]


def test_rank_route_matches_value_classes():
    """The dense ranks of each row name the value classes of canonical_pair
    and of cone_membership, and pairing_plan's ranks give each pair's rank
    vector in its pair order, which is semistandard_all's; row by row
    on drawn, tied, zero, mirrored, constant and battery rows."""
    for n in range(1, 6):
        rows = _canonical_rows(n)
        primes = semistandard_all(n)
        table = pairing_plan(group(n))[0]
        assert table.tolist() == [_rank_vector(arr, n) for _, arr in roots._pairs_below(group(n))]
        assert table.tolist() == [_rank_vector(pp.blocks, n) for pp in primes]
        position = {pp: p for p, pp in enumerate(primes)}
        for row, ranks in zip(rows, _value_ranks(rows)):
            H = tuple(int(v) for v in row)
            assert ranks.tolist() == _rank_vector(canonical_pair(H).blocks, n), H
            assert table[position[cone_membership(H)]].tolist() == ranks.tolist(), H


def test_column_extremal_route_matches_extremal_max_pair():
    """The extremal maximizers on int64 columns, row by row: exactly one
    winning subset per row, extremal_max_pair's first block at its value."""
    for n in range(1, 6):
        rows = _canonical_rows(n)
        for row, winners in zip(rows, _column_extremal(n, rows)):
            H = tuple(int(v) for v in row)
            ext = extremal_max_pair(H)
            assert winners == [(ext.first_block, ext.value)], H


def _classes_swapped(ranks):
    """The ranks with the two largest value classes swapped, on the rows
    that have two or more classes."""
    swapped = np.where(ranks < 2, 1 - ranks, ranks)
    return np.where(ranks.max(axis=1, keepdims=True) >= 1, swapped, ranks)


@pytest.mark.parametrize("table_too", [False, True], ids=["rows", "rows-and-table"])
def test_broken_rank_route_fails_both_sweeps(monkeypatch, table_too):
    """With the two largest value classes swapped in the rows' ranks, every
    row of two or more classes fails the canonical sweep's pair check and
    the cone sweep's membership check.  With pairing_plan's ranks swapped alike,
    the pairs and cones still match, and the extremal projection check
    fails those rows instead."""
    monkeypatch.setattr(sampling, "_value_ranks", lambda rows: _classes_swapped(_value_ranks(rows)))
    if table_too:
        def swapped_plan(Q):
            ranks, forms = pairing_plan(Q)
            return _classes_swapped(ranks), forms

        monkeypatch.setattr(sampling, "pairing_plan", swapped_plan)
    seed, plan = 5, ((1, 20), (2, 60), (3, 60), (4, 40))
    gen = np.random.default_rng(seed)
    drawn = [_draw_cleared(gen, (count, n)).tolist() for n, count in plan]
    gen = np.random.default_rng(seed)
    walls = np.concatenate([_draw_cleared(gen, (100, 3)), _wall_variants(gen, 3, 5)]).tolist()

    def listing(points, details):
        return [{"H": H, "details": details} for H in points if len(set(H)) >= 2]

    canonical = [rep.failures for rep in verify_canonical(sample_plan=plan, seed=seed)]
    cones = verify_cones(n=3, samples=100, seed=seed).failures
    if table_too:
        assert canonical == [listing(p, "extremal projection mismatch") for p in drawn]
        assert cones == []
    else:
        assert canonical == [listing(p, "fast/brute pair mismatch") for p in drawn]
        assert cones == listing(walls, "fast membership disagrees")
        assert len(cones) < len(walls)
    assert all(canonical[1:]) and not canonical[0]


def _twice(body):
    """The extremal body with every subset listed twice."""
    def broken(H, top):
        tops, flags = body(H, top)
        return tops, [entry for entry in flags for _ in range(2)]
    return broken


def test_extremal_tie_raises_the_scalar_walltie(monkeypatch):
    """With every subset listed twice in the extremal body, in its scalar
    and its column use, every maximizer ties: the canonical sweep raises
    the WallTie that extremal_max_pair raises at its first row."""
    broken = _twice(instability._extremal_maximizers)
    monkeypatch.setattr(instability, "_extremal_maximizers", broken)
    monkeypatch.setattr(sampling, "_extremal_maximizers", broken)
    seed = 5
    first = _draw_cleared(np.random.default_rng(seed), (30, 3))[0].tolist()
    with pytest.raises(WallTie, match="^2 extremal maximizers of size ") as want:
        extremal_max_pair(first)
    with pytest.raises(WallTie) as got:
        verify_canonical(sample_plan=((3, 30),), seed=seed)
    assert str(got.value) == str(want.value)


def test_passing_sweeps_make_no_scalar_call(monkeypatch):
    """On passing seeds the canonical and cone sweeps call no per-point
    scalar route: each one raises here, wherever the sweeps could reach it."""
    def forbidden(*args):
        raise AssertionError("per-point scalar call on a passing row")

    for name in ("canonical_pair", "canonical_pair_brute", "extremal_max_pair",
                 "cone_membership", "cone_accepts", "_select_pair", "_value_classes"):
        monkeypatch.setattr(instability, name, forbidden)
        monkeypatch.setattr(sampling, name, forbidden, raising=False)
    plan = ((1, 50), (2, 100), (3, 200), (4, 300), (5, 400))
    for seed in (1, 2, SEED):
        assert all(rep.ok for rep in verify_canonical(sample_plan=plan, seed=seed))
        assert verify_cones(n=3, samples=100, seed=seed).ok
        assert verify_cones(n=4, samples=100, seed=seed).ok


def _guard_limit(factor):
    """The least magnitude whose exactness guard bound, magnitude * factor,
    reaches 2^53."""
    return -(-(2**53) // factor)


@pytest.mark.parametrize("r", [9, 10])
def test_levi_chain_counts_do_not_wrap(r):
    """One value per block and r = 9, 10 blocks: every off-wall row fires
    (r-1)! orderings, 40,320 at r = 9, beyond int16."""
    values = _draw_cleared(np.random.default_rng(SEED + r), (200, r))
    counts, wall = _levi_counts((1,) * r, values)
    assert int((~wall).sum()) > 150
    assert np.all(counts[~wall] == math.factorial(r - 1))


def test_levi_overflow_guard_sits_at_its_bound():
    for sizes in ((1, 1), (3, 1, 2), (1, 2, 1, 1)):
        p = StandardParabolic(sizes)
        limit = _guard_limit(max(sizes) * p.n * p.r)
        with pytest.raises(OverflowError, match="too large for exact float64"):
            _levi_counts(sizes, np.array([[limit] + [0] * (p.r - 1)]))
        with pytest.raises(OverflowError, match="too large for exact float64"):
            _levi_counts(sizes, np.array([[0] * (p.r - 1) + [-limit]]))
        top = limit - 1
        rows = [
            [top] * p.r,
            [top] + [-top] * (p.r - 1),
            [-top] + [top] * (p.r - 1),
            [top - u for u in range(p.r)],
            [(-1) ** u * (top - u) for u in range(p.r)],
        ]
        counts, wall = _levi_counts(sizes, np.array(rows, dtype=np.int64))
        for vals, got, on_wall in zip(rows, counts, wall):
            H = tuple(v for v, m in zip(vals, sizes) for _ in range(m))
            try:
                want = levi_sum_tau_hat(p, H)
            except WallError:
                assert on_wall
            else:
                assert not on_wall and int(got) == want


def test_E_overflow_guard_sits_at_its_bound():
    """The guard every sweep but Levi's shares (_columns), through the E
    counts in the group and in a proper type, the canonical-pair filter,
    the extremal maximizers and every other column route: it raises at the
    bound and the routes match the scalar operations one below it."""
    for n in (2, 3, 5):
        limit = _guard_limit(n * n)
        types = (group(n), StandardParabolic((1, n - 1)))
        for evaluate in (*(functools.partial(_e_counts, Q) for Q in types),
                         functools.partial(_canonical_columns, n),
                         functools.partial(_column_extremal, n),
                         lambda rows: _columns(rows, n, n * n)):
            with pytest.raises(OverflowError, match="too large for exact float64"):
                evaluate(np.array([[limit] + [0] * (n - 1)]))
            with pytest.raises(OverflowError, match="too large for exact float64"):
                evaluate([(0,) * (n - 1) + (-limit,)])
        top = limit - 1
        rows = [
            [top] * n,
            [-top] * n,
            [top] + [-top] * (n - 1),
            [-top + u for u in range(n)],
            [(-1) ** u * (top - u) for u in range(n)],
        ]
        for Q in types:
            counts, subset_ok = _e_counts(Q, np.array(rows, dtype=np.int64))
            for H, got_count, got_ok in zip(rows, counts, subset_ok):
                assert int(got_count) == len(e_sum_terms(Q, H)), (Q, H)
                assert bool(got_ok) == all(e_subset_tests(Q, H)), (Q, H)
        best, survivors = _canonical_columns(n, rows)
        for H, got_best, got_survivors in zip(rows, best, survivors):
            got = instability._select_pair(n, int(got_best), got_survivors)
            assert got == canonical_pair_brute(H) == canonical_pair(H), H
        for H, winners in zip(rows, _column_extremal(n, rows)):
            ext = extremal_max_pair(H)
            assert winners == [(ext.first_block, ext.value)], H
        for name in COLUMN_ROUTES:
            _route_matches_scalar(name, n, rows)


def arthur_partition_check(Q, H):
    """True iff both partition identities hold exactly at H."""
    return arthur_partition_report(Q, H).ok


def test_arthur_identities():
    g = group(2)
    assert arthur_partition_check(g, (Fraction(1), Fraction(-1)))
    # n = 1: one pair, with no chamber and no weight test, holds everywhere
    for h in (-3, 0, Fraction(5, 2)):
        assert arthur_partition_report(group(1), (h,)) == ArthurReport(1, 1, 1)
    r = rng()
    for n in range(2, 5):
        for _ in range(40):
            H = rand_point(r, n)
            for q in standard_parabolics(n):
                report = arthur_partition_report(q, H)
                assert report.partition_sum == 1
                assert report.semistable_direct == report.semistable_alternating
                assert report.ok


def test_arthur_minimal_parabolic_degenerates():
    b = minimal_parabolic(3)
    r = rng()
    for _ in range(20):
        H = rand_point(r, 3)
        report = arthur_partition_report(b, H)
        assert report.partition_sum == 1
        assert report.semistable_direct == 1  # deg along B is identically 0


# ---------------------------------------------------------------------------
# extremal pairs
# ---------------------------------------------------------------------------


def test_extremal_examples():
    ep = extremal_max_pair((Fraction(1), Fraction(-1)))
    assert ep.parabolic.blocks == (1, 1)
    assert ep.first_block == (0,)
    const = extremal_max_pair((Fraction(3), Fraction(3)))
    assert const.parabolic == group(2)


def test_extremal_projects_from_canonical():
    r = rng()
    for n in range(2, 6):
        for _ in range(60):
            H = rand_point(r, n)
            cp = canonical_pair(H)
            ep = extremal_max_pair(H)
            if cp.parabolic.r == 1:
                assert ep.parabolic == group(n)
            else:
                n1 = cp.parabolic.blocks[0]
                assert ep.parabolic.blocks == (n1, n - n1)
                assert ep.first_block == tuple(sorted(cp.weyl[:n1]))


def test_extremal_gl3_example():
    H = (Fraction(2), Fraction(1), Fraction(-3))
    cp = canonical_pair(H)
    ep = extremal_max_pair(H)
    assert ep.parabolic.blocks == (cp.parabolic.blocks[0], 3 - cp.parabolic.blocks[0])


# ---------------------------------------------------------------------------
# sampling verifiers, small budgets (full budgets run in the acceptance suite)
# ---------------------------------------------------------------------------


class _ScriptedDraws:
    """Stands in for a numpy generator: integers() returns the given arrays
    in turn, after checking the requested shape."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def integers(self, low, high, size):
        out = self.arrays.pop(0)
        assert out.shape == size and low <= out.min() and out.max() < high
        return out


def _draw_cleared_reference(rng, shape):
    """The draw with one math.lcm per row."""
    nums = rng.integers(-100, 101, size=shape)
    dens = rng.integers(1, 21, size=shape)
    lcms = np.array([math.lcm(*(int(d) for d in row)) for row in dens], dtype=np.int64)
    return nums * (lcms[:, None] // dens)


def test_draw_cleared_matches_per_row_lcm():
    for shape in ((500, 1), (500, 3), (2000, 6), (300, 20)):
        got = _draw_cleared(np.random.default_rng(SEED), shape)
        want = _draw_cleared_reference(np.random.default_rng(SEED), shape)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    # all-ones rows, rows with lcm(1..20) = 232792560, and random rows
    gen = np.random.default_rng(SEED)
    dens = gen.integers(1, 21, size=(40, 20))
    dens[:10] = 1
    dens[10:20] = np.arange(1, 21)
    dens[20:25] = [16, 9, 5, 7, 11, 13, 17, 19] + [1] * 12
    nums = gen.integers(-100, 101, size=(40, 20))
    got = _draw_cleared(_ScriptedDraws(nums, dens), (40, 20))
    want = _draw_cleared_reference(_ScriptedDraws(nums, dens), (40, 20))
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert np.array_equal(got[:10], nums[:10])
    assert np.array_equal(got[10:25] * dens[10:25], 232792560 * nums[10:25])


def test_draw_cleared_column_fold_matches_lcm_reduce():
    """_draw_cleared's prime-power masks, the row lcm's mask an OR folded
    column by column, against np.lcm.reduce along rows on the same draws:
    widths 1 to 8, values and dtype."""
    for width in range(1, 9):
        for samples in (1, 2000):
            got = _draw_cleared(np.random.default_rng(SEED + width), (samples, width))
            rng = np.random.default_rng(SEED + width)
            nums = rng.integers(-100, 101, size=(samples, width))
            dens = rng.integers(1, 21, size=(samples, width))
            want = nums * (np.lcm.reduce(dens, axis=1)[:, None] // dens)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), width


def test_verifier_smoke_budgets():
    # every verifier except cones returns one report per size or identity
    assert all(r.ok for r in verify_langlands(max_n=3, samples=60, sampled_n=(3,)))
    assert all(r.ok for r in verify_levi_sum(max_n=4, samples=200))
    assert all(r.ok for r in verify_canonical(sample_plan=((2, 60), (3, 60), (4, 30), (5, 30))))
    assert verify_cones(n=3, samples=120).ok
    assert all(r.ok for r in verify_E(max_n=5, samples=150, sandwich_samples=40))
    assert all(r.ok for r in verify_sigma(max_n=3, samples=40, focus_samples=100))
    assert all(r.ok for r in verify_partition(max_n=3, samples=25))


def test_levi_sum_gated_through_eight():
    """The ordering count on every type with n <= 8, 10,000 samples each.
    About 1.3 s on one CPU of a 2-vCPU host; the bound leaves wide headroom."""
    start = time.perf_counter()
    reports = verify_levi_sum(max_n=8, samples=10000)
    elapsed = time.perf_counter() - start
    assert [(r.n, r.samples) for r in reports] == [(n, 10000 << (n - 1)) for n in range(1, 9)]
    assert all(r.ok for r in reports), [r.failures for r in reports if not r.ok]
    assert elapsed < 20.0, elapsed


def test_slope_and_partition_identities_gated_at_six():
    """The slope sweep at 2,000 samples per size (no sandwich) and both
    partition identities at 200 samples per type, for every n <= 6.  About
    0.8 s from a cold interpreter on one CPU of a 2-vCPU host; the bound
    leaves wide headroom."""
    start = time.perf_counter()
    reports = verify_E(max_n=6, samples=2000, sandwich_samples=0)
    reports += verify_partition(max_n=6, samples=200)
    elapsed = time.perf_counter() - start
    assert [(r.identity, r.n, r.samples) for r in reports] == (
        [("slope-indicator", n, 2000) for n in range(1, 7)] + [("slope-sandwich", 6, 0)]
        + [("partition-identities", n, 200) for n in range(2, 7)])
    assert all(r.ok for r in reports), [r.failures for r in reports if not r.ok]
    assert elapsed < 5.0, elapsed


def test_sweep_with_no_cases_passes():
    """n = 1 has no proper type, so its Langlands sweep tests nothing."""
    reports = verify_langlands(max_n=1, samples=20, sampled_n=(1,))
    assert [(r.n, r.samples, r.failures) for r in reports] == [(1, 20, [])]


@pytest.mark.parametrize("verify, kwargs", [
    (verify_langlands, {"samples": -1}),
    (verify_levi_sum, {"samples": -1}),
    (verify_canonical, {"sample_plan": ((2, 10), (3, -1))}),
    (verify_cones, {"samples": -5}),
    (verify_E, {"samples": -1}),
    (verify_E, {"sandwich_samples": -1}),
    (verify_sigma, {"samples": -1}),
    (verify_sigma, {"focus_samples": -1}),
    (verify_partition, {"samples": -1}),
    (verify_E, {"max_n": 1, "samples": 10, "sandwich_samples": 5}),
])
def test_verifiers_refuse_negative_counts_and_seeds(verify, kwargs):
    refusal = ("max_n must be at least 2 for the slope sandwich, got 1" if "max_n" in kwargs
               else "sample counts must be non-negative, got -")
    with pytest.raises(ValueError, match=refusal):
        verify(**kwargs)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        verify(seed=-1)


@pytest.mark.parametrize("verify, kwargs, size", [
    (verify_canonical, {"sample_plan": ((2, 10), (0, 3))}, 0),
    (verify_canonical, {"sample_plan": ((-1, 3),)}, -1),
    (verify_langlands, {"sampled_n": (0,)}, 0),
    (verify_langlands, {"sampled_n": (4, -1)}, -1),
    (verify_cones, {"n": 0}, 0),
    (verify_cones, {"n": -1}, -1),
])
def test_verifiers_refuse_sizes_below_one(verify, kwargs, size):
    """A point size below 1 is refused, by name, before anything is drawn."""
    with pytest.raises(ValueError, match="^point sizes must be at least 1, got %d$" % size):
        verify(**kwargs)


@pytest.mark.parametrize("seed", [1, 2])
def test_fast_suite_passes_at_other_seeds(seed):
    """The draws of every verifier pass at seeds other than the default,
    at a tenth of the full budgets."""
    start = time.perf_counter()
    reports = full_suite(seed=seed, fast=True)
    elapsed = time.perf_counter() - start
    assert [r.to_json() for r in reports if not r.ok] == []
    assert elapsed < 60.0, elapsed


def test_slope_sweep_without_samples_writes_strict_json():
    """A size that drew no samples has no positive rate: its report holds
    None, numpy warns of no empty mean, and strict JSON takes the reports."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = verify_E(max_n=3, samples=0, sandwich_samples=20)
    assert [rep.stats["positive_rate"] for rep in reports[:-1]] == [None] * 3
    assert all(rep.ok for rep in reports) and reports[-1].samples == 20
    json.dumps([rep.to_json() for rep in reports], allow_nan=False)


def test_verify_report_serializes():
    report = verify_cones(n=2, samples=30)
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["identity"] == "cone-partition"
    assert payload["failures"] == []


# ---------------------------------------------------------------------------
# integer points against the Fraction route
# ---------------------------------------------------------------------------


def test_as_exact_keeps_integral_values_as_ints():
    got = as_exact((np.int64(5), Fraction(4, 2), "3/2", 7, Fraction(-1, 3), np.int32(-2)))
    assert got == (5, 2, Fraction(3, 2), 7, Fraction(-1, 3), -2)
    assert [type(h) for h in got] == [int, int, Fraction, int, Fraction, int]


def _battery_points():
    """1,200 integer points with n <= 5: cleared samples, small values full
    of ties and zeros, mirrored pairs, and the zero point of every size."""
    gen = np.random.default_rng(SEED)
    points = [(0,) * n for n in range(1, 6)]
    while len(points) < 1200:
        n = 1 + len(points) % 5
        kind = len(points) // 5 % 3
        if kind == 1:
            H = gen.integers(-2, 3, size=n).tolist()
        else:
            H = _draw_cleared(gen, (1, n))[0].tolist()
        if kind == 2:
            H[-1] = -H[0]
            H[len(H) // 2] = H[0]
        points.append(tuple(H))
    return points


def _any_type(r, H):
    return (r.choice(standard_parabolics(len(H))),)


def _type_pair(r, H):
    """A refining pair (P, Q) nine times in ten, else any pair of types."""
    n = len(H)
    Q = r.choice(standard_parabolics(n))
    P = r.choice(refinements_within(Q) if r.random() < 0.9 else standard_parabolics(n))
    return P, Q


def _proper_type(r, H):
    proper = [P for P in standard_parabolics(len(H)) if P.r >= 2]
    return (r.choice(proper) if proper else group(len(H)),)


def _cone(r, H):
    """The cone that holds H, or a random ordered index partition."""
    return (r.choice((cone_membership(H), r.choice(semistandard_all(len(H))))),)


def _arranged_pair(r, H):
    """A type pair (P, Q) and a random arrangement of P inside Q."""
    Q = r.choice(standard_parabolics(len(H)))
    P = r.choice(refinements_within(Q))
    return P, Q, r.choice(list(arrangements(P, Q)))


def degree_pairs(Q, H):
    """All (refinement, arrangement, pairing) triples below Q.

    The trivial pair (Q, identity) is among them, with pairing exactly 0.
    """
    doubled = roots.form_values(pairing_plan(Q)[1], as_exact(H))
    return [(P, arr, Fraction(d, 2)) for (P, arr), d in zip(roots._pairs_below(Q), doubled)]


def _levi_sum_on_blocks(M, H):
    """levi_sum_tau_hat at the block-constant point whose block j repeats H[j]."""
    return levi_sum_tau_hat(M, tuple(H[j] for j, m in enumerate(M.blocks) for _ in range(m)))


# name -> (operation, leading arguments drawn for an integer point); the
# arguments are drawn once per point, so its three feeds see the same ones
SCALAR_OPERATIONS = {
    "canonical_pair": (canonical_pair, lambda r, H: ()),
    "canonical_pair_brute": (canonical_pair_brute, lambda r, H: ()),
    "extremal_max_pair": (extremal_max_pair, lambda r, H: ()),
    "cone_accepts": (cone_accepts, _cone),
    "block_degree": (block_degree, lambda r, H: ()),
    "pair_pairing": (pair_pairing, _arranged_pair),
    "degree_instability": (degree_instability, _any_type),
    "degree_pairs": (degree_pairs, _any_type),
    "semistable_three_ways": (semistable_three_ways, _any_type),
    "indicator_tau": (indicator_tau, _type_pair),
    "indicator_tau_hat": (indicator_tau_hat, _type_pair),
    "indicator_chi": (indicator_chi, _type_pair),
    "indicator_E": (indicator_E, _any_type),
    "indicator_F": (indicator_F, _any_type),
    "indicator_sigma": (indicator_sigma, _type_pair),
    "langlands_sum": (langlands_sum, _proper_type),
    "levi_sum_tau_hat": (_levi_sum_on_blocks, _any_type),
    "arthur_partition_report": (arthur_partition_report, _any_type),
}


def _types(result):
    if isinstance(result, CanonicalPair):
        return CanonicalPair, type(result.degree)
    if isinstance(result, ExtremalPair):
        return ExtremalPair, type(result.value)
    if isinstance(result, ArthurReport):
        return ArthurReport, tuple(type(v) for v in dataclasses.astuple(result))
    if isinstance(result, tuple):
        return tuple, tuple(type(v) for v in result)
    if isinstance(result, list):
        return list, {type(p) for _, _, p in result}
    return type(result)


def _outcome(operation, args, H, scale):
    """Result with its types, the point-linear values multiplied by scale;
    or the exception raised (its message too unless it quotes a value)."""
    try:
        result = operation(*args, H)
    except (WallError, WallTie) as exc:
        return type(exc)
    except ValueError as exc:
        return ValueError, str(exc)
    if isinstance(result, CanonicalPair):
        scaled = dataclasses.replace(result, degree=result.degree * scale)
    elif isinstance(result, ExtremalPair):
        scaled = dataclasses.replace(result, value=result.value * scale)
    elif isinstance(result, Fraction):
        scaled = result * scale
    elif isinstance(result, list):
        scaled = [(P, arr, p * scale) for P, arr, p in result]
    else:
        scaled = result
    return _types(result), scaled


@pytest.mark.parametrize("name", sorted(SCALAR_OPERATIONS))
def test_integer_points_match_the_fraction_route(name):
    """Each point fed as ints, as the same Fractions, and divided by 7:
    every identity is homogeneous of degree one, so all three agree on the
    value (the linear ones up to the factor 7), on the result types, and
    on where WallError and WallTie are raised."""
    operation, draw_args = SCALAR_OPERATIONS[name]
    r = random.Random(SEED)
    raised = 0
    for H in _battery_points():
        args = draw_args(r, H)
        as_ints = _outcome(operation, args, H, 1)
        assert as_ints == _outcome(operation, args, tuple(Fraction(h) for h in H), 1), H
        assert as_ints == _outcome(operation, args, tuple(Fraction(h, 7) for h in H), 7), H
        raised += not isinstance(as_ints, tuple)
    if name == "levi_sum_tau_hat":
        assert raised > 100  # walls are in the battery

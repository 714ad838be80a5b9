"""Truncation combinatorics: root data, indicator functions, canonical pairs.

Random points follow the house convention: numerators in [-100, 100],
denominators in [1, 20], fixed seed.  The exhaustive brute-force oracles are
the authority everywhere they appear; the fast paths must match them exactly.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta.truncation import (
    StandardParabolic,
    WallError,
    arrangements,
    arthur_partition_check,
    arthur_partition_report,
    canonical_pair,
    canonical_pair_brute,
    coarsenings_of,
    compositions,
    cone_accepts,
    cone_membership,
    consecutive_root_gaps,
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
    refinements_within,
    relative_rho_values,
    semistable_three_ways,
    semistandard_all,
    standard_parabolics,
)
from orbitzeta.truncation.indicators import _e_subsets
from orbitzeta.truncation.sampling import (
    _levi_counts_vectorized,
    clear_denominators,
    sample_point,
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


def test_rho_values_minimal_gl2():
    b = minimal_parabolic(2)
    assert b.rho_values == (Fraction(1, 2), Fraction(-1, 2))


def test_rho_values_sum_to_zero_weighted():
    for n in range(1, 6):
        for p in standard_parabolics(n):
            assert sum(v * m for v, m in zip(p.rho_values, p.blocks)) == 0


def test_relative_rho_against_full_group():
    for n in range(1, 6):
        for p in standard_parabolics(n):
            assert relative_rho_values(p, group(n)) == p.rho_values


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
        assert len(e_sum_terms(g, H)) == _e_subsets(g, H)


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
    """Dual-route check: the exact scalar sum and the integer-vectorized
    sweep must count the same orderings."""
    r = rng()
    for sizes in ((1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 1, 2)):
        p = StandardParabolic(sizes)
        rows = []
        expected = []
        for _ in range(40):
            vals = [r.randint(-50, 50) for _ in sizes]
            rows.append(vals)
            H = tuple(
                Fraction(v) for v, m in zip(vals, sizes) for _ in range(m)
            )
            try:
                expected.append(levi_sum_tau_hat(p, H))
            except WallError:
                expected.append(None)
        counts, wall = _levi_counts_vectorized(
            np.asarray(sizes, dtype=np.int64), np.asarray(rows, dtype=np.int64)
        )
        for got, on_wall, want in zip(counts, wall, expected):
            if want is None:
                assert on_wall
            else:
                assert not on_wall
                assert int(got) == want


def test_arthur_identities():
    g = group(2)
    assert arthur_partition_check(g, (Fraction(1), Fraction(-1)))
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


def test_sample_point_respects_bounds():
    r = rng()
    for _ in range(200):
        H = sample_point(r, 5)
        for h in H:
            assert -100 <= h.numerator <= 100 or abs(h) <= 100
            assert 1 <= h.denominator <= 20


def test_clear_denominators_preserves_ratios():
    H = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2))
    cleared = clear_denominators(H)
    assert all(isinstance(v, int) for v in cleared)
    base = Fraction(cleared[0], 1) / H[0]
    for v, h in zip(cleared, H):
        if h:
            assert Fraction(v, 1) / h == base


def test_verifier_smoke_budgets():
    # every verifier except cones returns one report per size or identity
    assert all(r.ok for r in verify_langlands(max_n=3, samples=60, sampled_n=(3,)))
    assert all(r.ok for r in verify_levi_sum(max_n=4, samples=200))
    assert all(r.ok for r in verify_canonical(sample_plan=((2, 60), (3, 60))))
    assert verify_cones(n=3, samples=120).ok
    assert all(r.ok for r in verify_E(max_n=3, samples=150, sandwich_samples=40))
    assert all(r.ok for r in verify_sigma(max_n=3, samples=40, focus_samples=100))
    assert all(r.ok for r in verify_partition(max_n=3, samples=25))


def test_verify_report_serializes():
    report = verify_cones(n=2, samples=30)
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["identity"] == "cone-partition"
    assert payload["failures"] == []

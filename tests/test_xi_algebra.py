"""Symbolic layer: per-orbit products, weighted sums, the formal log identity.

Everything here is exact rational arithmetic; no tolerance appears anywhere.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta.partitions import Partition, induce, partitions_of, young_stats
from orbitzeta.xi_algebra import (
    OrbitSeries,
    XiExpression,
    XiFactor,
    h_orbit,
    orbit_series_log,
    series_log,
    xi_expr_equal,
    z_levi,
    z_orbit,
    z_series,
)
from orbitzeta.partitions import enumerate_classes
from orbitzeta.xi_algebra import _cell_factors


def mono(*pairs):
    return XiExpression.monomial([XiFactor(a, b) for a, b in pairs])


# ---------------------------------------------------------------------------
# the three closed product families
# ---------------------------------------------------------------------------


def test_zero_orbit_product_family():
    for n in range(1, 9):
        expected = mono(*[(k, k) for k in range(1, n + 1)])
        assert xi_expr_equal(z_orbit(Partition((1,) * n)), expected)


def test_regular_orbit_product_family():
    for n in range(1, 9):
        expected = mono(*[(1, k) for k in range(1, n + 1)])
        assert xi_expr_equal(z_orbit(Partition((n,))), expected)


def test_subregular_orbit_product_family():
    """Hand-derived hook data for (2,1,...,1): the corner cell has arm n-2,
    leg 1, hook n; the cell below it is a bare box; the rest of the top row
    gives hooks n-2 down to 1 with matching arms."""
    for n in range(3, 9):
        p = Partition((2,) + (1,) * (n - 2))
        expected = mono(
            (1, 1), (1, 1),
            *[(k, k) for k in range(2, n - 1)],
            (n - 1, n),
        )
        assert xi_expr_equal(z_orbit(p), expected)
    assert xi_expr_equal(z_orbit(Partition((2, 1))), mono((1, 1), (1, 1), (2, 3)))


def test_z_levi_examples():
    cls = {
        (c.levi, tuple(o.parts for o in c.orbits)): c
        for c in enumerate_classes(Partition((2, 1)))
    }
    two_one = cls[((2, 1), ((1, 1), (1,)))]
    assert xi_expr_equal(z_levi(two_one), mono((1, 1), (1, 1), (2, 2)))
    full = cls[((3,), ((2, 1),))]
    assert xi_expr_equal(z_levi(full), z_orbit(Partition((2, 1))))
    torus = {
        (c.levi, tuple(o.parts for o in c.orbits)): c
        for c in enumerate_classes(Partition((2,)))
    }[((1, 1), ((1,), (1,)))]
    assert xi_expr_equal(z_levi(torus), mono((1, 1), (1, 1)))


def test_z_levi_is_the_product_of_its_orbit_products():
    """z_levi's one concatenated monomial against the fold of its orbits'
    z_orbit under *."""
    for n in range(1, 9):
        for p in partitions_of(n):
            for cls in enumerate_classes(p):
                fold = XiExpression.unit()
                for orbit in cls.orbits:
                    fold = fold * z_orbit(orbit)
                assert z_levi(cls) == fold, cls


# ---------------------------------------------------------------------------
# alternating sums
# ---------------------------------------------------------------------------


def test_h_zero_orbit_is_the_plain_product():
    for n in range(1, 7):
        assert xi_expr_equal(h_orbit(Partition((1,) * n)), z_orbit(Partition((1,) * n)))


def test_h_subregular_gl3():
    expected = mono((1, 1), (1, 1), (2, 3)) - mono((1, 1), (1, 1), (2, 2))
    assert xi_expr_equal(h_orbit(Partition((2, 1))), expected)


def test_h_regular_gl2():
    expected = mono((1, 1), (1, 2)) - mono((1, 1), (1, 1)).scale(Fraction(1, 2))
    assert xi_expr_equal(h_orbit(Partition((2,))), expected)


def test_h_orbit_equals_the_one_class_at_a_time_fold():
    """h_orbit's single accumulation against adding one weighted class
    product at a time: the same terms in the same order, and the same text
    and JSON."""
    for n in range(1, 10):
        for p in partitions_of(n):
            fold = XiExpression.zero()
            for cls in enumerate_classes(p):
                fold = fold + z_levi(cls).scale(cls.weight)
            got = h_orbit(p)
            assert list(got.terms.items()) == list(fold.terms.items()), p
            assert str(got) == str(fold) and got.to_json() == fold.to_json(), p


def test_cell_factors_match_the_diagram_cells():
    """The cached (1 + arm, hook) pairs against young_stats' cells, in cell
    order, for every partition with n <= 10."""
    for n in range(1, 11):
        for p in partitions_of(n):
            assert _cell_factors(p) == tuple((1 + c.arm, c.hook) for c in young_stats(p)), p


def test_h_orbit_text_and_json_match_the_diagram_route():
    """h_orbit against the same weighted sum with every class monomial read
    from young_stats' cells, for every orbit with n <= 10: equal text and
    JSON."""
    for n in range(1, 11):
        for p in partitions_of(n):
            terms = [
                ([(1 + c.arm, c.hook) for orbit in cls.orbits for c in young_stats(orbit)], cls.weight)
                for cls in enumerate_classes(p)
            ]
            want = XiExpression([(tuple(XiFactor(*f) for f in fs), w) for fs, w in terms])
            got = h_orbit(p)
            assert str(got) == str(want) and got.to_json() == want.to_json(), p


def test_xi_expr_equal_basics():
    a = mono((1, 1), (2, 2))
    b = mono((2, 2), (1, 1))  # same multiset, different construction order
    assert xi_expr_equal(a, b)
    assert not xi_expr_equal(mono((1, 1)), mono((1, 2)))
    sub = h_orbit(Partition((2, 1)))
    assert xi_expr_equal(sub, mono((1, 1), (1, 1), (2, 3)) - mono((1, 1), (1, 1), (2, 2)))


@pytest.mark.parametrize("make", [
    lambda: XiFactor(0, 1),
    lambda: XiFactor(1, 0),
    lambda: XiExpression.monomial([(0, 1)]),
])
def test_factors_need_positive_point_and_slope(make):
    with pytest.raises(ValueError, match="factor requires a >= 1 and b >= 1"):
        make()


def test_raw_pairs_and_factors_make_the_same_monomial():
    pairs = [(2, 3), (1, 1), (1, 2), (1, 1)]
    raw = XiExpression.monomial(pairs)
    built = XiExpression.monomial([XiFactor(a, b) for a, b in pairs])
    assert raw == built and hash(raw) == hash(built)
    (monomial,) = raw.terms
    assert all(type(f) is XiFactor for f in monomial)
    assert monomial == tuple(sorted(monomial))


# ---------------------------------------------------------------------------
# ring laws (randomized, exact)
# ---------------------------------------------------------------------------

factors = st.tuples(st.integers(1, 3), st.integers(1, 3))
monomials = st.lists(factors, max_size=3)
coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
expressions = st.lists(st.tuples(monomials, coeffs), max_size=3).map(
    lambda terms: sum(
        (XiExpression.monomial(m, coeff=c) for m, c in terms),
        XiExpression.zero(),
    )
)


@settings(max_examples=200, deadline=None)
@given(expressions, expressions, expressions)
def test_ring_laws(e1, e2, e3):
    assert (e1 + e2) + e3 == e1 + (e2 + e3)
    assert e1 + e2 == e2 + e1
    assert (e1 * e2) * e3 == e1 * (e2 * e3)
    assert e1 * e2 == e2 * e1
    assert e1 * (e2 + e3) == e1 * e2 + e1 * e3


@settings(max_examples=100, deadline=None)
@given(expressions)
def test_additive_and_multiplicative_units(e):
    assert e + XiExpression.zero() == e
    assert e * XiExpression.unit() == e
    assert e - e == XiExpression.zero()
    assert e.scale(Fraction(0)) == XiExpression.zero()


# ---------------------------------------------------------------------------
# orbit series and the log identity
# ---------------------------------------------------------------------------


def test_two_block_induction_is_commutative_and_associative():
    ps = [p for n in range(1, 5) for p in partitions_of(n)]
    for a in ps:
        for b in ps:
            ab = induce((a.n, b.n), [a, b])
            assert ab == induce((b.n, a.n), [b, a])
    for a in ps[:6]:
        for b in ps[:6]:
            for c in ps[:6]:
                left = induce((a.n + b.n, c.n), [induce((a.n, b.n), [a, b]), c])
                right = induce((a.n, b.n + c.n), [a, induce((b.n, c.n), [b, c])])
                assert left == right


def test_log_identity_exhaustive_through_six():
    series = orbit_series_log(6)
    for n in range(1, 7):
        for p in partitions_of(n):
            assert xi_expr_equal(series.coefficient(p), h_orbit(p)), p


def test_log_series_small_coefficients():
    series = orbit_series_log(3)
    assert xi_expr_equal(series.coefficient(Partition((1,))), mono((1, 1)))
    expected2 = mono((1, 1), (1, 2)) - mono((1, 1), (1, 1)).scale(Fraction(1, 2))
    assert xi_expr_equal(series.coefficient(Partition((2,))), expected2)
    expected21 = mono((1, 1), (1, 1), (2, 3)) - mono((1, 1), (1, 1), (2, 2))
    assert xi_expr_equal(series.coefficient(Partition((2, 1))), expected21)


def series_exp(series):
    """Formal exp of a series with zero constant term, truncated at the bound."""
    if not series.coefficient(Partition(())).is_zero:
        raise ValueError("exp argument must have zero constant coefficient")
    out = OrbitSeries.unit(series.bound)
    power = OrbitSeries.unit(series.bound)
    kfac = 1
    for k in range(1, series.bound + 1):
        power = power * series
        kfac *= k
        if not power.coeffs:
            break
        out = out + power.scale(Fraction(1, kfac))
    return out


def test_exp_log_round_trip():
    for bound in range(1, 6):
        zs = z_series(bound)
        assert series_exp(series_log(zs)) == zs


def test_log_coefficients_are_graded():
    # every monomial in the coefficient of an orbit of gl(n) has n factors
    series = orbit_series_log(5)
    for n in range(1, 6):
        for p in partitions_of(n):
            for monomial, coeff in series.coefficient(p).sorted_terms():
                assert coeff != 0
                assert len(monomial) == n


def test_series_unit_and_zero():
    unit = OrbitSeries.unit(3)
    zero = OrbitSeries.zero(3)
    assert unit * unit == unit
    assert unit + zero == unit
    some = z_series(3)
    assert some * unit == some


def test_series_difference_is_the_sum_with_the_negation():
    zs = z_series(4)
    assert zs - zs == OrbitSeries.zero(4)
    assert zs - OrbitSeries.unit(4) == zs + OrbitSeries.unit(4).scale(-1)
    with pytest.raises(TypeError):
        zs - XiExpression.unit()


def test_series_log_requires_unit_leading_term():
    with pytest.raises(ValueError):
        series_log(OrbitSeries.zero(2))

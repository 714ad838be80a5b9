"""Laurent expansion at the origin, residues, and formal pole certificates."""

import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce

import interval_oracle
import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from orbitzeta.partitions import Partition
from orbitzeta.xi_algebra import XiExpression, XiFactor, h_orbit, z_orbit
from orbitzeta.xinumeric import (
    ExpansionOrderError,
    FormalPoly,
    LaurentSeries,
    PrecisionConfig,
    formal_cancellation_check,
    laurent_expand,
    residue_anchor,
    residue_at_zero,
)
from orbitzeta.xinumeric import formal
from orbitzeta.xinumeric.formal import SLOT_MAX, SlotOverflowError, _symbols, _unpack
from orbitzeta.xinumeric.intervals import ival, mul
from orbitzeta.xinumeric.kernel import expansion_at
from orbitzeta.xinumeric.laurent import (
    _PRODUCTS, Ball, Enclosures, _ball, _quotient, expand, factor_series,
)

CFG = PrecisionConfig.default(working_digits=30, expansion_order=8)


def single_factor(a, b):
    return XiExpression.monomial([XiFactor(a, b)])


def assert_close(x, target, tol):
    with mp.workdps(40):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / x.denominator
        diff = abs(mpmath.re(mpmath.mpc(x)) - target)
        assert diff < tol, diff


# ---------------------------------------------------------------------------
# single factors
# ---------------------------------------------------------------------------


def test_polar_factor_leading_coefficient_is_exact():
    """The principal part 1/b lies in its ball, which is exact, radius 0,
    for b = 1, 2, 4."""
    for b in range(1, 7):
        series = laurent_expand(single_factor(1, b), CFG)
        value, error = series.coefficient(-1)
        assert abs(exact(value) - Fraction(1, b)) <= Fraction(error)
        assert (error == 0.0) == (b in (1, 2, 4)), (b, error)
        assert series.min_degree == -1


def test_regular_factor_has_no_pole():
    series = laurent_expand(single_factor(2, 2), CFG)
    assert series.min_degree == 0
    value, error = series.coefficient(0)
    with mp.workdps(40):
        assert_close(value, mpmath.pi / 6, mpmath.mpf(10) ** (-25))
    rr = residue_at_zero(series)
    assert rr.pole_order == 0
    assert rr.residue == Fraction(0)


def test_coefficients_below_window_are_exact_zero():
    series = laurent_expand(single_factor(1, 2), CFG)
    assert series.coefficient(-3) == (Fraction(0), 0.0)
    with pytest.raises(IndexError):
        series.coefficient(series.top_degree + 1)


def test_every_ring_answers_below_its_window_with_its_exact_zero():
    """Below the window an enclosure series answers Enclosures.zero(), a
    ball series Ball.zero() and a formal series FormalPoly.zero(), each of
    its own ring's type."""

    def taylor(a, b, count):
        prec = mp.prec
        enclosures = expansion_at(a, CFG).enclosures[:count]
        return [mul(c, ival(b**k, prec), prec) for k, c in enumerate(enclosures)]

    polar = single_factor(1, 1)
    with mp.workdps(CFG.internal_dps):
        enclosed = expand(XiExpression.monomial([XiFactor(1, 1)]), 4, Enclosures, taylor)
        for degree in (-2, -3):
            zero = enclosed.coefficient(degree)
            assert type(zero) is tuple and zero == Enclosures.zero() == (0, 0, 0)
        assert enclosed.coefficient(-1) == Enclosures.constant(Fraction(1))
    for series, ring in ((laurent_expand(polar, CFG), Ball),
                         (expand(polar, 4, FormalPoly, _symbols), FormalPoly)):
        for degree in (-2, -3):
            zero = series.coefficient(degree)
            assert type(zero) is ring and zero == ring.zero()
    assert FormalPoly.zero().is_zero and Ball.zero() == (0, 0.0)


# ---------------------------------------------------------------------------
# residues of the benchmark expressions
# ---------------------------------------------------------------------------


def test_zero_orbit_gl3_residue():
    series = laurent_expand(h_orbit(Partition((1, 1, 1))), CFG)
    rr = residue_at_zero(series)
    assert rr.pole_order == 1
    with mp.workdps(40):
        target = (mpmath.pi / 6) * (mpmath.zeta(3) / (2 * mpmath.pi))
        assert_close(rr.residue, target, mpmath.mpf(10) ** (-8))


def test_subregular_gl3_residue_is_xi_prime_2():
    series = laurent_expand(h_orbit(Partition((2, 1))), CFG)
    rr = residue_at_zero(series)
    assert rr.pole_order == 1
    with mp.workdps(40):
        ratio = (
            -mpmath.log(mpmath.pi) / 2
            + mpmath.digamma(1) / 2
            + mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
        )
        target = (mpmath.pi / 6) * ratio
        assert_close(rr.residue, target, mpmath.mpf(10) ** (-8))


def test_regular_gl2_plain_product_has_double_pole():
    series = laurent_expand(z_orbit(Partition((2,))), CFG)
    value, error = series.coefficient(-2)
    assert value == Fraction(1, 2)
    assert error == 0.0
    rr = residue_at_zero(series)
    assert rr.pole_order == 2


def test_residue_linearity():
    e1 = h_orbit(Partition((2, 1)))
    e2 = h_orbit(Partition((1, 1, 1)))
    a, b = Fraction(3, 2), Fraction(-2, 5)
    combined = e1.scale(a) + e2.scale(b)
    r1 = residue_at_zero(laurent_expand(e1, CFG))
    r2 = residue_at_zero(laurent_expand(e2, CFG))
    rc = residue_at_zero(laurent_expand(combined, CFG))
    assert r1.pole_order == r2.pole_order == rc.pole_order == 1
    with mp.workdps(40):
        lhs = mpmath.mpf(rc.residue)
        rhs = a.numerator * mpmath.mpf(r1.residue) / a.denominator
        rhs += b.numerator * mpmath.mpf(r2.residue) / b.denominator
        bound = rc.residue_error + abs(a) * r1.residue_error + abs(b) * r2.residue_error
        assert abs(lhs - rhs) <= max(float(bound) * 10, 1e-30)


def test_zero_expression_is_flagged():
    series = laurent_expand(XiExpression.zero(), CFG)
    rr = residue_at_zero(series)
    assert rr.is_zero
    assert rr.pole_order == 0
    assert rr.residue == Fraction(0)


def test_coefficients_near_their_noise_floor_are_indeterminate():
    """A coefficient within a decade of its noise floor, 10^3 times its
    error, edges included, is indeterminate; one float step above the band
    it is nonzero and one below it zero.  An indeterminate deep coefficient
    leaves the pole order uncertified: residue_at_zero reports None, lists
    the degree, and to_json writes null."""
    error = 2.0**-60
    floor = 1e3 * error
    low, high = floor / 10, floor * 10
    values = [low, -floor, math.nextafter(low, 0.0), -math.nextafter(high, math.inf), high]
    series = LaurentSeries(-4, tuple(Ball(mpmath.mpf(v), error) for v in values))
    classes = [series.classify(d) for d in series.degrees()]
    assert classes == ["indeterminate", "indeterminate", "zero", "nonzero", "indeterminate"]
    rr = residue_at_zero(series)
    assert (rr.pole_order, rr.indeterminate_degrees, rr.audit) == (None, (-4, -3), ())
    text = json.dumps(rr.to_json())
    assert '"pole_order": null' in text and '"indeterminate_degrees": [-4, -3]' in text


def test_insufficient_order_is_refused():
    # three polar factors need expansion_order >= 5
    tight = PrecisionConfig.default(working_digits=20, expansion_order=4)
    with pytest.raises(ExpansionOrderError):
        laurent_expand(z_orbit(Partition((3,))), tight)


def test_series_scale_and_add_error_tracking():
    """A series weighted by 2 and by -2 and summed: every ball holds 0."""
    length = CFG.expansion_order + 1
    with mp.workdps(CFG.internal_dps):
        series = expand(single_factor(1, 1), length, Enclosures, numeric_taylor(CFG))
        window = Enclosures.lift(series.coeffs)
        terms = [(Fraction(2), -1, window), (Fraction(-2), -1, window)]
        total = Enclosures.weighted_sum(terms, -1, 7)
    assert all(abs(value) <= error < 1e-30 for value, error in map(_ball, total))


def test_residue_balls_contain_their_anchors():
    """The residue balls of 1^2..1^6 and (2,1) contain the closed-form
    anchors, computed 40 digits further."""
    for parts in [(1,) * n for n in range(2, 7)] + [(2, 1)]:
        cfg = PrecisionConfig(working_digits=30).for_orbit_size(len(parts))
        rr = residue_at_zero(laurent_expand(h_orbit(Partition(parts)), cfg))
        anchor = residue_anchor(parts, cfg.working_digits + 40)
        assert abs(exact(rr.residue) - exact(anchor)) <= Fraction(rr.residue_error), parts


def test_formally_vanishing_coefficients_lie_within_their_errors():
    """Every deep coefficient (degree <= -2) of h vanishes formally, so it is
    exactly 0 and its computed value must lie within its stated error of 0.
    The tables are far more accurate than the expansion's working precision,
    so this holds only if the errors also bound the expansion's own
    rounding.  Orders as residues and the pole survey use them."""
    from orbitzeta.partitions import partitions_of

    for n in range(2, 8):
        cfg = PrecisionConfig(working_digits=30).for_orbit_size(n)
        for p in partitions_of(n):
            h = h_orbit(p)
            assert formal_cancellation_check(h).all_deep_vanish, p
            series = laurent_expand(h, cfg)
            for d in range(series.min_degree, -1):
                value, error = series.coefficient(d)
                assert abs(value) <= error, (p, d, value, error)


# ---------------------------------------------------------------------------
# formal certificates: coefficients as polynomials in symbolic Taylor data
# ---------------------------------------------------------------------------


def test_formal_subregular_deep_coefficient_vanishes():
    report = formal_cancellation_check(h_orbit(Partition((2, 1))))
    assert report.pole_bound == 2
    ok, text = report.verdict(-2)
    assert ok, text
    assert report.all_deep_vanish
    assert report.formal_pole_order <= 1
    assert not report.residue.is_zero


def test_formal_plain_product_keeps_its_double_pole():
    report = formal_cancellation_check(z_orbit(Partition((2,))))
    ok, text = report.verdict(-2)
    assert not ok
    assert "1/2" in text
    assert report.formal_pole_order == 2
    assert not report.all_deep_vanish


def test_formal_zero_orbit_has_simple_pole_formally():
    report = formal_cancellation_check(h_orbit(Partition((1, 1, 1, 1))))
    assert report.pole_bound == 1
    assert report.all_deep_vanish
    assert report.formal_pole_order == 1


def test_formal_poly_canonical_form_and_text():
    t = FormalPoly.variable
    p = FormalPoly({((2, 1), (1, 0)): 3, ((1, 0), (2, 1)): -1, (): Fraction(-1, 2)})
    assert p == FormalPoly({((1, 0), (2, 1)): 2, (): Fraction(-1, 2)})
    assert hash(p) == hash(FormalPoly(dict(p.terms)))
    assert str(p) == "-1/2 + 2*t[1;0]*t[2;1]"
    assert str(t(1, 0) * t(1, 0) - t(3, 2, 2)) == "t[1;0]^2 - 2*t[3;2]"
    assert (p - p).is_zero and str(p - p) == "0"


def test_formal_all_orbits_through_three_deep_vanish():
    from orbitzeta.partitions import partitions_of

    for n in range(1, 4):
        for p in partitions_of(n):
            report = formal_cancellation_check(h_orbit(p))
            assert report.all_deep_vanish, p


def test_formal_all_orbits_through_eight_have_simple_poles():
    """Every orbit with n <= 8: the deep coefficients of h vanish formally
    and the formal pole order is 1.  About 0.3 s on one CPU of a 2-vCPU
    host; the bound leaves wide headroom."""
    from orbitzeta.partitions import partitions_of

    start = time.perf_counter()
    for n in range(1, 9):
        for p in partitions_of(n):
            report = formal_cancellation_check(h_orbit(p))
            assert report.all_deep_vanish and report.formal_pole_order == 1, p
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, elapsed


def test_formal_matches_numeric_on_random_substitution():
    """A formally-zero polynomial must evaluate to zero under any assignment,
    and a surviving one should not vanish at a random point.  Substitute
    seeded random rationals for the symbolic Taylor coefficients, expand
    every h and z with n <= 5 by an independent direct expansion, and
    compare with the formal verdict at every degree from -q_max to -1."""
    import random
    from fractions import Fraction as F

    from orbitzeta.partitions import partitions_of

    rng = random.Random(7)
    table = {}

    def coeff(a, k):
        # nonzero and drawn from a wide range, so a surviving polynomial is
        # unlikely to vanish at the point (Schwartz-Zippel)
        if (a, k) not in table:
            table[(a, k)] = F(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 999))
        return table[(a, k)]

    def substituted(expr, q_max):
        # a degree-d coefficient, d <= -1, uses Taylor orders below q_max only
        total = {}
        for monomial, c in expr.sorted_terms():
            acc = {0: F(1)}
            for factor in monomial:
                fac = {k: coeff(factor.a, k) * F(factor.b) ** k for k in range(q_max)}
                if factor.a == 1:
                    fac[-1] = F(1, factor.b)
                nxt = {}
                for d1, v1 in acc.items():
                    for d2, v2 in fac.items():
                        if d1 + d2 <= -1 + q_max:
                            nxt[d1 + d2] = nxt.get(d1 + d2, F(0)) + v1 * v2
                acc = nxt
            for d, v in acc.items():
                total[d] = total.get(d, F(0)) + c * v
        return total

    checked = 0
    for n in range(1, 6):
        for p in partitions_of(n):
            for expr in (h_orbit(p), z_orbit(p)):
                q_max = expr.max_polar_count()
                report = formal_cancellation_check(expr)
                assert report.pole_bound == q_max
                total = substituted(expr, q_max)
                for d in range(-q_max, 0):
                    ok, text = report.verdict(d)
                    assert ok == (total.get(d, F(0)) == 0), (p, d, text)
                    checked += 1
    assert checked > 50


def test_formal_report_reads_its_polynomials():
    """A report keeps the polynomial of each degree -pole_bound..-1 as a
    fresh expand returns it, its residue is the s^-1 one, and its verdicts,
    pole order, headline and JSON equal a reference made eagerly from the
    same polynomials: every h and z with n <= 6, and an expression whose
    s^-2 coefficient 1/2*t[2;0] - t[3;0] survives."""
    from orbitzeta.partitions import partitions_of

    def reference(polys, q):
        verdicts = tuple((d, p.is_zero, str(p)) for d, p in zip(range(-q, 0), polys))
        order = next((-d for d, ok, _ in verdicts if not ok), 0)
        deep = all(ok for d, ok, _ in verdicts if d <= -2)
        return verdicts, order, deep, {
            "pole_bound": q,
            "verdicts": [{"degree": d, "formally_zero": ok, "coefficient": text}
                         for d, ok, text in verdicts],
            "residue": str(polys[-1]),
            "formal_pole_order": order,
            "all_deep_vanish": deep,
        }

    surviving = (XiExpression.monomial([(1, 1), (1, 2), (2, 1)])
                 - XiExpression.monomial([(1, 1), (1, 1), (3, 2)]))
    exprs = [e for n in range(1, 7) for p in partitions_of(n) for e in (h_orbit(p), z_orbit(p))]
    for expr in exprs + [surviving]:
        q = expr.max_polar_count()
        report = formal_cancellation_check(expr)
        series = expand(expr, q, FormalPoly, _symbols)
        polys = [series.coefficient(d) for d in range(-q, 0)]
        assert report.pole_bound == q and len(report.coefficients) == q, expr
        for d in range(-q, 0):
            assert report.coefficients[d + q] == series.coefficient(d), (expr, d)
        assert report.residue == series.coefficient(-1), expr
        got = (report.verdicts, report.formal_pole_order, report.all_deep_vanish,
               report.to_json())
        assert got == reference(polys, q), expr
    assert str(report.coefficients[0]) == "1/2*t[2;0] - t[3;0]"
    assert (report.formal_pole_order, report.all_deep_vanish) == (2, False)


# ---------------------------------------------------------------------------
# shared prefix products against a per-monomial fold
# ---------------------------------------------------------------------------


def scalar_window_product(a, b):
    """Oracle for convolve: entry j is a[0]*b[j] + a[1]*b[j-1] + ... +
    a[j]*b[0], folded with the ring's scalar * and +."""
    out = []
    for j in range(min(len(a), len(b))):
        c = a[0] * b[j]
        for i in range(1, j + 1):
            c = c + a[i] * b[j - i]
        out.append(c)
    return tuple(out)


def series_mul(x, y):
    """Series product by the scalar double loop."""
    return LaurentSeries(x.min_degree + y.min_degree, scalar_window_product(x.coeffs, y.coeffs))


def series_add(x, y):
    """Series sum over the common window; a degree below a window is the
    ring's zero."""
    lo = min(x.min_degree, y.min_degree)
    hi = min(x.top_degree, y.top_degree)
    return LaurentSeries(lo, tuple(x.coefficient(d) + y.coefficient(d) for d in range(lo, hi + 1)))


def series_scale(x, q):
    """Every coefficient scaled by the ring's scalar scale."""
    q = Fraction(q)
    return LaurentSeries(x.min_degree, tuple(c.scale(q) for c in x.coeffs))


def naive_expand(expression, length, ring, taylor):
    """Oracle for expand over FormalPoly: every monomial's factor series
    folded afresh from the left, scaled and summed in the sorted term
    order, all with the ring's scalar operations."""
    unit = LaurentSeries(0, (ring.constant(Fraction(1)),) + (ring.zero(),) * (length - 1))
    acc = None
    for monomial, coeff in expression.sorted_terms():
        factors = [factor_series(f.a, f.b, length, ring, taylor) for f in monomial]
        series = series_scale(reduce(series_mul, factors or [unit]), coeff)
        acc = series if acc is None else series_add(acc, series)
    return acc


def fresh_expand(expression, length, taylor):
    """Oracle for expand's memo over Enclosures, which has no scalar
    operations: every monomial's lifted factor windows convolved afresh
    from the left, then one weighted_sum in the sorted term order, each
    coefficient read as a Ball."""
    ring = Enclosures
    unit = LaurentSeries(0, (ring.constant(Fraction(1)),) + (ring.zero(),) * (length - 1))
    terms = []
    for monomial, coeff in expression.sorted_terms():
        factors = [factor_series(f.a, f.b, length, ring, taylor) for f in monomial] or [unit]
        window = reduce(ring.convolve, [ring.lift(f.coeffs) for f in factors])
        terms.append((coeff, sum(f.min_degree for f in factors), window))
    lo = min(degree for _, degree, _ in terms)
    return LaurentSeries(lo, tuple(map(_ball, ring.weighted_sum(terms, lo, lo + length - 1))))


def numeric_taylor(config):
    """The Taylor data laurent_expand feeds to expand."""

    def taylor(a, b, count):
        enclosures = expansion_at(a, config).enclosures[:count]
        return [mul(c, ival(b**k, mp.prec), mp.prec) for k, c in enumerate(enclosures)]

    return taylor


def bits(series):
    """Every bit of a numeric series: mpf mantissas and exponents, errors
    as float.hex."""
    return series.min_degree, [
        (getattr(v, "_mpf_", v), type(v), float.hex(e)) for v, e in series.coeffs
    ]


def xi_sum(*terms):
    """XiExpression from (coefficient, [(a, b), ...]) terms."""
    return reduce(operator.add, (XiExpression.monomial(fs, c) for c, fs in terms))


# consecutive sorted monomials that differ at the first factor, the unit
# monomial, repeated factors and mixed lengths
SYNTHETIC = (
    xi_sum((2, []), (1, [(1, 1), (2, 1)]), (-3, [(1, 2), (3, 1)])),
    xi_sum(
        (Fraction(1, 2), [(2, 3)]),
        (1, [(1, 1)]),
        (-1, [(1, 1), (2, 1)]),
        (1, [(1, 1), (1, 1), (2, 1)]),
        (5, [(1, 1), (1, 1), (3, 2)]),
        (-2, [(2, 1), (2, 1), (2, 1)]),
        (1, [(1, 3), (2, 1), (2, 1), (4, 1)]),
    ),
)


def _expressions_through(n):
    from orbitzeta.partitions import partitions_of

    return [e for m in range(1, n + 1) for p in partitions_of(m) for e in (h_orbit(p), z_orbit(p))]


def test_shared_products_equal_the_naive_fold():
    """expand shares factor-prefix products across monomials and sums each
    degree once on native windows; the result is bit-identical to folding
    each monomial afresh, with the window operations over Enclosures and with
    the scalar operations over FormalPoly, for every h and z with n <= 7
    (about 2.5 s on one CPU)."""
    for expr in _expressions_through(7) + list(SYNTHETIC):
        # z of (7) has 7 polar factors and needs order 9
        cfg = PrecisionConfig.default(
            working_digits=30, expansion_order=max(8, expr.max_polar_count() + 2)
        )
        with mp.workdps(cfg.internal_dps):
            want = bits(fresh_expand(expr, cfg.expansion_order + 1, numeric_taylor(cfg)))
        assert bits(laurent_expand(expr, cfg)) == want, expr
        length = expr.max_polar_count() + 2
        formal = expand(expr, length, FormalPoly, _symbols)
        assert formal == naive_expand(expr, length, FormalPoly, _symbols), expr


def test_shared_products_do_not_depend_on_term_order():
    """Any term order gives the same exact sum, including a monomial followed
    by one of its own prefixes or by a monomial with another first factor."""
    import random

    class Ordered:
        def __init__(self, terms):
            self.terms = terms

        def sorted_terms(self):
            return self.terms

    expr = SYNTHETIC[1]
    terms = expr.sorted_terms()
    want = expand(expr, 4, FormalPoly, _symbols)
    orders = [terms[::-1]] + [random.Random(seed).sample(terms, len(terms)) for seed in range(20)]
    for order in orders:
        assert expand(Ordered(order), 4, FormalPoly, _symbols) == want


def count_convolves(monkeypatch):
    """Count every native window product of either ring in calls[0]."""
    calls = [0]
    for ring in (Enclosures, FormalPoly):

        def counting(a, b, convolve=ring.convolve):
            calls[0] += 1
            return convolve(a, b)

        monkeypatch.setattr(ring, "convolve", counting)
    return calls


def test_expand_multiplies_each_factor_prefix_once(monkeypatch):
    """One native window product per distinct factor prefix of length >= 2."""
    calls = count_convolves(monkeypatch)
    for expr in _expressions_through(6):
        prefixes = {m[:i] for m in expr.terms for i in range(2, len(m) + 1)}
        for run in (
            lambda: _PRODUCTS.clear() or laurent_expand(expr, CFG),
            lambda: expand(expr, expr.max_polar_count(), FormalPoly, _symbols),
        ):
            calls[0] = 0
            run()
            assert calls[0] == len(prefixes), expr


def test_repeated_expansion_multiplies_only_unkept_full_products(monkeypatch):
    """laurent_expand keeps single factors and strict prefixes for its
    config, so a repeat multiplies out only the full products that are no
    monomial's strict prefix, and returns the same bits."""
    calls = count_convolves(monkeypatch)
    for expr in _expressions_through(6) + list(SYNTHETIC):
        cfg = CFG.for_orbit_size(expr.max_polar_count())
        strict = {m[:i] for m in expr.terms for i in range(2, len(m))}
        unkept = {m for m in expr.terms if len(m) >= 2 and m not in strict}
        _PRODUCTS.clear()
        first = bits(laurent_expand(expr, cfg))
        calls[0] = 0
        assert bits(laurent_expand(expr, cfg)) == first, expr
        assert calls[0] == len(unkept), expr


def test_switching_config_and_back_keeps_the_naive_bits():
    """Each config change replaces laurent_expand's memo; every expansion,
    before and after a change and after changing back, equals the fresh
    fold at its config bit for bit."""
    other = PrecisionConfig.default(working_digits=20, expansion_order=8)
    exprs = [h_orbit(Partition((2, 1))), z_orbit(Partition((3, 1))), *SYNTHETIC]
    for cfg in (CFG, other, CFG, other):
        for expr in exprs:
            with mp.workdps(cfg.internal_dps):
                want = fresh_expand(expr, cfg.expansion_order + 1, numeric_taylor(cfg))
            assert bits(laurent_expand(expr, cfg)) == bits(want), (cfg, expr)
        assert list(_PRODUCTS) == [cfg]


def held_entries():
    """Monomial entries of the windows in formal_cancellation_check's memo."""
    memo = formal._WINDOWS.values()
    return sum(len(e) for windows in memo for _, (_, es) in windows.values() for e in es)


def test_formal_memo_changes_no_report(monkeypatch):
    """formal_cancellation_check keeps its windows across calls; for h and
    z of every orbit with n <= 8 every report equals the one made from a
    cleared memo, with the memo warmed in ascending order and in a seeded
    shuffle, and a repeat call multiplies only the full products that are
    no monomial's strict prefix.  With a cap small enough to force clears
    the reports are still the fresh ones, and after every call the memo
    holds at most its cap of monomial entries, as many as it counts."""
    exprs = _expressions_through(8)

    def fresh(expr):
        formal._clear_windows()
        return formal_cancellation_check(expr).to_json()

    want = [fresh(expr) for expr in exprs]
    shuffled = random.Random(3).sample(range(len(exprs)), len(exprs))
    for order in (range(len(exprs)), shuffled):
        formal._clear_windows()
        for i in order:
            assert formal_cancellation_check(exprs[i]).to_json() == want[i], exprs[i]
            assert held_entries() == formal._held <= formal.WINDOW_ENTRIES

    calls = count_convolves(monkeypatch)
    for expr, report in zip(exprs, want):
        strict = {m[:i] for m in expr.terms for i in range(2, len(m))}
        unkept = {m for m in expr.terms if len(m) >= 2 and m not in strict}
        fresh(expr)
        calls[0] = 0
        assert formal_cancellation_check(expr).to_json() == report, expr
        assert calls[0] == len(unkept), expr

    monkeypatch.setattr(formal, "WINDOW_ENTRIES", 1000)
    formal._clear_windows()
    clears = 0
    for expr, report in zip(exprs, want):
        before = held_entries()
        assert formal_cancellation_check(expr).to_json() == report, expr
        assert held_entries() == formal._held <= 1000, expr
        clears += held_entries() < before
    assert clears >= 5, clears


def test_formal_checks_through_ten_take_under_half_a_second():
    """The formal checks of h for all 138 orbits with n <= 10, in a fresh
    interpreter with h built beforehand, take under 0.5 s: 0.16 to 0.26 s
    over 12 runs on a 2-vCPU host, 10 of them under 0.18 s, against 0.24
    to 0.26 s with a fresh memo per call and the per-degree convolve.
    Every deep coefficient vanishes, and the memo is left within its
    cap."""
    script = (
        "import json, time\n"
        "from orbitzeta.partitions import partitions_of\n"
        "from orbitzeta.xi_algebra import h_orbit\n"
        "from orbitzeta.xinumeric import formal\n"
        "exprs = [h_orbit(p) for n in range(1, 11) for p in partitions_of(n)]\n"
        "start = time.perf_counter()\n"
        "reports = [formal.formal_cancellation_check(h) for h in exprs]\n"
        "seconds = time.perf_counter() - start\n"
        "vanish = [r.all_deep_vanish and r.formal_pole_order == 1 for r in reports]\n"
        "print(json.dumps([seconds, vanish, formal._held]))\n"
    )
    src = str(pathlib.Path(formal.__file__).resolve().parents[2])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seconds, vanish, held = json.loads(done.stdout)
    assert len(vanish) == 138 and all(vanish)
    assert held <= formal.WINDOW_ENTRIES
    assert seconds < 0.5, seconds


def test_expand_refuses_an_expression_with_no_terms():
    """expand has no series to return for the zero expression; both callers
    answer it before expanding."""
    for ring, taylor in ((Enclosures, numeric_taylor(CFG)), (FormalPoly, _symbols)):
        with pytest.raises(ValueError, match="no terms"):
            expand(XiExpression.zero(), 4, ring, taylor)
    zero = XiExpression.zero()
    assert laurent_expand(zero, CFG) == LaurentSeries(0, (Ball.zero(),) * 9)
    report = formal_cancellation_check(zero)
    assert (report.pole_bound, report.verdicts, report.all_deep_vanish) == (0, (), True)


# ---------------------------------------------------------------------------
# native window operations against their references
# ---------------------------------------------------------------------------


def assert_ball_of(ball, lo, hi):
    """ball is the ball of the box [lo, hi] (Fractions): its value the exact
    midpoint, its error the half-width rounded up to the next float."""
    value, error = ball
    half = (hi - lo) / 2
    assert exact(value) == (lo + hi) / 2, (ball, lo, hi)
    assert type(error) is float and Fraction(error) >= half, (ball, lo, hi)
    assert error == 0.0 or Fraction(math.nextafter(error, 0.0)) < half, (ball, lo, hi)


def test_ball_and_box_conversions_enclose():
    """Boxes of every sign, width and exponent, subnormal radii included,
    read back as the ball of their exact midpoint and half-width rounded
    up."""
    rng = random.Random(3)
    boxes = [(0, 0, 0), (5, 5, -3), (-7, -7, 40), (0, 3, -1100), (-1, 1, -1074)]
    for _ in range(400):
        lo = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 300))
        boxes.append((lo, lo + rng.getrandbits(rng.randint(0, 120)), rng.randint(-400, 200)))
    for box in boxes:
        assert_ball_of(_ball(box), *interval_oracle.endpoints(box))


def _enclosure(value, error):
    """The int enclosure of [value - error, value + error], an mpf and a
    float, rounded outward to the working precision in Fractions."""
    value, error = exact(value), Fraction(error)
    lo, hi = interval_oracle.rounded_out(value - error, value + error, mp.prec)
    e = 1 - max(lo.denominator, hi.denominator).bit_length()
    return int(lo * 2**-e), int(hi * 2**-e), e


def _entry(rng):
    """A Fraction's enclosure (dyadic or not), or the box of a zero or of
    a full-precision mpf over a wide exponent range, with a zero or
    nonzero radius."""
    M = mpmath.mpf
    kind = rng.randrange(4)
    if kind == 0:
        return Enclosures.constant(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    if kind == 1:
        value = M(0)
    else:
        value = mpmath.ldexp(M(rng.randint(-(10**60), 10**60)) / rng.randint(1, 10**40), -rng.randint(0, 300))
    return _enclosure(value, rng.choice((0.0, rng.uniform(0, 1e-30), rng.uniform(0, 1e-60))))


def _numeric_windows(rng):
    """Windows of Fraction enclosures (zero included), boxes of
    full-precision mpfs over a wide exponent range, of zero mpfs and
    mixes, with zero and nonzero radii and unequal lengths; built at the
    working precision.  Fixed cases, in products with each other and with
    the random windows: summands whose tops lie more than prec + 100 bits
    apart, in both orders and signs; odd prec-bit integers; and sums
    cancelling to zero."""
    F, M = Fraction, mpmath.mpf
    half = 2 ** (mp.prec - 1)
    tiny = mpmath.ldexp(M(1) / 7, -(mp.prec + 150))
    fixed = [
        [F(1, 2), F(0), F(-3, 7)],
        [F(2), F(5, 3), F(0), F(-5, 3)],
        [M(1) / 3, M(-2) / 7, M(0), mpmath.ldexp(M(5) / 11, -200)],
        [F(1, 3), M(1) / 3, F(-1, 3), M(-1) / 3, F(0)],
        [M(1) / 3, tiny, -tiny, M(-2) / 3],
        [tiny, M(1) / 3, -tiny, M(1) / 5],
        [M(1), M(-1), M(1), M(1)],
        [M(half + 1), M(-(half + 3)), M(2 * half - 1), M(1)],
        [M(3), M(3), M(1) / 2, M(-3)],
        [M(1) / 3, M(1) / 3, M(2) / 7, M(-2) / 7],
    ]

    def entry(v, error=0.0):
        return Enclosures.constant(v) if isinstance(v, Fraction) else _enclosure(v, error)

    windows = [[entry(v) for v in w] for w in fixed]
    windows.append([entry(v, 1e-40 * k) for k, v in enumerate(fixed[2])])
    windows += [[_entry(rng) for _ in range(rng.randint(1, 8))] for _ in range(25)]
    return windows


@pytest.mark.parametrize("dps", [15, 40])
def test_numeric_convolve_equals_the_scalar_double_loop(dps):
    """Enclosures.convolve on lifted windows against the double loop of
    exact rational arithmetic on box corners (interval_oracle.exact_dot),
    bit for bit, for every ordered pair of windows."""
    with mp.workdps(dps):
        windows = _numeric_windows(random.Random(dps))
        lifted = [Enclosures.lift(w) for w in windows]
        for a in lifted:
            for b in lifted:
                got = Enclosures.convolve(a, b)
                assert len(got) == min(len(a), len(b))
                for j, box in enumerate(got):
                    want = interval_oracle.exact_dot(zip(a[: j + 1], b[j::-1]), mp.prec)
                    assert interval_oracle.endpoints(box) == want, (a, b, j)


def _weighted_terms(rng, lo, hi, window, coeffs):
    """1 to 6 (coefficient, min_degree, window) terms whose windows start
    at or above lo and reach hi or beyond."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(lo, hi)
        terms.append((rng.choice(coeffs), m, window(hi - m + 1 + rng.randint(0, 2))))
    return terms


@pytest.mark.parametrize("dps", [15, 40])
def test_numeric_weighted_sum_equals_the_scalar_fold(dps):
    """Enclosures.weighted_sum on lifted windows against the fold of exact
    rational arithmetic on box corners, each entry times the enclosure of
    its weight, bit for bit: windows starting above lo (an exact zero below
    them), the unit monomial's window, Fraction-only windows, boxes of
    zero mpfs, Fraction/mpf mixes, zero and nonzero radii, and weights
    wider than the precision."""
    F, M = Fraction, mpmath.mpf
    rng = random.Random(100 + dps)
    kinds = [
        lambda k: [Enclosures.constant(F(1))] + [Enclosures.zero()] * (k - 1),
        lambda k: [Enclosures.constant(F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(k)],
        lambda k: [_enclosure(M(0), rng.choice((0.0, 1e-35))) for _ in range(k)],
        lambda k: [_entry(rng) for _ in range(k)],
    ]
    coeffs = [F(1), F(-1), F(3, 7), F(-22, 5), F(10**12, 7), F(1, 3**40)]
    checked = 0
    with mp.workdps(dps):
        for case in range(200):
            lo = rng.randint(-3, 0)
            hi = lo + rng.randint(0, 5)
            kind = kinds[case % len(kinds)] if case < 40 else (lambda k: rng.choice(kinds)(k))
            terms = [
                (c, m, Enclosures.lift(w)) for c, m, w in _weighted_terms(rng, lo, hi, kind, coeffs)
            ]
            got = Enclosures.weighted_sum(terms, lo, hi)
            assert len(got) == hi - lo + 1
            for d, box in zip(range(lo, hi + 1), got):
                pairs = [(w[d - m], _quotient(c, mp.prec)) for c, m, w in terms if d >= m]
                assert interval_oracle.endpoints(box) == interval_oracle.exact_dot(pairs, mp.prec)
            checked += sum(m > lo for _, m, _ in terms)
    assert checked > 100


def exact(value):
    """An mpf value as an exact Fraction."""
    return Fraction(*to_rational(value._mpf_))


@pytest.mark.parametrize("dps", [15, 40])
def test_numeric_window_errors_bound_every_rounding(dps):
    """Every entry of convolve and weighted_sum on lifted windows, read as
    a Ball, encloses the exact result at any point of the input
    enclosures: for random windows of Fraction enclosures (dyadic or not)
    and boxes of full-precision mpfs and zeros, and rational weights
    (dyadic or not), the exact products and weighted sums at the midpoints
    and at random ends of every input lie within the output's error of its
    value."""
    F = Fraction
    rng = random.Random(70 + dps)
    with mp.workdps(dps):
        windows = _numeric_windows(rng)
        inside = 0

        def points(window):
            """The midpoints, then two random choices of an end of each
            enclosure."""
            ends = [interval_oracle.endpoints(x) for x in window]
            yield [(lo + hi) / 2 for lo, hi in ends]
            for _ in range(2):
                yield [rng.choice(pair) for pair in ends]

        def check(ball, want):
            nonlocal inside
            value, error = ball
            assert abs(exact(value) - want) <= F(error), (ball, want)
            inside += 1

        for a in windows:
            for b in windows:
                got = Enclosures.convolve(Enclosures.lift(a), Enclosures.lift(b))
                for x, y in zip(points(a), points(b)):
                    for j, box in enumerate(got):
                        check(_ball(box), sum(x[i] * y[j - i] for i in range(j + 1)))
        coeffs = [F(1), F(-3, 8), F(10**12), F(1, 2**40), F(1, 3), F(-22, 7)]
        for _ in range(100):
            lo, hi = -2, rng.randint(-2, 3)
            terms = _weighted_terms(rng, lo, hi, lambda k: rng.choice(windows)[:k], coeffs)
            terms = [(c, m, w) for c, m, w in terms if len(w) > hi - m]
            if not terms:
                continue
            got = Enclosures.weighted_sum([(c, m, Enclosures.lift(w)) for c, m, w in terms], lo, hi)
            for xs in zip(*(points(w) for _, _, w in terms)):
                for d, box in zip(range(lo, hi + 1), got):
                    want = sum(c * x[d - m] for (c, m, _), x in zip(terms, xs) if d >= m)
                    check(_ball(box), want)
    assert inside > 5000


def test_fraction_summand_error_covers_its_conversion():
    """An mpf and a Fraction, -1/25 and 1/25 at 53 bits, cancel, whether the
    Fraction enters as a constant or as a weight, and the error still
    covers the exact sum's distance."""
    with mp.workdps(15):
        x = _enclosure(-mpmath.mpf(1) / 25, 0.0)
        want = interval_oracle.endpoints(x)[0] + Fraction(1, 25)
        for terms in (
            [(Fraction(1), 0, [x]), (Fraction(1), 0, [Enclosures.constant(Fraction(1, 25))])],
            [(Fraction(1), 0, [x]), (Fraction(1, 25), 0, [Enclosures.constant(1)])],
        ):
            (value, error), = map(_ball, Enclosures.weighted_sum(terms, 0, 0))
            assert error > 0 and abs(exact(value) - want) <= Fraction(error)


def formal_coeffs(window):
    """The FormalPoly coefficients of a native formal window."""
    den, entries = window
    return tuple(
        FormalPoly({_unpack(m): Fraction(c, den) for m, c in entry.items()}) for entry in entries
    )


def scalar_weighted_sum(terms, lo, hi, zero):
    """Oracle for weighted_sum: per degree, the fold with the ring's scalar
    + of each window's entry under its scalar scale, from the first term,
    with `zero` below a window."""
    out = []
    for d in range(lo, hi + 1):
        acc = None
        for c, m, w in terms:
            x = w[d - m].scale(c) if d >= m else zero
            acc = x if acc is None else acc + x
        out.append(acc)
    return tuple(out)


def test_packed_monomials_reach_the_slot_limit_and_refuse_beyond_it():
    """Packed window products and sums equal SparsePoly's * and + with an
    exponent at the slot limit beside other symbols, and so does expand
    on an expression whose coefficients reach it.  A monomial of more
    factors than the limit, which could carry one slot into the next, is
    refused by formal_cancellation_check before any expansion."""
    t = FormalPoly.variable

    def power(a, k, e):
        return reduce(operator.mul, [t(a, k)] * e)

    assert SLOT_MAX == 63
    a = [power(1, 0, 62) * t(2, 1), t(1, 0, 3) + t(2, 1), FormalPoly.constant(Fraction(1, 5))]
    b = [t(1, 0, Fraction(1, 2)), power(2, 1, 62) + t(1, 0), t(3, 4)]
    product = scalar_window_product(a, b)
    assert ((1, 0),) * 63 + ((2, 1),) in product[0].terms
    assert ((1, 0),) * 62 + ((2, 1),) * 63 in product[1].terms
    native = FormalPoly.convolve(FormalPoly.lift(a), FormalPoly.lift(b))
    assert formal_coeffs(native) == product
    terms = [(Fraction(2, 3), -1, product), (Fraction(-1, 7), 0, b)]
    native_terms = [(Fraction(2, 3), -1, native), (Fraction(-1, 7), 0, FormalPoly.lift(b))]
    want = scalar_weighted_sum(terms, -1, 1, FormalPoly.zero())
    assert tuple(FormalPoly.weighted_sum(native_terms, -1, 1)) == want

    expr = xi_sum((1, [(1, 1)] + [(2, 1)] * 62), (-2, [(2, 1)] * 63))
    series = expand(expr, 3, FormalPoly, _symbols)
    assert ((2, 0),) * 63 in series.coefficient(0).terms
    assert series == naive_expand(expr, 3, FormalPoly, _symbols)
    assert formal_cancellation_check(expr).pole_bound == 1
    # t[2;0]^64 would overflow its slot into the next one's
    with pytest.raises(SlotOverflowError, match="a monomial exceeds 63 factors"):
        formal_cancellation_check(XiExpression.monomial([(1, 1)] + [(2, 1)] * 64))


def _formal_polys():
    t, c = FormalPoly.variable, FormalPoly.constant
    return [
        FormalPoly.zero(),
        c(Fraction(1, 3)),
        c(-2),
        t(1, 0, Fraction(2, 5)) + t(2, 1, Fraction(-1, 6)),
        t(1, 0) * t(1, 0) - c(Fraction(7, 4)),
        t(3, 2, 9) + t(1, 1, Fraction(1, 10)),
    ]


def test_formal_convolve_equals_the_scalar_double_loop():
    """FormalPoly.convolve on lifted windows against the fold of
    SparsePoly's * and +, for windows whose polynomials have different
    denominators, zero polynomials included, and of unequal lengths."""
    polys = _formal_polys()
    rng = random.Random(5)
    windows = [[FormalPoly.zero()] * 3, _symbols(1, 2, 4), _symbols(2, 3, 2)]
    windows += [[rng.choice(polys) for _ in range(rng.randint(1, 5))] for _ in range(30)]
    for a in windows:
        assert formal_coeffs(FormalPoly.lift(a)) == tuple(a)
        for b in windows:
            got = formal_coeffs(FormalPoly.convolve(FormalPoly.lift(a), FormalPoly.lift(b)))
            assert got == scalar_window_product(a, b), (a, b)


def test_formal_weighted_sum_equals_the_scalar_fold():
    """FormalPoly.weighted_sum on lifted windows against the fold of
    SparsePoly.scale and +, with weights and polynomials of differing
    denominators, windows starting above lo, products of lifted windows
    (denominator da * db) and the unit monomial's window."""
    polys = _formal_polys()
    rng = random.Random(11)
    coeffs = [Fraction(1), Fraction(-1), Fraction(5, 6), Fraction(-7, 15), Fraction(4, 9)]
    unit = lambda k: [FormalPoly.constant(1)] + [FormalPoly.zero()] * (k - 1)  # noqa: E731
    for case in range(150):
        lo = rng.randint(-3, 0)
        hi = lo + rng.randint(0, 4)
        kind = unit if case % 5 == 0 else (lambda k: [rng.choice(polys) for _ in range(k)])
        terms = _weighted_terms(rng, lo, hi, kind, coeffs)
        native = [(c, m, FormalPoly.lift(w)) for c, m, w in terms]
        if case % 3 == 0:
            # one window as a product of two lifted windows
            c, m, w = terms[0]
            a = [rng.choice(polys) for _ in w]
            b = _symbols(1, rng.randint(1, 3), len(w))
            terms[0] = (c, m, scalar_window_product(a, b))
            native[0] = (c, m, FormalPoly.convolve(FormalPoly.lift(a), FormalPoly.lift(b)))
        got = FormalPoly.weighted_sum(native, lo, hi)
        assert tuple(got) == scalar_weighted_sum(terms, lo, hi, FormalPoly.zero()), terms

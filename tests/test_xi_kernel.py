"""Numeric kernel: zeta summation, completed-zeta values, derivative routes.

Oracles here are closed forms assembled from library constants (pi, euler,
Catalan-free zeta derivatives), the library zeta itself, which shares no
code with the Euler-Maclaurin summation under test, and contour-quadrature
Taylor tables (contour_oracle.py), which share no power-series arithmetic
with the series route.  The same series build written in mpmath's iv
context (interval_oracle.py) pins its int endpoint arithmetic bit for bit,
and the plan written out term by term there pins the kernel's plan.
"""

import math
import random
import time
from dataclasses import replace

import mpmath
import pytest
from mpmath import iv, mp

from orbitzeta.xinumeric import (
    GUARD_DIGITS,
    ExpansionOrderError,
    PrecisionConfig,
    PrecisionError,
    expansion_at,
    kernel,
    residue_anchor,
    tables,
    xi_one_correction_limit,
    xi_point,
    xi_value,
    xi_value_fd,
    zeta_euler_maclaurin,
)

import contour_oracle
import interval_oracle

CFG30 = PrecisionConfig.default(working_digits=30)


def as_real(x):
    assert abs(mpmath.im(mpmath.mpc(x))) < 1e-25
    return mpmath.re(mpmath.mpc(x))


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta vs the library implementation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "s",
    [
        mpmath.mpf(2),
        mpmath.mpf(3),
        mpmath.mpf("4.5"),
        mpmath.mpf("1.25"),
        mpmath.mpc("2.1", "0.25"),
        mpmath.mpc("0.9", "-0.2"),
        mpmath.mpf("-0.25"),
    ],
)
def test_zeta_matches_library(s):
    with mp.workdps(50):
        mine, err = zeta_euler_maclaurin(s, 35)
        ref = mpmath.zeta(s)
        assert abs(mine - ref) < mpmath.mpf(10) ** (-33)
        assert abs(mine - ref) <= max(err, float(mpmath.mpf(10) ** (-33)))


def test_zeta_error_estimate_is_honest():
    with mp.workdps(60):
        for digits in (20, 30, 40):
            mine, err = zeta_euler_maclaurin(mpmath.mpf(3), digits)
            actual = abs(mine - mpmath.zeta(3))
            assert float(actual) <= err


# ---------------------------------------------------------------------------
# closed-form anchors for the completed function
# ---------------------------------------------------------------------------


def closed_forms():
    # assembled from library constants only
    with mp.workdps(50):
        xi2 = mpmath.pi / 6
        xi3 = mpmath.zeta(3) / (2 * mpmath.pi)
        xi4 = mpmath.pi**2 / 90
    return {2: xi2, 3: xi3, 4: xi4}


def test_xi_point_closed_forms():
    anchors = closed_forms()
    with mp.workdps(50):
        for k, target in anchors.items():
            value, err = xi_point(mpmath.mpf(k), 40)
            assert abs(as_real(value) - target) < mpmath.mpf(10) ** (-35)
            assert err < 1e-30


def test_xi_value_closed_forms_to_1e10():
    anchors = closed_forms()
    for k, target in anchors.items():
        got = xi_value(k, 0, CFG30)
        assert abs(as_real(got.value) - target) < mpmath.mpf(10) ** (-10)
        # the certified bound is much tighter than the required tolerance
        assert got.error < 1e-10


def test_xi_point_rejects_poles():
    with pytest.raises(ValueError):
        xi_point(mpmath.mpf(0), 20)
    with pytest.raises(ValueError):
        xi_point(mpmath.mpf(1), 20)


def test_functional_equation_spot_check():
    with mp.workdps(45):
        left, el = xi_point(mpmath.mpf("1.25"), 35)
        right, er = xi_point(mpmath.mpf("-0.25"), 35)
        assert abs(left - right) < mpmath.mpf(10) ** (-30)


# ---------------------------------------------------------------------------
# first derivative at 2: three independent routes
# ---------------------------------------------------------------------------


def log_derivative_oracle():
    """xi'(2) from the logarithmic derivative of the defining product.

    xi'/xi (2) = -log(pi)/2 + psi(1)/2 + zeta'(2)/zeta(2), with every factor
    taken from the library.
    """
    with mp.workdps(50):
        ratio = (
            -mpmath.log(mpmath.pi) / 2
            + mpmath.digamma(1) / 2
            + mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
        )
        return (mpmath.pi / 6) * ratio


def test_xi_prime_2_against_log_derivative_oracle():
    oracle = log_derivative_oracle()
    contour = xi_value(2, 1, CFG30)
    assert abs(as_real(contour.value) - oracle) < mpmath.mpf(10) ** (-8)
    fd = xi_value_fd(2, 1, CFG30)
    assert abs(as_real(fd.value) - oracle) < mpmath.mpf(10) ** (-8)


def test_residue_anchor_matches_point_and_difference_routes():
    digits = CFG30.working_digits
    with mp.workdps(digits + 10):
        for n in range(1, 6):
            prod = mpmath.mpf(1)
            for k in range(2, n + 1):
                prod *= xi_point(mpmath.mpf(k), digits)[0]
            assert abs(residue_anchor((1,) * n, digits) - mpmath.re(prod)) < 1e-25
    fd = xi_value_fd(2, 1, CFG30)
    assert abs(residue_anchor((2, 1), digits) - fd.value) < 1e-25
    assert residue_anchor((2,), digits) is None
    assert residue_anchor((3, 1), digits) is None


@pytest.mark.parametrize("point", [2, 3])
def test_contour_vs_finite_difference_derivative(point):
    contour = xi_value(point, 1, CFG30)
    fd = xi_value_fd(point, 1, CFG30)
    loose = max(contour.error, fd.error)
    assert abs(as_real(contour.value) - as_real(fd.value)) <= max(loose, 1e-25)


def test_second_derivative_routes_agree():
    contour = xi_value(2, 2, CFG30)
    fd = xi_value_fd(2, 2, CFG30)
    assert abs(as_real(contour.value) - as_real(fd.value)) < 1e-20


# ---------------------------------------------------------------------------
# behaviour at the pole
# ---------------------------------------------------------------------------


def test_expansion_at_one_constant_term_two_routes():
    exp1 = expansion_at(1, CFG30)
    assert exp1.point == 1  # the series at 1 is xi's with its principal part taken off
    limit = xi_one_correction_limit(CFG30)
    with mp.workdps(45):
        closed = (mpmath.euler - mpmath.log(4 * mpmath.pi)) / 2
        c0 = as_real(exp1.coefficients[0])
        assert abs(c0 - limit.value) <= max(exp1.errors[0] + limit.error, 1e-25)
        assert abs(c0 - closed) < mpmath.mpf(10) ** (-25)


def test_expansion_reads_are_config_keyed():
    a = expansion_at(2, CFG30)
    assert expansion_at(2, CFG30) == a
    other = expansion_at(2, PrecisionConfig.default(working_digits=20))
    assert other != a
    assert other.coefficients != a.coefficients
    longer = expansion_at(2, CFG30.for_orbit_size(8))
    assert longer != a
    assert longer.config.expansion_order == 11
    assert len(longer.coefficients) == 12
    assert longer.coefficients[:10] == a.coefficients
    assert longer.errors[:10] == a.errors


def test_tables_are_prefixes_across_orders(monkeypatch):
    def build(orders):
        # empty caches: every build sequence starts from cold tables
        monkeypatch.setattr(contour_oracle, "_expansion_cache", {})
        monkeypatch.setattr(contour_oracle, "_contour_cache", {})
        cfgs = {o: PrecisionConfig(working_digits=20, expansion_order=o, contour_nodes=48)
                for o in orders}
        return {(o, point): contour_oracle.expansion_at(point, cfgs[o])
                for o in orders for point in (1, 2, 5)}

    rising = build((9, 12))
    falling = build((12, 9))
    for point in (1, 2, 5):
        tables = [t[o, point] for t in (rising, falling) for o in (9, 12)]
        assert [len(t.coefficients) for t in tables] == [10, 13, 10, 13]
        # mpf and float equality is exact: the prefixes agree bit for bit
        assert len({t.coefficients[:10] for t in tables}) == 1
        assert len({t.errors[:10] for t in tables}) == 1
        assert rising[12, point].coefficients == falling[12, point].coefficients
        assert rising[12, point].errors == falling[12, point].errors


def test_series_tables_are_prefixes_across_orders(monkeypatch):
    # the rising sequence builds 10 coefficients and grows them in place
    # to 21, the falling one builds 21 at once
    def build(orders):
        monkeypatch.setattr(tables, "_series_cache", {})
        cfgs = {o: PrecisionConfig(working_digits=20, expansion_order=o) for o in orders}
        return {(o, point): expansion_at(point, cfgs[o]) for o in orders for point in (1, 2, 5)}

    rising = build((9, 20))
    falling = build((20, 9))
    for point in (1, 2, 5):
        found = [t[o, point] for t in (rising, falling) for o in (9, 20)]
        assert [len(t.coefficients) for t in found] == [10, 21, 10, 21]
        assert len({t.coefficients[:10] for t in found}) == 1
        assert len({t.errors[:10] for t in found}) == 1
        assert rising[20, point].coefficients == falling[20, point].coefficients
        assert rising[20, point].errors == falling[20, point].errors


def test_raising_the_order_evaluates_no_node(monkeypatch):
    calls = []
    original = contour_oracle.xi_point

    def counting(z, digits):
        calls.append(z)
        return original(z, digits)

    monkeypatch.setattr(contour_oracle, "xi_point", counting)
    base = PrecisionConfig(working_digits=12, expansion_order=3, contour_nodes=24)

    def new_calls(cfg):
        before = len(calls)
        table = contour_oracle.expansion_at(3, cfg)
        assert table.config is cfg
        assert len(table.coefficients) == cfg.expansion_order + 1
        return len(calls) - before

    assert new_calls(base) == 24 // 2 + 1
    assert new_calls(replace(base, expansion_order=7)) == 0
    assert new_calls(replace(base, expansion_order=2)) == 0
    # an odd node count is rounded up to the same even circle
    assert new_calls(replace(base, contour_nodes=23)) == 0
    assert new_calls(replace(base, working_digits=13)) == 24 // 2 + 1
    assert new_calls(replace(base, contour_radius=0.2)) == 24 // 2 + 1
    assert new_calls(replace(base, contour_nodes=20)) == 20 // 2 + 1


def test_raising_the_order_makes_no_pass_over_j(monkeypatch):
    """A table is built to the order asked and grown by only the
    coefficients a higher order adds: each coefficient is computed once."""
    built = []
    original = tables._Table._coefficient

    def counting(table, k, shared):
        built.append((table.point, table.digits, k))
        return original(table, k, shared)

    monkeypatch.setattr(tables._Table, "_coefficient", counting)
    monkeypatch.setattr(tables, "_series_cache", {})
    base = PrecisionConfig(working_digits=12, expansion_order=3)
    digits = base.internal_dps

    def new_coefficients(cfg):
        before = len(built)
        table = expansion_at(3, cfg)
        assert table.config is cfg
        assert len(table.coefficients) == len(table.errors) == cfg.expansion_order + 1
        assert len(table.enclosures) == cfg.expansion_order + 1
        return built[before:]

    assert new_coefficients(base) == [(3, digits, k) for k in range(4)]
    assert new_coefficients(replace(base, expansion_order=7)) == [(3, digits, k) for k in range(4, 8)]
    assert new_coefficients(replace(base, expansion_order=2)) == []
    # the contour knobs do not reach the tables
    assert new_coefficients(replace(base, contour_nodes=24, contour_radius=0.2)) == []
    assert new_coefficients(replace(base, working_digits=13)) == [(3, digits + 1, k) for k in range(4)]
    assert len(set(built)) == len(built) == 12


def test_series_errors_bound_the_oracle():
    """Every coefficient of orders <= 11 at points 1..8 and working digits
    20, 30, 40 lies within its stated error of the contour oracle.  One
    oracle at 80 digits and 256 nodes (twice the highest digits, twice the
    default nodes) serves all three levels; its own stated error is
    charged against the series bound."""
    oracle_cfg = PrecisionConfig(working_digits=80, expansion_order=11, contour_nodes=256)
    for point in range(1, 9):
        oracle = contour_oracle.expansion_at(point, oracle_cfg)
        for digits in (20, 30, 40):
            table = expansion_at(point, PrecisionConfig(working_digits=digits, expansion_order=11))
            for k, (value, error) in enumerate(zip(table.coefficients, table.errors)):
                assert 10 * oracle.errors[k] < error, (point, digits, k)
                with mp.workdps(100):
                    gap = float(abs(value - oracle.coefficients[k]))
                assert gap + oracle.errors[k] <= error, (point, digits, k, gap, error)
                # the bound is meaningful: within a few digits of the level asked for
                assert error < 10.0 ** -(digits + GUARD_DIGITS - 6), (point, digits, k)


def test_series_and_oracle_agree_at_default():
    cfg = PrecisionConfig()
    for point in range(1, 9):
        table = expansion_at(point, cfg)
        oracle = contour_oracle.expansion_at(point, cfg)
        for k in range(cfg.expansion_order + 1):
            with mp.workdps(cfg.internal_dps + 10):
                gap = float(abs(table.coefficients[k] - oracle.coefficients[k]))
            assert gap <= table.errors[k] + oracle.errors[k], (point, k, gap)


def test_bernoulli_table_keeps_xi_point_bits(monkeypatch):
    points = [mpmath.mpf(k) for k in closed_forms()] + [mpmath.mpf("1.25"), mpmath.mpf("-0.25")]
    with mp.workdps(50):
        tabled = [xi_point(z, 40) for z in points] + [xi_point(z, 35) for z in points]

        def direct(k):
            return mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)

        monkeypatch.setattr(kernel, "_bernoulli_ratio", direct)
        computed = [xi_point(z, 40) for z in points] + [xi_point(z, 35) for z in points]
    assert tabled == computed


def test_raw_endpoint_route_matches_the_iv_oracle_bit_for_bit(monkeypatch):
    """Every coefficient and error of tables.xi_series equals the iv-context
    build of interval_oracle exactly: points 1..10, internal digits 35, 45,
    60 and 95, sizes 16 and 17, in two shuffled orders from empty caches.
    About 13 s on one CPU of a 2-vCPU host; the bound leaves wide headroom."""
    cases = [(d, size, point) for d in (35, 45, 60, 95) for size in (16, 17) for point in range(1, 11)]
    start = time.perf_counter()
    for seed in (1, 2):
        random.Random(seed).shuffle(cases)
        monkeypatch.setattr(tables, "_series_cache", {})
        monkeypatch.setattr(tables, "_shared_cache", {})
        for digits, size, point in cases:
            values, errors, _ = tables.xi_series(point, digits, size)
            want_values, want_errors = interval_oracle.xi_series(point, digits, size)
            assert [v._mpf_ for v in values] == [v._mpf_ for v in want_values], (digits, size, point)
            assert errors == want_errors, (digits, size, point)
    elapsed = time.perf_counter() - start
    assert elapsed < 90.0, elapsed


def test_raw_endpoint_route_matches_the_iv_oracle_at_high_precision(monkeypatch):
    """The same bit-for-bit check at internal digits 200 and 280, points 1,
    2 and 9, size 16: cutoff 128 with 93 to 181 corrections, whose weights
    divide by enclosures of cutoff^(2k) wider than the precision.  About
    2 s on one CPU of a 2-vCPU host; the bound leaves wide headroom."""
    monkeypatch.setattr(tables, "_series_cache", {})
    monkeypatch.setattr(tables, "_shared_cache", {})
    start = time.perf_counter()
    for digits in (200, 280):
        for point in (1, 2, 9):
            values, errors, _ = tables.xi_series(point, digits, 16)
            want_values, want_errors = interval_oracle.xi_series(point, digits, 16)
            assert [v._mpf_ for v in values] == [v._mpf_ for v in want_values], (digits, point)
            assert errors == want_errors, (digits, point)
    elapsed = time.perf_counter() - start
    assert elapsed < 40.0, elapsed


def test_grown_tables_match_the_iv_oracle_bit_for_bit(monkeypatch):
    """Tables grown in place to 1, then 4, 10, 11 and 17 coefficients, at
    points 1..10 and internal digits 35 and 60, from empty caches and in a
    new shuffled order at each step, hold exactly the coefficients asked
    and equal the iv-context build of interval_oracle at each size bit for
    bit.  About 1.5 s on one CPU of a 2-vCPU host; the bound leaves wide
    headroom."""
    monkeypatch.setattr(tables, "_series_cache", {})
    monkeypatch.setattr(tables, "_shared_cache", {})
    cases = [(digits, point) for digits in (35, 60) for point in range(1, 11)]
    rng = random.Random(4)
    start = time.perf_counter()
    for size in (1, 4, 10, 11, 17):
        rng.shuffle(cases)
        for digits, point in cases:
            values, errors, enclosures = tables.xi_series(point, digits, size)
            assert len(tables._series_cache[point, digits].enclosures) == len(enclosures) == size
            want_values, want_errors = interval_oracle.xi_series(point, digits, size)
            assert [v._mpf_ for v in values] == [v._mpf_ for v in want_values], (digits, size, point)
            assert errors == want_errors, (digits, size, point)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, elapsed


def test_a_build_cut_short_leaves_no_half_made_table(monkeypatch):
    """An exception in the middle of a coefficient drops the table it was
    growing, so the next call builds it afresh with the bits of an
    unbroken build."""
    monkeypatch.setattr(tables, "_series_cache", {})
    want = tables.xi_series(4, 35, 8)
    monkeypatch.setattr(tables, "_series_cache", {})
    tables.xi_series(4, 35, 3)
    original, calls = tables.from_float, []

    def failing(x):
        calls.append(x)
        if len(calls) == 3:  # in coefficient 4, after its sums are kept
            raise KeyboardInterrupt
        return original(x)

    monkeypatch.setattr(tables, "from_float", failing)
    with pytest.raises(KeyboardInterrupt):
        tables.xi_series(4, 35, 8)
    assert (4, 35) not in tables._series_cache
    monkeypatch.setattr(tables, "from_float", original)
    assert tables.xi_series(4, 35, 8) == want


def test_em_plan_matches_the_oracle_plan(monkeypatch):
    """A table's plan, with what does not depend on the term count or the
    cutoff hoisted, gives the (cutoff, terms) of the oracle's term-by-term
    plan, and the table's remainder_log_bound the bits of its 16 remainder
    bounds and radii, at points 1..20 and internal digits 20 to 100 in
    steps of 5, 100 to 300 in steps of 20, 150 and 305 (the most above the
    float floor); both refuse the same plans.  About 5 s on one CPU of a
    2-vCPU host; the bound leaves wide headroom."""
    grid = sorted({*range(20, 100, 5), *range(100, 306, 20), 150, 305})
    start = time.perf_counter()
    for point in range(1, 21):
        for digits in grid:
            table = tables._Table(point, digits)
            plan = table.cutoff, table.terms
            assert plan == interval_oracle.em_plan(point, digits), (point, digits)
            got = [table.remainder_log_bound(k) for k in range(16)]
            want = interval_oracle.remainder_log_bounds(point, *plan, 16)
            assert [b.hex() for b in got] == [b.hex() for b in want], (point, digits)
            assert [math.exp(b).hex() for b in got] == [math.exp(b).hex() for b in want]
    for plan in (tables._em_plan, interval_oracle.em_plan):
        with pytest.raises(PrecisionError, match="underflow"):
            plan(2, 320 + GUARD_DIGITS)
    monkeypatch.setattr(tables, "_CUTOFF_DOUBLINGS", 1)
    for plan in (tables._em_plan, interval_oracle.em_plan):
        with pytest.raises(PrecisionError, match="cannot reach"):
            plan(2, 40 + GUARD_DIGITS)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed


def test_table_build_is_independent_of_iv_precision(monkeypatch):
    """A build makes no iv-context interval, so its bits do not depend on
    the iv.prec it finds, and it leaves iv.prec as it was; a build refused
    with PrecisionError leaves iv.prec and mp.prec as they were too."""

    def build():
        for cache in ("_series_cache", "_shared_cache"):
            monkeypatch.setattr(tables, cache, {})
        built = [expansion_at(point, CFG30) for point in (1, 2, 5)]
        return [([c._mpf_ for c in t.coefficients], t.errors) for t in built]

    def no_iv(*args):
        raise AssertionError("iv-context conversion during a table build")

    saved = iv.prec
    try:
        iv.prec = 53
        default = build()
        assert iv.prec == 53
        monkeypatch.setattr(type(iv), "convert", no_iv)
        iv.prec = 61
        assert build() == default
        assert iv.prec == 61
        mp_prec = mp.prec
        with pytest.raises(PrecisionError):
            expansion_at(2, PrecisionConfig(working_digits=320, expansion_order=3))
        monkeypatch.setattr(tables, "_CUTOFF_DOUBLINGS", 1)
        with pytest.raises(PrecisionError):
            expansion_at(2, PrecisionConfig.default(working_digits=40))
        assert (iv.prec, mp.prec) == (61, mp_prec)
    finally:
        iv.prec = saved


# ---------------------------------------------------------------------------
# precision contract
# ---------------------------------------------------------------------------


def test_error_monotone_under_doubling():
    anchors = closed_forms()
    base = PrecisionConfig.default(working_digits=20, contour_nodes=64)
    doubled = PrecisionConfig.default(working_digits=40, contour_nodes=128)
    for k in (2, 4):
        coarse = abs(as_real(xi_value(k, 0, base).value) - anchors[k])
        fine = abs(as_real(xi_value(k, 0, doubled).value) - anchors[k])
        assert fine <= coarse


def test_unreachable_precision_raises(monkeypatch):
    # xi_value's contract on the contour oracle's tables: 16 nodes leave an
    # aliasing floor far above 40-digit demands
    monkeypatch.setattr(kernel, "expansion_at", contour_oracle.expansion_at)
    starved = PrecisionConfig.default(working_digits=40, contour_nodes=16)
    with pytest.raises(PrecisionError):
        xi_value(2, 0, starved)


def test_exhausted_cutoff_escalation_raises(monkeypatch):
    # 40 + guard digits need a cutoff of 32: two doublings from 8, not one
    cfg = PrecisionConfig.default(working_digits=40)
    monkeypatch.setattr(tables, "_series_cache", {})
    monkeypatch.setattr(tables, "_CUTOFF_DOUBLINGS", 1)
    for point in (1, 2, 8):
        with pytest.raises(PrecisionError):
            expansion_at(point, cfg)
    assert tables._series_cache == {}
    monkeypatch.setattr(tables, "_CUTOFF_DOUBLINGS", 2)
    assert tables._em_plan(2, cfg.internal_dps)[0] == 32


def test_errors_below_float_range_raise():
    # an error bound of 10^-(320 + 15 + 2) would underflow to an exact 0.0
    with pytest.raises(PrecisionError):
        expansion_at(2, PrecisionConfig(working_digits=320, expansion_order=3))
    assert expansion_at(2, PrecisionConfig(working_digits=280, expansion_order=3)).errors[0] > 0


def test_derivative_order_beyond_window_raises():
    cfg = PrecisionConfig.default(expansion_order=4)
    with pytest.raises(ExpansionOrderError):
        xi_value(2, 5, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(working_digits=2)
    with pytest.raises(ValueError):
        PrecisionConfig(contour_radius=0.5)
    with pytest.raises(ValueError):
        PrecisionConfig(contour_nodes=8)
    with pytest.raises(ValueError):
        PrecisionConfig(expansion_order=0)

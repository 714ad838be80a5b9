"""Arbitrary-precision evaluation of the completed zeta function.

The completed function is xi(z) = pi^(-z/2) * Gamma(z/2) * zeta(z).  It is
meromorphic with simple poles at z = 0 and z = 1 only, residues -1 and +1,
and satisfies xi(z) = xi(1 - z).

Routes kept deliberately independent:

- zeta values come from an Euler-Maclaurin summation implemented here (the
  Gamma factor and the underlying big-float arithmetic come from mpmath);
- Taylor coefficients at integer points come from the same summation in
  power-series mode (F. Johansson, "Rigorous high-precision computation of
  the Hurwitz zeta function and its derivatives", Numer. Algorithms 69
  (2015)): real interval arithmetic on plain ints (.intervals), with the
  bits of mpmath's mpi_* functions, one log per summed term, the values
  that do not depend on the point shared per precision and cutoff, and a
  bound on the error of every coefficient.
  Trapezoid quadrature of the Cauchy integral on a small circle is its
  accuracy oracle (tests/contour_oracle.py), and the same build in
  mpmath's iv context its bit-for-bit oracle (tests/interval_oracle.py);
- derivative values can be cross-checked through central finite differences
  with Richardson extrapolation, which shares no code with the series route;
- the finite part at the pole z = 1 can be cross-checked through a direct
  Richardson limit of xi(1+u) - 1/u;
- residue anchors for the orbit sums are closed forms built from mpmath's
  own zeta, gamma and digamma.

At z = 1 the object expanded is the regular part xi(z) - 1/(z-1); the
principal part 1/(z-1) is carried exactly and never enters a series.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    from_float, mpf_euler, mpf_pi, mpi_delta, mpi_log, mpi_loggamma, mpi_mid, round_ceiling,
    round_floor, to_float,
)

from .config import GUARD_DIGITS, ExpansionOrderError, PrecisionConfig, PrecisionError
from .intervals import (
    ONE, ZERO, add, div, dot, exp_terms, fold_sum, from_mpi, ival, mul, neg, series_exp, series_mul,
    to_mpi,
)


class ValueWithError(NamedTuple):
    value: object  # mpf
    error: float


def zeta_euler_maclaurin(s, digits):
    """zeta(s) by Euler-Maclaurin summation, with an error estimate.

    Valid for any complex s != 1 (the correction depth adapts; the remainder
    bound requires Re(s) + 2M + 1 > 0, which the loop maintains).  Returns
    (value, error) where error is a conservative absolute estimate.
    """
    with mp.workdps(digits + 10):
        s = mpmath.mpmathify(s)
        if s == 1:
            raise ValueError("zeta has a pole at s = 1")
        target = mpf(10) ** (-(digits + 2))
        cutoff = max(16, int(1.3 * digits) + 8 + int(abs(mpmath.im(s))))
        for _ in range(4):
            got = _euler_maclaurin_once(s, cutoff, target)
            if got is not None:
                return got
            cutoff *= 2
        raise PrecisionError(
            "Euler-Maclaurin did not reach %d digits for s = %s" % (digits, s)
        )


def _euler_maclaurin_once(s, cutoff, target):
    acc = mpc(0)
    for j in range(1, cutoff):
        acc += mpf(j) ** (-s)
    acc += mpf(cutoff) ** (1 - s) / (s - 1)
    acc += mpf(cutoff) ** (-s) / 2

    # correction terms B_2k/(2k)! * s(s+1)...(s+2k-2) * cutoff^(-s-2k+1)
    rising = s
    npow = mpf(cutoff) ** (-s - 1)
    nstep = mpf(cutoff) ** (-2)
    prev_mag = mpf("inf")
    k = 1
    while k < 600:
        term = _bernoulli_ratio(k) * rising * npow
        mag = abs(term)
        if mag >= prev_mag:
            return None  # asymptotic tail started diverging: need larger cutoff
        acc += term
        if mag < target:
            # remainder is bounded by the next term times a geometry factor
            denom = mpmath.re(s) + 2 * k + 1
            if denom <= 0:
                return None
            factor = abs(s + 2 * k + 1) / denom
            return acc, float(mag * factor) + float(target)
        prev_mag = mag
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow *= nstep
        k += 1
    return None


_bernoulli_ratios = {}


def _bernoulli_ratio(k):
    """B_2k/(2k)! at the current working precision, from one table per
    binary precision shared by the scalar and the power-series sums."""
    table = _bernoulli_ratios.setdefault(mp.prec, [])
    while len(table) < k:
        j = 2 * len(table) + 2
        table.append(mpmath.bernoulli(j) / mpmath.factorial(j))
    return table[k - 1]


def xi_point(z, digits):
    """xi(z) = pi^(-z/2) Gamma(z/2) zeta(z) away from the poles 0 and 1."""
    with mp.workdps(digits + 10):
        z = mpmath.mpmathify(z)
        if z == 0 or z == 1:
            raise ValueError("xi has poles at 0 and 1")
        zeta_val, zeta_err = zeta_euler_maclaurin(z, digits + 5)
        prefactor = mpmath.power(mp.pi, -z / 2) * mpmath.gamma(z / 2)
        value = prefactor * zeta_val
        # prefactor is accurate to working precision; fold both error sources
        err = float(abs(prefactor)) * zeta_err + float(abs(value)) * 10.0 ** (-(digits + 6))
        return value, err


@dataclass(frozen=True)
class XiPointExpansion:
    """Taylor data of the regular part of xi at an integer point.

    coefficients[k] is the k-th Taylor coefficient (derivative / k!) of xi at
    the point when point >= 2, and of xi(z) - 1/(z-1) when point == 1.  The
    principal part at 1 is exact: residue 1, never part of the series.
    enclosures[k] is the int enclosure (lo, hi, e) of .intervals that
    coefficients[k] and errors[k] are the midpoint and width of.
    """

    point: int
    coefficients: tuple
    errors: tuple
    config: PrecisionConfig
    enclosures: tuple


_expansion_cache = {}
_series_cache = {}

# one pass over j builds at least this many coefficients
_MIN_TERMS = 16
# the Euler-Maclaurin cutoff starts here and doubles at most this often
_FIRST_CUTOFF = 8
_CUTOFF_DOUBLINGS = 6
# the remainder bound's circles r = 1/4..4 with their logs, and constants of its terms
_RADII = [(i / 4, math.log(i / 4)) for i in range(1, 17)]
_LOG_PI2_3, _LOG_2PI = math.log(math.pi**2 / 3), math.log(2 * math.pi)


def expansion_at(point, config=None):
    """Cached Taylor expansion of (the regular part of) xi at an integer >= 1.

    Returns one memoised table per (config, point), carrying that config.
    Behind it sits a series cache keyed by (point, internal digits) only:
    one pass over j builds max(order + 1, _MIN_TERMS) coefficients.
    Coefficient k and its error do not depend on how many are built, so a
    higher order is a slice of what is there or a rebuild with that prefix.
    The enclosures every point shares are cached per (binary precision,
    cutoff) in _shared_cache.

    The caches, laurent_expand's product memo (one config at a time),
    formal_cancellation_check's window memo (one per window length) and
    mpmath's working precision are process-global, so the numeric layer is
    for single-threaded use.
    """
    config = config or PrecisionConfig.default()
    if point < 1:
        raise ValueError("expansion point must be an integer >= 1")
    key = (config, point)
    hit = _expansion_cache.get(key)
    if hit is None:
        size = config.expansion_order + 1
        series_key = (point, config.internal_dps)
        built = _series_cache.get(series_key, ((), (), ()))
        if len(built[0]) < size:
            built = _series_cache[series_key] = _xi_series(
                point, config.internal_dps, max(size, _MIN_TERMS)
            )
        hit = _expansion_cache[key] = XiPointExpansion(
            point=point, coefficients=built[0][:size], errors=built[1][:size], config=config,
            enclosures=built[2][:size],
        )
    return hit


def _xi_series(point, digits, size):
    """Coefficients 0..size-1 of xi(point + u), or of xi(1 + u) - 1/u at
    point 1, as (values, errors, enclosures).

    Everything runs on the int enclosures of .intervals at mp.prec, so
    rounding is enclosed; the value is an enclosure's midpoint and the
    error its width, both taken through mpmath.libmp's mpi_mid and mpi_delta.
    The Gamma factor pi^(-s/2) Gamma(s/2) is exp of its log series at
    x = point/2: loggamma(x) - x log pi, then (digamma(x) - log pi) u/2,
    then polygamma(m-1, x) (u/2)^m/m! = (-1)^m/m sum_{i>=point,
    i=point mod 2} i^-m u^m, whose tail is a multiple of zeta(m).  mpmath's
    zeta(m) is taken as accurate to 16 units in the last place.
    """
    cutoff, terms = _em_plan(point, digits)
    with mp.workdps(digits + 10):
        prec = mp.prec
        shared = _shared(prec, cutoff, size, terms)
        ints, two = shared.ints, shared.ints[2]
        x = div(ival(point, prec), two, prec)
        odd = point % 2
        below = range(2 - odd, point, 2)
        log_pi = shared.log_pi
        first = fold_sum((div(two, ival(i, prec), prec) for i in below), prec)
        for term in (shared.euler, mul(ival(2 * odd, prec), shared.log_two, prec), log_pi):
            first = add(first, neg(term), prec)
        logs = [
            add(from_mpi(mpi_loggamma(to_mpi(x), prec)), neg(mul(x, log_pi, prec)), prec)
            if point > 1 else ZERO,
            div(first, two, prec),
        ]
        for m in range(2, size + 1):
            half = div(ONE, ival(2**m, prec), prec)
            tail = mul(shared.zetas[m], add(ONE, neg(half), prec) if odd else half, prec)
            part = fold_sum((div(ONE, ival(i**m, prec), prec) for i in below), prec)
            signed = mul(ival((-1) ** m, prec), add(tail, neg(part), prec), prec)
            logs.append(div(signed, ints[m], prec))
        gamma = series_exp(logs, prec)
        xi = series_mul(gamma, _zeta_series(point, cutoff, terms, size), prec)
        if point == 1:
            # xi(1 + u) - 1/u = (G(u) - 1)/u + G(u) zeta_reg(1 + u), as G(0) = 1
            xi = [add(c, g, prec) for c, g in zip(xi, gamma[1:])]
        return (tuple(mpf(mpi_mid(to_mpi(c), prec)) for c in xi),
                tuple(to_float(mpi_delta(to_mpi(c), prec)) for c in xi), tuple(xi))


def _zeta_series(point, cutoff, terms, size):
    """Int enclosures of coefficients 0..size-1 of zeta(point + u), or of
    zeta(1 + u) - 1/u at point 1, at mp.prec, by Euler-Maclaurin in
    power-series mode (F. Johansson, Numer. Algorithms 69 (2015)):

        zeta(s) = sum_{j<N} j^-s + N^(1-s) [1/(s-1) + 1/(2N)
                  + sum_{k<=M} B_2k/(2k)! (s)_(2k-1) N^-2k] + R(s),

    with j^-s = j^-point exp(-u log j), N^(1-s) = N^(1-point) N^-u, and
    (s)_(2k-1) a polynomial in u with integer coefficients.
    """
    prec = mp.prec
    shared = _shared(prec, cutoff, size, terms)
    # sums[m] is one fold over j and bracket[m] one over k, each in the order of the sum
    sums = [fold_sum(column, prec) for column in zip(*(
        exp_terms(div(ONE, ival(j**point, prec), prec), shared.steps[j - 1], size, prec)
        for j in range(1, cutoff)))]
    columns, rising = [], [point, 1] + [0] * (size - 2)
    for k in range(1, terms + 1):
        columns.append([ival(r, prec) for r in rising])
        for c in (point + 2 * k - 1, point + 2 * k):
            rising = [c * rising[0]] + [c * r + lower for r, lower in zip(rising[1:], rising)]
    bracket = [dot(shared.weights[1:], column, prec, start) for start, column in zip(
        [div(ONE, ival(2 * cutoff, prec), prec)] + [ZERO] * (size - 1), zip(*columns))]
    decay = shared.decay  # N^-u, one coefficient longer for the shift at 1
    if point == 1:
        # N^-u/u = 1/u + sum_m decay[m+1] u^m, and the 1/u is the pole, kept exact
        tail = [add(t, d, prec) for t, d in zip(series_mul(decay, bracket, prec), decay[1:])]
    else:
        pole = [div(ival((-1) ** m, prec), ival((point - 1) ** (m + 1), prec), prec)
                for m in range(size)]
        bracket = [add(b, p, prec) for b, p in zip(bracket, pole)]
        scale = ival(cutoff ** (point - 1), prec)
        tail = [div(t, scale, prec) for t in series_mul(decay, bracket, prec)]
    radii = [math.exp(b) for b in _remainder_log_bounds(point, cutoff, terms, size)]
    return [add(add(s, t, prec), from_mpi((from_float(-r), from_float(r))), prec)
            for s, t, r in zip(sums, tail, radii)]


def _em_plan(point, digits):
    """Cutoff N and correction count M for the power-series sum at a point:
    the least M whose remainder bound at coefficient 0 reaches
    10^-(digits + 2).  When the bound turns upward first, the corrections
    cannot reach it at this N, and N doubles.  Errors are floats, so a
    target below the least normal float is refused."""
    log_target = -(digits + 2) * math.log(10)
    if log_target < math.log(sys.float_info.min):
        raise PrecisionError("errors at %d digits underflow a float" % digits)
    circles = functools.cache(functools.partial(_circles, point))  # shared by the cutoffs
    cutoff = _FIRST_CUTOFF
    for _ in range(_CUTOFF_DOUBLINGS + 1):
        previous, terms = math.inf, 1
        while (bound := _log_bounds(circles(terms), cutoff, 1)[0]) < previous:
            if bound <= log_target:
                return cutoff, terms
            previous, terms = bound, terms + 1
        cutoff *= 2
    raise PrecisionError("Euler-Maclaurin series cannot reach %d digits at %d" % (digits, point))


def _remainder_log_bounds(point, cutoff, terms, size):
    """Logs of bounds on the u^k coefficients, k < size, of R(point + u),
    the remainder after M = terms corrections at cutoff N.

    Backlund's bound |R| <= |s + 2M + 1|/(Re s + 2M + 1) |T_(M+1)(s)| holds
    for Re s > -2M - 1; with |B_2k|/(2k)! <= (pi^2/3)/(2 pi)^2k it is at most
    (h + 2M + 1)/(l + 2M + 1) (pi^2/3)/(2 pi)^(2M+2) Gamma(h + 2M + 1)/Gamma(h)
    N^-(l + 2M + 1) on the circle |s - point| = r, h = point + r, l = point - r.
    Cauchy's estimate divides by r^k; the least over r = 1/4..4 is taken.
    """
    return _log_bounds(_circles(point, terms), cutoff, size)


def _log_bounds(circles, cutoff, size):
    """_remainder_log_bounds from the _circles of its point and term count."""
    log_n = math.log(cutoff)
    on_circles = [(prefix - power * log_n, log_r) for prefix, power, log_r in circles]
    return [min(bound - k * log_r for bound, log_r in on_circles) for k in range(size)]


def _circles(point, terms):
    """Per circle of _remainder_log_bounds: the log of its bound but the
    N^-(l + 2M + 1) factor, the power l + 2M + 1, and log r.  Python sums
    left to right, so the bound minus power * log N has the bits of the
    whole sum."""
    return [
        (
            math.log((point + r + 2 * terms + 1) / (point - r + 2 * terms + 1))
            + _LOG_PI2_3
            - (2 * terms + 2) * _LOG_2PI
            + math.lgamma(point + r + 2 * terms + 1)
            - math.lgamma(point + r),
            point - r + 2 * terms + 1,
            log_r,
        )
        for r, log_r in _RADII
        if r < point + 2 * terms
    ]


class _Shared:
    """Enclosures at one precision and cutoff N that every point's table
    uses: small integers, -log j for 1 <= j <= N, log pi, Euler's gamma,
    log 2, zeta(m) for m >= 2, the N^-u series and the correction weights
    B_2k/(2k)! N^-2k.  The lists grow on demand, and an entry comes from
    the same calls whenever it is made, so no table's bits depend on which
    tables were built before it.  Built inside mp.workdps at prec."""

    def __init__(self, prec, cutoff):
        self.prec, self.cutoff = prec, cutoff
        logs = [from_mpi(mpi_log(to_mpi(ival(j, prec)), prec)) for j in range(1, cutoff + 1)]
        self.steps = [neg(log) for log in logs]
        pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
        self.log_pi = from_mpi(mpi_log(pi, prec))
        self.euler = from_mpi((mpf_euler(prec, round_floor), mpf_euler(prec, round_ceiling)))
        self.log_two = logs[1]
        self.slack = add(ONE, (-1, 1, 4 - prec), prec)  # mpmath's values: accurate to 16 ulps
        self.ints, self.zetas, self.decay, self.weights = [], [None, None], [], [None]

    def enclose(self, value):
        return mul(from_mpi((value._mpf_, value._mpf_)), self.slack, self.prec)

    def grow(self, size, terms):
        prec, ints = self.prec, self.ints
        ints.extend(ival(i, prec) for i in range(len(ints), size + 1))
        self.zetas.extend(self.enclose(mpmath.zeta(m)) for m in range(len(self.zetas), size + 1))
        if len(self.decay) <= size:
            self.decay = exp_terms(ONE, self.steps[-1], size + 1, prec)
        for k in range(len(self.weights), terms + 1):
            power = ival(self.cutoff ** (2 * k), prec)
            self.weights.append(div(self.enclose(_bernoulli_ratio(k)), power, prec))


_shared_cache = {}


def _shared(prec, cutoff, size, terms):
    """The _Shared enclosures at (prec, cutoff), grown to a table of size
    coefficients with terms corrections."""
    shared = _shared_cache.get((prec, cutoff))
    if shared is None:
        shared = _shared_cache[prec, cutoff] = _Shared(prec, cutoff)
    shared.grow(size, terms)
    return shared


def xi_value(point, derivative_order=0, config=None):
    """Value of the k-th derivative of xi at an integer point >= 2.

    Primary route: power-series Taylor coefficients times k!.  Raises
    PrecisionError when the propagated estimate exceeds the contract bound of
    10^-(working_digits - 2).
    """
    config = config or PrecisionConfig.default()
    if point < 2:
        raise ValueError("xi_value needs point >= 2; use xi_expansion_at_one at the pole")
    if derivative_order < 0:
        raise ValueError("derivative order must be >= 0")
    if derivative_order > config.expansion_order:
        raise ExpansionOrderError(
            "derivative order %d exceeds configured expansion_order %d"
            % (derivative_order, config.expansion_order)
        )
    exp = expansion_at(point, config)
    with mp.workdps(config.internal_dps):
        fac = mpmath.factorial(derivative_order)
        value = exp.coefficients[derivative_order] * fac
        error = exp.errors[derivative_order] * float(fac)
    if error > config.target_abs_error:
        raise PrecisionError(
            "error %.3g exceeds requested bound %.3g at point %d order %d"
            % (error, config.target_abs_error, point, derivative_order)
        )
    return ValueWithError(value=value, error=error)


def xi_expansion_at_one(config=None):
    """Expansion of the regular part xi(z) - 1/(z-1) at z = 1.

    The pole itself is exact data: simple, residue 1.  Only the regular part
    is computed numerically.
    """
    return expansion_at(1, config or PrecisionConfig.default())


# ---------------------------------------------------------------------------
# independent cross-check routes (share no code with the power-series route)
# ---------------------------------------------------------------------------

_CENTRAL_STENCILS = {
    1: ((1, mpf(1)), (-1, mpf(-1))),
    2: ((1, mpf(1)), (0, mpf(-2)), (-1, mpf(1))),
    3: ((2, mpf(1)), (1, mpf(-2)), (-1, mpf(2)), (-2, mpf(-1))),
    4: ((2, mpf(1)), (1, mpf(-4)), (0, mpf(6)), (-1, mpf(-4)), (-2, mpf(1))),
}

def _richardson(table, ratio):
    """Repeated Richardson elimination over estimates at steps shrinking by
    a fixed factor, whose m-th error term scales by ratio**m per step.
    Returns the extrapolated limit and the last elimination's increment."""
    increment = None
    for m in range(1, len(table)):
        factor = ratio**m
        new = [(factor * table[i + 1] - table[i]) / (factor - 1) for i in range(len(table) - 1)]
        increment = abs(new[-1] - table[-1])
        table = new
    return table[-1], increment


def xi_value_fd(point, derivative_order, config=None, levels=6):
    """k-th derivative of xi at a real point by central differences.

    Richardson extrapolation over halved steps; the error estimate is the
    last extrapolation increment.  Cross-check route for xi_value.
    """
    config = config or PrecisionConfig.default()
    k = derivative_order
    if k not in _CENTRAL_STENCILS:
        raise ValueError("finite differences implemented for orders 1..4")
    digits = 2 * config.working_digits + 20
    with mp.workdps(digits + 10):
        h0 = mpf(1) / 64
        table = []
        for j in range(levels):
            h = h0 / 2**j
            acc = mpc(0)
            for offset, weight in _CENTRAL_STENCILS[k]:
                val, _ = xi_point(mpf(point) + offset * h, digits)
                acc += weight * val
            denom = (1 + k % 2) * h**k  # the odd-order stencils are halved
            table.append(acc / denom)
        # central stencils have even-power error expansions: eliminate h^2, h^4, ...
        limit, increment = _richardson(table, mpf(4))
        value = mpmath.re(limit)
        err = float(increment) + float(abs(mpmath.im(limit))) + 10.0 ** (-(digits - 5))
        return ValueWithError(value=value, error=err)


def xi_one_correction_limit(config=None, levels=12):
    """Finite part of xi at 1 by a direct Richardson limit of xi(1+u) - 1/u.

    Cross-check for coefficient 0 of xi_expansion_at_one.  Steps are powers
    of two so 1/u is exact and the subtraction loses only a few digits.
    """
    config = config or PrecisionConfig.default()
    digits = 2 * config.working_digits + 20
    with mp.workdps(digits + 10):
        table = []
        for j in range(levels):
            u = mpf(1) / 2 ** (4 + j)
            val, _ = xi_point(1 + u, digits)
            table.append(val - 1 / u)
        limit, increment = _richardson(table, mpf(2))
        value = mpmath.re(limit)
        err = float(increment) + 10.0 ** (-(digits - 5))
        return ValueWithError(value=value, error=err)


def residue_anchor(parts, digits):
    """Closed-form residue at s = 0 of the alternating orbit sum, if known.

    Zero orbit 1^n: the product of xi(k) for k = 2..n.  Orbit (2,1):
    xi(2) * (-log(pi)/2 + psi(1)/2 + zeta'(2)/zeta(2)).  None for every other
    orbit.  Built from mpmath's own zeta, gamma and digamma at digits plus
    GUARD_DIGITS, so it shares no code with the Euler-Maclaurin sum behind
    the Taylor tables.
    """
    parts = tuple(parts)
    with mp.workdps(digits + GUARD_DIGITS):

        def xi(k):
            return mpmath.power(mp.pi, -mpf(k) / 2) * mpmath.gamma(mpf(k) / 2) * mpmath.zeta(k)

        if set(parts) == {1}:
            prod = mpf(1)
            for k in range(2, len(parts) + 1):
                prod *= xi(k)
            return prod
        if parts == (2, 1):
            ratio = (
                -mpmath.log(mp.pi) / 2
                + mpmath.digamma(1) / 2
                + mpmath.zeta(2, derivative=1) / mpmath.zeta(2)
            )
            return xi(2) * ratio
    return None

"""Taylor tables of xi at integer points, grown in place to the size asked.

A table at (point, internal digits) holds coefficients 0..size-1 of
xi(point + u), or of xi(1 + u) - 1/u at point 1, beside the running state
of every sum behind them, so a larger size computes only the new
coefficients.  They come from the Euler-Maclaurin sum in power-series mode
(F. Johansson, Numer. Algorithms 69 (2015)):

    zeta(s) = sum_{j<N} j^-s + N^(1-s) [1/(s-1) + 1/(2N)
              + sum_{k<=M} B_2k/(2k)! (s)_(2k-1) N^-2k] + R(s),

with j^-s = j^-point exp(-u log j), N^(1-s) = N^(1-point) N^-u, and
(s)_(2k-1) a polynomial in u with integer coefficients.  The Gamma factor
pi^(-s/2) Gamma(s/2) is exp of its log series at x = point/2:
loggamma(x) - x log pi, then (digamma(x) - log pi) u/2, then
polygamma(m-1, x) (u/2)^m/m! = (-1)^m/m sum_{i>=point, i=point mod 2} i^-m
u^m, whose tail is a multiple of zeta(m).  mpmath's zeta(m) is taken as
accurate to 16 units in the last place.

Everything runs on the int enclosures of .intervals at mp.prec, so rounding
is enclosed; a value is an enclosure's midpoint and its error the width,
both taken through mpmath.libmp's mpi_mid and mpi_delta.  Coefficient k
reads only the state of the coefficients below k, the plan (N, M), which
does not depend on the size, and the _Shared enclosures, whose entries do
not depend on when they are made: a grown table equals a fresh build bit
for bit.
"""

from __future__ import annotations

import functools
import math
import sys

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    from_float, mpf_euler, mpf_pi, mpi_delta, mpi_exp, mpi_log, mpi_loggamma, mpi_mid,
    round_ceiling, round_floor, to_float,
)

from .config import PrecisionError
from .intervals import ONE, ZERO, add, div, dot, exp_terms, fold_sum, from_mpi, ival, mul, neg, to_mpi

# the Euler-Maclaurin cutoff starts here and doubles at most this often
_FIRST_CUTOFF = 8
_CUTOFF_DOUBLINGS = 6
# the remainder bound's circles r = 1/4..4 with their logs, and constants of its terms
_RADII = [(i / 4, math.log(i / 4)) for i in range(1, 17)]
_LOG_PI2_3, _LOG_2PI = math.log(math.pi**2 / 3), math.log(2 * math.pi)

_bernoulli_ratios = {}


def _bernoulli_ratio(k):
    """B_2k/(2k)! at the current working precision, from one table per
    binary precision shared by the scalar and the power-series sums."""
    table = _bernoulli_ratios.setdefault(mp.prec, [])
    while len(table) < k:
        j = 2 * len(table) + 2
        table.append(mpmath.bernoulli(j) / mpmath.factorial(j))
    return table[k - 1]


# the growing table per (point, internal digits)
_series_cache = {}


def xi_series(point, digits, size):
    """Coefficients 0..size-1 of xi(point + u), or of xi(1 + u) - 1/u at
    point 1, as (values, errors, enclosures), from the table at (point,
    digits), grown first if it holds fewer."""
    table = _series_cache.get((point, digits))
    if table is None:
        table = _series_cache[point, digits] = _Table(point, digits)
    try:
        table.grow(size)
    except BaseException:
        del _series_cache[point, digits]  # its state may be part of one coefficient
        raise
    return (tuple(table.values[:size]), tuple(table.errors[:size]),
            tuple(table.enclosures[:size]))


class _Table:
    """One table and the running state of its sums: the last term j^-point
    (-log j)^m/m! per j, the coefficients of each rising factorial
    (point + u)...(point + i + u), the bracket and the N^(1-s) bracket
    product, the Gamma log series, its exp and the zeta series."""

    def __init__(self, point, digits):
        self.point, self.digits = point, digits
        self.cutoff, self.terms = _em_plan(point, digits)
        # rising[i] is [0, c_0, c_1, ...] of (point + u)...(point + i + u)
        self.rising = [[0] for _ in range(2 * self.terms - 1)]
        self.log_bounds = _log_bounds(_circles(point, self.terms, _radii(point)), self.cutoff)
        self.powers, self.bracket, self.zeta = [], [], []
        # the Gamma log series, its terms times their index, and its exp
        self.logs, self.scaled, self.gamma = [], [ZERO], []
        self.values, self.errors, self.enclosures = [], [], []

    def remainder_log_bound(self, k):
        """The log of a bound on the u^k coefficient of R(point + u), the
        remainder after M = terms corrections at cutoff N.

        Backlund's bound |R| <= |s + 2M + 1|/(Re s + 2M + 1) |T_(M+1)(s)| holds
        for Re s > -2M - 1; with |B_2k|/(2k)! <= (pi^2/3)/(2 pi)^2k it is at most
        (h + 2M + 1)/(l + 2M + 1) (pi^2/3)/(2 pi)^(2M+2) Gamma(h + 2M + 1)/Gamma(h)
        N^-(l + 2M + 1) on the circle |s - point| = r, h = point + r, l = point - r.
        Cauchy's estimate divides by r^k; the least over r = 1/4..4 is taken.
        """
        return min(bound - k * log_r for bound, log_r in self.log_bounds)

    def grow(self, size):
        if len(self.enclosures) >= size:
            return
        with mp.workdps(self.digits + 10):
            shared = _shared(mp.prec, self.cutoff, size, self.terms)
            for k in range(len(self.enclosures), size):
                self._coefficient(k, shared)

    def _coefficient(self, k, shared):
        """Append coefficient k, made from the state of those below it."""
        point, prec, zeta, gamma = self.point, shared.prec, self.zeta, self.gamma
        # gamma[k + 1] too at point 1, for the shift by 1/u
        while len(gamma) <= k + (point == 1):
            self._gamma_term(len(gamma), shared)
        # the sum over j, one fold in the order of j
        if k:
            self.powers = exp_terms(self.powers, shared.logs, k, prec)
        else:
            self.powers = [div(ONE, ival(j**point, prec), prec) for j in range(1, self.cutoff)]
        total = fold_sum(self.powers, prec)
        # the bracket's u^k coefficient, one fold over the corrections
        lower, shifted = int(k == 0), int(k == 1)
        for i, poly in enumerate(self.rising):
            lower, shifted = (point + i) * lower + shifted, poly[k]
            poly.append(lower)
        column = [ival(poly[k + 1], prec) for poly in self.rising[::2]]
        start = div(ONE, ival(2 * self.cutoff, prec), prec) if k == 0 else ZERO
        entry = dot(shared.weights[1:], column, prec, start)
        decay, bracket = shared.decay, self.bracket  # N^-u, one coefficient longer for the shift at 1
        if point == 1:
            # N^-u/u = 1/u + sum_m decay[m+1] u^m, and the 1/u is the pole, kept exact
            bracket.append(entry)
            tail = add(dot(decay[:k + 1], bracket[::-1], prec), decay[k + 1], prec)
        else:
            pole = div(ival((-1) ** k, prec), ival((point - 1) ** (k + 1), prec), prec)
            bracket.append(add(entry, pole, prec))
            scale = ival(self.cutoff ** (point - 1), prec)
            tail = div(dot(decay[:k + 1], bracket[::-1], prec), scale, prec)
        r = math.exp(self.remainder_log_bound(k))
        zeta.append(add(add(total, tail, prec), from_mpi((from_float(-r), from_float(r))), prec))
        xi = dot(gamma[:k + 1], zeta[::-1], prec)
        if point == 1:
            # xi(1 + u) - 1/u = (G(u) - 1)/u + G(u) zeta_reg(1 + u), as G(0) = 1
            xi = add(xi, gamma[k + 1], prec)
        self.values.append(mpf(mpi_mid(to_mpi(xi), prec)))
        self.errors.append(to_float(mpi_delta(to_mpi(xi), prec)))
        self.enclosures.append(xi)

    def _gamma_term(self, m, shared):
        """Append u^m of the Gamma factor's log series and of its exp, where
        m g_m = sum_j (j c_j) g_(m-j)."""
        point, prec, ints, logs = self.point, shared.prec, shared.ints, self.logs
        two, log_pi, odd = ival(2, prec), shared.log_pi, point % 2
        below = range(2 - odd, point, 2)
        if m == 0:
            x = div(ival(point, prec), two, prec)
            logs.append(add(from_mpi(mpi_loggamma(to_mpi(x), prec)), neg(mul(x, log_pi, prec)), prec)
                        if point > 1 else ZERO)
            self.gamma.append(from_mpi(mpi_exp(to_mpi(logs[0]), prec)))
            return
        if m == 1:
            first = fold_sum((div(two, ival(i, prec), prec) for i in below), prec)
            for term in (shared.euler, mul(ival(2 * odd, prec), shared.log_two, prec), log_pi):
                first = add(first, neg(term), prec)
            logs.append(div(first, two, prec))
        else:
            half = div(ONE, ival(2**m, prec), prec)
            tail = mul(shared.zetas[m], add(ONE, neg(half), prec) if odd else half, prec)
            part = fold_sum((div(ONE, ival(i**m, prec), prec) for i in below), prec)
            signed = mul(ival((-1) ** m, prec), add(tail, neg(part), prec), prec)
            logs.append(div(signed, ints[m], prec))
        self.scaled.append(mul(ints[m], logs[m], prec))
        self.gamma.append(div(dot(self.scaled[1:], self.gamma[::-1], prec), ints[m], prec))


def _em_plan(point, digits):
    """Cutoff N and correction count M for the power-series sum at a point:
    the least M whose remainder bound at coefficient 0 reaches
    10^-(digits + 2).  When the bound turns upward first, the corrections
    cannot reach it at this N, and N doubles.  Errors are floats, so a
    target below the least normal float is refused.  Each circle's part of
    the bound that does not depend on N is made once per M, and
    lgamma(point + r) once per plan."""
    log_target = -(digits + 2) * math.log(10)
    if log_target < math.log(sys.float_info.min):
        raise PrecisionError("errors at %d digits underflow a float" % digits)
    radii = _radii(point)
    circles = functools.cache(lambda terms: _circles(point, terms, radii))  # shared by the cutoffs
    cutoff = _FIRST_CUTOFF
    for _ in range(_CUTOFF_DOUBLINGS + 1):
        log_n, previous, terms = math.log(cutoff), math.inf, 1
        # coefficient 0's bound: its k = 0 term, - 0 * log r, changes no bit
        while (bound := min([prefix - power * log_n for prefix, power, _ in circles(terms)])) < previous:
            if bound <= log_target:
                return cutoff, terms
            previous, terms = bound, terms + 1
        cutoff *= 2
    raise PrecisionError("Euler-Maclaurin series cannot reach %d digits at %d" % (digits, point))


def _log_bounds(circles, cutoff):
    """Per circle: the log of its bound on coefficient 0 at cutoff N, and log r."""
    log_n = math.log(cutoff)
    return [(prefix - power * log_n, log_r) for prefix, power, log_r in circles]


def _radii(point):
    """Per circle of _Table.remainder_log_bound: r, point + r, point - r,
    lgamma(point + r) and log r."""
    return [(r, point + r, point - r, math.lgamma(point + r), log_r) for r, log_r in _RADII]


def _circles(point, terms, radii):
    """Per circle of _Table.remainder_log_bound, from the _radii of its point:
    the log of its bound but the N^-(l + 2M + 1) factor, the power
    l + 2M + 1, and log r.  Python sums left to right, so the bound minus
    power * log N has the bits of the whole sum."""
    twice, decay, out = 2 * terms, (2 * terms + 2) * _LOG_2PI, []
    for r, h, l, lgamma, log_r in radii:
        if r < point + twice:
            top, power = h + twice + 1, l + twice + 1
            out.append((math.log(top / power) + _LOG_PI2_3 - decay + math.lgamma(top) - lgamma,
                        power, log_r))
    return out


class _Shared:
    """Enclosures at one precision and cutoff N that every point's table
    uses: small integers, log j for 1 <= j <= N, log pi, Euler's gamma,
    log 2, zeta(m) for m >= 2, the N^-u series and the correction weights
    B_2k/(2k)! N^-2k.  The lists grow on demand, and an entry comes from
    the same calls whenever it is made, so no table's bits depend on which
    tables were built before it.  Built inside mp.workdps at prec."""

    def __init__(self, prec, cutoff):
        self.prec, self.cutoff = prec, cutoff
        self.logs = [from_mpi(mpi_log(to_mpi(ival(j, prec)), prec)) for j in range(1, cutoff + 1)]
        pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
        self.log_pi = from_mpi(mpi_log(pi, prec))
        self.euler = from_mpi((mpf_euler(prec, round_floor), mpf_euler(prec, round_ceiling)))
        self.log_two = self.logs[1]
        self.slack = add(ONE, (-1, 1, 4 - prec), prec)  # mpmath's values: accurate to 16 ulps
        self.ints, self.zetas, self.decay, self.weights = [], [None, None], [ONE], [None]

    def enclose(self, value):
        return mul(from_mpi((value._mpf_, value._mpf_)), self.slack, self.prec)

    def grow(self, size, terms):
        prec, ints, decay = self.prec, self.ints, self.decay
        ints.extend(ival(i, prec) for i in range(len(ints), size + 1))
        self.zetas.extend(self.enclose(mpmath.zeta(m)) for m in range(len(self.zetas), size + 1))
        for m in range(len(decay), size + 1):
            decay += exp_terms(decay[-1:], self.logs[-1:], m, prec)
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

"""The Taylor-table build in mpmath's iv context: the oracle for the int
endpoint route of tables.xi_series; and exact_dot in Fractions, the
oracle for intervals.exact_dot and the Laurent ring built on it.

The same power-series Euler-Maclaurin sum, written with iv.mpf operators.
Each iv operator calls one mpmath.libmp mpi_* function at iv.prec, and
each int operation of the tables' route has the bits of that call, so a
table, fresh or grown, making its operations in the same order, must
agree with this one bit for bit.  The plan and the remainder bounds are
written out here too, as plain float expressions evaluated term by term, so
the tables' plan, which hoists what does not depend on the term count or
the cutoff, is pinned to them; the Bernoulli table and the cutoff
constants are the tables' own.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import mpmath
from mpmath import iv, mp, mpf

from orbitzeta.xinumeric import tables
from orbitzeta.xinumeric.config import PrecisionError
from orbitzeta.xinumeric.tables import _bernoulli_ratio


def xi_series(point, digits, size):
    """Coefficients 0..size-1 of xi(point + u), or of xi(1 + u) - 1/u at
    point 1, with errors: the tables' build in the iv context."""
    cutoff, terms = em_plan(point, digits)
    saved = iv.prec
    try:
        with mp.workdps(digits + 10):
            iv.prec = mp.prec
            x = iv.mpf(point) / 2
            odd = point % 2
            below = range(2 - odd, point, 2)
            log_pi = iv.log(iv.pi)
            logs = [
                iv.loggamma(x) - x * log_pi if point > 1 else iv.mpf(0),
                (sum(iv.mpf(2) / i for i in below) - iv.euler - 2 * odd * iv.log(2) - log_pi) / 2,
            ]
            for m in range(2, size + 1):
                half = iv.mpf(1) / 2**m
                tail = _enclose(mpmath.zeta(m)) * (1 - half if odd else half)
                logs.append((-1) ** m * (tail - sum(iv.mpf(1) / i**m for i in below)) / m)
            gamma = [iv.exp(logs[0])]
            for k in range(1, size + 1):
                gamma.append(sum(j * logs[j] * gamma[k - j] for j in range(1, k + 1)) / k)
            xi = _mul(gamma, zeta_series(point, cutoff, terms, size))
            if point == 1:
                xi = [c + g for c, g in zip(xi, gamma[1:])]
            return tuple(mpf(c.mid) for c in xi), tuple(float(c.delta) for c in xi)
    finally:
        iv.prec = saved


def zeta_series(point, cutoff, terms, size):
    """Enclosures of coefficients 0..size-1 of zeta(point + u), or of
    zeta(1 + u) - 1/u at point 1, at iv.prec: the tables' zeta series in
    the iv context."""
    sums = [iv.mpf(1)] + [iv.mpf(0)] * (size - 1)
    for j in range(2, cutoff):
        term, step = iv.mpf(1) / j**point, -iv.log(j)
        for m in range(size):
            sums[m] += term
            term = term * step / (m + 1)
    decay = [iv.mpf(1)]
    for m in range(1, size + 1):
        decay.append(decay[-1] * -iv.log(cutoff) / m)
    bracket = [iv.mpf(1) / (2 * cutoff)] + [iv.mpf(0)] * (size - 1)
    rising = [point, 1] + [0] * (size - 2)
    for k in range(1, terms + 1):
        weight = _enclose(_bernoulli_ratio(k)) / cutoff ** (2 * k)
        bracket = [b + weight * r for b, r in zip(bracket, rising)]
        for c in (point + 2 * k - 1, point + 2 * k):
            rising = [c * rising[0]] + [c * r + lower for r, lower in zip(rising[1:], rising)]
    if point == 1:
        tail = [t + d for t, d in zip(_mul(decay, bracket), decay[1:])]
    else:
        bracket = [b + iv.mpf((-1) ** m) / (point - 1) ** (m + 1) for m, b in enumerate(bracket)]
        tail = [t / cutoff ** (point - 1) for t in _mul(decay, bracket)]
    radii = [math.exp(b) for b in remainder_log_bounds(point, cutoff, terms, size)]
    return [s + t + iv.mpf([-r, r]) for s, t, r in zip(sums, tail, radii)]


def em_plan(point, digits):
    """Cutoff N and correction count M for the power-series sum at a point:
    the least M whose remainder bound at coefficient 0 reaches
    10^-(digits + 2).  When the bound turns upward first, the corrections
    cannot reach it at this N, and N doubles.  Errors are floats, so a
    target below the least normal float is refused."""
    log_target = -(digits + 2) * math.log(10)
    if log_target < math.log(sys.float_info.min):
        raise PrecisionError("errors at %d digits underflow a float" % digits)
    cutoff = tables._FIRST_CUTOFF
    for _ in range(tables._CUTOFF_DOUBLINGS + 1):
        previous, terms = math.inf, 1
        while (bound := remainder_log_bounds(point, cutoff, terms, 1)[0]) < previous:
            if bound <= log_target:
                return cutoff, terms
            previous, terms = bound, terms + 1
        cutoff *= 2
    raise PrecisionError("Euler-Maclaurin series cannot reach %d digits at %d" % (digits, point))


def remainder_log_bounds(point, cutoff, terms, size):
    """Logs of bounds on the u^k coefficients, k < size, of R(point + u),
    the remainder after M = terms corrections at cutoff N: Backlund's bound
    on the circles |s - point| = r = 1/4..4, divided by r^k (Cauchy), the
    least over r taken."""
    on_circles = [
        (
            math.log((point + r + 2 * terms + 1) / (point - r + 2 * terms + 1))
            + math.log(math.pi**2 / 3)
            - (2 * terms + 2) * math.log(2 * math.pi)
            + math.lgamma(point + r + 2 * terms + 1)
            - math.lgamma(point + r)
            - (point - r + 2 * terms + 1) * math.log(cutoff),
            math.log(r),
        )
        for r in (i / 4 for i in range(1, 17))
        if r < point + 2 * terms
    ]
    return [min(bound - k * log_r for bound, log_r in on_circles) for k in range(size)]


def _enclose(value):
    """Interval around an mpf taken as accurate to 16 units in the last place."""
    return iv.mpf(value) * (1 + iv.mpf([-1, 1]) * mpmath.ldexp(1, 4 - mp.prec))


def _mul(a, b):
    """Truncated product of two series, to the shorter length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]


def endpoints(x):
    """The endpoints of an int enclosure (lo, hi, e) as Fractions."""
    lo, hi, e = x
    unit = Fraction(2) ** e
    return lo * unit, hi * unit


def rounded_out(lo, hi, prec):
    """Fractions lo <= hi rounded down and up to prec bits, each in its own
    binade."""
    return _rounded(lo, prec, math.floor), _rounded(hi, prec, math.ceil)


def _rounded(q, prec, to_int):
    if not q:
        return q
    k = abs(q.numerator).bit_length() - q.denominator.bit_length()
    if abs(q) < Fraction(2) ** k:
        k -= 1  # now 2^k <= |q| < 2^(k+1)
    unit = Fraction(2) ** (k + 1 - prec)
    return to_int(q / unit) * unit


def exact_dot(pairs, prec):
    """Endpoints of x0 y0 + x1 y1 + ... over (x, y) pairs of int
    enclosures: each product's four-corner hull, the exact sum of the
    hulls, rounded outward once to prec bits."""
    lo = hi = Fraction(0)
    for x, y in pairs:
        corners = [p * q for p in endpoints(x) for q in endpoints(y)]
        lo, hi = lo + min(corners), hi + max(corners)
    return rounded_out(lo, hi, prec)

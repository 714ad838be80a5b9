"""The Taylor-table build in mpmath's iv context: the oracle for the raw
endpoint route of kernel._xi_series.

The same power-series Euler-Maclaurin sum, written with iv.mpf operators.
Each iv operator calls one mpmath.libmp mpi_* function at iv.prec, so the
kernel's raw (lo, hi) route, making the same calls in the same order, must
agree with this one bit for bit.  The plan (_em_plan), the remainder bounds
and the Bernoulli table are the kernel's own; only the interval arithmetic
is written out here.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import iv, mp, mpf

from orbitzeta.xinumeric.kernel import _bernoulli_ratio, _em_plan, _remainder_log_bounds


def xi_series(point, digits, size):
    """Coefficients 0..size-1 of xi(point + u), or of xi(1 + u) - 1/u at
    point 1, with errors: kernel._xi_series in the iv context."""
    cutoff, terms = _em_plan(point, digits)
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
    zeta(1 + u) - 1/u at point 1, at iv.prec: kernel._zeta_series in the
    iv context."""
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
    radii = [math.exp(b) for b in _remainder_log_bounds(point, cutoff, terms, size)]
    return [s + t + iv.mpf([-r, r]) for s, t, r in zip(sums, tail, radii)]


def _enclose(value):
    """Interval around an mpf taken as accurate to 16 units in the last place."""
    return iv.mpf(value) * (1 + iv.mpf([-1, 1]) * mpmath.ldexp(1, 4 - mp.prec))


def _mul(a, b):
    """Truncated product of two series, to the shorter length."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b)))]

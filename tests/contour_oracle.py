"""Contour-quadrature Taylor tables of xi: the oracle for the series route.

Each table comes from trapezoid quadrature of the Cauchy integral on the
circle |z - point| = config.contour_radius with config.contour_nodes nodes
(rounded up to even), at config.internal_dps.  Samples are xi_point values,
so this route shares the Euler-Maclaurin scalar sum with the kernel but no
power-series arithmetic.  The stated error per coefficient adds the
aliasing estimate (full rule against the half-node rule), rounding, the
propagated sample error and the imaginary leak.

At point 1 the sampled function is the regular part xi(z) - 1/(z-1).
Tables are memoised per (config, point) over a cache of samples keyed
without the expansion order, so a higher order evaluates no node (the
kernel's expansion_at keeps no such memo: it reads its tables' prefixes).
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf

from orbitzeta.xinumeric.kernel import XiPointExpansion, xi_point

_expansion_cache = {}
_contour_cache = {}


def expansion_at(point, config):
    """Contour Taylor table of (the regular part of) xi at an integer >= 1."""
    if point < 1:
        raise ValueError("expansion point must be an integer >= 1")
    key = (config, point)
    hit = _expansion_cache.get(key)
    if hit is None:
        nodes = config.contour_nodes + config.contour_nodes % 2
        contour_key = (point, config.working_digits, config.contour_radius, nodes)
        contour = _contour_cache.get(contour_key)
        if contour is None:
            contour = _contour_cache[contour_key] = _Contour(point, config, nodes)
        size = config.expansion_order + 1
        contour.extend(size)
        hit = _expansion_cache[key] = XiPointExpansion(
            point=point,
            coefficients=tuple(contour.coefficients[:size]),
            errors=tuple(contour.errors[:size]),
            config=config,
            enclosures=(),  # quadrature encloses nothing
        )
    return hit


class _Contour:
    """Samples of xi on one trapezoid circle and the Taylor table so far."""

    def __init__(self, point, config, nodes):
        self.digits = digits = config.internal_dps
        self.nodes = nodes
        self.coefficients = []
        self.errors = []
        with mp.workdps(digits + 10):
            self.radius = radius = mpmath.mpmathify(config.contour_radius)
            self.rpow = mpf(1)
            samples = self.samples = [None] * nodes
            max_mag = mpf(0)
            eval_err = 0.0
            # the integrand is real-analytic, so nodes in conjugate pairs share a value
            for m in range(nodes // 2 + 1):
                z = point + radius * mpmath.expjpi(mpf(2) * m / nodes)
                val, err = xi_point(z, digits + 5)
                if point == 1:
                    val = val - 1 / (z - 1)
                samples[m] = val
                if 0 < m < nodes // 2:
                    samples[nodes - m] = mpmath.conj(val)
                eval_err = max(eval_err, err)
                max_mag = max(max_mag, abs(val))
            self.max_mag = max_mag
            self.eval_err = eval_err

    def extend(self, size):
        """Build coefficients and errors up to index size - 1."""
        digits = self.digits
        nodes = self.nodes
        samples = self.samples
        with mp.workdps(digits + 10):
            for k in range(len(self.coefficients), size):
                rpow = self.rpow
                full = mpc(0)
                half = mpc(0)
                for m in range(nodes):
                    w = mpmath.expjpi(mpf(-2) * k * m / nodes)
                    full += samples[m] * w
                    if m % 2 == 0:
                        half += samples[m] * w
                full = full / nodes / rpow
                half = half / (nodes // 2) / rpow
                alias = float(abs(full - half))
                rounding = float(self.max_mag) / float(rpow) * 10.0 ** (-(digits + 2))
                evals = self.eval_err / float(rpow)
                imag_leak = float(abs(mpmath.im(full)))
                self.coefficients.append(mpmath.re(full))
                self.errors.append(alias + rounding + evals + imag_leak)
                self.rpow = rpow * self.radius

"""Arbitrary-precision evaluation of the completed zeta function.

The completed function is xi(z) = pi^(-z/2) * Gamma(z/2) * zeta(z).  It is
meromorphic with simple poles at z = 0 and z = 1 only, residues -1 and +1,
and satisfies xi(z) = xi(1 - z).

Routes kept deliberately independent:

- zeta values come from an Euler-Maclaurin summation implemented here (the
  Gamma factor and the underlying big-float arithmetic come from mpmath);
- Taylor coefficients at integer points come from the same summation in
  power-series mode (.tables, after F. Johansson, "Rigorous high-precision
  computation of the Hurwitz zeta function and its derivatives", Numer.
  Algorithms 69 (2015)): real interval arithmetic on plain ints
  (.intervals), with the bits of mpmath's mpi_* functions, one log per
  summed term, the values that do not depend on the point shared per
  precision and cutoff, a bound on the error of every coefficient, and
  each table grown in place to the order asked.
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

from dataclasses import dataclass
from typing import NamedTuple

import mpmath
from mpmath import mp, mpc, mpf

from .config import GUARD_DIGITS, ExpansionOrderError, PrecisionConfig, PrecisionError
from .tables import _bernoulli_ratio, xi_series


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


def expansion_at(point, config=None):
    """Taylor expansion of (the regular part of) xi at an integer >= 1.

    Returns a fresh XiPointExpansion carrying config, with exactly
    expansion_order + 1 coefficients read from the table of .tables at
    (point, internal digits).  That table is grown in place by only the
    coefficients a higher order adds, and by none on a repeated call;
    coefficient k and its error do not depend on how many are built, so
    every order reads a prefix of one table.  The enclosures every point
    shares are cached per (binary precision, cutoff) there too.

    The tables, laurent_expand's product memo (one config at a time),
    formal_cancellation_check's window memo (one per window length) and
    mpmath's working precision are process-global, so the numeric layer is
    for single-threaded use.
    """
    config = config or PrecisionConfig.default()
    if point < 1:
        raise ValueError("expansion point must be an integer >= 1")
    values, errors, enclosures = xi_series(point, config.internal_dps, config.expansion_order + 1)
    return XiPointExpansion(
        point=point, coefficients=values, errors=errors, config=config, enclosures=enclosures
    )


def xi_value(point, derivative_order=0, config=None):
    """Value of the k-th derivative of xi at an integer point >= 2.

    Primary route: power-series Taylor coefficients times k!.  Raises
    PrecisionError when the propagated estimate exceeds the contract bound of
    10^-(working_digits - 2).
    """
    config = config or PrecisionConfig.default()
    if point < 2:
        raise ValueError("xi_value needs point >= 2; use expansion_at(1, config) at the pole")
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

    Cross-check for coefficient 0 of expansion_at(1, config).  Steps are powers
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

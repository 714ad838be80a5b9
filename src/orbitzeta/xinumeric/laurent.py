"""Truncated Laurent expansion at s = 0 of symbolic xi-factor expressions.

One series engine serves two coefficient rings.  A factor xi(a + b*s) with
a >= 2 contributes the Taylor series of xi at a; a factor with a = 1
contributes exactly 1/(b*s) plus the Taylor series of the regular part at 1.
expand() multiplies these factor series per monomial and sums the terms
once per degree, keeping each factor's window and each product that is a
strict prefix of a monomial in a memo keyed by factor tuple.  laurent_expand
holds one process-global memo for the last config it expanded at (a window
depends only on the config and the factors), single-threaded like the
kernel's tables.  laurent_expand runs it over the kernel's int enclosures
and reads each returned coefficient once as a Ball: a value, the exact
midpoint of its enclosure, and an error, its radius rounded up to a float,
so every coefficient lies within its error of its value; a coefficient is
exact exactly when its error is 0.
formal_cancellation_check (formal.py) runs it over FormalPoly, with the
Taylor coefficients left symbolic, and keeps its own process-global memo,
one per window length, cleared whole when it holds more than a cap of
monomial entries.

Ring contract.  A coefficient ring gives constant(q) and zero() as ring
elements, and three operations on native windows, the form expand works in
from the lifted factor series to the last sum:
  lift(coeffs)  the native window of a sequence of ring elements;
  convolve(a, b)  the native product window: entry j is the fold
      a[0]*b[j] + ... + a[j]*b[0], for each j below the shorter window;
  weighted_sum(terms, lo, hi)  from (coefficient, min_degree, native
      window) triples in term order, one ring element per degree in
      [lo, hi]: the fold with + of each window's entry scaled by its
      coefficient, a degree below a window adding an exact zero.
Each ring has a reference the tests pin its window operations to.  For
Enclosures it is exact rational arithmetic on box corners: an element is
the int enclosure (lo, hi, e) of .intervals at the working precision, a
native window is a sequence of them, so lift is the identity, and every
entry of convolve and weighted_sum is intervals.exact_dot, the exact sum of
its products' exact hulls rounded outward once.  For FormalPoly it is
SparsePoly's +, * and scale; its native window is one integer denominator
and, per coefficient, a dict from packed monomials (one int, a 6-bit
exponent slot per symbol) to integer numerators.

Series windows: a series stores a contiguous block of coefficients starting
at min_degree.  Products of series with the same relative length keep that
relative length (the lowest stored orders of the factors determine exactly
that many orders of the product), so an expression with at most q polar
factors expanded at relative order K yields a trustworthy window
[-q, K - q].  Coefficients the window cannot certify are never reported.

Pole-order detection is numeric: a coefficient counts as zero only when it
sits well below the noise floor of 10^3 times its propagated error bound,
and as nonzero only when it sits well above; anything within a decade of the
floor is reported as indeterminate rather than silently classified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .config import ExpansionOrderError, PrecisionConfig
from .intervals import ZERO, div, exact_dot, ival, mul
from .kernel import expansion_at

# pole-order detection: coefficients below 10^3 * error are cancellation noise
NOISE_FLOOR_FACTOR = 1e3
# classification margin: one decade on each side of the floor is indeterminate
FLOOR_MARGIN = 10.0
# significant digits of every value in a series or residue report's JSON
JSON_DIGITS = 30


class Ball(NamedTuple):
    """Numeric series coefficient: an mpf value and a float error such that
    the coefficient lies in [value - error, value + error].  laurent_expand
    reads each coefficient it returns from its enclosure by _ball."""

    value: object
    error: float

    @classmethod
    def zero(cls):
        return cls(mpf(0), 0.0)


class Enclosures:
    """The numeric ring over the int enclosures (lo, hi, e) of .intervals
    at the working precision (see the module docstring)."""

    @staticmethod
    def constant(q):
        return _quotient(q, mp.prec)

    @staticmethod
    def zero():
        return ZERO

    @staticmethod
    def lift(coeffs):
        return coeffs

    @staticmethod
    def convolve(a, b):
        """Entry j encloses a[0]*b[j] + ... + a[j]*b[0], rounded once, for
        each j below the shorter window."""
        prec = mp.prec
        return [exact_dot(zip(a[: j + 1], b[j::-1]), prec) for j in range(min(len(a), len(b)))]

    @staticmethod
    def weighted_sum(terms, lo, hi):
        """Enclosures lo..hi of the sum of the (coefficient, min_degree,
        window) terms: each degree encloses the sum of every window's entry
        times an enclosure of its coefficient, rounded once."""
        prec = mp.prec
        weights = [(_quotient(c, prec), m, w) for c, m, w in terms]
        return [
            exact_dot(((w[d - m], c) for c, m, w in weights if d >= m), prec)
            for d in range(lo, hi + 1)
        ]


def _quotient(q, prec):
    """Enclosure of a Fraction."""
    return div(ival(q.numerator, prec), ival(q.denominator, prec), prec)


def _ball(x):
    """Ball of an enclosure: its exact midpoint, and its radius rounded up
    to a float."""
    lo, hi, e = x
    r, f = hi - lo, e - 1
    n = r.bit_length() - 53
    if n > 0:
        r, f = -(-r >> n), f + n
    error = math.ldexp(r, f)
    if math.ldexp(error, -f) < r:  # a subnormal, rounded down
        error = math.nextafter(error, math.inf)
    return Ball(mp.make_mpf(from_man_exp(lo + hi, e - 1)), error)


@dataclass(frozen=True, slots=True)
class LaurentSeries:
    """Finite block of Laurent coefficients over one coefficient ring.

    coeffs[i] is the coefficient of s^(min_degree + i): a FormalPoly, an
    enclosure as expand returns it over Enclosures, or a Ball as
    laurent_expand returns it.  classify, is_zero_to_precision and to_json
    apply to Balls only.
    """

    min_degree: int
    coeffs: tuple

    @property
    def top_degree(self):
        return self.min_degree + len(self.coeffs) - 1

    def degrees(self):
        return range(self.min_degree, self.top_degree + 1)

    def coefficient(self, degree):
        """Coefficient at a degree; degrees below the window are the exact
        zero of the coefficients' ring (an enclosure's is Enclosures.zero())."""
        if degree < self.min_degree:
            first = self.coeffs[0]
            return Enclosures.zero() if type(first) is tuple else type(first).zero()
        if degree > self.top_degree:
            raise IndexError(
                "degree %d above certified window (top %d)" % (degree, self.top_degree)
            )
        return self.coeffs[degree - self.min_degree]

    def classify(self, degree):
        """'zero', 'nonzero', or 'indeterminate' for one coefficient."""
        value, error = self.coefficient(degree)
        if error == 0.0:
            return "nonzero" if value != 0 else "zero"
        mag = abs(float(value))
        floor = NOISE_FLOOR_FACTOR * error
        if mag > floor * FLOOR_MARGIN:
            return "nonzero"
        if mag < floor / FLOOR_MARGIN:
            return "zero"
        return "indeterminate"

    @property
    def is_zero_to_precision(self):
        return all(self.classify(d) == "zero" for d in self.degrees())

    def __repr__(self):
        return "LaurentSeries(min_degree=%d, %d coeffs)" % (self.min_degree, len(self.coeffs))

    def to_json(self):
        return {
            "min_degree": self.min_degree,
            "coefficients": [
                {
                    "value": _format_value(v),
                    "error": "%.3e" % e,
                }
                for v, e in self.coeffs
            ],
        }


def _format_value(value):
    return mpmath.nstr(value, JSON_DIGITS, strip_zeros=False)


@dataclass(frozen=True)
class ResidueReport:
    """Pole order and residue of a series at s = 0, with a cancellation audit.

    pole_order is None when some deep coefficient sits within a decade of its
    noise floor and the order cannot be certified.  audit lists, for each
    degree below -pole_order, the coefficient magnitude and its noise floor:
    these are the cancellations the caller may want to inspect.
    """

    pole_order: object  # int or None
    residue: object  # mpf
    residue_error: float
    is_zero: bool
    indeterminate_degrees: tuple
    audit: tuple

    def to_json(self):
        return {
            "pole_order": self.pole_order,
            "residue": _format_value(self.residue),
            "residue_error": "%.3e" % self.residue_error,
            "is_zero": self.is_zero,
            "indeterminate_degrees": list(self.indeterminate_degrees),
            "audit": [
                {"degree": d, "magnitude": "%.3e" % m, "noise_floor": "%.3e" % f}
                for d, m, f in self.audit
            ],
        }


def residue_at_zero(series):
    """Pole order and s^-1 coefficient of an expanded series.

    The pole order is the most negative degree whose coefficient is certified
    nonzero; coefficients below the noise floor count as cancelled.
    """
    indeterminate = []
    pole_order = 0
    for d in series.degrees():
        if d >= 0:
            break
        cls = series.classify(d)
        if cls == "nonzero":
            pole_order = -d
            break
        if cls == "indeterminate":
            indeterminate.append(d)
    if indeterminate:
        pole_order = None

    residue, residue_error = series.coefficient(-1)

    audit = []
    if pole_order is not None:
        for d in series.degrees():
            if d >= -pole_order:
                break
            value, error = series.coefficient(d)
            audit.append((d, abs(float(value)), NOISE_FLOOR_FACTOR * error))

    return ResidueReport(
        pole_order=pole_order,
        residue=residue,
        residue_error=residue_error,
        is_zero=series.is_zero_to_precision,
        indeterminate_degrees=tuple(indeterminate),
        audit=tuple(audit),
    )


def factor_series(a, b, length, ring, taylor):
    """Series of xi(a + b*s) with `length` stored coefficients in `ring`.

    taylor(a, b, count) returns the first count coefficients of the regular
    part of xi(a + b*s) in powers of s; at a = 1 the principal part 1/(b*s)
    is prepended exactly.
    """
    if a == 1:
        return LaurentSeries(-1, (ring.constant(Fraction(1, b)), *taylor(1, b, length - 1)))
    return LaurentSeries(0, tuple(taylor(a, b, length)))


def expand(expression, length, ring, taylor, memo=None):
    """Laurent series of a nonzero XiExpression over one coefficient ring.

    Each monomial's factor series, stored to `length` orders, are multiplied
    left to right, and the products, weighted by the monomials'
    coefficients, are summed once per degree in the sorted term order.
    ring is the coefficient ring (see the module docstring); taylor is as in
    factor_series.  Every product and the sum run on native windows, and
    ring elements are built only for the returned coefficients.  An
    expression with no terms raises ValueError.

    memo maps a factor tuple to its (min_degree, native window); None means
    a fresh dict for this call.  On a miss a monomial's longest prefix in
    the memo is multiplied by each further factor's window in turn.  Single
    factors are always kept, a product only when it is a strict prefix of a
    monomial of this expression, so each distinct prefix is multiplied at
    most once per memo.  A shared memo must hold windows of the same length,
    ring, taylor and working precision; every product is the one a fresh
    left fold makes, so the result does not depend on what the memo held.
    Every window stores `length` orders, so the sum's window is the
    `length` orders from the lowest min_degree.
    """
    memo = {} if memo is None else memo
    monomials = expression.sorted_terms()
    kept = {m[:i] for m, _ in monomials for i in range(2, len(m))}

    def single(f):
        if (f,) not in memo:
            series = factor_series(f.a, f.b, length, ring, taylor)
            memo[(f,)] = series.min_degree, ring.lift(series.coeffs)
        return memo[(f,)]

    terms = []
    for monomial, coeff in monomials:
        if not monomial:
            unit = (ring.constant(Fraction(1)),) + (ring.zero(),) * (length - 1)
            terms.append((coeff, 0, ring.lift(unit)))
            continue
        # the longest product in the memo, then one convolve per further factor
        i = len(monomial)
        while i > 1 and monomial[:i] not in memo:
            i -= 1
        degree, window = memo[monomial[:i]] if i > 1 else single(monomial[0])
        for j in range(i, len(monomial)):
            low, last = single(monomial[j])
            degree, window = degree + low, ring.convolve(window, last)
            if monomial[: j + 1] in kept:
                memo[monomial[: j + 1]] = degree, window
        terms.append((coeff, degree, window))
    if not terms:
        raise ValueError("cannot expand an expression with no terms")
    lo = min(degree for _, degree, _ in terms)
    return LaurentSeries(lo, tuple(ring.weighted_sum(terms, lo, lo + length - 1)))


# laurent_expand's product memo, {config: memo} for the last config expanded:
# a window depends only on the config and the factors
_PRODUCTS = {}


def laurent_expand(expression, config=None):
    """Expand a XiExpression at s = 0 into a LaurentSeries of Ball (value, error) pairs.

    The certified window is [-q, K - q] where q is the largest polar-factor
    count of any monomial and K the configured expansion order; the order
    must exceed q by at least 2 or the expansion is refused outright.
    Products over Enclosures come from the memo of the last config
    expanded (see expand); each returned coefficient is read as a Ball.
    """
    config = config or PrecisionConfig.default()
    length = config.expansion_order + 1
    if expression.is_zero:
        return LaurentSeries(0, (Ball.zero(),) * length)
    q_max = expression.max_polar_count()
    if config.expansion_order < q_max + 2:
        raise ExpansionOrderError(
            "expansion_order %d cannot cover pole order bound %d plus margin"
            % (config.expansion_order, q_max)
        )

    def taylor(a, b, count):
        prec = mp.prec
        enclosures = expansion_at(a, config).enclosures[:count]
        return [mul(c, ival(b**k, prec), prec) for k, c in enumerate(enclosures)]

    if config not in _PRODUCTS:
        _PRODUCTS.clear()
    with mp.workdps(config.internal_dps):
        series = expand(expression, length, Enclosures, taylor, _PRODUCTS.setdefault(config, {}))
    return LaurentSeries(series.min_degree, tuple(map(_ball, series.coeffs)))

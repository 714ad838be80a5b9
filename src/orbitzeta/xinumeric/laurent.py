"""Truncated Laurent expansion at s = 0 of symbolic xi-factor expressions.

One series engine serves two coefficient rings.  A factor xi(a + b*s) with
a >= 2 contributes the Taylor series of xi at a; a factor with a = 1
contributes exactly 1/(b*s) plus the Taylor series of the regular part at 1.
expand() multiplies these factor series per monomial and sums the terms
once per degree; monomials that share a factor prefix, adjacent in the
sorted term order, share its product.  laurent_expand runs it over
(value, error) coefficients: principal-part coefficients are exact
rationals, everything else is a big float carrying an absolute-error bound:
the tables' errors, propagated, plus a bound on every rounding at the
working precision.  formal_cancellation_check (formal.py) runs it over
FormalPoly, with the Taylor coefficients left symbolic.

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
The scalar operations stay the definition, and tests pin the native ones
to them bit for bit: _Approx's +, * and scale, and SparsePoly's +, * and
scale for FormalPoly.  _Approx's native entry is (Fraction or None, raw mpf
tuple, error, magnitude), on which its operations replay the scalar ones
with mpmath's libmp; FormalPoly's native window is one integer denominator
and lists of integer-numerator terms.

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
from functools import cache
from itertools import repeat
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_rational, mpf_add, mpf_mul, round_down, to_float

from .config import ExpansionOrderError, PrecisionConfig
from .kernel import expansion_at

# pole-order detection: coefficients below 10^3 * error are cancellation noise
NOISE_FLOOR_FACTOR = 1e3
# classification margin: one decade on each side of the floor is indeterminate
FLOOR_MARGIN = 10.0
# significant digits of every value in a series or residue report's JSON
JSON_DIGITS = 30


def as_mpf(value):
    """Exact rational values (Fractions and ints) as mpf at the working
    precision; mpf values unchanged."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value) if isinstance(value, int) else value


class _Pair(NamedTuple):
    """The fields of _Approx."""

    value: object
    error: float


class _Approx(_Pair):
    """Numeric series coefficient: exact Fraction or mpf value, absolute error.

    A pair, so LaurentSeries.coefficient still unpacks as, indexes as and
    compares equal to (value, error); + and * are coefficient arithmetic with
    error propagation, not tuple concatenation and repetition.  Each
    operation that yields an mpf adds a bound on its own rounding at the
    working precision to the error.  lift, convolve and weighted_sum are the
    ring's window operations (see the module docstring), on native entries
    at the working precision and rounding.
    """

    __slots__ = ()

    @classmethod
    def constant(cls, q):
        return cls(q, 0.0)

    @classmethod
    def zero(cls):
        return cls(Fraction(0), 0.0)

    def __add__(self, other):
        x, y = self.value, other.value
        z = x + y
        error = self.error + other.error
        if type(z) is not Fraction:
            # z = m 2^e with a bc-bit mantissa m lies below 2^(e + bc), so the
            # sum rounded it by at most 2^(e + bc - prec); a rational summand
            # was rounded once more, by |summand| 2^-prec, on conversion
            prec = mp.prec
            _, _, e, bc = z._mpf_
            error += math.ldexp(1.0, e + bc - prec)
            for q in (x, y):
                if type(q) is Fraction and q:
                    error += math.ldexp(abs(float(q)), -prec)
        return _Approx(z, error)

    def __mul__(self, other):
        x, ex = self
        y, ey = other
        fx, fy = abs(float(x)), abs(float(y))
        z = x * y
        error = fx * ey + fy * ex + ex * ey
        if type(z) is not Fraction:
            # one rounding of the product, one of a rational factor's
            # conversion, each at most |z| 2^-prec; four units cover both
            error += math.ldexp(fx * fy, 2 - mp.prec)
        return _Approx(z, error)

    def scale(self, q):
        return self * _Approx(q, 0.0)

    @staticmethod
    def lift(coeffs):
        """Native window of a sequence of coefficients."""
        prec, rounding = mp._prec_rounding
        return [
            _entry(v, None, e, prec, rounding) if type(v) is Fraction
            else _entry(None, v._mpf_, e, prec, rounding)
            for v, e in coeffs
        ]

    @staticmethod
    def convolve(a, b):
        """Native window product: entry j is the fold a[0]*b[j] + ... +
        a[j]*b[0] of * and +, for each j below the shorter window."""
        prec, rounding = mp._prec_rounding
        out = []
        for j in range(min(len(a), len(b))):
            xs, ys = a[: j + 1], reversed(b[: j + 1])
            products = map(_product, xs, ys, repeat(prec), repeat(rounding))
            out.append(_entry(*_fold(products, prec, rounding), prec, rounding))
        return out

    @staticmethod
    def weighted_sum(terms, lo, hi):
        """Coefficients lo..hi of the sum of the (coefficient, min_degree,
        native window) terms: each degree folds every window's entry scaled
        by its coefficient with +, in term order, a degree below a window
        adding an exact zero.  Builds one _Approx per degree."""
        prec, rounding = mp._prec_rounding
        weights = [(_entry(c, None, 0.0, prec, rounding), m, w) for c, m, w in terms]
        zero = (Fraction(0), None, 0.0)
        out = []
        for d in range(lo, hi + 1):
            scaled = (
                _product(w[d - m], c, prec, rounding) if d >= m else zero for c, m, w in weights
            )
            q, r, error = _fold(scaled, prec, rounding)
            out.append(_Approx(q if r is None else mp.make_mpf(r), error))
        return out


# _product and _fold replay _Approx.__mul__ and __add__ on native entries,
# bit for bit: the same libmp operations at the working precision and
# rounding (a Fraction meeting an mpf is rounded down first, as mpmath
# converts it), the same float error expressions in the same order.  Their
# partial results are (Fraction or None, raw mpf or None, error).


def _raw(q, prec):
    return from_rational(q.numerator, q.denominator, prec, round_down)


def _entry(q, r, error, prec, rounding):
    """Native entry of an exact value q, or of a raw mpf r when q is None."""
    if q is None:
        return None, r, error, abs(to_float(r, rnd=rounding))
    return q, _raw(q, prec), error, abs(float(q))


def _product(x, y, prec, rounding):
    xq, xr, ex, fx = x
    yq, yr, ey, fy = y
    error = fx * ey + fy * ex + ex * ey
    if xq is None or yq is None:
        # one rounding of the product, one of a rational factor's conversion
        return None, mpf_mul(xr, yr, prec, rounding), error + math.ldexp(fx * fy, 2 - prec)
    return xq * yq, None, error


def _fold(terms, prec, rounding):
    """The + fold of a nonempty iterator of partial results."""
    q, r, error = next(terms)
    for tq, tr, terror in terms:
        error += terror
        if r is None and tr is None:
            q += tq
            continue
        r = mpf_add(r or _raw(q, prec), tr or _raw(tq, prec), prec, rounding)
        error += math.ldexp(1.0, r[2] + r[3] - prec)
        for exact in (q, tq):
            if exact:
                error += math.ldexp(abs(float(exact)), -prec)
        q = None
    return q, r, error


@dataclass(frozen=True, slots=True)
class LaurentSeries:
    """Finite block of Laurent coefficients over one coefficient ring.

    coeffs[i] is the coefficient of s^(min_degree + i).  The numeric ring's
    coefficients are (value, error) pairs; classify, is_zero_to_precision
    and to_json apply to that ring only.
    """

    min_degree: int
    coeffs: tuple

    @property
    def top_degree(self):
        return self.min_degree + len(self.coeffs) - 1

    def degrees(self):
        return range(self.min_degree, self.top_degree + 1)

    def coefficient(self, degree):
        """Coefficient at a degree; degrees below the window are exact zero."""
        if degree < self.min_degree:
            return type(self.coeffs[0]).zero()
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
    return mpmath.nstr(as_mpf(value), JSON_DIGITS, strip_zeros=False)


@dataclass(frozen=True)
class ResidueReport:
    """Pole order and residue of a series at s = 0, with a cancellation audit.

    pole_order is None when some deep coefficient sits within a decade of its
    noise floor and the order cannot be certified.  audit lists, for each
    degree below -pole_order, the coefficient magnitude and its noise floor:
    these are the cancellations the caller may want to inspect.
    """

    pole_order: object  # int or None
    residue: object  # mpf or Fraction
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

    if -1 >= series.min_degree and -1 <= series.top_degree:
        residue, residue_error = series.coefficient(-1)
    else:
        residue, residue_error = Fraction(0), 0.0

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


def expand(expression, length, ring, taylor):
    """Laurent series of a nonzero XiExpression over one coefficient ring.

    Each monomial's factor series, stored to `length` orders, are multiplied
    left to right, and the products, weighted by the monomials'
    coefficients, are summed once per degree.  ring is the coefficient ring
    (see the module docstring); taylor is as in factor_series.  Each
    distinct factor's series is built and lifted once per call, every
    product and the sum run on native windows, and ring elements are built
    only for the returned coefficients.  An expression with no terms raises
    ValueError.

    Products are shared along the term order: prefix[i] holds the product
    of the series of the current monomial's first i + 1 factors, and the
    next monomial keeps the entries of the factor prefix it has in common
    with it and multiplies out only the rest.  Every product is the one a
    fresh left fold of that monomial would make, in any term order; the
    sorted order (by length, then factors) only makes common prefixes
    adjacent, so that each is multiplied once.  Every window stores
    `length` orders, so the sum's window is the `length` orders from the
    lowest min_degree.
    """

    def lifted(f):
        series = factor_series(f.a, f.b, length, ring, taylor)
        return series.min_degree, ring.lift(series.coeffs)

    series_of = cache(lifted)
    unit = 0, ring.lift((ring.constant(Fraction(1)),) + (ring.zero(),) * (length - 1))
    terms = []
    factors, prefix = (), []
    for monomial, coeff in expression.sorted_terms():
        shared = 0
        for f, g in zip(factors, monomial):
            if f != g:
                break
            shared += 1
        factors = monomial
        del prefix[shared:]
        for f in factors[shared:]:
            degree, window = series_of(f)
            if prefix:
                low, product = prefix[-1]
                degree, window = low + degree, ring.convolve(product, window)
            prefix.append((degree, window))
        terms.append((coeff, *(prefix[-1] if prefix else unit)))
    if not terms:
        raise ValueError("cannot expand an expression with no terms")
    lo = min(degree for _, degree, _ in terms)
    return LaurentSeries(lo, tuple(ring.weighted_sum(terms, lo, lo + length - 1)))


def laurent_expand(expression, config=None):
    """Expand a XiExpression at s = 0 into a LaurentSeries of (value, error) pairs.

    The certified window is [-q, K - q] where q is the largest polar-factor
    count of any monomial and K the configured expansion order; the order
    must exceed q by at least 2 or the expansion is refused outright.
    """
    config = config or PrecisionConfig.default()
    length = config.expansion_order + 1
    if expression.is_zero:
        return LaurentSeries(0, (_Approx.zero(),) * length)
    q_max = expression.max_polar_count()
    if config.expansion_order < q_max + 2:
        raise ExpansionOrderError(
            "expansion_order %d cannot cover pole order bound %d plus margin"
            % (config.expansion_order, q_max)
        )

    def taylor(a, b, count):
        table = expansion_at(a, config)
        return [
            _Approx(c, e).scale(b**k)
            for k, (c, e) in enumerate(zip(table.coefficients[:count], table.errors))
        ]

    with mp.workdps(config.internal_dps):
        return expand(expression, length, _Approx, taylor)

"""Truncated Laurent expansion at s = 0 of symbolic xi-factor expressions.

One series engine serves two coefficient rings.  A factor xi(a + b*s) with
a >= 2 contributes the Taylor series of xi at a; a factor with a = 1
contributes exactly 1/(b*s) plus the Taylor series of the regular part at 1.
expand() multiplies these factor series per monomial and sums the terms
once per degree, keeping each factor's window and each product that is a
strict prefix of a monomial in a memo keyed by factor tuple.  laurent_expand
holds one process-global memo for the last config it expanded at (a window
depends only on the config and the factors), single-threaded like the
kernel's tables.  laurent_expand runs it over
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
scale for FormalPoly.  _Approx's native entry is (Fraction or None, m, e,
error, |float(value)|), the value being the Fraction or else m 2^e for a
signed int m, trailing zeros allowed (an exact value's m 2^e is its
round-down value, as mpmath converts it); one fused fold replays the
scalar * and + on it in integer fixed point, rounding as mpmath's libmp
does.  FormalPoly's native window is one integer denominator and, per
coefficient, a dict from packed monomials (one int, a 6-bit exponent slot
per symbol) to integer numerators.

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
from mpmath.libmp import from_man_exp, from_rational, round_down

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
        prec = mp.prec
        out = []
        for v, e in coeffs:
            if type(v) is Fraction:
                out.append((v, *_fixed(v, prec), e, abs(float(v))))
            else:
                sign, man, exp, _ = v._mpf_
                out.append((None, -man if sign else man, exp, e, abs(float(v))))
        return out

    @staticmethod
    def convolve(a, b):
        """Native window product: entry j is the fold a[0]*b[j] + ... +
        a[j]*b[0] of * and +, for each j below the shorter window."""
        prec = mp.prec
        out = []
        for j in range(min(len(a), len(b))):
            q, m, e, error = _dot(zip(a[: j + 1], b[j::-1]), prec)
            if q is None:
                # the magnitude rounds m to 53 bits first, as to_float does
                out.append((None, m, e, error, abs(math.ldexp(*_round(m, e, 53)))))
            else:
                out.append((q, *_fixed(q, prec), error, abs(float(q))))
        return out

    @staticmethod
    def weighted_sum(terms, lo, hi):
        """Coefficients lo..hi of the sum of the (coefficient, min_degree,
        native window) terms: each degree folds every window's entry scaled
        by its coefficient with +, in term order, a degree below a window
        adding an exact zero.  Builds one _Approx per degree."""
        prec = mp.prec
        weights = [((c, *_fixed(c, prec), 0.0, abs(float(c))), m, w) for c, m, w in terms]
        zero = (Fraction(0), 0, 0, 0.0, 0.0)
        out = []
        for d in range(lo, hi + 1):
            q, m, e, error = _dot(((w[d - m] if d >= m else zero, c) for c, m, w in weights), prec)
            out.append(_Approx(mp.make_mpf(from_man_exp(m, e)) if q is None else q, error))
        return out


def _fixed(q, prec):
    """(m, e) of an exact q rounded down to prec bits."""
    sign, man, exp, _ = from_rational(q.numerator, q.denominator, prec, round_down)
    return -man if sign else man, exp


def _round(p, e, prec):
    """p 2^e rounded to prec bits, to nearest with ties to even, as (m, e)."""
    n = p.bit_length() - prec
    if n <= 0:
        return p, e
    t = p >> (n - 1)
    if t & 1 and (t & 2 or p & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, e + n
    return t >> 1, e + n


def _dot(pairs, prec):
    """The + fold of the products x*y over a nonempty iterator of native
    entry pairs, as (Fraction or None, m, e, error), m None if exact.  It
    replays _Approx.__mul__ and __add__ bit for bit: each product and
    partial sum is rounded to nearest, ties to even, at prec bits, as
    mpmath's correctly rounding mpf_mul and mpf_add do, and each error
    term is the scalar one's float expression in the scalar order."""
    error = None
    for (xq, xm, xe, ex, fx), (yq, ym, ye, ey, fy) in pairs:
        terror = fx * ey + fy * ex + ex * ey
        if xq is None or yq is None:
            # one rounding of the product, one of a rational factor's conversion
            tq, (tm, te) = None, _round(xm * ym, xe + ye, prec)
            terror += math.ldexp(fx * fy, 2 - prec)
        else:
            tq, tm, te = xq * yq, None, None
        if error is None:
            q, m, e, error = tq, tm, te, terror
            continue
        error += terror
        if q is not None and tq is not None:
            q += tq
            continue
        if q is not None:
            m, e = _fixed(q, prec)
        if tq is not None:
            tm, te = _fixed(tq, prec)
        # the exact sum, rounded once; m 2^e lies below 2^(e + bitlength),
        # and a zero sum counts as 2^0, as mpmath's zero has e = bc = 0
        d = e - te
        p, e = ((m << d) + tm, te) if d > 0 else (m + (tm << -d), e)
        m, e = _round(p, e, prec)
        error += math.ldexp(1.0, (e + m.bit_length() if m else 0) - prec)
        if q:
            error += math.ldexp(abs(float(q)), -prec)
        if tq:
            error += math.ldexp(abs(float(tq)), -prec)
        q = None
    return q, m, e, error


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
    """Expand a XiExpression at s = 0 into a LaurentSeries of (value, error) pairs.

    The certified window is [-q, K - q] where q is the largest polar-factor
    count of any monomial and K the configured expansion order; the order
    must exceed q by at least 2 or the expansion is refused outright.
    Products come from the memo of the last config expanded (see expand).
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

    if config not in _PRODUCTS:
        _PRODUCTS.clear()
    with mp.workdps(config.internal_dps):
        return expand(expression, length, _Approx, taylor, _PRODUCTS.setdefault(config, {}))

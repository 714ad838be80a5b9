"""Formal certificates that deep pole coefficients cancel identically.

The Taylor coefficients of the regular part of xi at each integer point are
treated as independent indeterminates t[a;k] (k-th coefficient at point a).
A factor xi(1 + b*s) expands to 1/(b*s) + sum_k t[1;k] (b*s)^k with the
principal part exact; a factor xi(a + b*s), a >= 2, expands to
sum_k t[a;k] (b*s)^k.  The expansion is laurent.expand, the same engine the
numeric route uses, run over FormalPoly coefficients instead of (value,
error) pairs: its windows hold integer numerators over one denominator,
keyed by monomials packed into one int each, so products and the per-degree
sum are integer arithmetic, and each output coefficient's monomials and
Fractions are built once.  SparsePoly's +, * and scale stay
the definition the tests pin these window operations to.  A formal window
depends only on its factors and length, so the factor windows and strict
prefix products are kept across calls in one process-global memo per
length, cleared whole past WINDOW_ENTRIES monomial entries: the h of
series-warm's 66 orbits (n <= 8) keep 436 windows of 7,833 entries, about
0.9 MB, and those of all 138 orbits with n <= 10 keep 1,357 of 65,066,
about 6.6 MB (tracemalloc).  Checking that
every s^-k coefficient with k >= 2 is the zero polynomial proves the
cancellation for every possible value of the underlying transcendental
constants, not merely to working precision.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from ..xi_algebra import SparsePoly
from .laurent import expand


class FormalPoly(SparsePoly):
    """Polynomial with rational coefficients in the indeterminates t[a;k].

    A monomial is a sorted tuple of (a, k) pairs, with repetition.
    """

    __slots__ = ()

    _atom_text = "t[%d;%d]".__mod__
    _sort_key = tuple  # plain tuple order

    @classmethod
    def constant(cls, q):
        return cls._of({(): Fraction(q)})

    @classmethod
    def variable(cls, a, k, coeff=1):
        return cls._of({((a, k),): Fraction(coeff)})

    # native windows (see laurent): one integer denominator and, per
    # coefficient, a dict from packed monomial to integer numerator, in
    # which a numerator may be zero.  They are exact only while no
    # exponent exceeds SLOT_MAX: a larger one carries into the next
    # slot unnoticed.  formal_cancellation_check, the one caller, makes
    # sure of that by refusing monomials of more than SLOT_MAX factors.

    @staticmethod
    def lift(coeffs):
        """Native window: every coefficient over the lcm of all denominators."""
        den = math.lcm(*(c.denominator for p in coeffs for c in p.terms.values()))
        return den, [
            {_pack(m): c.numerator * den // c.denominator for m, c in p.terms.items()}
            for p in coeffs
        ]

    @staticmethod
    def convolve(a, b):
        """Native window product: integer numerators over da * db, each
        term of b's entry k added into the output's entries k and up."""
        (da, xs), (db, ys) = a, b
        out = [{} for _ in range(min(len(xs), len(ys)))]
        for k, y in enumerate(ys[: len(out)]):
            for m2, c2 in y.items():
                for acc, x in zip(out[k:], xs):
                    get = acc.get
                    for m1, c1 in x.items():
                        m = m1 + m2
                        acc[m] = get(m, 0) + c1 * c2
        return da * db, out

    @classmethod
    def weighted_sum(cls, terms, lo, hi):
        """Coefficients lo..hi of the sum of the (coefficient, min_degree,
        native window) terms: every weight and numerator cleared over one
        lcm, integer sums, and one unpacked monomial and Fraction per
        output term."""
        den = math.lcm(*(c.denominator * d for c, _, (d, _) in terms))
        sums = [defaultdict(int) for _ in range(lo, hi + 1)]
        for c, m, (d, window) in terms:
            weight = c.numerator * (den // (c.denominator * d))
            for acc, entry in zip(sums[m - lo :], window):
                for monomial, v in entry.items():
                    acc[monomial] += weight * v
        return [
            cls._of({_unpack(m): Fraction(v, den) for m, v in acc.items() if v}) for acc in sums
        ]


class SlotOverflowError(ValueError):
    """A monomial of more than SLOT_MAX factors, whose packed exponents
    could outgrow a slot."""


# Packed monomials, in native windows only: t[a;k] owns a SLOT_BITS-bit
# exponent slot of one int, so a monomial product is one addition.  An
# exponent is at most an expression monomial's factor count.  The slot
# table {(a, k): shift} is process-global and grows on demand.
SLOT_BITS = 6
SLOT_MAX = (1 << SLOT_BITS) - 1
_SLOTS = {}


def _pack(monomial):
    packed = 0
    for atom in monomial:
        packed += 1 << _SLOTS.setdefault(atom, SLOT_BITS * len(_SLOTS))
    return packed


def _unpack(packed):
    """The sorted-tuple monomial of a packed one."""
    atoms = (a for a, shift in _SLOTS.items() for _ in range(packed >> shift & SLOT_MAX))
    return tuple(sorted(atoms))


def _symbols(a, b, count):
    return [FormalPoly.variable(a, k, b**k) for k in range(count)]


# formal_cancellation_check's product memo, {q_max: expand's memo}, kept
# across calls like laurent._PRODUCTS for its config.  _held counts the
# monomial entries of the kept windows; a call that leaves more than
# WINDOW_ENTRIES (about 6.6 MB of windows) clears the memo whole.
WINDOW_ENTRIES = 2**16
_WINDOWS = {}
_held = 0


def _clear_windows():
    global _held
    _WINDOWS.clear()
    _held = 0


@dataclass(frozen=True)
class CancellationReport:
    """Formal verdicts per negative degree of an expanded expression.

    coefficients[d + pole_bound] is the polynomial of s^d, for every d in
    [-pole_bound, -1], and every view below reads them; a text is made
    only when one is asked for.  all_deep_vanish is the headline: every
    s^-k with k >= 2 is the identically-zero polynomial.
    """

    pole_bound: int
    coefficients: tuple  # FormalPoly per degree -pole_bound..-1

    @property
    def verdicts(self):
        """((degree, is_zero, poly_text), ...) ascending by degree."""
        return tuple((i - self.pole_bound, p.is_zero, str(p))
                     for i, p in enumerate(self.coefficients))

    def verdict(self, degree):
        if not -self.pole_bound <= degree < 0:
            raise KeyError(degree)
        poly = self.coefficients[degree + self.pole_bound]
        return poly.is_zero, str(poly)

    @property
    def residue(self):
        """The s^-1 polynomial."""
        return self.coefficients[-1] if self.coefficients else FormalPoly.zero()

    @property
    def formal_pole_order(self):
        """-d for the lowest degree d whose polynomial is not zero, else 0."""
        nonzero = (self.pole_bound - i for i, p in enumerate(self.coefficients) if not p.is_zero)
        return next(nonzero, 0)

    @property
    def all_deep_vanish(self):
        return all(p.is_zero for p in self.coefficients[:-1])

    def to_json(self):
        return {
            "pole_bound": self.pole_bound,
            "verdicts": [
                {"degree": d, "formally_zero": ok, "coefficient": text}
                for d, ok, text in self.verdicts
            ],
            "residue": str(self.residue),
            "formal_pole_order": self.formal_pole_order,
            "all_deep_vanish": self.all_deep_vanish,
        }


def formal_cancellation_check(expression):
    """Certify which negative-degree coefficients vanish identically.

    Expands the expression with symbolic Taylor coefficients and reports, for
    every degree from -pole_bound to -1, whether the coefficient is the zero
    polynomial.  A True verdict holds regardless of the numeric values of
    the symbols; a False verdict names the surviving polynomial.  A
    monomial of more than SLOT_MAX factors raises SlotOverflowError.
    The windows come from the module's memo (_WINDOWS), and every one is
    the product a fresh fold makes, so no report depends on earlier calls.
    """
    global _held
    q_max = expression.max_polar_count()
    if q_max == 0 or expression.is_zero:
        return CancellationReport(pole_bound=0, coefficients=())
    if max(map(len, expression.terms)) > SLOT_MAX:
        raise SlotOverflowError("a monomial exceeds %d factors" % SLOT_MAX)
    memo = _WINDOWS.setdefault(q_max, {})
    kept = len(memo)
    acc = expand(expression, q_max, FormalPoly, _symbols, memo)
    # expand only adds windows, so this call's are the memo's last ones
    _held += sum(len(e) for _, (_, window) in islice(memo.values(), kept, None) for e in window)
    if _held > WINDOW_ENTRIES:
        _clear_windows()
    return CancellationReport(q_max, tuple(acc.coefficient(d) for d in range(-q_max, 0)))

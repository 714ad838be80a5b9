"""Formal certificates that deep pole coefficients cancel identically.

The Taylor coefficients of the regular part of xi at each integer point are
treated as independent indeterminates t[a;k] (k-th coefficient at point a).
A factor xi(1 + b*s) expands to 1/(b*s) + sum_k t[1;k] (b*s)^k with the
principal part exact; a factor xi(a + b*s), a >= 2, expands to
sum_k t[a;k] (b*s)^k.  The expansion is laurent.expand, the same engine the
numeric route uses, run over FormalPoly coefficients instead of (value,
error) pairs.  Checking that every s^-k coefficient with k >= 2 is the zero
polynomial proves the cancellation for every possible value of the
underlying transcendental constants, not merely to working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    @classmethod
    def convolve(cls, a, b):
        """Window product, equal to the fold of * and + (see laurent), with
        each window cleared once to integer numerators over one denominator."""

        def cleared(window):
            den = math.lcm(*(c.denominator for p in window for c in p.terms.values()))
            return den, [
                [(m, c.numerator * den // c.denominator) for m, c in p.terms.items()] for p in window
            ]

        (da, xs), (db, ys) = cleared(a), cleared(b)
        out = []
        for j in range(min(len(xs), len(ys))):
            terms = {}
            for x, y in zip(xs[: j + 1], reversed(ys[: j + 1])):
                for m1, c1 in x:
                    for m2, c2 in y:
                        m = tuple(sorted(m1 + m2))
                        terms[m] = terms.get(m, 0) + c1 * c2
            out.append(cls._of({m: Fraction(c, da * db) for m, c in terms.items()}))
        return tuple(out)


def _symbols(a, b, count):
    return [FormalPoly.variable(a, k, b**k) for k in range(count)]


@dataclass(frozen=True)
class CancellationReport:
    """Formal verdicts per negative degree of an expanded expression.

    verdicts maps each degree in [-pole_bound, -1] to (is_zero, polynomial
    text).  all_deep_vanish is the headline: every s^-k with k >= 2 is the
    identically-zero polynomial.
    """

    pole_bound: int
    verdicts: tuple  # ((degree, is_zero, poly_text), ...) ascending by degree
    residue_text: str
    residue_is_zero: bool
    formal_pole_order: int
    all_deep_vanish: bool

    def verdict(self, degree):
        for d, ok, text in self.verdicts:
            if d == degree:
                return ok, text
        raise KeyError(degree)

    def to_json(self):
        return {
            "pole_bound": self.pole_bound,
            "verdicts": [
                {"degree": d, "formally_zero": ok, "coefficient": text}
                for d, ok, text in self.verdicts
            ],
            "residue": self.residue_text,
            "formal_pole_order": self.formal_pole_order,
            "all_deep_vanish": self.all_deep_vanish,
        }


def formal_cancellation_check(expression):
    """Certify which negative-degree coefficients vanish identically.

    Expands the expression with symbolic Taylor coefficients and reports, for
    every degree from -pole_bound to -1, whether the coefficient is the zero
    polynomial.  A True verdict holds regardless of the numeric values of
    the symbols; a False verdict names the surviving polynomial.
    """
    q_max = expression.max_polar_count()
    if q_max == 0 or expression.is_zero:
        return CancellationReport(
            pole_bound=0,
            verdicts=(),
            residue_text="0",
            residue_is_zero=True,
            formal_pole_order=0,
            all_deep_vanish=True,
        )
    acc = expand(expression, q_max, FormalPoly, _symbols)

    verdicts = []
    formal_pole_order = 0
    for degree in range(-q_max, 0):
        poly = acc.coefficient(degree)
        verdicts.append((degree, poly.is_zero, str(poly)))
        if not poly.is_zero and formal_pole_order == 0:
            formal_pole_order = -degree
    residue_poly = acc.coefficient(-1)
    return CancellationReport(
        pole_bound=q_max,
        verdicts=tuple(verdicts),
        residue_text=str(residue_poly),
        residue_is_zero=residue_poly.is_zero,
        formal_pole_order=formal_pole_order,
        all_deep_vanish=all(ok for d, ok, _ in verdicts if d <= -2),
    )

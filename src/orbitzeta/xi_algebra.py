"""Exact symbolic algebra of products of completed-zeta factors.

Every object here is a rational linear combination of monomials, a monomial
being a sorted tuple (a multiset) of factors xi(a + b*s) with integer
a >= 1, b >= 1.  No numeric evaluation happens in this module; equality is
exact equality of canonical forms.

The per-orbit product z_orbit attaches one factor per diagram cell, with
a = 1 + arm and b = hook.  The alternating weighted sum h_orbit combines the
z-products of all block-Levi classes inducing the orbit.  orbit_series_log
recomputes the same coefficients through the formal logarithm of the full
orbit sum, which is the identity the two constructions must satisfy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .partitions import Partition, enumerate_classes, induce, partitions_of, young_stats


class _FactorPair(NamedTuple):
    """The fields of XiFactor."""

    a: int
    b: int


class XiFactor(_FactorPair):
    """One factor xi(a + b*s); a is the expansion point, b the slope."""

    __slots__ = ()

    def __new__(cls, a, b):
        if a < 1 or b < 1:
            raise ValueError("factor requires a >= 1 and b >= 1, got (%r, %r)" % (a, b))
        return super().__new__(cls, a, b)

    @property
    def is_polar(self):
        """True when the factor passes through the pole at argument 1."""
        return self.a == 1

    def __str__(self):
        if self.b == 1:
            return "xi(%d+s)" % self.a
        return "xi(%d+%ds)" % (self.a, self.b)


def _power_product(atoms, text):
    """'x^2*y' text of a sorted atom tuple; '' for the empty product."""
    pieces = []
    for atom, run in itertools.groupby(atoms):
        count = sum(1 for _ in run)
        pieces.append(text(atom) if count == 1 else "%s^%d" % (text(atom), count))
    return "*".join(pieces)


@dataclass(frozen=True, slots=True)
class SparsePoly:
    """Rational linear combination of monomials, kept in canonical form.

    terms maps each monomial to its nonzero Fraction coefficient.  A
    monomial is a sorted tuple of atoms, with repetition; a subclass says
    how an atom reads (_atom_text) and how terms are ordered in str and
    sorted_terms (_sort_key).
    """

    terms: dict = ()

    def __post_init__(self):
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        merged = {}
        for monomial, coeff in items:
            monomial = tuple(sorted(monomial))
            merged[monomial] = merged.get(monomial, 0) + Fraction(coeff)
        object.__setattr__(self, "terms", {m: c for m, c in merged.items() if c})

    @classmethod
    def _of(cls, terms):
        """Wrap a dict of canonical monomials and Fraction coefficients."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", {m: c for m, c in terms.items() if c})
        return out

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self._sort_key(t[0]))

    def coefficient(self, monomial):
        return self.terms.get(monomial, Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._of(out)

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return self._of(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, q):
        q = Fraction(q)
        return self._of({m: c * q for m, c in self.terms.items()})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        pieces = []
        for monomial, coeff in self.sorted_terms():
            text = _power_product(monomial, self._atom_text)
            if not text:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(text)
            elif coeff == -1:
                pieces.append("-%s" % text)
            else:
                pieces.append("%s*%s" % (coeff, text))
        return " + ".join(pieces).replace("+ -", "- ") or "0"

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class XiExpression(SparsePoly):
    """Rational combination of sorted XiFactor tuples, by degree then factors."""

    __slots__ = ()

    _atom_text = str
    _sort_key = staticmethod(lambda m: (len(m), m))

    @classmethod
    def unit(cls):
        return cls._of({(): Fraction(1)})

    @classmethod
    def monomial(cls, factors, coeff=1):
        """One term; factors are XiFactors or (a, b) pairs, in any order."""
        return cls._of({tuple(sorted(XiFactor(*f) for f in factors)): Fraction(coeff)})

    def max_polar_count(self):
        """Largest number of polar factors over all monomials (0 if zero)."""
        return max((sum(f.is_polar for f in m) for m in self.terms), default=0)

    def to_json(self):
        return {
            "terms": [
                {
                    "coeff": {"num": c.numerator, "den": c.denominator},
                    "factors": [[f.a, f.b] for f in m],
                }
                for m, c in self.sorted_terms()
            ]
        }


def xi_expr_equal(e1, e2):
    """Exact symbolic equality, no numeric evaluation involved."""
    return e1 == e2


@lru_cache(maxsize=None)
def _cell_factors(partition):
    """The (1 + arm, hook) pair of every diagram cell, once per partition."""
    return tuple((1 + cell.arm, cell.hook) for cell in young_stats(partition))


def z_orbit(partition):
    """Product over diagram cells of xi(1 + arm + hook*s), as one monomial."""
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    return XiExpression.monomial(_cell_factors(partition))


def z_levi(cls):
    """Product of the per-block orbit products of a block-orbit class, as one monomial."""
    return XiExpression.monomial([f for orbit in cls.orbits for f in _cell_factors(orbit)])


def h_orbit(partition):
    """Weighted alternating sum of z_levi over all classes inducing the orbit."""
    if not isinstance(partition, Partition):
        partition = Partition(partition)
    terms = {}
    for cls in enumerate_classes(partition):
        for m, c in z_levi(cls).terms.items():
            terms[m] = terms.get(m, 0) + c * cls.weight
    return XiExpression._of(terms)


@dataclass(frozen=True, slots=True)
class OrbitSeries:
    """Formal sum of orbits with XiExpression coefficients, truncated by size.

    Multiplication of basis orbits is induction from two blocks: zero-pad,
    add parts componentwise, keep terms of total size <= bound.  The empty
    partition is the unit.
    """

    bound: int
    coeffs: dict = None

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be >= 0")
        clean = {}
        for p, e in (self.coeffs or {}).items():
            if not isinstance(p, Partition):
                p = Partition(p)
            if p.n <= self.bound and not e.is_zero:
                clean[p] = e
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def unit(cls, bound):
        return cls(bound, {Partition(()): XiExpression.unit()})

    @classmethod
    def zero(cls, bound):
        return cls(bound, {})

    def coefficient(self, partition):
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        return self.coeffs.get(partition, XiExpression.zero())

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for p, e in other.coeffs.items():
            out[p] = out.get(p, XiExpression.zero()) + e
        return OrbitSeries(self.bound, out)

    def __sub__(self, other):
        self._check(other)
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for p1, e1 in self.coeffs.items():
            for p2, e2 in other.coeffs.items():
                if p1.n + p2.n > self.bound:
                    continue
                blocks = []
                orbits = []
                if p1.n:
                    blocks.append(p1.n)
                    orbits.append(p1)
                if p2.n:
                    blocks.append(p2.n)
                    orbits.append(p2)
                p = induce(blocks, orbits) if blocks else Partition(())
                out[p] = out.get(p, XiExpression.zero()) + e1 * e2
        return OrbitSeries(self.bound, out)

    def scale(self, q):
        return OrbitSeries(self.bound, {p: e.scale(q) for p, e in self.coeffs.items()})

    def min_size(self):
        """Smallest orbit size carrying a nonzero coefficient (None if zero)."""
        return min((p.n for p in self.coeffs), default=None)

    def __repr__(self):
        return "OrbitSeries(bound=%d, %d terms)" % (self.bound, len(self.coeffs))

    def _check(self, other):
        if not isinstance(other, OrbitSeries):
            raise TypeError("expected OrbitSeries")
        if other.bound != self.bound:
            raise ValueError("size bounds differ: %d vs %d" % (self.bound, other.bound))


def z_series(bound):
    """The full orbit sum: unit plus z_orbit(o) * o over all orbits of size <= bound."""
    coeffs = {Partition(()): XiExpression.unit()}
    for n in range(1, bound + 1):
        for p in partitions_of(n):
            coeffs[p] = z_orbit(p)
    return OrbitSeries(bound, coeffs)


def series_log(series):
    """Formal log of a series with unit constant term, truncated at the bound."""
    unit = XiExpression.unit()
    if series.coefficient(Partition(())) != unit:
        raise ValueError("series must have constant coefficient 1")
    x = series - OrbitSeries.unit(series.bound)
    if not x.coeffs:
        return OrbitSeries.zero(series.bound)
    if x.min_size() < 1:
        raise ValueError("log argument must be 1 + higher-order terms")
    out = OrbitSeries.zero(series.bound)
    power = OrbitSeries.unit(series.bound)
    for k in range(1, series.bound + 1):
        power = power * x
        if not power.coeffs:
            break
        out = out + power.scale(Fraction((-1) ** (k - 1), k))
    return out


def orbit_series_log(bound):
    """Coefficients of log(full orbit sum), truncated at total size <= bound.

    The coefficient of each orbit equals h_orbit of that orbit; computing the
    left side through the formal log gives an independent route to the same
    values, which is what verify-identity checks.
    """
    return series_log(z_series(bound))

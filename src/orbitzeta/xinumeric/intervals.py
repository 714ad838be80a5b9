"""Raw interval arithmetic on (lo, hi) pairs of mpmath.libmp mpf tuples.

An enclosure here is the pair an mpmath iv-context number keeps as its
_mpi_, and the arithmetic is mpmath.libmp's mpi_* functions at an explicit
binary precision.  Without the iv wrappers (operand conversion, result
objects, the global iv.prec), the same mpi_* calls in the same order give
the bits the iv operators give.
"""

from __future__ import annotations

from mpmath.libmp import fone, from_int, fzero, mpi_add, mpi_mul, round_ceiling, round_floor

ONE, ZERO = (fone, fone), (fzero, fzero)


def ival(n, prec):
    """Enclosure of an integer, as the iv context converts an int operand:
    exact when n has at most prec bits."""
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def fold_sum(enclosures, prec):
    """Sum of enclosures folded from an exact 0 in order, as Python's sum
    folds iv numbers."""
    total = ZERO
    for e in enclosures:
        total = mpi_add(total, e, prec)
    return total


def series_mul(a, b, prec):
    """Truncated product of two series of enclosures, to the shorter length."""
    return [
        fold_sum((mpi_mul(a[i], b[k - i], prec) for i in range(k + 1)), prec)
        for k in range(min(len(a), len(b)))
    ]

"""Interval arithmetic on plain Python ints.

An enclosure is a triple (lo, hi, e) of ints, the interval [lo 2^e, hi 2^e].
Each operation forms its exact result in ints (a quotient as the floor and
ceiling of m 2^s / d, with more than prec bits) and rounds lo down, m >> n,
and hi up, -(-m >> n), to prec bits, n = m.bit_length() - prec.  mpmath's
mpf_add, mpf_mul and mpf_div round correctly and its mpi_* functions return
the rounded hull of the exact result, so each operation has the bits of the
matching mpi_* call at prec, and the folds those of the calls in the same
order.  Transcendental functions stay on mpmath, behind from_mpi and to_mpi.

exact_dot is the one exception: it rounds once per result, not once per
operation, and so has no mpi_* counterpart.  It serves the Laurent ring;
the Taylor tables, whose bits the iv-context oracle pins, do not use it.
"""

from __future__ import annotations

from itertools import repeat

from mpmath.libmp import from_man_exp

ONE, ZERO = (1, 1, 0), (0, 0, 0)


def _outward(lo, hi, e, prec):
    """[lo, hi] 2^e with lo rounded down and hi up to prec bits."""
    n, k = lo.bit_length() - prec, hi.bit_length() - prec
    if n == k:
        return (lo >> n, -(-hi >> n), e + n) if n > 0 else (lo, hi, e)
    n, k = n if n > 0 else 0, k if k > 0 else 0
    m = n if n < k else k
    return lo >> n << n - m, -(-hi >> k) << k - m, e + m


def ival(n, prec):
    """Enclosure of an integer: exact when n has at most prec bits."""
    return _outward(n, n, 0, prec)


def from_mpi(x):
    """Enclosure of an mpmath.libmp (lo, hi) pair of finite mpf tuples."""
    (s, a, e, _), (t, b, f, _) = x
    a, b = -a if s else a, -b if t else b
    return (a, b << f - e, e) if e < f else (a << e - f, b, f)


def to_mpi(x):
    return from_man_exp(x[0], x[2]), from_man_exp(x[1], x[2])


def neg(x):
    return -x[1], -x[0], x[2]


def add(x, y, prec):
    return fold_sum((y,), prec, x)


def mul(x, y, prec):
    (a, b, e), (c, d, f) = x, y
    a, b, flip = (-b, -a, True) if b <= 0 else (a, b, False)
    c, d, flip = (-d, -c, not flip) if d <= 0 else (c, d, flip)
    if a < 0 and c < 0:
        lo, hi = min(a * d, b * c), max(a * c, b * d)
    else:
        lo, hi = a * (c if a >= 0 else d) if c >= 0 else b * c, b * d
    return _outward(-hi, -lo, e + f, prec) if flip else _outward(lo, hi, e + f, prec)


def div(x, y, prec):
    """x / y for an enclosure y > 0."""
    (a, b, e), (c, d, f) = x, y
    s = prec + 1 + d.bit_length() - (a if a.bit_length() < b.bit_length() else b).bit_length()
    return _outward((a << s) // (d if a >= 0 else c), -((-b << s) // (c if b >= 0 else d)),
                    e - f - s, prec)


def fold_sum(enclosures, prec, total=ZERO):
    """Enclosures added to total in order, as Python's sum folds iv numbers."""
    lo, hi, e = total
    for c, d, f in enclosures:
        if e < f:
            lo, hi = lo + (c << f - e), hi + (d << f - e)
        else:
            lo, hi, e = (lo << e - f) + c, (hi << e - f) + d, f
        lo, hi, e = _outward(lo, hi, e, prec)
    return lo, hi, e


def dot(xs, ys, prec, total=ZERO):
    """total + x0 y0 + x1 y1 + ..., each product and sum rounded in turn."""
    return fold_sum(map(mul, xs, ys, repeat(prec)), prec, total)


def exact_dot(pairs, prec):
    """Enclosure of x0 y0 + x1 y1 + ... over (x, y) pairs of enclosures:
    each product's hull and their sum formed exactly, then rounded outward
    once to prec bits."""
    lo = hi = e = 0
    for (a, b, f), (c, d, g) in pairs:
        if a >= 0 and c >= 0:
            p, q = a * c, b * d
        elif b <= 0 and d <= 0:
            p, q = b * d, a * c
        elif a >= 0 and d <= 0:
            p, q = b * c, a * d
        elif b <= 0 and c >= 0:
            p, q = a * d, b * c
        else:  # a factor straddles 0
            corners = a * c, a * d, b * c, b * d
            p, q = min(corners), max(corners)
        f += g
        if e < f:
            lo, hi = lo + (p << f - e), hi + (q << f - e)
        else:
            lo, hi, e = (lo << e - f) + p, (hi << e - f) + q, f
    return _outward(lo, hi, e, prec)


def exp_terms(terms, logs, m, prec):
    """Term m of each series c (-log)^m / m! of c exp(-u log), from its term
    m - 1 in terms, as (term * -log) / m, for enclosures c > 0 and
    log >= 0: the signs alternate, so |term| is kept."""
    odd, out = m % 2, []
    for (a, b, e), (p, q, f) in zip(terms, logs):
        if not odd:
            a, b = -b, -a
        a, b, e = div(_outward(a * p, b * q, e + f, prec), (m, m, 0), prec)
        out.append((-b, -a, e) if odd else (a, b, e))
    return out

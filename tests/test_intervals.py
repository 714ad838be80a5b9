"""Int interval arithmetic (xinumeric/intervals.py) against mpmath.libmp.

Each operation on int enclosures must give, after to_mpi, exactly the mpf
pair the matching mpi_* call gives at the same precision: seeded operands
and fixed ones at 53, 150, 333 and 1000 bits, including exponent gaps
beyond mpmath's sticky-bit threshold (prec + 100 and more), exact
cancellation, zero endpoints, products of intervals that straddle 0, signed
numerators over positive divisors, and integers wider than prec.
exact_dot, which rounds once, is pinned to the Fraction reference of
interval_oracle instead, on the same kinds of operands.
"""

import random

import interval_oracle
import pytest
from mpmath.libmp import (
    fzero, from_int, from_man_exp, mpf_cmp, mpf_neg, mpi_add, mpi_div, mpi_mul, mpi_sub,
    round_ceiling, round_floor,
)

from orbitzeta.xinumeric import intervals as ia

PRECS = (53, 150, 333, 1000)


def value(rng, prec, sign=None, exp=None):
    """A random mpf with at most prec bits, of the given sign if any."""
    man = rng.getrandbits(rng.randint(1, prec)) or 1
    if exp is None:
        exp = rng.randint(-3 * prec, 2 * prec)
    if sign is None:
        sign = rng.choice((-1, 1))
    return from_man_exp(sign * man, exp)


def interval(rng, prec, kind=None):
    """A random (lo, hi) mpf pair: positive, negative, straddling 0, a
    point, with a zero endpoint, or between two values of any sign and size."""
    kind = kind or rng.choice(("pos", "neg", "straddle", "point", "zero_lo", "zero_hi", "wide"))
    exp = rng.randint(-2 * prec, prec)
    if kind == "point":
        x = value(rng, prec, exp=exp)
        return x, x
    if kind == "zero_lo":
        return fzero, value(rng, prec, 1, exp)
    if kind == "zero_hi":
        return value(rng, prec, -1, exp), fzero
    if kind == "straddle":
        return value(rng, prec, -1, exp + rng.randint(-40, 40)), value(rng, prec, 1, exp)
    if kind == "wide":
        a, b = value(rng, prec), value(rng, prec)
    else:
        sign = 1 if kind == "pos" else -1
        a, b = value(rng, prec, sign, exp), value(rng, prec, sign, exp + rng.randint(-3, 3))
    return (a, b) if mpf_cmp(a, b) <= 0 else (b, a)


def fixed_cases(prec):
    """Hand-picked operand pairs for the edge cases named in the module."""
    one, half = from_int(1), from_man_exp(1, -1)
    tiny = from_man_exp(3, -prec - 150)
    big = from_man_exp((1 << prec) - 1, 7)
    x = from_man_exp((1 << prec) - 3, -prec)
    return [
        ((one, one), (tiny, tiny)),  # gap above prec + 100, sticky bit up
        ((one, one), (mpf_neg(tiny), mpf_neg(tiny))),  # and down across a binade
        ((big, big), (mpf_neg(tiny), tiny)),
        ((x, x), (mpf_neg(x), mpf_neg(x))),  # exact cancellation to zero
        ((mpf_neg(x), x), (mpf_neg(x), x)),
        ((fzero, fzero), (mpf_neg(half), one)),
        ((fzero, x), (mpf_neg(x), fzero)),
        ((mpf_neg(big), half), (mpf_neg(x), big)),  # both straddle 0
        ((mpf_neg(one), mpf_neg(half)), (half, x)),  # negative over positive
    ]


def operand_pairs(prec, count=400):
    rng = random.Random(prec)
    pairs = fixed_cases(prec)
    for _ in range(count):
        x, y = interval(rng, prec), interval(rng, prec)
        if rng.random() < 0.25:  # the second operand far below the first
            gap = rng.randint(prec + 101, 3 * prec)
            y = tuple(from_man_exp(-v[1] if v[0] else v[1], v[2] - gap) for v in y)
        pairs.append((x, y))
    return pairs


def enc(x):
    return ia.from_mpi(x)


@pytest.mark.parametrize("prec", PRECS)
def test_add_sub_mul_match_mpmath(prec):
    for x, y in operand_pairs(prec):
        assert ia.to_mpi(enc(x)) == x
        assert ia.to_mpi(ia.add(enc(x), enc(y), prec)) == mpi_add(x, y, prec), (x, y)
        assert ia.to_mpi(ia.add(enc(x), ia.neg(enc(y)), prec)) == mpi_sub(x, y, prec), (x, y)
        assert ia.to_mpi(ia.mul(enc(x), enc(y), prec)) == mpi_mul(x, y, prec), (x, y)
        assert ia.to_mpi(ia.mul(enc(y), enc(x), prec)) == mpi_mul(y, x, prec), (x, y)


@pytest.mark.parametrize("prec", PRECS)
def test_div_matches_mpmath(prec):
    rng = random.Random(prec + 1)
    pairs = [(x, y) for x, y in fixed_cases(prec) if mpf_cmp(y[0], fzero) > 0]
    for _ in range(400):
        y = interval(rng, prec, rng.choice(("pos", "point")))
        if mpf_cmp(y[0], fzero) <= 0:
            y = tuple(mpf_neg(v) for v in reversed(y))
        pairs.append((interval(rng, prec), y))
    for n in (1, 3, 7, 2**prec - 1, 3**200):  # small divisors, as the kernel's are
        pairs.append((interval(rng, prec, "neg"), (from_int(n, prec, round_floor),
                                                   from_int(n, prec, round_ceiling))))
    for x, y in pairs:
        assert ia.to_mpi(ia.div(enc(x), enc(y), prec)) == mpi_div(x, y, prec), (x, y)


@pytest.mark.parametrize("prec", PRECS)
def test_integer_enclosure_matches_mpmath(prec):
    rng = random.Random(prec + 2)
    ints = [0, 1, -1, 2**prec - 1, 2**prec + 1, -(2**prec) - 1, 2 ** (prec + 1) - 1, 3**700]
    ints += [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, prec + 300)) for _ in range(300)]
    for n in ints:
        want = (from_int(n, prec, round_floor), from_int(n, prec, round_ceiling))
        assert ia.to_mpi(ia.ival(n, prec)) == want, n


@pytest.mark.parametrize("prec", PRECS)
def test_folds_match_the_mpi_calls_in_order(prec):
    rng = random.Random(prec + 3)
    for _ in range(40):
        xs = [interval(rng, prec) for _ in range(rng.randint(1, 9))]
        ys = [interval(rng, prec) for _ in xs]
        start = interval(rng, prec)
        want = start
        for x, y in zip(xs, ys):
            want = mpi_add(want, mpi_mul(x, y, prec), prec)
        got = ia.dot(map(enc, xs), map(enc, ys), prec, enc(start))
        assert ia.to_mpi(got) == want
        # exp_terms: c step^m / m! by (term * step) / m, for c > 0 >= step = -log
        c, step = interval(rng, prec, "pos"), interval(rng, prec, rng.choice(("neg", "zero_hi")))
        terms, term = [], c
        for m in range(1, 12):
            terms.append(term)
            term = mpi_div(mpi_mul(term, step, prec), (from_int(m), from_int(m)), prec)
        got = [enc(c)]
        for m in range(1, 11):
            got += ia.exp_terms(got[-1:], [ia.neg(enc(step))], m, prec)
        assert [ia.to_mpi(t) for t in got] == terms


@pytest.mark.parametrize("prec", (53, 150, 333))
def test_exact_dot_matches_the_fraction_reference(prec):
    """exact_dot against the exact sum of each product's four-corner hull,
    rounded outward once: the operand pairs above (zero-width boxes, boxes
    straddling 0 on both sides, negative endpoints, gaps above prec + 100)
    in sums of 0 to 8 products, and boxes whose ints are wider than prec."""
    rng = random.Random(prec + 4)
    pairs = [(enc(x), enc(y)) for x, y in operand_pairs(prec)]

    def wide():
        lo, hi = sorted(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 3 * prec)) for _ in "lh")
        return lo, hi, rng.randint(-2 * prec, prec)

    pairs += [(wide(), wide()) for _ in range(100)]
    sums = [[]] + [pairs[i : i + 1] for i in range(len(fixed_cases(prec)))]
    sums += [rng.sample(pairs, rng.randint(1, 8)) for _ in range(300)]
    for terms in sums:
        got = interval_oracle.endpoints(ia.exact_dot(terms, prec))
        assert got == interval_oracle.exact_dot(terms, prec), terms

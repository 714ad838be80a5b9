"""Sign-test verdicts packed along the sample axis.

A row of verdicts, one bool per sample, is held as uint8 bytes, 8 samples
per byte, the first sample in the lowest bit (packed): bit-slicing, as in
E. Biham, "A fast new DES implementation in software", FSE 1997.  An exact
point is one sample.  Each term of a roots.SignPlan folds its tests' rows
with a bitwise AND on those bytes (fold); callers that need one verdict
per sample unpack once (unpacked), and the slope sweep counts its terms on
the bytes (held_counts).  packed_cells counts the memory a fold holds, for
the chunks of sampling._chunked.
"""

from __future__ import annotations

import numpy as np

GATHER_ROWS = 2**14  # bounds the packed rows one gather of fold holds


def packed(verdicts):
    """Boolean verdicts (rows, samples) packed along the sample axis: per
    row a uint8 byte per 8 samples, the first sample in the lowest bit, the
    last byte padded with zero bits."""
    return np.packbits(verdicts, axis=-1, bitorder="little")


def unpacked(bits, samples):
    """The verdicts of the first `samples` samples of packed rows, as an
    array of bools (rows, samples)."""
    return np.unpackbits(bits, axis=-1, count=samples, bitorder="little").view(bool)


def fold(ufunc, bits, lists):
    """Per list of rows, ufunc (np.bitwise_and or np.bitwise_or) folded
    over those rows of packed verdicts (lists, or ragged: their number, per
    length k their positions and theirs as k rows): per length one gather
    and one reduction of a run of its lists, at most GATHER_ROWS rows at
    once (ufunc.reduceat is several times slower on many short lists).  An
    empty list reads the ufunc's identity on every byte: every bit set for
    bitwise_and, none for bitwise_or.  Each run is written through views
    of one np.void item per row, which on many narrow rows is several times
    faster than assigning rows by fancy index; rows of no bytes (no sample)
    need no write."""
    size, groups = lists
    out = np.empty((size, bits.shape[1]), bits.dtype)
    if not out.size:
        return out
    row = np.dtype((np.void, bits.shape[1]))
    items = out.view(row)
    for at, index in groups:
        run = _run(len(index))
        for lo in range(0, len(at), run):
            rows = np.take(bits, index[:, lo:lo + run], axis=0)
            items[at[lo:lo + run]] = ufunc.reduce(rows, axis=0).view(row)
    return out


def _run(k):
    """The lists of length k that one gather of fold reads."""
    return max(1, GATHER_ROWS // max(k, 1))


def packed_cells(rows, lists):
    """Cells of 8 bytes per sample that verdicts on `rows` rows hold at
    once beyond their values while fold reads them into `lists` (ragged):
    a byte and a bit per row (its verdict, then packed), and a bit per
    list (the result) and per entry of fold's largest gather and its
    reduction."""
    gather = max(((len(index) + 1) * min(len(at), _run(len(index))) for at, index in lists[1]),
                 default=0)
    return -(-(9 * rows + lists[0] + gather) // 64)


def held_counts(bits, samples):
    """Per sample, the number of packed rows that hold it, without
    unpacking every row: a count saturating at two (one: some row holds,
    two: two or more do), folded pairwise over the rows, then read exactly
    on the samples where two or more hold.  At most two bits per row are
    held beyond the rows, and a byte per row and such sample."""
    one, two = bits, None  # no row holds twice before the first level
    while len(one) > 1:
        half = len(one) // 2  # an odd last row waits for the next level
        a, b, rest = one[:half], one[half:2 * half], one[2 * half:]
        both = a & b
        if two is not None:
            both |= two[:half]
            both |= two[half:2 * half]
        two = np.concatenate([both, np.zeros_like(rest) if two is None else two[2 * half:]])
        one = np.concatenate([a | b, rest])
    counts = unpacked(one, samples).sum(axis=0)
    if two is not None:
        at = np.flatnonzero(unpacked(two, samples))
        counts[at] = np.count_nonzero(bits[:, at >> 3] & (1 << (at & 7)).astype(np.uint8), axis=0)
    return counts

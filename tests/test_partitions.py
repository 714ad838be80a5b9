"""Combinatorial layer: diagrams, induction, class enumeration, weights.

The two expensive checks here are deliberate oracles of a different nature
than the implementation: induction is re-derived from ranks of matrix powers
in exact rational arithmetic, and stabilizer orders are re-counted by brute
force over the symmetric group.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from orbitzeta.partitions import (
    LeviOrbitClass,
    Partition,
    _multisets_totaling,
    enumerate_classes,
    induce,
    partitions_of,
    young_stats,
)


# ---------------------------------------------------------------------------
# partitions and diagrams
# ---------------------------------------------------------------------------


def test_partition_parse_and_str_round_trip():
    for text in ("3", "2,1", "1,1,1,1", ""):
        assert str(Partition.parse(text)) == text


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))  # increasing
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition.parse("2,x")


def test_conjugate_is_an_involution():
    for n in range(0, 9):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p


def test_partitions_of_order_and_counts():
    counts = [len(list(partitions_of(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    first = list(partitions_of(4))
    assert first[0] == Partition((4,))
    assert first[-1] == Partition((1, 1, 1, 1))


def _stats(p):
    return {(c.row, c.col): (c.arm, c.leg, c.hook) for c in young_stats(p)}


def test_zero_orbit_diagram_is_one_row():
    # single row of 3 cells, arms decreasing, no legs
    assert _stats(Partition((1, 1, 1))) == {
        (1, 1): (2, 0, 3),
        (1, 2): (1, 0, 2),
        (1, 3): (0, 0, 1),
    }


def test_regular_orbit_diagram_is_one_column():
    stats = _stats(Partition((3,)))
    assert set(stats) == {(1, 1), (2, 1), (3, 1)}
    assert all(arm == 0 for arm, _, _ in stats.values())
    assert sorted(hook for _, _, hook in stats.values()) == [1, 2, 3]


def test_subregular_diagram_gl3():
    assert _stats(Partition((2, 1))) == {
        (1, 1): (1, 1, 3),
        (1, 2): (0, 0, 1),
        (2, 1): (0, 0, 1),
    }


def test_hook_identity_and_cell_count_exhaustive():
    for n in range(1, 9):
        for p in partitions_of(n):
            diagram = young_stats(p)
            assert len(diagram) == n
            for c in diagram:
                assert c.hook == 1 + c.arm + c.leg
            # column heights recover the parts
            heights = {}
            for c in diagram:
                heights[c.col] = max(heights.get(c.col, 0), c.row)
            assert tuple(sorted(heights.values(), reverse=True)) == p.parts


# ---------------------------------------------------------------------------
# induction: rule, examples, associativity
# ---------------------------------------------------------------------------


def test_induce_examples():
    n = 5
    assert induce((1,) * n, [Partition((1,))] * n) == Partition((n,))
    assert induce((2, 1), [Partition((1, 1)), Partition((1,))]) == Partition((2, 1))
    lam = Partition((3, 2, 2))
    assert induce((7,), [lam]) == lam


def test_induce_size_mismatch_raises():
    with pytest.raises(ValueError):
        induce((2, 1), [Partition((1,)), Partition((1,))])
    with pytest.raises(ValueError):
        induce((2,), [Partition((1, 1)), Partition((1,))])


def _compositions(n):
    out = []
    for cuts in itertools.product((0, 1), repeat=n - 1):
        comp, size = [], 1
        for bit in cuts:
            if bit:
                comp.append(size)
                size = 1
            else:
                size += 1
        comp.append(size)
        out.append(tuple(comp))
    return out


def test_induction_associativity_exhaustive():
    """Inducing block-by-block then assembling equals inducing directly.

    Exhaustive over nested composition pairs of n <= 6 with all orbit
    choices on the fine blocks.
    """
    for n in range(1, 7):
        for coarse in _compositions(n):
            fine_menu = [_compositions(m) for m in coarse]
            for fines in itertools.product(*fine_menu):
                flat = tuple(itertools.chain.from_iterable(fines))
                orbit_menu = [list(partitions_of(m)) for m in flat]
                for orbits in itertools.product(*orbit_menu):
                    staged, k = [], 0
                    for i, fine in enumerate(fines):
                        staged.append(induce(fine, orbits[k:k + len(fine)]))
                        k += len(fine)
                    assert induce(coarse, staged) == induce(flat, orbits)


# ---------------------------------------------------------------------------
# rank oracle: Jordan type from ranks of powers over exact rationals
# ---------------------------------------------------------------------------


def _rank(matrix):
    """Row reduction over Fraction; no pivoting subtleties since exact."""
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, lead = 0, 0
    for col in range(cols):
        pivot = next((r for r in range(lead, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        inv = Fraction(1, 1) / m[lead][col]
        m[lead] = [x * inv for x in m[lead]]
        for r in range(rows):
            if r != lead and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[lead])]
        lead += 1
        rank += 1
        if lead == rows:
            break
    return rank


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _jordan_type_from_ranks(x):
    n = len(x)
    ranks = [n]
    power = x
    while ranks[-1] > 0:
        ranks.append(_rank(power))
        power = _matmul(power, x)
    conj = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
    conj = [c for c in conj if c > 0]
    return Partition(tuple(conj)).conjugate()


def _nilpotent_with_type(p, offset):
    """Jordan matrix of type p placed at a diagonal offset in a larger frame."""
    cells = []
    pos = offset
    for part in p.parts:
        for i in range(part - 1):
            cells.append((pos + i, pos + i + 1))
        pos += part
    return cells


def _oracle_induced(levi, orbits, rng, trials=5):
    n = sum(levi)
    starts = [sum(levi[:i]) for i in range(len(levi))]
    votes = {}
    for _ in range(trials):
        x = [[Fraction(0)] * n for _ in range(n)]
        for start, orbit in zip(starts, orbits):
            for i, j in _nilpotent_with_type(orbit, start):
                x[i][j] = Fraction(1)
        # random strictly-block-upper perturbation
        for bi in range(len(levi)):
            for bj in range(bi + 1, len(levi)):
                for i in range(starts[bi], starts[bi] + levi[bi]):
                    for j in range(starts[bj], starts[bj] + levi[bj]):
                        x[i][j] = Fraction(rng.randint(-9, 9))
        t = _jordan_type_from_ranks(x)
        votes[t] = votes.get(t, 0) + 1
    return max(votes, key=votes.get)


def test_induction_matches_rank_oracle():
    rng = random.Random(20260816)
    for n in range(1, 6):
        for levi in _compositions(n):
            menu = [list(partitions_of(m)) for m in levi]
            for orbits in itertools.product(*menu):
                expected = induce(levi, orbits)
                assert _oracle_induced(levi, orbits, rng) == expected, (levi, orbits)


# ---------------------------------------------------------------------------
# class enumeration and weights
# ---------------------------------------------------------------------------


def test_zero_orbit_has_single_class():
    for n in range(1, 7):
        classes = enumerate_classes(Partition((1,) * n))
        assert len(classes) == 1
        only = classes[0]
        assert only.levi == (n,)
        assert only.weight == Fraction(1)


def test_subregular_gl3_classes():
    classes = enumerate_classes(Partition((2, 1)))
    keyed = {(c.levi, tuple(o.parts for o in c.orbits)): c.weight for c in classes}
    assert keyed == {
        ((3,), ((2, 1),)): Fraction(1),
        ((2, 1), ((1, 1), (1,))): Fraction(-1),
    }


def test_regular_gl2_classes():
    classes = enumerate_classes(Partition((2,)))
    keyed = {(c.levi, tuple(o.parts for o in c.orbits)): c.weight for c in classes}
    assert keyed == {
        ((2,), ((2,),)): Fraction(1),
        ((1, 1), ((1,), (1,))): Fraction(-1, 2),
    }


def test_every_class_induces_its_target():
    for n in range(1, 7):
        for target in partitions_of(n):
            for cls in enumerate_classes(target):
                assert cls.induced == target
                assert cls.epsilon == (-1) ** (cls.r - 1)
                assert cls.r_factorial == math.factorial(cls.r - 1)


def _count_multisets_dp(n):
    """Independent count of (block size, partition) multisets totaling n.

    Bounded-knapsack DP over the choice list, counting each choice with
    unlimited multiplicity but enforcing canonical (sorted) order.
    """
    choices = [m for m in range(1, n + 1) for _ in partitions_of(m)]
    ways = [0] * (n + 1)
    ways[0] = 1
    for size in choices:
        for total in range(size, n + 1):
            ways[total] += ways[total - size]
    return ways[n]


def count_all_classes(n):
    """Number of block-orbit classes summed over all targets of n."""
    return sum(1 for _ in _multisets_totaling(n))


def test_class_count_cross_check():
    for n in range(1, 7):
        direct = count_all_classes(n)
        by_target = sum(len(enumerate_classes(t)) for t in partitions_of(n))
        assert direct == by_target == _count_multisets_dp(n)
    assert count_all_classes(6) == 58
    # the per-n grouping keeps the order of a direct filter of the multisets
    for n in range(1, 8):
        multisets = list(_multisets_totaling(n))
        for t in partitions_of(n):
            direct = [
                LeviOrbitClass(levi=tuple(m for m, _ in pairs), orbits=tuple(o for _, o in pairs))
                for pairs in multisets
                if induce(tuple(m for m, _ in pairs), tuple(o for _, o in pairs)) == t
            ]
            assert enumerate_classes(t) == direct, t
            assert enumerate_classes(t) is not enumerate_classes(t)


# ---------------------------------------------------------------------------
# stabilizer oracle: exhaustive over S_n
# ---------------------------------------------------------------------------


def _stab_order_exhaustive(levi, orbits):
    n = sum(levi)
    starts = [sum(levi[:i]) for i in range(len(levi))]
    blocks = [frozenset(range(s, s + m)) for s, m in zip(starts, levi)]
    labels = {b: (len(b), orbits[i].parts) for i, b in enumerate(blocks)}
    block_set = set(blocks)
    count = 0
    for w in itertools.permutations(range(n)):
        images = [frozenset(w[i] for i in b) for b in blocks]
        if any(img not in block_set for img in images):
            continue
        if all(labels[img] == labels[src] for src, img in zip(blocks, images)):
            count += 1
    inner = math.prod(math.factorial(m) for m in levi)
    assert count % inner == 0
    return count // inner


def test_stab_order_matches_exhaustive_oracle():
    for n in range(1, 5):
        for levi in _compositions(n):
            menu = [list(partitions_of(m)) for m in levi]
            for orbits in itertools.product(*menu):
                pairs = sorted(
                    zip(levi, orbits), key=lambda t: (t[0], t[1].parts), reverse=True
                )
                cls = LeviOrbitClass(
                    levi=tuple(m for m, _ in pairs),
                    orbits=tuple(o for _, o in pairs),
                )
                assert cls.stab_order == _stab_order_exhaustive(levi, orbits), (
                    levi,
                    orbits,
                )


def test_weight_formula():
    for target in partitions_of(4):
        for cls in enumerate_classes(target):
            assert cls.weight == Fraction(
                cls.epsilon * cls.r_factorial, cls.stab_order
            )


# ---------------------------------------------------------------------------
# Stirling cancellation
# ---------------------------------------------------------------------------


def stirling_subset(n, k):
    """Stirling subset number: ways to partition an n-set into k blocks."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


def stirling_identity_check(n):
    """Exact value of sum_k S(n,k) * (-1)^(k-1) * (k-1)!.

    Equals 1 for n = 1 and 0 for every n >= 2; this is the combinatorial
    cancellation that makes the weighted class sums collapse correctly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(stirling_subset(n, k) * (-1) ** (k - 1) * math.factorial(k - 1) for k in range(1, n + 1))


def test_stirling_subset_small_table():
    assert [stirling_subset(3, k) for k in range(0, 4)] == [0, 1, 3, 1]
    assert stirling_subset(0, 0) == 1
    assert stirling_subset(4, 2) == 7


def test_stirling_identity():
    assert stirling_identity_check(1) == 1
    for n in range(2, 9):
        assert stirling_identity_check(n) == 0

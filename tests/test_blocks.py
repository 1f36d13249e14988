import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsdepth import blocks
from vsdepth.blocks import (
    BlockStructure,
    CircBlock,
    Density,
    block_structure,
    block_structure_violation,
    f_delta,
    f_int_masks,
    verify_block_structure,
)
from vsdepth.errors import DensityOutOfRange, EmptySet, UniverseMismatch
from vsdepth.intervals import Certificate, verify_certificate
from vsdepth.setcore import (
    PointSet,
    make_set,
    popcount_array,
    size_masks_array,
)

import oracles
from oracles import all_block_structures, arcs_partition_circle, f_int_masks_reference


@st.composite
def sets_and_densities(draw):
    """``(n, mask, p, q)``: a nonempty A over [n], n <= 63, and a density
    p/q with q up to 10**30 inside 1 <= p/q <= (n-1)/|A|."""
    n = draw(st.integers(2, 63))
    mask = draw(st.integers(1, (1 << n) - 2).filter(lambda m: m.bit_count() < n))
    q = draw(st.one_of(st.just(1), st.integers(1, 10**30)))
    p = draw(st.integers(q, q * (n - 1) // mask.bit_count()))
    return n, mask, p, q


@st.composite
def densities_and_masks(draw):
    """``(n, c, masks)``: up to 40 masks over [n], n <= 63, 2 <= c <= n+1."""
    n = draw(st.integers(1, 63))
    c = draw(st.integers(2, n + 1))
    return n, c, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))


@st.composite
def arc_structures(draw):
    """A BlockStructure over [n], n <= 9, whose blocks and gaps are arcs
    laid end to end from a random point, once or twice round the circle,
    and then, half the time, one arc redrawn or one gap emptied."""
    n = draw(st.integers(1, 9))
    laps = draw(st.sampled_from([1, 1, 1, 2]))
    cuts = sorted(draw(st.sets(st.integers(0, laps * n - 1), max_size=7)) - {0})
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, laps * n])]
    start = draw(st.integers(1, n))
    arcs = []
    for length in lengths:
        arcs.append(CircBlock(n, start, (start + length - 2) % n + 1))
        start = (start + length - 1) % n + 1
    blocks, gaps = [], []
    while arcs:
        blocks.append(arcs.pop(0))
        gaps.append(arcs.pop(0) if arcs and draw(st.booleans()) else None)
    if draw(st.booleans()):
        point = st.integers(1, n)
        i = draw(st.integers(0, len(blocks) - 1))
        arc = CircBlock(n, draw(point), draw(point))
        if draw(st.booleans()):
            blocks[i] = arc
        else:
            gaps[i] = draw(st.sampled_from([None, arc]))
    A = PointSet(n, draw(st.integers(0, (1 << n) - 1)))
    return BlockStructure(n, A, Density(2, 1), tuple(blocks), tuple(gaps))


def blocks_of(bs):
    return [b.to_set().members() for b in bs.blocks]


def gaps_of(bs):
    return [g.to_set().members() if g else () for g in bs.gaps]


class TestDensity:
    def test_lowest_terms(self):
        assert Density(6, 4) == Density(3, 2)

    def test_parse(self):
        assert Density.parse("5/2") == Density(5, 2)
        assert Density.parse("3") == Density(3, 1)
        assert Density.parse("6/4") == Density(3, 2)
        for text in ("x", "3/", "a/2", "3/2/1", "", "/2", " 3/2 ", "+3", "3/+2", "-3",
                     "3_0/2_0", "\u0663", "3\n", "3 /2", "3.0"):
            with pytest.raises(DensityOutOfRange):
                Density.parse(text)

    def test_below_one_rejected(self):
        with pytest.raises(DensityOutOfRange):
            Density(1, 2)


class TestBlockStructure:
    def test_two_blocks(self):
        bs = block_structure(8, make_set(8, [1, 5]), Density(3, 1))
        assert blocks_of(bs) == [(1, 2, 3), (5, 6, 7)]
        assert gaps_of(bs) == [(4,), (8,)]

    def test_merged_block(self):
        bs = block_structure(8, make_set(8, [1, 2]), Density(3, 1))
        assert blocks_of(bs) == [(1, 2, 3, 4, 5, 6)]
        assert gaps_of(bs) == [(7, 8)]

    def test_rational_density_empty_gap(self):
        bs = block_structure(6, make_set(6, [1, 3]), Density(5, 2))
        assert blocks_of(bs) == [(1, 2), (3, 4)]
        assert gaps_of(bs) == [(), (5, 6)]

    def test_wraparound(self):
        bs = block_structure(8, make_set(8, [2, 7]), Density(3, 1))
        assert blocks_of(bs) == [(2, 3, 4), (1, 7, 8)]
        assert gaps_of(bs) == [(5, 6), ()]

    def test_start_need_not_be_min_of_A(self):
        # the run from 8 swallows 1, so the single block starts at 8
        bs = block_structure(8, make_set(8, [1, 8]), Density(3, 1))
        assert blocks_of(bs) == [(1, 2, 3, 4, 5, 8)]

    def test_set_over_another_universe(self):
        A = make_set(3, [1])
        for call in (block_structure, f_delta):
            with pytest.raises(UniverseMismatch, match="set universe 3 != n=4"):
                call(4, A, Density(2, 1))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            block_structure(5, PointSet(5, 0), Density(2, 1))

    def test_density_too_large(self):
        with pytest.raises(DensityOutOfRange):
            block_structure(5, make_set(5, [1, 2]), Density(3, 1))

    def test_boundary_density_accepted(self):
        # delta = (n-1)/|A| is the closed upper end
        bs = block_structure(7, make_set(7, [1, 4]), Density(3, 1))
        assert verify_block_structure(bs)

    def test_scan_checked_before_return(self, monkeypatch):
        # ends one point early leave each block too heavy for clause iii
        monkeypatch.setattr(blocks, "_scan", lambda n, a, p, q: ([1, 5], [2, 6]))
        with pytest.raises(AssertionError, match="clause-iii"):
            block_structure(8, make_set(8, [1, 5]), Density(3, 1))

    @settings(max_examples=300, deadline=None)
    @given(case=sets_and_densities())
    @example(case=(63, (1 << 62) - 1, 1, 1))
    @example(case=(63, 1, 62, 1))
    @example(case=(63, 0b1011 << 50, 20 * (10**30 + 7) + 7, 10**30 + 7))
    def test_scan_beyond_small_n(self, case):
        # the n <= 9 brute force above cannot reach here: check the scan's
        # structure clause by clause, and against f_c at integer density
        n, mask, p, q = case
        A, delta = PointSet(n, mask), Density(p, q)
        assert block_structure_violation(block_structure(n, A, delta)) is None
        if delta.q == 1 and delta.p >= 2:
            top = f_int_masks(n, delta.p, np.array([mask], dtype=np.int64))
            assert f_delta(n, A, delta).mask == int(top[0])


class TestVerifier:
    def test_constructor_output_verifies(self):
        bs = block_structure(8, make_set(8, [1, 5]), Density(3, 1))
        assert block_structure_violation(bs) is None

    def test_clause_iii_violation(self):
        A = make_set(8, [1, 5])
        bs = BlockStructure(
            8, A, Density(3, 1),
            (CircBlock(8, 1, 4), CircBlock(8, 5, 7)),
            (None, CircBlock(8, 8, 8)),
        )
        assert block_structure_violation(bs) == "clause-iii"

    def test_clause_i_violation(self):
        A = make_set(8, [1, 2])
        bs = BlockStructure(
            8, A, Density(3, 1),
            (CircBlock(8, 1, 3), CircBlock(8, 4, 6)),
            (None, CircBlock(8, 7, 8)),
        )
        assert block_structure_violation(bs) == "clause-i"

    @pytest.mark.parametrize("blocks, gaps", [
        # the gaps swapped: each arc is in place but for where it starts
        ([(1, 3), (5, 7)], [(8, 8), (4, 4)]),
        # two overlapping blocks, each run just past the other's gap
        ([(1, 5), (1, 5)], [(6, 8), (6, 8)]),
        # the arcs stop short of the circle: nothing holds 8
        ([(1, 3)], [(4, 7)]),
        # a full-circle block and a full-circle gap after it, which a walk
        # that ORs a block with its own gap before testing overlap passes
        ([(1, 8)], [(1, 8)]),
        # a gap missing, and no block at all
        ([(1, 3), (5, 7)], [(4, 4)]),
        ([], []),
    ])
    def test_partition_violation(self, blocks, gaps):
        bs = BlockStructure(
            8, make_set(8, [1, 5]), Density(3, 1),
            tuple(CircBlock(8, *b) for b in blocks),
            tuple(CircBlock(8, *g) for g in gaps),
        )
        assert block_structure_violation(bs) == "partition"
        assert not arcs_partition_circle(bs)

    def test_clause_ii_violation(self):
        # the gap after the block from 1 holds 5, a member of A
        bs = BlockStructure(
            8, make_set(8, [1, 5]), Density(3, 1),
            (CircBlock(8, 1, 3),), (CircBlock(8, 4, 8),),
        )
        assert block_structure_violation(bs) == "clause-ii"

    def test_clause_iv_violation(self):
        # {1..6} weighs 3*2 - 6 = 0, but its prefix {1,2,3} weighs 0 < 1
        bs = BlockStructure(
            8, make_set(8, [1, 5]), Density(3, 1),
            (CircBlock(8, 1, 6),), (CircBlock(8, 7, 8),),
        )
        assert block_structure_violation(bs) == "clause-iv"

    @settings(max_examples=500, deadline=None)
    @given(bs=arc_structures())
    def test_partition_matches_reference(self, bs):
        tag = block_structure_violation(bs)
        assert (tag != "partition") == arcs_partition_circle(bs)


class TestFDelta:
    @pytest.mark.parametrize(
        "n,A,p,q,expect",
        [
            (5, [1], 3, 1, (1, 4, 5)),
            (8, [2, 7], 3, 1, (2, 5, 6, 7)),
            (7, [1], 4, 1, (1, 5, 6, 7)),
        ],
    )
    def test_examples(self, n, A, p, q, expect):
        assert f_delta(n, make_set(n, A), Density(p, q)).members() == expect

    def test_contains_A_and_avoids_blocks(self):
        for n in range(3, 8):
            for mask in range(1, 1 << n):
                A = PointSet(n, mask)
                for p, q in ((2, 1), (3, 1), (5, 2)):
                    if p * A.size > q * (n - 1):
                        continue
                    bs = block_structure(n, A, Density(p, q))
                    f = f_delta(n, A, Density(p, q))
                    block_union = 0
                    for b in bs.blocks:
                        block_union |= b.mask
                    assert A.mask & ~f.mask == 0
                    assert (f.mask & ~A.mask) & block_union == 0


def rotate_mask(n, mask, r):
    full = (1 << n) - 1
    return ((mask << r) | (mask >> (n - r))) & full


class TestProperties:
    def test_uniqueness_small(self):
        # acceptance covers n <= 9; keep the unit version quick
        for n in range(2, 7):
            for mask in range(1, 1 << n):
                A = PointSet(n, mask)
                for q in (1, 2):
                    for p in range(q, q * (n - 1) // A.size + 1):
                        if math.gcd(p, q) != 1:
                            continue
                        delta = Density(p, q)
                        found = all_block_structures(n, A, delta)
                        assert len(found) == 1, (n, A, p, q)
                        assert found[0] == block_structure(n, A, delta)

    def test_oracle_pruning_keeps_every_structure(self, monkeypatch):
        # per-block pruning drops only combinations the verifier rejects
        def grid():
            for n in range(1, 7):
                for mask in range(1, 1 << n):
                    A = PointSet(n, mask)
                    for q in (1, 2, 3):
                        for p in range(q, q * (n - 1) // A.size + 1):
                            yield all_block_structures(n, A, Density(p, q))

        pruned = list(grid())
        monkeypatch.setattr(oracles, "_fitting_ends", lambda A, delta, arc: arc)
        assert list(grid()) == pruned

    def test_right_size(self):
        for c in (2, 3, 4):
            for d in (1, 2, 3):
                n = c * d + c - 1
                for mask in size_masks_array(n, d):
                    A = PointSet(n, int(mask))
                    assert f_delta(n, A, Density(c, 1)).size == d + c - 1

    def test_rotation_equivariance(self):
        for n in (5, 7, 8):
            for mask in range(1, 1 << n):
                A = PointSet(n, mask)
                if 2 * A.size > n - 1:
                    continue
                f = f_delta(n, A, Density(2, 1)).mask
                for r in range(1, n):
                    rotated = f_delta(n, PointSet(n, rotate_mask(n, mask, r)), Density(2, 1))
                    assert rotated.mask == rotate_mask(n, f, r)


class TestVectorizedF:
    def test_agrees_with_scalar(self):
        for c in (2, 3, 4):
            for n in range(c, 10):
                for d in range(1, (n - 1) // c + 1):
                    masks = size_masks_array(n, d)
                    tops = f_int_masks(n, c, masks)
                    for m, t in zip(masks, tops):
                        A = PointSet(n, int(m))
                        assert int(t) == f_delta(n, A, Density(c, 1)).mask, (n, c, A)

    @settings(max_examples=200, deadline=None)
    @given(case=densities_and_masks())
    @example(case=(63, 64, [0, 1, (1 << 63) - 1, (1 << 62) | 1]))
    @example(case=(63, 10**9, [1, 1 << 62, 0b1001 << 40]))
    def test_matches_reference(self, case):
        # c up to n+1, and one huge c, take the running best to its largest
        n, c, masks = case
        masks = np.array(masks, dtype=np.int64)
        assert np.array_equal(
            f_int_masks(n, c, masks), f_int_masks_reference(n, c, masks)
        )

    def test_seeds_are_disjoint_and_reach_the_upper_bound(self):
        # at n = (d+1)c-1, as the paper proves, and at n = (d+1)c-2, as
        # observed: the f_c intervals over the d-sets share no member.
        # The 44 cells 3 <= n <= 19, d <= (n-1)/2, C(n, d) <= 20,000 with
        # d+1 dividing n+1 or n+2, then seeded cells past that grid
        cells = [
            (n, d) for n in range(3, 20) for d in range(1, (n - 1) // 2 + 1)
            if math.comb(n, d) <= 20_000 and (n + 1) % (d + 1) in (0, d)
        ]
        assert len(cells) == 44
        cells += [(22, 2), (22, 3), (23, 3), (24, 4), (25, 2), (26, 3), (28, 4), (30, 3)]
        for n, d in cells:
            c = -(-(n + 1) // (d + 1))
            bottoms = size_masks_array(n, d)
            tops = f_int_masks(n, c, bottoms)
            # at k = d the verifier checks only overlaps and tops
            assert verify_certificate(Certificate.from_arrays(n, d, d, bottoms, tops)).valid, (n, d)
            assert int(popcount_array(tops).min()) >= d + (n - d) // (d + 1), (n, d)


class TestRecurrenceSigns:
    @settings(max_examples=100, deadline=None)
    @given(
        masks=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), max_size=30),
        positions=st.lists(st.integers(0, 63), max_size=130),
        c=st.sampled_from([2, 3, 63]),
    )
    # the int8 counter at its largest, 126, and the int16 one near its
    @example(masks=[-1, 0, 1 << 62], positions=[*range(63)] * 2, c=2)
    @example(masks=[-1, 0, 1 << 62], positions=[*range(63)] * 2, c=63)
    def test_matches_python_recurrence(self, masks, positions, c):
        # reversed, so the masks are not contiguous; negative is scribbled
        # on, and must be rewritten at every position
        array = np.array(masks, dtype=np.int64)[::-1]
        ints = array.tolist()
        s = [0] * len(ints)
        seen = []
        for i, negative in blocks.recurrence_signs(array, c, positions):
            s = [max(v, 0) + (c - 1 if m >> i & 1 else -1) for v, m in zip(s, ints)]
            assert negative.tolist() == [v < 0 for v in s], (i, s)
            negative ^= True
            seen.append(i)
        assert seen == positions

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsdepth.errors import ElementOutOfRange, UniverseMismatch, UniverseOutOfRange
from vsdepth.setcore import (
    PointSet,
    binomial,
    circ_block,
    format_masks,
    interval_members,
    make_set,
    parse_masks,
    popcount_array,
    size_masks_array,
)

from oracles import (
    interval_members_naive,
    iter_size_masks,
    pascal_binomial,
    set_literal_naive,
)


class TestMakeSet:
    def test_direct_construction(self):
        assert make_set(5, [1, 4, 5]).members() == (1, 4, 5)

    def test_empty(self):
        assert make_set(5, []).members() == ()

    def test_order_insensitive_and_duplicates(self):
        assert make_set(8, [7, 2]) == make_set(8, [2, 7, 7])

    def test_element_out_of_range(self):
        with pytest.raises(ElementOutOfRange):
            make_set(5, [6])

    def test_universe_out_of_range(self):
        with pytest.raises(UniverseOutOfRange):
            make_set(64, [1])
        with pytest.raises(UniverseOutOfRange):
            make_set(0, [])

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            make_set(5, [1]) | make_set(6, [1])


class TestSetsOfSize:
    def test_listing_n3_t2(self):
        got = [PointSet(3, m).members() for m in size_masks_array(3, 2).tolist()]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_empty_subset(self):
        assert size_masks_array(4, 0).tolist() == [0]

    def test_singletons(self):
        assert size_masks_array(5, 1).tolist() == [1, 2, 4, 8, 16]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_count_matches_binomial(self, n):
        for t in range(n + 1):
            assert len(size_masks_array(n, t)) == binomial(n, t)

    def test_colex_strictly_increasing(self):
        # for fixed size, colex order is numeric mask order
        for n in range(1, 10):
            for t in range(n + 1):
                masks = size_masks_array(n, t)
                assert np.all(masks[1:] > masks[:-1])

    def test_array_agrees_with_iterator(self):
        # above t = n/2 the array is built from complements
        for n in range(1, 15):
            for t in range(n + 1):
                arr = size_masks_array(n, t)
                assert arr.tolist() == list(iter_size_masks(n, t))

    def test_high_rank_memory_follows_output(self):
        # building every level up to 25 would pass through C(26, 13) masks
        tracemalloc.start()
        try:
            masks = size_masks_array(26, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) == 26 and peak < 1 << 20

    def test_size_out_of_range(self):
        with pytest.raises(ElementOutOfRange):
            size_masks_array(3, 4)


class TestCircBlock:
    def test_wraparound(self):
        assert circ_block(8, 7, 1).members() == (1, 7, 8)

    def test_plain_run(self):
        assert circ_block(8, 2, 4).members() == (2, 3, 4)

    def test_singleton(self):
        assert circ_block(5, 3, 3).members() == (3,)

    def test_complementary_runs_partition_circle(self):
        for n in range(2, 9):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    run = circ_block(n, i, j)
                    if run.size == n:
                        continue
                    rest = circ_block(n, j % n + 1, (i - 2) % n + 1)
                    assert run.mask & rest.mask == 0
                    assert run.mask | rest.mask == (1 << n) - 1


class TestBinomial:
    def test_pascal_oracle_values(self):
        assert binomial(11, 4) == 330 == pascal_binomial(11, 4)
        assert binomial(24, 5) == 42504 == pascal_binomial(24, 5)

    def test_k_zero(self):
        for n in range(0, 20):
            assert binomial(n, 0) == 1

    def test_k_above_n(self):
        assert binomial(5, 6) == 0

    @pytest.mark.parametrize("n", range(0, 15))
    def test_agrees_with_pascal(self, n):
        for k in range(n + 1):
            assert binomial(n, k) == pascal_binomial(n, k)


class TestSetLiteral:
    def test_round_trip(self):
        literals = ["{1,4,5}", "{}", "{2,7}"]
        assert format_masks(parse_masks(literals, 8)) == literals
        assert str(make_set(8, [5, 1, 4])) == "{1,4,5}"

    def test_malformed(self):
        for text in ("1,2", "{1,2", "{1,,2}", "{a}", "{ }", "{0}", "{6}", "{-1}"):
            with pytest.raises(ElementOutOfRange):
                parse_masks([text], 5)

    def test_lenient_spellings(self):
        # what int() reads is a member; order and repeats do not matter
        assert parse_masks([" {3,1} ", "{03,+2,2}", "{ 4}"], 5).tolist() == [
            0b101, 0b110, 0b1000,
        ]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, (1 << 63) - 1), max_size=50))
    @example([0, 1, (1 << 63) - 1, 0xFF00, 0x8080808080808080 >> 1])
    def test_matches_naive_literals(self, masks):
        literals = format_masks(np.array(masks, dtype=np.int64))
        assert literals == [set_literal_naive(m) for m in masks]
        assert parse_masks(literals, 63).tolist() == masks


def test_popcount_array():
    masks = np.array([0, 1, 0b1011, (1 << 40) - 1], dtype=np.int64)
    assert popcount_array(masks).tolist() == [0, 1, 3, 40]


class TestIntervalMembers:
    @settings(max_examples=30, deadline=None)
    @given(
        groups=st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 100)), max_size=4
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(groups=[], seed=0)
    @example(groups=[(3, 63), (3, 64), (0, 70), (17, 1), (20, 1)], seed=1)
    def test_matches_naive_enumeration(self, groups, seed):
        # groups of (dimension, interval count), interleaved; high
        # dimensions keep few intervals so the naive oracle stays quick
        rng = random.Random(seed)
        pairs = []
        for dim, count in groups:
            for _ in range(min(count, max(1, (1 << 16) >> dim))):
                bits = rng.sample(range(63), dim + rng.randint(0, 63 - dim))
                bottom = sum(1 << i for i in bits[dim:])
                pairs.append((bottom, bottom | sum(1 << i for i in bits[:dim])))
        rng.shuffle(pairs)
        bottoms = np.array([b for b, _ in pairs], dtype=np.int64)
        tops = np.array([t for _, t in pairs], dtype=np.int64)
        got = interval_members(bottoms, tops)
        assert got.dtype == np.int64
        want = np.array(
            interval_members_naive(bottoms.tolist(), tops.tolist()), dtype=np.int64
        )
        assert np.array_equal(np.sort(got), np.sort(want))

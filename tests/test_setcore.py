import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsdepth.errors import ElementOutOfRange, UniverseMismatch, UniverseOutOfRange
from vsdepth.setcore import (
    PointSet,
    circ_mask,
    format_masks,
    literal_width,
    make_set,
    parse_masks,
    popcount_array,
    size_masks_array,
    write_literals,
)

from oracles import iter_size_masks, set_literal_naive


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
            assert len(size_masks_array(n, t)) == math.comb(n, t)

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

    def test_memory_is_the_last_two_levels(self):
        # level t is filled from level t-1 alone; no view keeps t-2
        tracemalloc.start()
        try:
            size_masks_array(21, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (math.comb(21, 10) + math.comb(21, 9)) * 8

    def test_size_out_of_range(self):
        with pytest.raises(ElementOutOfRange):
            size_masks_array(3, 4)


def circ_members(n, i, j):
    return PointSet(n, circ_mask(n, i, j)).members()


class TestCircBlock:
    def test_wraparound(self):
        assert circ_members(8, 7, 1) == (1, 7, 8)

    def test_plain_run(self):
        assert circ_members(8, 2, 4) == (2, 3, 4)

    def test_singleton(self):
        assert circ_members(5, 3, 3) == (3,)

    def test_is_clockwise_walk(self):
        # every (i, j), n = 1 included; from i = j % n + 1 the walk passes
        # every point before it reaches j, so full circles are checked too
        for n in range(1, 11):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    walk, point = 1 << (i - 1), i
                    while point != j:
                        point = point % n + 1
                        walk |= 1 << (point - 1)
                    assert circ_mask(n, i, j) == walk, (n, i, j)

    def test_complementary_runs_partition_circle(self):
        for n in range(2, 9):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    run = circ_mask(n, i, j)
                    if run == (1 << n) - 1:
                        continue
                    rest = circ_mask(n, j % n + 1, (i - 2) % n + 1)
                    assert run & rest == 0
                    assert run | rest == (1 << n) - 1


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

    @pytest.mark.parametrize("n", range(1, 64))
    def test_literals_at_every_universe(self, n):
        # zero, each single member, the full set and random masks over [n]
        rng = random.Random(n)
        masks = [0, (1 << n) - 1, *(1 << i for i in range(n)),
                 *(rng.getrandbits(n) for _ in range(200))]
        rows = np.zeros((len(masks), literal_width(n)), dtype=np.uint8)
        write_literals(rows, np.array(masks, dtype=np.int64), n)
        spelled = rows.tobytes().translate(None, b"\0").decode()
        assert spelled == "".join(set_literal_naive(m) for m in masks)


def test_popcount_array():
    masks = np.array([0, 1, 0b1011, (1 << 40) - 1, -1], dtype=np.int64)
    assert popcount_array(masks).tolist() == [0, 1, 3, 40, 64]

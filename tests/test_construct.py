import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsdepth import construct, intervals
from vsdepth.blocks import Density, f_delta, f_int_masks
from vsdepth.construct import (
    bounds,
    chain_successor_bits,
    construct_c2,
    construct_c3,
    construct_c4,
    construct_general,
    plan,
)
from vsdepth.errors import BadParameters, MatchingFailed
from vsdepth.intervals import Certificate, verify_certificate
from vsdepth.setcore import (
    format_masks,
    make_set,
    popcount_array,
    size_masks_array,
)

from oracles import (
    chain_successor_bits_reference,
    compose_reference,
    has_covered_superset,
    uncovered_reference,
)


@st.composite
def masks_over_n(draw):
    """``(n, masks)``: up to 40 masks over [n], n <= 63, about half of
    them sparse (the AND of three random words)."""
    n = draw(st.integers(1, 63))
    word = st.integers(0, (1 << n) - 1)
    sparse = st.tuples(word, word, word).map(lambda w: w[0] & w[1] & w[2])
    return n, draw(st.lists(st.one_of(word, sparse), max_size=40))


def veronese_arrays(n, d, c):
    """The intervals [A, f_c(A)] as bottom and top arrays, colex order of A."""
    bottoms = size_masks_array(n, d)
    return bottoms, f_int_masks(n, c, bottoms)


def veronese_literals(n, d, c):
    """The intervals [A, f_c(A)] as literal pairs, colex order of A."""
    return list(zip(*(format_masks(masks, n) for masks in veronese_arrays(n, d, c))))


class TestVeroneseIntervals:
    def test_n5_d1(self):
        assert veronese_literals(5, 1, 3) == [
            ("{1}", "{1,4,5}"),
            ("{2}", "{1,2,5}"),
            ("{3}", "{1,2,3}"),
            ("{4}", "{2,3,4}"),
            ("{5}", "{3,4,5}"),
        ]

    def test_n3_d1(self):
        got = veronese_literals(3, 1, 2)
        assert got == [("{1}", "{1,3}"), ("{2}", "{1,2}"), ("{3}", "{2,3}")]

    def test_n7_d1_tops(self):
        got = veronese_literals(7, 1, 4)
        assert got[0][1] == "{1,5,6,7}"
        assert got[2][1] == "{1,2,3,7}"
        assert np.all(popcount_array(veronese_arrays(7, 1, 4)[1]) == 4)

    def test_counting_identity(self):
        # (c-1) C(n,d) = C(n,d+1) whenever n = cd+c-1
        for c in (2, 3, 4):
            for d in range(1, 13):
                n = c * d + c - 1
                if n > 63:
                    break
                assert (c - 1) * math.comb(n, d) == math.comb(n, d + 1)

    def test_rank_dplus1_tiled(self):
        # each (d+1)-set inside exactly one interval
        for c, d in ((2, 2), (3, 2), (4, 2)):
            n = c * d + c - 1
            bottoms, tops = veronese_arrays(n, d, c)
            hits = {}
            for bottom, top in zip(bottoms.tolist(), tops.tolist()):
                free = top & ~bottom
                for bit in range(n):
                    if (free >> bit) & 1:
                        m = bottom | (1 << bit)
                        hits[m] = hits.get(m, 0) + 1
            assert len(hits) == math.comb(n, d + 1)
            assert set(hits.values()) == {1}

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_f2_cubes_alone_certify(self, d):
        # construct_c2 matches by the parenthesis rule instead, so its
        # certificates are other intervals
        n = 2 * d + 1
        cert = Certificate.from_arrays(n, d, d + 1, *veronese_arrays(n, d, 2))
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == d + 1
        assert not np.array_equal(cert.top_masks, construct_c2(d).top_masks)


class TestUncovered:
    def test_n5_rank3(self):
        got = format_masks(uncovered_reference(5, 1, 3, 3), 5)
        assert got == ["{1,2,4}", "{1,3,4}", "{1,3,5}", "{2,3,5}", "{2,4,5}"]

    def test_n5_rank2_empty(self):
        assert len(uncovered_reference(5, 1, 3, 2)) == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_c4_leftovers_match_reference(self, d):
        # c4's edges start at exactly the uncovered (d+2)-sets and end at
        # uncovered (d+3)-sets
        cert = construct_c4(d)
        n = cert.universe_size
        edge = popcount_array(cert.bottom_masks) == d + 2
        assert np.array_equal(cert.bottom_masks[edge], uncovered_reference(n, d, 4, d + 2))
        assert np.isin(cert.top_masks[edge], uncovered_reference(n, d, 4, d + 3)).all()

    def test_n7_counts(self):
        got = [uncovered_reference(7, 1, 4, t) for t in (3, 4)]
        assert [len(masks) for masks in got] == [14, 28]

    def test_against_definition(self):
        # covered iff A subset of D subset of f_c(A) for some d-set A
        for c, d in ((3, 1), (4, 1), (3, 2)):
            n = c * d + c - 1
            bottoms, tops = veronese_arrays(n, d, c)
            for t in range(d + 1, d + c):
                got = uncovered_reference(n, d, c, t)
                expected = []
                for members in itertools.combinations(range(1, n + 1), t):
                    D = make_set(n, members).mask
                    if not np.any((bottoms & ~D == 0) & (D & ~tops == 0)):
                        expected.append(D)
                assert got.tolist() == sorted(expected)


class TestHasCoveredSuperset:
    def test_covered_triple_via_top(self):
        assert has_covered_superset(make_set(7, [1, 2, 3]).mask, 7, 1, 4)

    def test_covered_pair(self):
        assert has_covered_superset(make_set(5, [1, 5]).mask, 5, 1, 3)

    def test_uncovered_triples_have_none(self):
        # uncovered top-rank sets have no room for a covered superset
        for m in uncovered_reference(5, 1, 3, 3).tolist():
            assert not has_covered_superset(m, 5, 1, 3)

    def test_against_definition(self):
        # some S with D <= S lies in some [A, f_c(A)], tops from scalar f_delta
        for c, d in ((3, 1), (4, 1), (3, 2)):
            n = c * d + c - 1
            ivs = []
            for members in itertools.combinations(range(1, n + 1), d):
                A = make_set(n, members)
                ivs.append((A.mask, f_delta(n, A, Density(c, 1)).mask))
            for t in range(d + 1, d + c):
                for members in itertools.combinations(range(1, n + 1), t):
                    D = make_set(n, members).mask
                    rest = [i for i in range(n) if not D >> i & 1]
                    expected = any(
                        bottom & ~S == 0 and S & ~top == 0
                        for size in range(len(rest) + 1)
                        for extra in itertools.combinations(rest, size)
                        for S in [D | sum(1 << i for i in extra)]
                        for bottom, top in ivs
                    )
                    assert has_covered_superset(D, n, d, c) == expected, (c, d, D)


class TestChainSuccessorBits:
    def test_adds_one_new_element(self):
        for n in range(2, 12):
            for d in range(1, (n + 1) // 2):
                masks = size_masks_array(n, d)
                pos = chain_successor_bits(masks, n)
                succ = masks | (np.int64(1) << pos.astype(np.int64))
                assert np.all(masks & ~succ == 0)
                assert np.all(popcount_array(succ) == d + 1)

    def test_injective_per_size(self):
        for n in range(2, 12):
            for d in range(1, (n + 1) // 2):
                masks = size_masks_array(n, d)
                pos = chain_successor_bits(masks, n)
                succ = masks | (np.int64(1) << pos.astype(np.int64))
                assert len(np.unique(succ)) == len(succ)

    def test_majority_set_has_no_opening(self):
        with pytest.raises(MatchingFailed):
            chain_successor_bits(np.array([0b111], dtype=np.int64), 3)

    def test_known_small_values(self):
        masks = np.array([0b001, 0b010, 0b100], dtype=np.int64)
        pos = chain_successor_bits(masks, 3)
        succ = masks | (np.int64(1) << pos.astype(np.int64))
        assert list(succ) == [0b011, 0b110, 0b101]

    @settings(max_examples=200, deadline=None)
    @given(case=masks_over_n())
    @example(case=(63, [(1 << 62) - 1, (1 << 62) - 2, 1 << 62, 0]))
    @example(case=(63, [(1 << 63) - 1]))
    def test_matches_reference(self, case):
        # sparse masks mostly match; one dense mask makes the call raise
        n, masks = case
        masks = np.array(masks, dtype=np.int64)
        try:
            want = chain_successor_bits_reference(masks, n)
        except MatchingFailed:
            with pytest.raises(MatchingFailed):
                chain_successor_bits(masks, n)
            return
        got = chain_successor_bits(masks, n)
        # positions 0..62 fit int8; the reference lists them as int32
        assert got.dtype == np.int8 and np.array_equal(got, want)


@pytest.fixture
def refuse_unique(monkeypatch):
    """Make ``np.unique`` raise: since numpy 2.3 it hashes integer input,
    which on colex masks is some 75 times slower than sorting them."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique on a mask array")

    monkeypatch.setattr(np, "unique", refuse)
    # setdiff1d and isin call the name in their own module, not np.unique
    monkeypatch.setitem(np.setdiff1d.__wrapped__.__globals__, "unique", refuse)


class TestNoHashUnique:
    def test_guard_bites(self, refuse_unique):
        with pytest.raises(AssertionError):
            np.setdiff1d(np.arange(3), np.arange(2))

    def test_build_and_reject_paths(self, refuse_unique):
        d = 3
        cert = construct_c4(d)
        n = cert.universe_size
        i = int(np.flatnonzero(popcount_array(cert.bottom_masks) == d + 2)[0])
        dropped = Certificate.from_arrays(
            n, d, cert.claimed_depth,
            np.delete(cert.bottom_masks, i), np.delete(cert.top_masks, i),
        )
        tag, rank, witness = verify_certificate(dropped).first_violation
        assert (tag, rank) == ("gap-at-rank", d + 2)
        assert witness.mask == cert.bottom_masks[i]


class TestBaseConstructions:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_c2(self, d):
        cert = construct_c2(d)
        assert cert.universe_size == 2 * d + 1
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == d + 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_c3(self, d):
        cert = construct_c3(d)
        assert cert.universe_size == 3 * d + 2
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == d + 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_c4(self, d):
        cert = construct_c4(d)
        assert cert.universe_size == 4 * d + 3
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == d + 3

    def test_c2_is_bijection_on_ranks(self):
        cert = construct_c2(3)
        assert cert.num_explicit == math.comb(7, 3) == math.comb(7, 4)

    def test_c4_explicit_count(self):
        cert = construct_c4(1)
        # 7 cube intervals plus the matched leftover pairs
        assert cert.num_explicit == math.comb(7, 1) + 14

    @pytest.mark.parametrize(
        "d,witness", [(1, "{1,2,3,5}"), (2, "{1,2,3,5,6}")], ids=["1", "2"]
    )
    def test_verifier_refuses_c4_with_a_successor_not_injective(self, d, witness, monkeypatch):
        # adding each set's lowest missing point sends two leftover sets
        # to one superset; construct_c4 does not re-check the matching,
        # so the verifier reports the duplicated top as the overlap
        def lowest_missing(masks, n):
            return popcount_array(masks & ~(masks + 1)).astype(np.int32)

        monkeypatch.setattr(construct, "chain_successor_bits", lowest_missing)
        cert = construct_c4(d)
        tops = np.sort(cert.top_masks)
        duplicated = tops[1:][tops[1:] == tops[:-1]]
        tag, shared = verify_certificate(cert).first_violation
        assert tag == "overlap" and shared.mask == duplicated.min()
        assert str(shared) == witness
        with pytest.raises(AssertionError, match="does not verify"):
            construct_general(4 * d + 3, d)

    def test_bad_degree(self):
        # each builder checks its own cell (cd+c-1, d), n <= 63 included
        for builder in (construct_c2, construct_c3, construct_c4):
            with pytest.raises(BadParameters):
                builder(0)
        for builder, d in ((construct_c2, 32), (construct_c3, 21), (construct_c4, 16)):
            with pytest.raises(BadParameters, match="n <= 63"):
                builder(d)


class TestCompose:
    def test_full_ring(self):
        # the leaf (3, 0) is the one interval [empty, [3]]; lifted by the
        # point 4, as (4, 1) places it, it covers each set holding 4 once
        bottoms, tops = construct._leaf(3, 0)
        assert (bottoms.tolist(), tops.tolist()) == ([0], [0b111])
        cert = Certificate.from_arrays(4, 1, 1, bottoms | 0b1000, tops | 0b1000)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 1
        assert report.rank_coverage == {t: math.comb(3, t - 1) for t in range(1, 5)}


class TestConstructGeneral:
    def test_examples(self):
        for n, d, depth in ((7, 2, 3), ((9), 1, 4), (5, 1, 3), (11, 2, 5)):
            cert = construct_general(n, d)
            report = verify_certificate(cert)
            assert report.valid and report.achieved_depth >= depth

    def test_matches_base_cases(self):
        assert construct_general(5, 1).claimed_depth == construct_c3(1).claimed_depth

    @pytest.mark.parametrize("n", range(1, 13))
    def test_target_depth_all_small(self, n):
        for d in range(1, n + 1):
            target = d + min((n + 1) // (d + 1), 4) - 1
            cert = construct_general(n, d)
            report = verify_certificate(cert)
            assert report.valid, (n, d, report.first_violation)
            assert report.achieved_depth >= target

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            construct_general(3, 4)
        with pytest.raises(BadParameters):
            construct_general(64, 63)

    @pytest.mark.parametrize("n,d", [(21, 1), (22, 2), (21, 3)])
    def test_verifies_once(self, n, d, monkeypatch):
        calls = []

        def counting(cert):
            calls.append(cert)
            return verify_certificate(cert)

        monkeypatch.setattr(construct, "verify_certificate", counting)
        cert = construct_general(n, d)
        assert len(calls) == 1 and calls[0] is cert

    @pytest.mark.parametrize("n,d", [
        *((n, d) for n in range(1, 17) for d in range(1, n + 1)),
        (22, 6), (23, 8), (24, 9),
    ])
    def test_layout_matches_reference(self, n, d):
        cert = construct_general(n, d)
        bottoms, tops = compose_reference(n, d)
        assert np.array_equal(cert.bottom_masks, bottoms)
        assert np.array_equal(cert.top_masks, tops)

    @pytest.mark.parametrize("n,d", [(21, 3), (24, 9)])
    def test_layout_needs_no_sort(self, n, d, monkeypatch):
        # the leaves are placed in (bottom, top) order, so from_arrays
        # keeps the spliced arrays as they are
        def refuse(*args, **kwargs):
            raise AssertionError("np.lexsort on the spliced layout")

        monkeypatch.setattr(np, "lexsort", refuse)
        assert construct_general(n, d).num_explicit > 0

    def test_build_peak_before_verifying(self, monkeypatch):
        # the build writes each interval once: it holds the result and
        # one array of lifts, not a certificate per composed cell
        peaks = []

        def checking(cert):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            return verify_certificate(cert)

        monkeypatch.setattr(construct, "verify_certificate", checking)
        plan(23, 8)  # fill plan's table before tracing
        tracemalloc.start()
        try:
            cert = construct_general(23, 8)
        finally:
            tracemalloc.stop()
        final = cert.bottom_masks.nbytes + cert.top_masks.nbytes
        assert peaks[0] <= 2 * final, f"peak {peaks[0] / final:.2f}x the certificate"

    def test_invalid_base_is_internal_error(self, monkeypatch):
        # (6,1) composes c3(1); its missing interval leaves a gap in the result
        def dropped(d):
            cert = construct_c3(d)
            return Certificate.from_arrays(
                cert.universe_size, d, cert.claimed_depth,
                cert.bottom_masks[1:], cert.top_masks[1:],
            )

        monkeypatch.setitem(construct._BASE_BUILDERS, 3, dropped)
        with pytest.raises(AssertionError, match="gap-at-rank"):
            construct_general(6, 1)


def closed_form_lower(n, d):
    """The paper's certified bound: d + min(floor((n+1)/(d+1)), 4) - 1,
    and never below d."""
    return max(d, d + min((n + 1) // (d + 1), 4) - 1)


class TestPlan:
    def test_depth_is_closed_form(self):
        for n in range(1, 64):
            for d in range(1, n + 1):
                assert plan(n, d).depth == closed_form_lower(n, d), (n, d)
                assert bounds(n, d).lower_certified == plan(n, d).depth

    @pytest.mark.parametrize("n", range(1, 15))
    def test_construct_claims_lower_bound(self, n):
        for d in range(1, n + 1):
            assert construct_general(n, d).claimed_depth == bounds(n, d).lower_certified

    @pytest.mark.parametrize("n,d", [
        (3, 1), (5, 1), (7, 1), (11, 2), (9, 2), (11, 3), (13, 4), (14, 5),
    ])
    def test_members_match_certificate(self, n, d):
        # c2, c3 and c4 bases, then compositions over each
        cert = construct_general(n, d)
        dims = popcount_array(cert.top_masks & ~cert.bottom_masks)
        assert plan(n, d).members == sum(1 << int(k) for k in dims.tolist())

    def test_limit(self):
        # the one binding of the limit is the verifier's
        assert plan(26, 1).members <= intervals.MAX_MEMBERS
        for n, d in ((40, 3), (63, 2), (63, 7), (63, 31)):
            assert plan(n, d).members > intervals.MAX_MEMBERS

    def test_follows_the_verifiers_limit(self, monkeypatch):
        members = plan(9, 2).members
        monkeypatch.setattr(intervals, "MAX_MEMBERS", members)
        assert verify_certificate(construct_general(9, 2)).valid
        monkeypatch.setattr(intervals, "MAX_MEMBERS", members - 1)
        with pytest.raises(BadParameters, match="above the limit"):
            construct_general(9, 2)

    def test_oversized_refused_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("a certificate was built")

        monkeypatch.setattr(construct, "_leaf", build)
        for c in (2, 3, 4):
            monkeypatch.setitem(construct._BASE_BUILDERS, c, build)
        plan.cache_clear()
        start = time.perf_counter()
        with pytest.raises(BadParameters, match="above the limit"):
            construct_general(63, 31)
        assert time.perf_counter() - start < 1.0


class TestBounds:
    def test_examples(self):
        b = bounds(11, 3)
        assert (b.lower_certified, b.upper, b.known_exact) == (5, 5, 5)
        b = bounds(24, 4)
        assert (b.lower_certified, b.upper, b.known_exact) == (7, 8, None)
        assert b.conjectured == 8
        b = bounds(4, 2)
        assert (b.lower_certified, b.upper, b.known_exact) == (2, 2, 2)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_degree_one_halving(self, n):
        b = bounds(n, 1)
        assert b.known_exact == (n + 1) // 2

    def test_ordering_invariants(self):
        for n in range(1, 41):
            for d in range(1, n + 1):
                b = bounds(n, d)
                assert d <= b.lower_certified <= b.upper
                if b.known_exact is not None:
                    assert b.lower_certified <= b.known_exact <= b.upper

    def test_known_exact_count(self):
        # n < 5d+4 or d = 1; d >= ceil(n/2) adds no cell, as n < 5d+4 there
        cells = [(n, d) for n in range(1, 64) for d in range(1, n + 1)]
        assert len(cells) == 2016
        assert sum(bounds(n, d).known_exact is not None for n, d in cells) == 1741

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            bounds(2, 3)
        with pytest.raises(BadParameters):
            bounds(64, 3)

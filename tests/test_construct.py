import itertools

import numpy as np
import pytest

from vsdepth import construct
from vsdepth.blocks import Density, f_delta
from vsdepth.construct import (
    _uncovered_masks,
    _veronese_arrays,
    bounds,
    chain_successor_bits,
    compose_plus1,
    construct_c2,
    construct_c3,
    construct_c4,
    construct_general,
    full_ring_certificate,
    has_covered_superset,
)
from vsdepth.errors import (
    BadParameters,
    DepthMismatch,
    MatchingFailed,
    UniverseMismatch,
)
from vsdepth.intervals import Certificate, Interval, covers, verify_certificate
from vsdepth.setcore import (
    PointSet,
    binomial,
    format_masks,
    make_set,
    popcount_array,
    size_masks_array,
)


def veronese_literals(n, d, c):
    """The intervals [A, f_c(A)] as literal pairs, colex order of A."""
    return list(zip(*map(format_masks, _veronese_arrays(n, d, c))))


def uncovered(n, d, c, t):
    """The t-sets covered by no interval [A, f_c(A)]."""
    return _uncovered_masks(n, *_veronese_arrays(n, d, c), [t])[0]


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
        assert np.all(popcount_array(_veronese_arrays(7, 1, 4)[1]) == 4)

    def test_counting_identity(self):
        # (c-1) C(n,d) = C(n,d+1) whenever n = cd+c-1
        for c in (2, 3, 4):
            for d in range(1, 13):
                n = c * d + c - 1
                if n > 63:
                    break
                assert (c - 1) * binomial(n, d) == binomial(n, d + 1)

    def test_rank_dplus1_tiled(self):
        # each (d+1)-set inside exactly one interval
        for c, d in ((2, 2), (3, 2), (4, 2)):
            n = c * d + c - 1
            bottoms, tops = _veronese_arrays(n, d, c)
            hits = {}
            for bottom, top in zip(bottoms.tolist(), tops.tolist()):
                free = top & ~bottom
                for bit in range(n):
                    if (free >> bit) & 1:
                        m = bottom | (1 << bit)
                        hits[m] = hits.get(m, 0) + 1
            assert len(hits) == binomial(n, d + 1)
            assert set(hits.values()) == {1}


class TestUncovered:
    def test_n5_rank3(self):
        got = format_masks(uncovered(5, 1, 3, 3))
        assert got == ["{1,2,4}", "{1,3,4}", "{1,3,5}", "{2,3,5}", "{2,4,5}"]

    def test_n5_rank2_empty(self):
        assert len(uncovered(5, 1, 3, 2)) == 0

    def test_n7_counts(self):
        got = _uncovered_masks(7, *_veronese_arrays(7, 1, 4), [3, 4])
        assert [len(masks) for masks in got] == [14, 28]

    def test_against_definition(self):
        # covered iff A subset of D subset of f_c(A) for some d-set A
        for c, d in ((3, 1), (4, 1), (3, 2)):
            n = c * d + c - 1
            bottoms, tops = _veronese_arrays(n, d, c)
            ranks = range(d + 1, d + c)
            for t, got in zip(ranks, _uncovered_masks(n, bottoms, tops, ranks)):
                expected = []
                for members in itertools.combinations(range(1, n + 1), t):
                    D = make_set(n, members).mask
                    if not np.any((bottoms & ~D == 0) & (D & ~tops == 0)):
                        expected.append(D)
                assert got.tolist() == sorted(expected)


class TestHasCoveredSuperset:
    def test_covered_triple_via_top(self):
        assert has_covered_superset(make_set(7, [1, 2, 3]), 7, 1, 4)

    def test_covered_pair(self):
        assert has_covered_superset(make_set(5, [1, 5]), 5, 1, 3)

    def test_uncovered_triples_have_none(self):
        # uncovered top-rank sets have no room for a covered superset
        for m in uncovered(5, 1, 3, 3).tolist():
            assert not has_covered_superset(PointSet(5, m), 5, 1, 3)

    def test_against_definition(self):
        # some S with D <= S lies in some [A, f_c(A)], tops from scalar f_delta
        for c, d in ((3, 1), (4, 1), (3, 2)):
            n = c * d + c - 1
            bottoms = [
                make_set(n, members)
                for members in itertools.combinations(range(1, n + 1), d)
            ]
            ivs = [Interval(A, f_delta(n, A, Density(c, 1))) for A in bottoms]
            for t in range(d + 1, d + c):
                for members in itertools.combinations(range(1, n + 1), t):
                    D = make_set(n, members)
                    rest = [i for i in range(n) if not D.mask >> i & 1]
                    expected = any(
                        covers(iv, PointSet(n, D.mask | sum(1 << i for i in extra)))
                        for size in range(len(rest) + 1)
                        for extra in itertools.combinations(rest, size)
                        for iv in ivs
                    )
                    assert has_covered_superset(D, n, d, c) == expected, (c, d, D)

    def test_argument_checks(self):
        with pytest.raises(BadParameters):
            has_covered_superset(make_set(5, [1]), 5, 1, 3)
        with pytest.raises(UniverseMismatch):
            has_covered_superset(make_set(6, [1, 2]), 5, 1, 3)
        with pytest.raises(BadParameters):
            has_covered_superset(make_set(6, [1, 2]), 6, 1, 3)


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
        assert cert.num_explicit == binomial(7, 3) == binomial(7, 4)

    def test_c4_explicit_count(self):
        cert = construct_c4(1)
        # 7 cube intervals plus the matched leftover pairs
        assert cert.num_explicit == binomial(7, 1) + 14

    def test_bad_degree(self):
        for builder in (construct_c2, construct_c3, construct_c4):
            with pytest.raises(BadParameters):
                builder(0)


class TestCompose:
    def test_full_ring(self):
        cert = full_ring_certificate(3)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 3

    def test_three_zero_plus_three_one(self):
        composed = compose_plus1(full_ring_certificate(3, 2), construct_c2(1))
        assert composed.universe_size == 4
        assert composed.min_generator_size == 1
        report = verify_certificate(composed)
        assert report.valid and report.achieved_depth == 2
        pairs = set(zip(format_masks(composed.bottom_masks),
                        format_masks(composed.top_masks)))
        assert ("{4}", "{1,2,3,4}") in pairs

    # compose_plus1 only splices; a defect in an input shows in the result
    def test_duplicated_p2_interval_overlaps(self):
        p2 = construct_c2(1)
        p2 = Certificate.from_arrays(
            3, 1, 2,
            np.append(p2.bottom_masks, p2.bottom_masks[0]),
            np.append(p2.top_masks, p2.top_masks[0]),
        )
        report = verify_certificate(compose_plus1(full_ring_certificate(3, 2), p2))
        assert not report.valid and report.first_violation[0] == "overlap"

    def test_overlapping_p1_overlaps(self):
        # [{}, [3]] and [{1}, [3]] share every set containing 1
        p1 = Certificate.from_arrays(
            3, 0, 2,
            np.array([0b000, 0b001], dtype=np.int64),
            np.array([0b111, 0b111], dtype=np.int64),
        )
        report = verify_certificate(compose_plus1(p1, construct_c2(1)))
        assert not report.valid and report.first_violation[0] == "overlap"

    def test_depth_precondition(self):
        # p1 one short of p2's depth is required, deeper p2 must fail
        shallow = full_ring_certificate(5, 1)
        with pytest.raises(DepthMismatch):
            compose_plus1(shallow, construct_c3(1))


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

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            bounds(2, 3)
        with pytest.raises(BadParameters):
            bounds(64, 3)

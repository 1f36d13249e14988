import dataclasses
import functools
import hashlib
import io
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsdepth import intervals, setcore
from vsdepth.construct import (
    construct_c2,
    construct_c3,
    construct_c4,
    construct_general,
)
from vsdepth.errors import (
    BadParameters,
    CertificateFormatError,
    ElementOutOfRange,
    RefusesUnverified,
)
from vsdepth.intervals import (
    Certificate,
    format_certificate,
    parse_certificate,
    read_certificate,
    render_stanley,
    verify_certificate,
    write_certificate,
)
from vsdepth.construct import plan
from vsdepth.intervals import interval_members, member_word
from vsdepth.setcore import PointSet, make_set

from oracles import (
    gap_witness_reference,
    interval_members_naive,
    interval_members_reference,
    intervals_share_member,
    parse_certificate_reference,
    set_literal_naive,
    verify_reference,
)


def cert_of(n, d, k, intervals):
    """Certificate from (bottom members, top members) pairs."""
    return Certificate.from_arrays(
        n, d, k,
        [make_set(n, b).mask for b, _ in intervals],
        [make_set(n, t).mask for _, t in intervals],
    )


def c2_like_certificate():
    return cert_of(3, 1, 2, [([3], [1, 3]), ([1], [1, 2]), ([2], [2, 3])])


@st.composite
def raw_certificates(draw):
    """(n, d, k, intervals) with n, d and k in and around 1 <= d <= k <=
    n <= 63, and up to six intervals whose ends are masks of [n], most
    often, or such masks with a point past n or the sign bit added, or
    any int64."""
    n = draw(st.integers(0, 64))
    d = draw(st.integers(0, n + 1))
    k = draw(st.integers(d - 1, n + 1))
    width = min(n, 63)
    inside = st.integers(0, (1 << width) - 1)
    end = st.one_of(
        inside, inside, inside,
        st.builds(lambda m, p: m | 1 << p, inside, st.integers(min(width, 62), 62)),
        st.builds(lambda m: m - (1 << 63), inside),
        st.integers(-(1 << 63), (1 << 63) - 1),
    )
    return n, d, k, draw(st.lists(st.tuples(end, end), max_size=6))


class TestNewCertificate:
    def test_c2_shape(self):
        cert = c2_like_certificate()
        assert cert.num_explicit == 3
        # from_arrays orders the intervals by bottom
        assert cert.bottom_masks.tolist() == [0b001, 0b010, 0b100]
        assert cert.top_masks.tolist() == [0b011, 0b110, 0b101]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12))
    def test_order_matches_lexsort(self, pairs):
        # ties and negative values included: the skip must agree with the sort
        bottoms = np.array([b for b, _ in pairs], dtype=np.int64)
        tops = np.array([t for _, t in pairs], dtype=np.int64)
        got_bottoms, got_tops = intervals._ordered(bottoms, tops)
        order = np.lexsort((tops, bottoms))
        assert got_bottoms.tolist() == bottoms[order].tolist()
        assert got_tops.tolist() == tops[order].tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12),
           st.integers(1, 4))
    def test_order_across_slices(self, pairs, size):
        # neighbours are compared a slice at a time, with the slices
        # overlapping by one interval, so a fall at any boundary is seen
        bottoms = np.array([b for b, _ in pairs], dtype=np.int64)
        tops = np.array([t for _, t in pairs], dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(setcore, "_SLICE", size)
            got_bottoms, got_tops = intervals._ordered(bottoms, tops)
        order = np.lexsort((tops, bottoms))
        assert got_bottoms.tolist() == bottoms[order].tolist()
        assert got_tops.tolist() == tops[order].tolist()
        assert (got_bottoms is bottoms) == bool(np.all(order == np.arange(len(order))))

    def test_ordered_arrays_cost_a_few_slices(self, monkeypatch):
        # the checks of construction run slice by slice: with slices of
        # 2^12, c2(10)'s 352,716 intervals are checked in 2.2 int64
        # slices (71 KB) beside their 5.6 MB of masks; a full-length bool
        # array of neighbour comparisons alone would take 353 KB
        cert = construct_c2(10)
        bottoms, tops = cert.bottom_masks.copy(), cert.top_masks.copy()
        monkeypatch.setattr(setcore, "_SLICE", 1 << 12)
        tracemalloc.start()
        try:
            again = Certificate(21, 10, 11, bottoms, tops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again.bottom_masks is bottoms and again.top_masks is tops
        assert peak <= 4 * 8 * setcore._SLICE

    def test_ordered_input_is_not_sorted(self, monkeypatch):
        text = format_certificate(construct_c4(2))

        def refuse(*args, **kwargs):
            raise AssertionError("np.lexsort on ordered intervals")

        monkeypatch.setattr(np, "lexsort", refuse)
        for cert in (construct_c2(3), construct_c3(2), construct_c4(2),
                     construct_c4(1), construct_c4(3), construct_c4(4),
                     construct_c4(5), parse_certificate(text)):
            assert format_certificate(cert).count(b"\n") == cert.num_explicit + 3

    @pytest.mark.parametrize("n, d, k", [(3, 5, 6), (3, 2, 1), (0, 0, 0), (64, 1, 2),
                                         (3, 0, 3), (3, 0, 0)])
    def test_impossible_parameters_refused(self, n, d, k):
        # d above n, k below d, an empty universe, a universe past 63, and
        # d = 0, which the full ring's interval [empty, [n]] would need: a
        # construction leaf, not a certificate
        for make in (Certificate, Certificate.from_arrays):
            with pytest.raises(BadParameters, match=r"1 <= d <= k <= n <= 63"):
                make(n, d, k, [], [])

    @pytest.mark.parametrize("bottoms, tops", [
        ([1, 2, 4], [3, 6]), ([[1, 2]], [[3, 6]]), ([1, 2, 4], [3, 6, 5, 7]),
    ])
    def test_unequal_or_nested_arrays_refused(self, bottoms, tops):
        # refused before the verifier could broadcast one against the other
        shapes = f"got shapes {np.shape(bottoms)} and {np.shape(tops)}"
        with pytest.raises(BadParameters, match=re.escape(shapes)):
            Certificate.from_arrays(5, 1, 2, bottoms, tops)

    def test_compares_by_value(self):
        cert = construct_c2(2)
        dropped = Certificate.from_arrays(5, 2, 3, cert.bottom_masks[1:], cert.top_masks[1:])
        other_k = Certificate.from_arrays(5, 2, 2, cert.bottom_masks, cert.top_masks)
        assert cert == construct_c2(2)
        assert cert != dropped and dropped != cert
        assert cert != other_k

    def test_order_free_frozen_and_unhashable(self):
        cert = construct_c2(2)
        order = np.random.default_rng(5).permutation(cert.num_explicit)
        shuffled = Certificate(5, 2, 3, cert.bottom_masks[order], cert.top_masks[order])
        assert shuffled == cert and shuffled.bottom_masks is not cert.bottom_masks
        with pytest.raises(TypeError, match="unhashable"):
            hash(cert)
        for name, value in (("claimed_depth", 4), ("bottom_masks", cert.top_masks)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, name, value)
        assert cert.claimed_depth == 3 and cert == shuffled

    @settings(max_examples=300, deadline=None)
    @given(raw=raw_certificates())
    def test_construction_refuses_exactly_the_ill_formed(self, raw):
        # what construction accepts, a file states: it reads back equal
        n, d, k, pairs = raw
        bottoms, tops = [b for b, _ in pairs], [t for _, t in pairs]
        if not 1 <= d <= k <= n <= 63:
            with pytest.raises(BadParameters):
                Certificate(n, d, k, bottoms, tops)
        elif any((b | t) >> n for b, t in pairs):
            with pytest.raises(ElementOutOfRange):
                Certificate(n, d, k, bottoms, tops)
        else:
            cert = Certificate(n, d, k, bottoms, tops)
            assert parse_certificate(format_certificate(cert)) == cert


class TestVerify:
    def test_c2_certificate_valid(self):
        report = verify_certificate(c2_like_certificate())
        assert report.valid and report.achieved_depth == 2

    def test_c3_certificate_valid_with_coverage(self):
        cert = construct_c3(1)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 3
        assert report.rank_coverage[2] == 10 == math.comb(5, 2)
        # every rank d..n is counted, not only d..k-1
        assert report.rank_coverage == {1: 5, 2: 10, 3: 5, 4: 0, 5: 0}

    def test_missing_interval_reports_gap(self):
        cert = cert_of(3, 1, 2, [([1], [1, 2]), ([2], [2, 3])])
        report = verify_certificate(cert)
        assert not report.valid
        tag, rank, witness = report.first_violation
        assert tag == "gap-at-rank" and rank == 1 and witness.members() == (3,)

    def test_overlap_detected(self):
        cert = cert_of(3, 1, 2, [([1], [1, 2]), ([2], [1, 2, 3]), ([3], [1, 3])])
        report = verify_certificate(cert)
        assert not report.valid and report.first_violation[0] == "overlap"

    @staticmethod
    def pair_verdict(n, b1, t1, b2, t2):
        """The verifier's violation tag for two intervals over [n], or
        None: both get the point n+1 and are checked over [n+1] at
        d = k = 1, where only an overlap can be reported, and they meet
        iff they met without it."""
        p = 1 << n
        report = verify_certificate(
            Certificate.from_arrays(n + 1, 1, 1, [b1 | p, b2 | p], [t1 | p, t2 | p]))
        return None if report.valid else report.first_violation[0]

    def test_overlap_matches_exhaustive_small(self):
        n = 4
        pairs = [(b, t) for b in range(1 << n) for t in range(1 << n) if b & ~t == 0]
        for (b1, t1), (b2, t2) in itertools.combinations(pairs[:60], 2):
            want = "overlap" if intervals_share_member(n, b1, t1, b2, t2) else None
            assert self.pair_verdict(n, b1, t1, b2, t2) == want

    def test_overlap_matches_exhaustive_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 10)
            t1, t2 = rng.getrandbits(n), rng.getrandbits(n)
            b1, b2 = t1 & rng.getrandbits(n), t2 & rng.getrandbits(n)
            want = "overlap" if intervals_share_member(n, b1, t1, b2, t2) else None
            assert self.pair_verdict(n, b1, t1, b2, t2) == want

    def test_insensitive_to_interval_order(self):
        base = [([1], [1, 2]), ([2], [2, 3]), ([3], [1, 3])]
        reports = [
            verify_certificate(cert_of(3, 1, 2, list(perm)))
            for perm in itertools.permutations(base)
        ]
        assert all(r.valid and r.achieved_depth == 2 for r in reports)

    def test_claimed_depth_above_tops_fails(self):
        cert = Certificate.from_arrays(
            3, 1, 3,
            np.array([0b001, 0b010, 0b100], dtype=np.int64),
            np.array([0b011, 0b110, 0b101], dtype=np.int64),
        )
        report = verify_certificate(cert)
        assert not report.valid and report.first_violation[0] == "top-too-small"

    def test_coverage_accounting_identity(self):
        # sum of per-rank cube slices over ranks d..k-1 equals the rank sizes
        for cert in (construct_c2(2), construct_c3(2)):
            n = cert.universe_size
            d, k = cert.min_generator_size, cert.claimed_depth
            report = verify_certificate(cert)
            assert report.valid
            total = sum(report.rank_coverage[t] for t in range(d, k))
            assert total == sum(math.comb(n, t) for t in range(d, k))

    def test_single_high_dimensional_interval(self):
        # one interval of dimension 17, [{18}, [18]], alone and with a
        # second one inside it
        point, full = 1 << 17, (1 << 18) - 1
        cert = Certificate.from_arrays(18, 1, 1, [point], [full])
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 1
        assert report.rank_coverage[9] == math.comb(17, 8)
        overlapping = Certificate.from_arrays(18, 1, 1, [point, point | 0b1], [full, full])
        report = verify_certificate(overlapping)
        assert not report.valid
        tag, witness = report.first_violation
        assert tag == "overlap" and witness.members() == (1, 18)

    def test_empty_certificate_high_rank_gap(self):
        # the missing 39-set is found without building the middle ranks of [40]
        empty = np.empty(0, dtype=np.int64)
        cert = Certificate.from_arrays(40, 39, 40, empty, empty)
        report = verify_certificate(cert)
        assert not report.valid
        tag, rank, witness = report.first_violation
        assert (tag, rank, witness.mask) == gap_witness_reference(cert)
        assert witness.members() == tuple(range(1, 40))

    @staticmethod
    def rank_gap_cert(n, d, one_interval):
        """(n, d, d+1) with the interval [{1..d}, {1..d+1}], or with none:
        rank d is short either way."""
        bottoms = [(1 << d) - 1] if one_interval else []
        tops = [(1 << d + 1) - 1] if one_interval else []
        return Certificate.from_arrays(n, d, d + 1, bottoms, tops)

    @pytest.mark.parametrize("n, d", [(8, 4), (12, 6), (13, 3)])
    @pytest.mark.parametrize("one_interval", [True, False])
    def test_rank_gap_witness_matches_reference(self, n, d, one_interval):
        cert = self.rank_gap_cert(n, d, one_interval)
        tag, rank, witness = verify_certificate(cert).first_violation
        assert (tag, rank, witness.mask) == gap_witness_reference(cert)

    @staticmethod
    def edges_at_63(dropped=()):
        """(63, 1, 2) with the cube [{1}, {1..20}] and the edges
        [{i}, {i,i+1}], i = 2..62, less those at ``dropped``."""
        edges = [i for i in range(2, 63) if i not in dropped]
        bottoms = [1] + [1 << i - 1 for i in edges]
        tops = [(1 << 20) - 1] + [3 << i - 1 for i in edges]
        return Certificate.from_arrays(63, 1, 2, bottoms, tops)

    @pytest.mark.parametrize("cert, rank, witness", [
        # rank 20 of [40] has C(40, 20) ~ 1.4e11 sets, too many to list;
        # [{1..20}, {1..21}] covers {1..20}, and {1..19,21} comes next
        (rank_gap_cert(40, 20, False), 20, tuple(range(1, 21))),
        (rank_gap_cert(40, 20, True), 20, tuple(range(1, 20)) + (21,)),
        # C(63, 31) ~ 9.2e17 sets at the short rank, counted exactly
        (Certificate.from_arrays(63, 62, 63, [], []), 62, tuple(range(1, 63))),
        (Certificate.from_arrays(63, 31, 32, [], []), 31, tuple(range(1, 32))),
        (edges_at_63(), 1, (63,)),
        (edges_at_63(dropped=(40,)), 1, (40,)),
    ])
    def test_rank_gap_witness_of_a_wide_rank(self, cert, rank, witness):
        tag, got_rank, missing = verify_certificate(cert).first_violation
        assert (tag, got_rank, missing.members()) == ("gap-at-rank", rank, witness)

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.sampled_from(
            [(construct_c2, d, False) for d in range(1, 5)]
            + [(construct_c3, d, False) for d in range(1, 4)]
            + [(construct_c4, d, False) for d in range(1, 3)]
            + [(functools.partial(construct_general, n), d, True)
               for n, d in [(9, 1), (10, 2), (14, 2)]]
        ),
        data=st.data(),
    )
    def test_dropped_intervals_gap_witness(self, base, data):
        # the least missing set is the one a plain set difference finds,
        # through composed certificates' cubes (2^dim > N members) too
        builder, d, composed = base
        cert = builder(d)
        dims = setcore.popcount_array(cert.top_masks & ~cert.bottom_masks)
        assert bool(np.any(dims >= cert.num_explicit.bit_length())) == composed
        # only intervals with a set below rank k leave a gap when dropped
        low = setcore.popcount_array(cert.bottom_masks) < cert.claimed_depth
        drop = data.draw(st.sets(
            st.sampled_from(np.flatnonzero(low).tolist()), min_size=1, max_size=3
        ))
        drop = sorted(drop)
        mutant = Certificate.from_arrays(
            cert.universe_size, d, cert.claimed_depth,
            np.delete(cert.bottom_masks, drop), np.delete(cert.top_masks, drop),
        )
        report = verify_certificate(mutant)
        assert not report.valid
        tag, rank, witness = report.first_violation
        assert (tag, rank, witness.mask) == gap_witness_reference(mutant)

    @pytest.mark.parametrize("bottoms, tops, bad", [
        ([0b001, 0b100], [0b011, 0b110], 0b100),  # {3} fills the count of {2}
        ([0b01, 0b10], [0b101, 0b11], 0b101),
        ([0b01, 0b10], [0b11, -(1 << 63) | 0b10], -(1 << 63) | 0b10),
    ])
    def test_members_outside_universe(self, bottoms, tops, bad):
        # refused where the certificate is made, naming the interval
        with pytest.raises(ElementOutOfRange, match=r"has members outside 1\.\.2") as refused:
            Certificate.from_arrays(2, 1, 2, bottoms, tops)
        assert f"[{bad}, " in str(refused.value) or f", {bad}]" in str(refused.value)

    def test_trivial_only_certificate(self):
        empty = np.empty(0, dtype=np.int64)
        cert = Certificate.from_arrays(4, 2, 2, empty, empty)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 2

    def test_empty_certificate_takes_the_general_path(self):
        # an invalid verdict names no depth, as every other one does
        report = verify_certificate(Certificate.from_arrays(5, 1, 2, [], []))
        assert not report.valid and report.achieved_depth is None
        assert report.first_violation == ("gap-at-rank", 1, PointSet(5, 1))
        report = verify_certificate(Certificate.from_arrays(5, 2, 2, [], []))
        assert report.valid and report.achieved_depth == 2
        assert report.rank_coverage == {t: 0 for t in range(2, 6)}

    def test_big_cube_refused_before_enumerating(self):
        # [{1}, [40]] has 2^39 members, 4 TiB as int64
        cert = Certificate.from_arrays(40, 1, 2, [1], [(1 << 40) - 1])
        with pytest.raises(BadParameters, match="above the limit"):
            verify_certificate(cert)

    def test_member_limit_is_inclusive(self, monkeypatch):
        # 4 + 2 + 1 members: refused only once the limit is below that
        cert = Certificate.from_arrays(3, 1, 1, [1, 2, 4], [7, 6, 4])
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 7)
        assert verify_certificate(cert).valid
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 6)
        with pytest.raises(BadParameters):
            verify_certificate(cert)

    def test_cheap_verdicts_come_before_the_limit(self):
        # a top below k is reported without counting members
        cert = Certificate.from_arrays(40, 1, 40, [1], [(1 << 39) - 1])
        report = verify_certificate(cert)
        assert report.first_violation[0] == "top-too-small"

    def test_sizes_are_read_off_the_shapes(self, monkeypatch):
        # a valid certificate's ends are popcounted by _shapes (|b| and
        # dim) and _narrow_parts (dim) alone: no pass for the size checks
        cert = construct_c2(5)
        counted = []

        def counting(masks):
            counted.append(len(masks))
            return setcore.popcount_array(masks)

        monkeypatch.setattr(intervals, "popcount_array", counting)
        assert verify_certificate(cert).valid
        assert cert.num_explicit == 462
        assert sum(counted) <= 3 * cert.num_explicit


def sliced_mutants(cert, rng):
    """``cert`` and its mutants: one interval dropped, one duplicated, a
    bit of one top flipped, a bit of one bottom flipped, and the depth
    claimed one higher.  Where that depth is past n, and for a top given
    the member n+1, construction refuses the mutant instead."""
    n, d, k = cert.universe_size, cert.min_generator_size, cert.claimed_depth
    bottoms, tops = cert.bottom_masks, cert.top_masks
    out = [cert]
    if k < n:
        out.append(Certificate(n, d, k + 1, bottoms, tops))
    else:
        with pytest.raises(BadParameters):
            Certificate(n, d, k + 1, bottoms, tops)
    if cert.num_explicit:
        i, bit = rng.randrange(cert.num_explicit), np.int64(1 << rng.randrange(n))
        flip_top, flip_bottom, outside = tops.copy(), bottoms.copy(), tops.copy()
        flip_top[i] ^= bit
        flip_bottom[i] ^= bit
        outside[i] |= np.int64(1 << n)
        with pytest.raises(ElementOutOfRange):
            Certificate(n, d, k, bottoms, outside)
        out += [
            Certificate(n, d, k, np.delete(bottoms, i), np.delete(tops, i)),
            Certificate(n, d, k, np.insert(bottoms, i, bottoms[i]),
                        np.insert(tops, i, tops[i])),
            Certificate(n, d, k, bottoms, flip_top),
            Certificate(n, d, k, flip_bottom, tops),
        ]
    return out


@pytest.fixture
def small_slices(monkeypatch):
    """Slices of 8, so that every sliced step crosses slice boundaries."""
    monkeypatch.setattr(setcore, "_SLICE", 8)


def listed_members(bottoms, tops, n):
    """Every member of every interval, as the verifier lists them: a
    part of ``_narrow_parts`` at a time, through ``interval_members``,
    in the word of [n]; sorted."""
    parts = [np.empty(0, dtype=member_word(n))]
    for k, part_bottoms, part_tops in intervals._narrow_parts(bottoms, tops,
                                                              intervals._RANKS):
        out = np.empty((1 << k, len(part_bottoms)), dtype=member_word(n))
        interval_members(part_bottoms, part_tops, out)
        parts.append(out.reshape(-1))
    return np.sort(np.concatenate(parts))


def same_members(got, want):
    """True iff the sorted unsigned ``got`` and the int64 ``want`` list
    the same members, each as often."""
    return np.array_equal(got.astype(np.int64), np.sort(want))


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
        # groups of (dimension, interval count), one kernel call each;
        # high dimensions keep few intervals so the naive oracle stays quick
        rng = random.Random(seed)
        for dim, count in groups:
            pairs = []
            for _ in range(min(count, max(1, (1 << 16) >> dim))):
                bits = rng.sample(range(63), dim + rng.randint(0, 63 - dim))
                bottom = sum(1 << i for i in bits[dim:])
                pairs.append((bottom, bottom | sum(1 << i for i in bits[:dim])))
            bottoms = np.array([b for b, _ in pairs], dtype=np.int64)
            tops = np.array([t for _, t in pairs], dtype=np.int64)
            out = np.empty((1 << dim, len(pairs)), dtype=member_word(63))
            assert out.dtype == np.uint64  # the word that holds [63]
            interval_members(bottoms, tops, out)
            # column i lists interval i's members
            for i, (b, t) in enumerate(pairs):
                assert same_members(np.sort(out[:, i]), interval_members_naive([b], [t]))


class TestSlicedAgainstReference:
    CELLS = [(n, d) for n in range(1, 13) for d in range(1, n + 1)]

    def test_members_identical(self, small_slices):
        for n, d in self.CELLS:
            cert = construct_general(n, d)
            for mutant in sliced_mutants(cert, random.Random(n * 64 + d)):
                # the ends of every mutant lie in [n+1]
                got = listed_members(mutant.bottom_masks, mutant.top_masks, n + 1)
                want = interval_members_reference(mutant.bottom_masks, mutant.top_masks)
                assert same_members(got, want)

    @pytest.mark.parametrize("cell", [(21, 1), (22, 2), (21, 3)])
    def test_members_identical_at_full_slices(self, cell):
        cert = construct_general(*cell)
        got = listed_members(cert.bottom_masks, cert.top_masks, cell[0])
        assert same_members(got, interval_members_reference(cert.bottom_masks,
                                                            cert.top_masks))

    def test_reports_identical(self, small_slices):
        tags = set()
        for n, d in self.CELLS:
            cert = construct_general(n, d)
            for mutant in sliced_mutants(cert, random.Random(n * 64 + d)):
                report = verify_certificate(mutant)
                assert report == verify_reference(mutant)
                tags.add(report.first_violation and report.first_violation[0])
        assert tags == {None, "bottom-not-in-top",
                        "bottom-too-small", "top-too-small", "overlap", "gap-at-rank"}

    def test_overlap_scan_traces_below_the_member_list(self):
        # c2(11) lists 2.7M members of [23], 10.32 MiB as uint32: sorting
        # that list (_sorted_shared) traces 10.82 MiB here, and marking the
        # members in a 2^23-bit set of 1 MiB, a part of 2^15 at a time
        # (_marked_shared, which the size rule picks), 2.5 MiB
        cert = construct_c2(11)
        listed = plan(23, 11).members
        tracemalloc.start()
        try:
            assert verify_certificate(cert).valid
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * listed / 3


def shared_mutants(cert, rng):
    """Raw (bottoms, tops) of ``cert`` with an overlap made three ways:
    one interval duplicated in place, one duplicated at the end, so that
    its copy falls in another part of the marked scan, and one
    interval's ends shifted up by one point, cut to [n]."""
    n = cert.universe_size
    bottoms, tops = cert.bottom_masks, cert.top_masks
    i = rng.randrange(cert.num_explicit)
    shifted_bottoms, shifted_tops = bottoms.copy(), tops.copy()
    shifted_bottoms[i] = bottoms[i] << 1 & (1 << n) - 1
    shifted_tops[i] = tops[i] << 1 & (1 << n) - 1
    return [
        (np.insert(bottoms, i, bottoms[i]), np.insert(tops, i, tops[i])),
        (np.append(bottoms, bottoms[i]), np.append(tops, tops[i])),
        (shifted_bottoms, shifted_tops),
    ]


class TestOverlapScans:
    """The least member that two intervals narrower than a cube share is
    found by sorting the full list of their members or, a part at a
    time, by marking them in a 2^n-bit set; both forms name the same
    member, whichever the size rule picks."""

    @staticmethod
    def scans(bottoms, tops, n):
        cut = len(bottoms).bit_length()
        shapes, _ = intervals._shapes(bottoms, tops)
        listed = sum(g << dim for _, dim, g in shapes if dim < cut)
        return (intervals._sorted_shared(bottoms, tops, n, cut, listed),
                intervals._marked_shared(bottoms, tops, n, cut))

    @pytest.mark.parametrize("cell", [(5, 1), (5, 2), (9, 2), (9, 3), (12, 2), (12, 3),
                                      (12, 5), (14, 2), (14, 4), (14, 6)])
    def test_forms_agree(self, cell, small_slices):
        # slices of 8 make every interval a part of its own
        n, d = cell
        cert = construct_general(n, d)
        assert self.scans(cert.bottom_masks, cert.top_masks, n) == (None, None)
        for bottoms, tops in shared_mutants(cert, random.Random(64 * n + d)):
            sorted_least, marked_least = self.scans(bottoms, tops, n)
            assert sorted_least == marked_least

    def test_forms_agree_across_parts(self):
        # c2(10) lists 705,432 members of [21] in parts of at most 2^15
        cert = construct_c2(10)
        bottoms, tops = cert.bottom_masks, cert.top_masks
        cut = cert.num_explicit.bit_length()
        assert len(list(intervals._narrow_parts(bottoms, tops, cut))) >= 3
        assert self.scans(bottoms, tops, 21) == (None, None)
        for mutant in shared_mutants(cert, random.Random(10)):
            sorted_least, marked_least = self.scans(*mutant, 21)
            assert sorted_least is not None and sorted_least == marked_least
        # the copy of the first interval is listed in the last part; the
        # least member it shares is its bottom
        sorted_least, marked_least = self.scans(
            np.append(bottoms, bottoms[0]), np.append(tops, tops[0]), 21)
        assert sorted_least == marked_least == int(bottoms[0])

    def test_forms_agree_among_cubes(self):
        # (22, 2) lists 11,550 members; the rest are cubes, met by count
        cert = construct_general(22, 2)
        assert self.scans(cert.bottom_masks, cert.top_masks, 22) == (None, None)
        for bottoms, tops in shared_mutants(cert, random.Random(22)):
            sorted_least, marked_least = self.scans(bottoms, tops, 22)
            assert sorted_least == marked_least

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 24])
    def test_forms_agree_in_every_word(self, n):
        # the least shared set {1, n} has the top bit of the word at n = 8
        # and 16; a set of 2^n bits past 24 would outgrow a test
        certs = word_certificates(n)
        assert self.scans(certs["valid"].bottom_masks, certs["valid"].top_masks, n) \
            == (None, None)
        overlap = certs["overlap"]
        assert self.scans(overlap.bottom_masks, overlap.top_masks, n) \
            == (1 | 1 << n - 1,) * 2

    @pytest.mark.parametrize("build, d", [(construct_c2, 9), (construct_c4, 5)])
    def test_sorted_scan_traces_within_twice_its_list(self, build, d):
        # the list is sized from the shapes and filled a part at a time,
        # beside which each part allocates O(_SLICE): c2(9) lists 184,756
        # members of [19] and traces 1.63 times their 0.70 MiB, c4(5)
        # 557,612 of [23] and 1.44 times their 2.13 MiB
        cert = build(d)
        bottoms, tops, n = cert.bottom_masks, cert.top_masks, cert.universe_size
        cut = cert.num_explicit.bit_length()
        shapes, _ = intervals._shapes(bottoms, tops)
        listed = sum(g << dim for _, dim, g in shapes if dim < cut)
        tracemalloc.start()
        try:
            assert intervals._sorted_shared(bottoms, tops, n, cut, listed) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * listed * member_word(n).itemsize

    @pytest.mark.parametrize("cell, marks", [((23, 11), True), ((21, 10), True),
                                             ((22, 2), False), ((12, 5), False)])
    def test_size_rule(self, cell, marks):
        # marking costs 2^n/8 bytes and one part's working set, listing
        # the whole list: (22, 2) lists 46 KB against a 512 KiB set
        cert = construct_general(*cell)
        shapes, _ = intervals._shapes(cert.bottom_masks, cert.top_masks)
        cut = cert.num_explicit.bit_length()
        assert intervals._marking_is_smaller(cell[0], shapes, cut) == marks


def word_certificates(n):
    """Three certificates over [n] at d = 1: ``valid``, k = 2, of the
    edges [{i}, {i, i+1 mod n}] and the 2-cube [{1,2,n}, {1,2,3,4,n}];
    ``gap``, the same without the edge at {n}, which leaves {n} uncovered;
    and ``overlap``, the valid one with {1,n} and {n-1,n} again as
    intervals of their own, so that every shared set holds point n."""
    edges = [(1 << i, 1 << i | 1 << (i + 1) % n) for i in range(n)]
    square = (0b11 | 1 << n - 1, 0b1111 | 1 << n - 1)
    shared = [(1 | 1 << n - 1,) * 2, (0b11 << n - 2,) * 2]
    return {
        name: Certificate.from_arrays(n, 1, 2, *map(list, zip(*intervals)))
        for name, intervals in [("valid", edges + [square]),
                                ("gap", edges[:-1] + [square]),
                                ("overlap", edges + [square] + shared)]
    }


class TestMemberWords:
    """The verifier lists members in the narrowest unsigned word that
    holds [n]; at each side of every word boundary it lists the values
    the int64 listing does and reports what the reference reports."""

    WORDS = {8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
             32: np.uint32, 33: np.uint64, 63: np.uint64}

    @pytest.mark.parametrize("n", sorted(WORDS))
    def test_members_in_the_word(self, n):
        assert member_word(n) == self.WORDS[n]
        for cert in word_certificates(n).values():
            got = listed_members(cert.bottom_masks, cert.top_masks, n)
            assert got.dtype == self.WORDS[n]
            assert same_members(
                got, interval_members_reference(cert.bottom_masks, cert.top_masks)
            )

    @pytest.mark.parametrize("n", sorted(WORDS))
    def test_reports_identical(self, n):
        certs = word_certificates(n)
        reports = {name: verify_certificate(cert) for name, cert in certs.items()}
        for name, cert in certs.items():
            assert reports[name] == verify_reference(cert)
        assert reports["valid"].valid
        assert reports["gap"].first_violation == ("gap-at-rank", 1, PointSet(n, 1 << n - 1))
        # at n = 32 the least shared set has bit 31, the sign of an int32
        assert reports["overlap"].first_violation == (
            "overlap", PointSet(n, 1 | 1 << n - 1)
        )


@st.composite
def mixed_certificates(draw):
    """A random certificate over [n], n <= 10 and d <= 2, where cubes
    are common, that mixes cubes with narrow intervals: the intervals of
    ``construct_general``, or a random interval partition of the sets of
    size >= d, spliced as ``construct_general`` lays one out, with each
    degree-0 part kept as its one cube or, one time in four, split on its
    top point; then some intervals, the widest more often, dropped,
    duplicated, or joined by an interval inside them."""
    n = draw(st.integers(2, 10))
    d = draw(st.integers(1, 2))

    def partition(m, e):
        if e > m:
            return []
        if m == 0 or e <= 0 and draw(st.integers(0, 3)):
            return [(0, (1 << m) - 1)]
        bit = 1 << (m - 1)
        return partition(m - 1, e) + [
            (b | bit, t | bit) for b, t in partition(m - 1, e - 1)
        ]

    general = draw(st.booleans())
    if general:
        cert = construct_general(n, d)
        intervals = list(zip(cert.bottom_masks.tolist(), cert.top_masks.tolist()))
    else:
        intervals = partition(n, d)
    for kind, i, extra in draw(st.lists(st.tuples(
        st.sampled_from(["drop", "duplicate", "inside"]),
        st.integers(0, 3) | st.integers(0, 1 << 10),
        st.integers(0, 1 << 20),
    ), max_size=3)):
        if not intervals:
            break
        widest_first = sorted(intervals, key=lambda bt: (bt[0] ^ bt[1]).bit_count(),
                              reverse=True)
        b, t = widest_first[i % len(intervals)]
        if kind == "drop":
            intervals.remove((b, t))
        elif kind == "duplicate":
            intervals.append((b, t))
        else:
            inner = b | extra & t
            intervals.append((inner, inner | extra >> 10 & t))
    if general:
        k = cert.claimed_depth
    else:
        k = draw(st.integers(d, max(d, min((t.bit_count() for _, t in intervals),
                                           default=n))))
    return Certificate.from_arrays(
        n, d, k, [b for b, _ in intervals], [t for _, t in intervals]
    )


class TestCubesAgainstReference:
    """Intervals of more members than the certificate has intervals are
    cubes: the verifier tests them against every interval and counts
    their coverage instead of listing their members."""

    @settings(max_examples=500, deadline=None)
    @given(cert=mixed_certificates())
    def test_reports_identical(self, cert):
        assert verify_certificate(cert) == verify_reference(cert)

    @pytest.mark.parametrize("narrow, witness", [
        ([0b000001, 0b000001], 0b000001),  # {1} twice, below the cube's {2,3}
        ([0b010000, 0b010000], 0b000110),  # {5} twice, above it
    ])
    def test_overlap_witness_is_the_least_of_both_kinds(self, narrow, witness):
        # the 4-cube [{2}, {2..6}] meets the narrow [{2,3}, {2,3}], and two
        # narrow intervals meet each other; the least shared set is reported
        bottoms = [0b000010, 0b000110, *narrow]
        tops = [0b111110, 0b000110, *narrow]
        cert = Certificate.from_arrays(6, 1, 1, bottoms, tops)
        report = verify_certificate(cert)
        assert report == verify_reference(cert)
        assert report.first_violation == ("overlap", PointSet(6, witness))

    def test_general_construction_is_not_enumerated(self):
        # (26, 1) has 40 intervals and about 2^26 members, 512 MiB as int64
        tracemalloc.start()
        try:
            cert = construct_general(26, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.num_explicit == 40 and plan(26, 1).members > 1 << 25
        assert peak < 8 << 20


class TestRender:
    def test_summand_forms(self):
        cert = construct_c3(1)
        text = render_stanley(cert)
        assert "x1·K[x1,x4,x5]" in text
        assert text.strip().endswith("trivial summands: rank 3: 5; rank 4: 5; rank 5: 1")

    def test_pair_bottom(self):
        cert = construct_c3(2)
        text = render_stanley(cert)
        assert any(line.startswith("x1x2·K[") for line in text.splitlines())
        assert text.endswith(
            "trivial summands: rank 4: 42; rank 5: 56; rank 6: 28; rank 7: 8; rank 8: 1"
        )

    def test_refuses_unverified(self):
        cert = cert_of(3, 1, 2, [([1], [1, 2])])
        with pytest.raises(RefusesUnverified):
            render_stanley(cert)


class TestFileFormat:
    def test_round_trip_byte_stable(self):
        cert = construct_c3(1)
        text = format_certificate(cert)
        again = format_certificate(parse_certificate(text))
        assert text == again

    def test_layout(self):
        text = format_certificate(c2_like_certificate())
        lines = text.splitlines()
        assert lines[0] == b"VSDEPTH-CERT v1"
        assert lines[1] == b"n=3 d=1 k=2"
        assert lines[2] == b"interval {1} {1,2}"
        assert lines[-1] == b"trivial-completion"

    def test_matches_naive_spelling(self):
        # more intervals than one formatting slice, in no particular order
        rng = np.random.default_rng(3)
        tops = rng.integers(0, 1 << 12, size=70_000)
        bottoms = tops & rng.integers(0, 1 << 12, size=70_000)
        cert = Certificate(12, 1, 2, bottoms, tops)
        pairs = sorted(zip(bottoms.tolist(), tops.tolist()))
        lines = [f"interval {set_literal_naive(b)} {set_literal_naive(t)}" for b, t in pairs]
        text = format_certificate(cert)
        assert text == "\n".join(["VSDEPTH-CERT v1", "n=12 d=1 k=2", *lines,
                                  "trivial-completion", ""]).encode()
        back = parse_certificate(text)
        assert list(zip(back.bottom_masks.tolist(), back.top_masks.tolist())) == pairs

    def test_parse_rejects_garbage(self):
        with pytest.raises(CertificateFormatError):
            parse_certificate("not a certificate\n")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip_base_constructions(self, d, monkeypatch):
        # neither direction builds a PointSet
        certs = [construct_c2(d), construct_c3(d), construct_c4(d)]

        def refuse(self):
            raise AssertionError("PointSet built")

        monkeypatch.setattr(setcore.PointSet, "__post_init__", refuse)
        for cert in certs:
            text = format_certificate(cert)
            back = parse_certificate(text)
            assert np.array_equal(back.bottom_masks, cert.bottom_masks)
            assert np.array_equal(back.top_masks, cert.top_masks)
            assert format_certificate(back) == text

    @pytest.mark.parametrize("params", ["n=3 d=5 k=5", "n=70 d=2 k=2", "n=4 d=2 k=1",
                                        # past the digits int() converts
                                        pytest.param("n=" + "9" * 5000 + " d=2 k=2",
                                                     id="n-of-5000-digits")])
    def test_parameters_outside_domain(self, params):
        with pytest.raises(CertificateFormatError):
            parse_certificate(f"VSDEPTH-CERT v1\n{params}\ntrivial-completion\n")

    @pytest.mark.parametrize("body", [
        "VSDEPTH-CERT v2\nn=3 d=1 k=2\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=x k=2\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} {1,2}",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1}\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\nintervals {1} {1,2}\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} 1,2\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} {1,b}\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {0} {1,2}\ntrivial-completion",
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} {1,4}\ntrivial-completion",
        # a line splits on whitespace, so a space inside braces breaks it
        "VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval { 1} {1,2}\ntrivial-completion",
    ])
    def test_malformed_input_refused(self, body):
        with pytest.raises((CertificateFormatError, ElementOutOfRange)):
            parse_certificate(body + "\n")

    def test_pinned_digest(self):
        # sha256 over the per-certificate sha256 digests of the text
        cells = [(n, d) for n in range(1, 15) for d in range(1, n + 1)]
        cells += [(21, 1), (22, 2), (21, 3), (19, 9), (23, 7), (23, 5)]
        certs = [construct_general(n, d) for n, d in cells]
        certs += [construct_c2(d) for d in range(1, 12)]
        certs += [construct_c3(d) for d in range(1, 8)]
        certs += [construct_c4(d) for d in range(1, 7)]
        assert len(certs) == 135
        digests = b"".join(hashlib.sha256(format_certificate(c)).digest() for c in certs)
        assert hashlib.sha256(digests).hexdigest() == (
            "1b23ee426a3b8c615268604e27d77e0c7eeffa70b3cf1fc8d2586a03ec901cff"
        )

    def test_format_refuses_what_parse_refuses(self):
        # no certificate states parameters that no file may state, so
        # format_certificate is never handed one
        empty = np.empty(0, dtype=np.int64)
        for n, d, k in ((3, 0, 3), (3, 0, 0), (64, 1, 1)):
            with pytest.raises(BadParameters, match="1 <= d <= k <= n <= 63"):
                Certificate(n, d, k, empty, empty)

    def test_format_refuses_members_outside_universe(self):
        # nor one with a member past n, which no file may hold either
        with pytest.raises(ElementOutOfRange, match="outside 1..3"):
            Certificate.from_arrays(3, 1, 2, [0b1000], [0b1001])


@functools.cache
def certificate_text(source: tuple) -> str:
    builders = {"c2": construct_c2, "c3": construct_c3, "c4": construct_c4,
                "general": construct_general}
    kind, *args = source
    return format_certificate(builders[kind](*args)).decode()


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the certificate's parameters and
    masks, or the class of the exception it raised."""
    try:
        cert = parse(text)
    except Exception as exc:
        return type(exc)
    return (cert.universe_size, cert.min_generator_size, cert.claimed_depth,
            cert.bottom_masks.tolist(), cert.top_masks.tolist())


MUTATION_SOURCES = (
    [("c2", d) for d in (1, 2, 3)] + [("c3", d) for d in (1, 2)]
    + [("c4", d) for d in (1, 2)]
    + [("general", n, d) for n in range(1, 11) for d in range(1, n + 1)]
)


def mutate(text: str, n: int, data) -> str:
    """``text`` with one mutation drawn from ``data``: a line deleted or
    duplicated, two digits swapped, a ``,``/``{``/``}`` deleted, a ``0``,
    ``+`` or space inserted inside a literal, a member changed to n+1 or
    0, or CR LF line ends."""
    kind = data.draw(st.sampled_from([
        "delete-line", "duplicate-line", "swap-digits", "delete-punctuation",
        "insert", "member", "crlf",
    ]))

    def pick(positions):
        return data.draw(st.sampled_from(positions)) if positions else None

    if kind in ("delete-line", "duplicate-line"):
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "delete-line" else [lines[i]] * 2
        return "".join(lines)
    if kind == "swap-digits":
        digits = [p for p, ch in enumerate(text) if ch.isdigit()]
        i, j = pick(digits), pick(digits)
        if i is None:
            return text
        chars = list(text)
        chars[i], chars[j] = chars[j], chars[i]
        return "".join(chars)
    if kind == "delete-punctuation":
        p = pick([p for p, ch in enumerate(text) if ch in ",{}"])
        return text if p is None else text[:p] + text[p + 1:]
    if kind == "insert":
        inside = [p for m in re.finditer(r"\{[^{}\n]*\}", text)
                  for p in range(m.start() + 1, m.end())]
        p = pick(inside)
        return text if p is None else text[:p] + data.draw(st.sampled_from("0+ ")) + text[p:]
    if kind == "member":
        member = pick(list(re.finditer(r"(?<=[{,])\d+(?=[,}])", text)))
        if member is None:
            return text
        value = data.draw(st.sampled_from([str(n + 1), "0"]))
        return text[:member.start()] + value + text[member.end():]
    return text.replace("\n", "\r\n")


class TestParseAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(source=st.sampled_from(MUTATION_SOURCES), rounds=st.integers(1, 2),
           data=st.data())
    def test_mutants_match_reference(self, source, rounds, data):
        text = certificate_text(source)
        n = int(re.search(r"n=(\d+)", text)[1])
        for _ in range(rounds):
            text = mutate(text, n, data)
        refusal_against_reference(text)
        refusal_against_reference(text, as_str=True)

    @pytest.mark.parametrize("line", [
        "interval {1} {1,2}",
        "interval {} {}",
        "interval {1} {1,2} ",
        "interval  {1} {1,2}",
        "interval\t{1} {1,2}",
        "interval {1} { 1,2}",
        "interval {1} {2,1,2}",
        "interval {01} {1,2}",
        "interval {+1} {1,2}",
        "interval {1} {1,,2}",
        "interval {1} {1,2,}",
        "interval {,1} {1,2}",
        "interval {1} {12}",
        "interval {1} {123}",
        "interval {1} {1,230}",
        "interval {1} {1,2}3",
        "interval {1} {1,2},",
        "interval {1}3 {1,2}",
        "interval {1} {0}",
        "interval {1}{1,2}",
        "interval {1} {1,2}}",
        "interval {1} {{1,2}",
        "interval {1} 1,2}",
        "interval {1 {1,2}",
        "interval {1} {1,\u0662}",
        "interval {1} {1,2}\u2028interval {2} {2,3}",
        "interval {1} {1,2}\x0binterval {2} {2,3}",
        "intervax {1} {1,2}",
        "",
        "interval {63} {1,63}",
        "interval {62,63} {62,63}",
        "interval {1} {1,64}",
    ])
    @pytest.mark.parametrize("n", [12, 63])
    def test_near_canonical_lines(self, line, n):
        text = f"VSDEPTH-CERT v1\nn={n} d=1 k=2\ninterval {{2}} {{2,3}}\n{line}\ntrivial-completion\n"
        refusal = refusal_against_reference(text)
        assert refusal is None or str(refusal).startswith(
            "line 4 is not a canonical interval line: ")

    @pytest.mark.parametrize("head, tail, refusal", [
        ("VSDEPTH-CERT v1\nn=03 d=1 k=2\n", "trivial-completion\n", "bad parameter line"),
        ("VSDEPTH-CERT v1\nn=3 d=1 k=2 \n", "trivial-completion\n", "bad parameter line"),
        ("VSDEPTH-CERT v1\nk=2 d=1 n=3\n", "trivial-completion\n", "bad parameter line"),
        ("VSDEPTH-CERT v1\nn=3 d=1 k=2\n", "trivial-completion", "terminator"),
        ("VSDEPTH-CERT v1\nn=3 d=1 k=2\n", "trivial-completion\n\n", "terminator"),
        ("VSDEPTH-CERT v1\nn=2 d=1 k=2\n", "trivial-completion\n", "line 4 "),
        ("\ufeffVSDEPTH-CERT v1\nn=3 d=1 k=2\n", "trivial-completion\n", "header"),
    ])
    def test_header_and_terminator_spellings(self, head, tail, refusal):
        # only the writer's spelling is read: another field order, a
        # leading zero, a missing line end or a byte order mark is refused
        text = f"{head}interval {{1}} {{1,2}}\ninterval {{2}} {{2,3}}\ninterval {{3}} {{1,3}}\n{tail}"
        with pytest.raises(CertificateFormatError, match=refusal):
            parse_certificate(text.encode())

    def test_lenient_line_past_the_first_slice(self):
        # a spelling only the reference reads, in the last of several
        # slices, is refused by its line number
        text = certificate_text(("c2", 8))
        assert len(text) > 4 * setcore._SLICE
        cut = text.rindex("interval {")
        member = re.search(r"\d+", text[cut:])
        lenient = text[:cut + member.start()] + "0" + text[cut + member.start():]
        assert refusal_against_reference(text) is None
        refusal = refusal_against_reference(lenient)
        line = lenient[cut:].partition("\n")[0]
        assert str(refusal) == (f"line {text.count(chr(10), 0, cut) + 1} is not a "
                                f"canonical interval line: {line!r}")

    def test_not_utf8(self):
        with pytest.raises(CertificateFormatError,
                           match=re.escape(r"line 3 is not a canonical interval line: "
                                           r"'interval {1} {1,\xff}'")):
            parse_certificate(b"VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} {1,\xff}\n"
                              b"trivial-completion\n")

    def test_stray_zero_in_a_large_file(self, monkeypatch):
        # the (23, 7) text, 13.4 MB, with a 0 before the first member of its
        # last interval line: each slice is read once, and the bad one
        # bisected, so the file is refused in one pass
        text = certificate_text(("general", 23, 7))
        cut = text.rindex("interval {") + len("interval {")
        data = (text[:cut] + "0" + text[cut:]).encode()
        read = intervals._canonical_masks
        calls = []
        monkeypatch.setattr(intervals, "_canonical_masks",
                            lambda chunk, n: calls.append(len(chunk)) or read(chunk, n))
        with pytest.raises(CertificateFormatError,
                           match=f"^line {text.count(chr(10), 0, cut) + 1} is not a canonical "
                                 r"interval line: 'interval \{0"):
            parse_certificate(data)
        slices = len(data) // (setcore._SLICE - 1024) + 1
        assert len(calls) <= slices + (setcore._SLICE // 10).bit_length()
        assert sum(calls) < len(data) + 20 * setcore._SLICE


def refusal_against_reference(text: str, as_str: bool = False):
    """Read ``text`` (as bytes, or as str if ``as_str``) with
    ``parse_certificate``, and return its CertificateFormatError, or None
    if it accepted.  It must either return the certificate that
    ``parse_certificate_reference`` returns or refuse, and it must accept
    every canonical spelling: text that the reference reads and that
    ``format_certificate`` writes back, up to CR LF line ends."""
    expected = parse_outcome(parse_certificate_reference, text)
    canonical = isinstance(expected, tuple) and format_certificate(
        parse_certificate_reference(text)) == text.replace("\r\n", "\n").encode()
    try:
        cert = parse_certificate(text if as_str else text.encode())
    except CertificateFormatError as exc:
        assert not canonical, exc
        return exc
    assert parse_outcome(lambda _: cert, text) == expected
    return None


class TestCanonicalTextTakesTheBytePass:
    def test_crlf_line_ends(self):
        cert = construct_c4(5)
        text = format_certificate(cert).replace(b"\n", b"\r\n")
        back = parse_certificate(text)
        assert np.array_equal(back.bottom_masks, cert.bottom_masks)
        assert np.array_equal(back.top_masks, cert.top_masks)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_base_constructions(self, d, small_slices):
        # plus no intervals at all, and an empty literal; the small slices
        # make both directions cross slice boundaries
        empty = np.empty(0, dtype=np.int64)
        certs = [construct_c2(d), construct_c3(d), construct_c4(d),
                 Certificate.from_arrays(d, d, d, empty, empty),
                 Certificate.from_arrays(d + 1, 1, 1, [0], [(1 << d + 1) - 1])]
        for cert in certs:
            text = format_certificate(cert)
            back = parse_certificate(text)
            assert np.array_equal(back.bottom_masks, cert.bottom_masks)
            assert np.array_equal(back.top_masks, cert.top_masks)
            assert format_certificate(back) == text

    def test_largest_universe(self):
        # member 63 is bit 62, the top bit an int64 mask may hold
        full = (1 << 63) - 1
        cert = Certificate.from_arrays(63, 1, 63, [1, 1 << 62, 0], [full, 1 << 62, full])
        text = format_certificate(cert)
        assert b"interval {63} {63}\n" in text
        back = parse_certificate(text)
        assert back.bottom_masks.tolist() == [0, 1, 1 << 62]
        assert back.top_masks.tolist() == [full, full, 1 << 62]
        assert format_certificate(back) == text

    def test_everything_written_reads_back(self):
        empty = np.empty(0, dtype=np.int64)
        full = (1 << 63) - 1
        certs = [construct_general(n, d) for n in range(1, 15) for d in range(1, n + 1)]
        certs += [build(d) for build in (construct_c2, construct_c3, construct_c4)
                  for d in (1, 2, 3)]
        certs += [Certificate.from_arrays(5, 2, 2, empty, empty),
                  Certificate.from_arrays(63, 1, 63, [1, 1 << 62, 0], [full, 1 << 62, full])]
        for cert in certs:
            text = format_certificate(cert)
            for data in (text, text.replace(b"\n", b"\r\n")):
                assert parse_certificate(data) == cert


class Pieces(io.RawIOBase):
    """A stream of ``data`` whose reads stop short at each offset in
    ``cuts``, as a pipe or a slow file may; it cannot seek."""

    def __init__(self, data: bytes, cuts=()):
        super().__init__()
        self.data, self.cuts, self.pos = data, sorted(cuts), 0

    def readable(self):
        return True

    def readinto(self, buffer):
        stop = min([c for c in self.cuts if c > self.pos] + [len(self.data)])
        count = min(len(buffer), stop - self.pos)
        buffer[:count] = self.data[self.pos:self.pos + count]
        self.pos += count
        return count


def read_outcome(stream):
    """The certificate that ``read_certificate`` makes of ``stream``, or
    the message it refuses it with."""
    try:
        return read_certificate(stream)
    except CertificateFormatError as exc:
        return str(exc)


class TestStreamingText:
    TEXT = format_certificate(construct_general(7, 2))
    LINES = TEXT.splitlines(keepends=True)
    # whole, a member past n on line 6, no terminator, a bad header, the
    # parameter line doubled, the terminator doubled, the terminator also
    # as line 5, and line 6 bad with no terminator
    CASES = [
        TEXT,
        b"".join(LINES[:5]) + LINES[5].replace(b"}", b",8}", 1) + b"".join(LINES[6:]),
        b"".join(LINES[:-1]),
        b"VSDEPTH-CERT v2\n" + b"".join(LINES[1:]),
        b"".join(LINES[:2]) + b"".join(LINES[1:]),
        TEXT + LINES[-1],
        b"".join(LINES[:4] + LINES[-1:] + LINES[4:]),
        b"".join(LINES[:5]) + LINES[5].replace(b"}", b",8}", 1) + b"".join(LINES[6:-1]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("ends", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_every_cut_reads_alike(self, case, ends):
        # one short read at every byte offset, a cut inside each CR LF
        # pair included, and a read per byte: each gives the certificate,
        # or refuses the same line, as the whole text does
        data = self.CASES[case].replace(b"\n", ends)
        want = read_outcome(io.BytesIO(data))
        if case == 0:
            assert want == parse_certificate(self.TEXT)
        elif case == 1:
            assert want.startswith("line 6 is not a canonical interval line: ")
        elif case == 7:
            assert want == "missing trivial-completion terminator"
        elif case >= 5:
            line = len(self.LINES) if case == 5 else 5
            assert want == f"line {line} is not a canonical interval line: 'trivial-completion'"
        for cut in range(len(data) + 1):
            assert read_outcome(Pieces(data, [cut])) == want, cut
        assert read_outcome(Pieces(data, range(len(data)))) == want

    def test_writer_pieces_are_the_text(self):
        pieces = list(write_certificate(construct_c2(8)))
        assert pieces[0] == b"VSDEPTH-CERT v1\nn=17 d=8 k=9\n"
        assert pieces[-1] == b"trivial-completion\n"
        assert len(pieces) > 4 and all(p.endswith(b"\n") for p in pieces)
        assert b"".join(pieces) == format_certificate(construct_c2(8))

    def test_a_line_longer_than_the_buffer(self):
        # refused by its number without being held whole
        long = b"interval {1} {1," + b"2," * setcore._SLICE + b"3}\n"
        data = b"".join(self.LINES[:4]) + long + b"".join(self.LINES[4:])
        with pytest.raises(CertificateFormatError, match="^" + re.escape(
                "line 5 is not a canonical interval line: 'interval {1} {1,2,2,")):
            parse_certificate(data)

    def test_peaks_at_a_few_slices_beside_the_arrays(self, tmp_path):
        # the (23, 7) text is 13.4 MB; writing it holds one slice's rows
        # and bytes (0.8 MB traced), and reading it back the two mask
        # arrays (3.9 MB), grown by doubling to 4.9 MB before they are cut
        # to size, and one run's temporaries (4.2 MB)
        cert = construct_general(23, 7)
        arrays = cert.bottom_masks.nbytes + cert.top_masks.nbytes
        path = tmp_path / "c.txt"
        with open(path, "wb") as fh:
            tracemalloc.start()
            try:
                fh.writelines(write_certificate(cert))
                _, written = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                back = read_certificate(fh)
                _, read = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert back == cert and path.stat().st_size > 13_000_000
        slice_bytes = 8 * setcore._SLICE
        assert written <= slice_bytes
        assert read <= arrays + 3 * slice_bytes

    def test_a_short_text_costs_a_short_buffer(self):
        # the buffer starts at 4 KiB and doubles with each read, so the
        # 1 KB text of c2(3) traces 30 KB, not a buffer of _SLICE bytes
        text = format_certificate(construct_c2(3))
        tracemalloc.start()
        try:
            back = parse_certificate(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == construct_c2(3) and len(text) < 4096
        assert peak <= setcore._SLICE // 4

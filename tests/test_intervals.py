import itertools
import random

import numpy as np
import pytest

from vsdepth import setcore
from vsdepth.construct import (
    construct_c2,
    construct_c3,
    construct_c4,
    full_ring_certificate,
)
from vsdepth.errors import (
    CertificateFormatError,
    ElementOutOfRange,
    RefusesUnverified,
    UniverseMismatch,
)
from vsdepth.intervals import (
    Certificate,
    Interval,
    covers,
    disjoint,
    format_certificate,
    parse_certificate,
    render_stanley,
    verify_certificate,
)
from vsdepth.setcore import PointSet, binomial, make_set

from oracles import intervals_share_member, set_literal_naive


def iv(n, bottom, top):
    return Interval(make_set(n, bottom), make_set(n, top))


class TestCovers:
    def test_inside(self):
        assert covers(iv(5, [1], [1, 4, 5]), make_set(5, [1, 4]))

    def test_bottom_not_contained(self):
        assert not covers(iv(5, [1], [1, 4, 5]), make_set(5, [4]))

    def test_outside_top(self):
        assert not covers(iv(5, [1], [1, 4, 5]), make_set(5, [1, 2]))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            covers(iv(5, [1], [1, 4]), make_set(6, [1]))


class TestDisjoint:
    def test_examples(self):
        assert disjoint(iv(5, [1], [1, 4, 5]), iv(5, [2], [1, 2, 5]))
        assert disjoint(iv(5, [1], [1, 2, 3]), iv(5, [2], [2, 3, 4]))
        assert not disjoint(iv(5, [1], [1, 2, 3]), iv(5, [1, 2], [1, 2, 4]))

    def test_agrees_with_exhaustive_small(self):
        n = 4
        pairs = []
        for bm in range(1 << n):
            for tm in range(1 << n):
                if bm & ~tm == 0:
                    pairs.append(Interval(PointSet(n, bm),
                                          PointSet(n, tm)))
        for i1, i2 in itertools.combinations(pairs[:60], 2):
            assert disjoint(i1, i2) == (not intervals_share_member(i1, i2))

    def test_agrees_with_exhaustive_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 10)
            def rand_iv():
                t = rng.getrandbits(n)
                b = t & rng.getrandbits(n)
                return Interval(PointSet(n, b),
                                PointSet(n, t))
            i1, i2 = rand_iv(), rand_iv()
            assert disjoint(i1, i2) == (not intervals_share_member(i1, i2))


def cert_of(n, d, k, intervals):
    """Certificate from (bottom members, top members) pairs."""
    return Certificate.from_arrays(
        n, d, k,
        [make_set(n, b).mask for b, _ in intervals],
        [make_set(n, t).mask for _, t in intervals],
    )


def c2_like_certificate():
    return cert_of(3, 1, 2, [([3], [1, 3]), ([1], [1, 2]), ([2], [2, 3])])


class TestNewCertificate:
    def test_c2_shape(self):
        cert = c2_like_certificate()
        assert cert.num_explicit == 3
        # from_arrays orders the intervals by bottom
        assert cert.bottom_masks.tolist() == [0b001, 0b010, 0b100]
        assert cert.top_masks.tolist() == [0b011, 0b110, 0b101]


class TestVerify:
    def test_c2_certificate_valid(self):
        report = verify_certificate(c2_like_certificate())
        assert report.valid and report.achieved_depth == 2

    def test_c3_certificate_valid_with_coverage(self):
        cert = construct_c3(1)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 3
        assert report.rank_coverage[2] == 10 == binomial(5, 2)
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
            assert total == sum(binomial(n, t) for t in range(d, k))

    def test_single_high_dimensional_interval(self):
        # one interval of dimension 17, alone and with a second one inside it
        cert = full_ring_certificate(17)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 17
        assert report.rank_coverage[8] == binomial(17, 8)
        overlapping = Certificate.from_arrays(
            17, 0, 17,
            np.append(cert.bottom_masks, 0b1),
            np.append(cert.top_masks, cert.top_masks[0]),
        )
        report = verify_certificate(overlapping)
        assert not report.valid
        tag, witness = report.first_violation
        assert tag == "overlap" and witness.members() == (1,)

    def test_empty_certificate_high_rank_gap(self):
        # the missing 39-set is found without building the middle ranks of [40]
        empty = np.empty(0, dtype=np.int64)
        report = verify_certificate(Certificate.from_arrays(40, 39, 40, empty, empty))
        assert not report.valid
        tag, rank, witness = report.first_violation
        assert (tag, rank) == ("gap-at-rank", 39) and witness.size == 39

    def test_trivial_only_certificate(self):
        empty = np.empty(0, dtype=np.int64)
        cert = Certificate.from_arrays(4, 2, 2, empty, empty)
        report = verify_certificate(cert)
        assert report.valid and report.achieved_depth == 2


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
        assert lines[0] == "VSDEPTH-CERT v1"
        assert lines[1] == "n=3 d=1 k=2"
        assert lines[2] == "interval {1} {1,2}"
        assert lines[-1] == "trivial-completion"

    def test_matches_naive_spelling(self):
        # more intervals than one formatting slice, in no particular order
        rng = np.random.default_rng(3)
        tops = rng.integers(0, 1 << 12, size=70_000)
        bottoms = tops & rng.integers(0, 1 << 12, size=70_000)
        cert = Certificate(12, 1, 2, bottoms, tops)
        pairs = sorted(zip(bottoms.tolist(), tops.tolist()))
        lines = [f"interval {set_literal_naive(b)} {set_literal_naive(t)}" for b, t in pairs]
        text = format_certificate(cert)
        assert text.splitlines() == ["VSDEPTH-CERT v1", "n=12 d=1 k=2", *lines,
                                     "trivial-completion"]
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

    @pytest.mark.parametrize("params", ["n=3 d=5 k=5", "n=70 d=2 k=2", "n=4 d=2 k=1"])
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
    ])
    def test_malformed_input_refused(self, body):
        with pytest.raises((CertificateFormatError, ElementOutOfRange)):
            parse_certificate(body + "\n")

    def test_format_refuses_members_outside_universe(self):
        cert = Certificate.from_arrays(3, 1, 2, [0b1000], [0b1001])
        with pytest.raises(ElementOutOfRange):
            format_certificate(cert)

import hashlib
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsdepth import intervals, solver
from vsdepth.construct import bounds
from vsdepth.errors import BadParameters
from vsdepth.intervals import Certificate, format_certificate, verify_certificate
from vsdepth.setcore import size_masks_array
from vsdepth.solver import (
    SearchBudget,
    _BudgetExhausted,
    _Searcher,
    certify_at_least,
    conjecture_scan,
    exact_sdepth,
)

from oracles import (
    interval_members_naive,
    recursive_certify_reference,
    unrestricted_family_exists,
)

BUDGET = SearchBudget(max_nodes=10**7, wall_time_limit=30.0)


class TestCertifyAtLeast:
    def test_proved_examples(self):
        for n, d, k in ((5, 1, 3), (3, 1, 2), (7, 1, 4), (7, 2, 3), (9, 3, 4)):
            result = certify_at_least(n, d, k, BUDGET)
            assert result.status == "proved", (n, d, k)
            report = verify_certificate(result.certificate)
            assert report.valid and report.achieved_depth >= k

    def test_disproved_example(self):
        result = certify_at_least(4, 2, 3, BUDGET)
        assert result.status == "disproved" and result.certificate is None

    def test_trivial_depth_always_proved(self):
        for n in range(1, 8):
            for d in range(1, n + 1):
                assert certify_at_least(n, d, d, BUDGET).status == "proved"

    def test_antitone_in_k(self):
        n, d = 7, 2
        statuses = [certify_at_least(n, d, k, BUDGET).status for k in range(d, n + 1)]
        # once disproved, every larger k is disproved too
        first_bad = statuses.index("disproved") if "disproved" in statuses else len(statuses)
        assert all(s == "proved" for s in statuses[:first_bad])
        assert all(s == "disproved" for s in statuses[first_bad:])

    def test_bottom_forcing_agrees_with_unrestricted(self):
        # the search restricts bottoms to uncovered sets; the oracle does not
        for n in range(1, 7):
            for d in range(1, n + 1):
                for k in range(d, n + 1):
                    got = certify_at_least(n, d, k, BUDGET).status == "proved"
                    assert got == unrestricted_family_exists(n, d, k), (n, d, k)

    def test_budget_exhaustion(self):
        result = certify_at_least(9, 2, 4, SearchBudget(max_nodes=2, wall_time_limit=30.0))
        assert result.status == "budget-exhausted"
        assert result.certificate is None

    def test_wall_time_checked_every_node(self):
        # (23,2,9) is far from settled after 10 s; (18,2,7), the case this
        # test used first, now proves in a fraction of a second
        t0 = time.monotonic()
        result = certify_at_least(23, 2, 9, SearchBudget(wall_time_limit=1.0))
        assert result.status == "budget-exhausted"
        assert time.monotonic() - t0 < 2.5

    def test_small_budget_at_n22(self):
        # (22,2,8) once ran past 170 s on a 2 s budget, inside single nodes;
        # it now proves in 2-3 s, so the budget here is well below that
        t0 = time.monotonic()
        result = certify_at_least(22, 2, 8, SearchBudget(wall_time_limit=0.5))
        assert result.status == "budget-exhausted"
        assert time.monotonic() - t0 < 1.5

    def test_deadline_read_between_candidate_tops(self):
        # with every 7-set through point 1 occupied, no top fits the
        # bottom {1}, and the candidates run out only after 1600 tries;
        # the deadline has passed, so one of those tries must stop them
        searcher = _Searcher(14, 1, 7, BUDGET)
        searcher.occupied.update(m for m in size_masks_array(14, 7).tolist() if m & 1)
        searcher.deadline = time.monotonic() - 1.0
        with pytest.raises(_BudgetExhausted):
            next(searcher._fitting_tops(1, 1))

    @pytest.mark.parametrize("n,d,k", [(14, 2, 6), (15, 3, 6)])
    def test_deep_proofs(self, n, d, k):
        # over a thousand intervals each: deeper than the interpreter's
        # recursion limit would allow a recursive search to go
        result = certify_at_least(n, d, k, BUDGET)
        assert result.status == "proved"
        assert result.certificate.num_explicit > 1000
        report = verify_certificate(result.certificate)
        assert report.valid and report.achieved_depth >= k

    def test_rank_k_prune_disproves_at_root(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                k = bounds(n, d).upper + 1
                if k <= n:
                    result = certify_at_least(n, d, k, BUDGET)
                    assert result.status == "disproved", (n, d, k)
                    assert result.nodes_explored == 1, (n, d, k)

    def test_memory_follows_the_work(self):
        # n = 40 would need 2**40 bytes for a table over all subsets
        proved = certify_at_least(40, 40, 40, BUDGET)
        assert proved.status == "proved" and proved.nodes_explored == 1
        assert verify_certificate(proved.certificate).valid
        disproved = certify_at_least(40, 39, 40, BUDGET)
        assert disproved.status == "disproved" and disproved.nodes_explored == 1

    def test_memory_follows_the_work_at_n24(self):
        # no table of the 2^24 - 2 sets of ranks 1..11 is built: the search
        # holds only its occupied sets and its stack
        tracemalloc.start()
        try:
            t0 = time.monotonic()
            result = certify_at_least(24, 1, 12, SearchBudget(wall_time_limit=0.5))
            elapsed = time.monotonic() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "budget-exhausted"
        assert elapsed < 2.0
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n,d,k", [(29, 1, 15), (40, 2, 14)])
    def test_past_member_limit_refused(self, n, d, k):
        # a certificate covers every set of ranks d..k-1: more than 2^27
        t0 = time.monotonic()
        with pytest.raises(BadParameters, match="above the limit"):
            certify_at_least(n, d, k, BUDGET)
        assert time.monotonic() - t0 < 1.0

    def test_least_uncovered_against_colex_scan(self):
        # from any start no later than the answer, the walk finds the
        # colex-least unoccupied set of the lowest rank that has one
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 9)
            d = rng.randint(1, n - 1)
            k = rng.randint(d + 1, n)
            searcher = _Searcher(n, d, k, BUDGET)
            ranks = {r: size_masks_array(n, r).tolist() for r in range(d, k)}
            for r, masks in ranks.items():
                taken = [m for m in masks if rng.random() < 0.7]
                searcher.occupied.update(taken)
                searcher.uncovered[r] -= len(taken)
            free = [(r, m) for r, masks in ranks.items() for m in masks
                    if m not in searcher.occupied]
            want = free[0] if free else None
            start = (d, ranks[d][0])
            if want is not None and rng.random() < 0.5:
                r = want[0]
                start = (r, rng.choice([m for m in ranks[r] if m <= want[1]]))
            assert searcher._least_uncovered(*start) == want

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            certify_at_least(3, 2, 1, BUDGET)
        with pytest.raises(BadParameters):
            certify_at_least(64, 1, 1, BUDGET)
        with pytest.raises(BadParameters):
            SearchBudget(max_nodes=0)

    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_non_positive_wall_time_refused(self, limit):
        # NaN compares false with everything, so its deadline never passes
        with pytest.raises(BadParameters, match="budget limits must be positive"):
            SearchBudget(wall_time_limit=limit)


class TestFittingTops:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_against_every_superset(self, data):
        # some supersets of the bottom occupied at random, against the
        # definition: every top t of size >= k over m with [m, t] free
        n = data.draw(st.integers(2, 9))
        k = data.draw(st.integers(2, n))
        r = data.draw(st.integers(1, k - 1))
        m = data.draw(st.sampled_from(size_masks_array(n, r).tolist()))
        above = [x for x in range(1 << n) if x & m == m and x != m]
        searcher = _Searcher(n, 1, k, BUDGET)
        searcher.occupied.update(data.draw(st.lists(st.sampled_from(above), max_size=12)))
        got = [(t, sorted(members)) for t, members in searcher._fitting_tops(m, r)]
        want = []
        for t in range(1 << n):
            if t & m == m and t.bit_count() >= k:
                members = sorted(interval_members_naive([m], [t]))
                if searcher.occupied.isdisjoint(members):
                    want.append((t, members))
        assert got == want

    def test_placed_while_suspended(self):
        # suspended on a top, the generator holds [m, t] placed; resumed,
        # it takes it back; exhausted, it leaves the search as it found it
        searcher = _Searcher(6, 2, 4, BUDGET)
        searcher.occupied.add(0b1011)
        occupied, uncovered = set(searcher.occupied), list(searcher.uncovered)
        yielded = 0
        for t, members in searcher._fitting_tops(0b11, 2):
            yielded += 1
            assert searcher.occupied == occupied | set(members)
            assert searcher.chosen == [(0b11, t)]
            dim = (t & ~0b11).bit_count()
            assert searcher.uncovered == [
                u - (math.comb(dim, r - 2) if r >= 2 else 0)
                for r, u in enumerate(uncovered)
            ]
        assert yielded > 1
        assert (searcher.occupied, searcher.uncovered, searcher.chosen) == (occupied, uncovered, [])

    @pytest.mark.parametrize("n,d,k", [(40, 2, 9), (30, 3, 9)])
    def test_dead_bits_dropped(self, n, d, k):
        # no top holding a free bit b with m | b occupied fits; dropping
        # all such bits at a node's first failure leaves 300 nodes some
        # 28,000-50,000 occupancy lookups, where failing the candidates
        # that hold them one at a time took 1.0M-5.5M
        class CountingSet(set):
            lookups = 0

            def __contains__(self, x):
                self.lookups += 1
                return super().__contains__(x)

        searcher = _Searcher(n, d, k, SearchBudget(max_nodes=300))
        searcher.occupied = CountingSet()
        with pytest.raises(_BudgetExhausted):
            searcher.search()
        assert searcher.nodes == 301
        assert searcher.occupied.lookups < 100_000


class TestSearchOrder:
    @pytest.mark.parametrize("n,d,k,nodes,digest", [
        (14, 1, 7, 1716, "4543287c34714ddc3d67a0900d8216c47a30fdd2ca67b206de8022e79e609395"),
        (14, 2, 6, 1275, "9e380899d93b7c97bb8264fcfa5daa37350400d07cb8b59063853bba935b985e"),
        (19, 3, 7, 18412, "4dd363efe02ae30b7a536a489cbf862981c0e88f39133528441b2345cc601d99"),
    ])
    def test_nodes_and_certificates_pinned(self, n, d, k, nodes, digest):
        # past the reach of the recursive reference, the order in which
        # the search places and takes back intervals is pinned here: the
        # node count and the sha256 of the certificate text
        result = certify_at_least(n, d, k, BUDGET)
        assert (result.status, result.nodes_explored) == ("proved", nodes)
        assert hashlib.sha256(format_certificate(result.certificate)).hexdigest() == digest


class TestAgainstRecursiveReference:
    def test_certificates_byte_identical(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                for k in range(d, bounds(n, d).upper + 1):
                    status, chosen, ref_nodes = recursive_certify_reference(n, d, k)
                    result = certify_at_least(n, d, k, BUDGET)
                    assert result.status == status, (n, d, k)
                    assert result.nodes_explored <= ref_nodes, (n, d, k)
                    if status != "proved":
                        continue
                    ref = Certificate.from_arrays(
                        n, d, k,
                        np.array([b for b, _ in chosen], dtype=np.int64),
                        np.array([t for _, t in chosen], dtype=np.int64),
                    )
                    assert format_certificate(result.certificate) == format_certificate(ref)


class TestBacktracking:
    @staticmethod
    def _partial_family(rng: random.Random):
        n = rng.randint(3, 7)
        d = rng.randint(1, n - 1)
        k = rng.randint(d + 1, n)
        placed, occupied = [], set()
        for _ in range(rng.randint(1, 6)):
            b = rng.randrange(1 << n)
            t = b | rng.randrange(1 << n)
            members = interval_members_naive([b], [t])
            if b.bit_count() >= d and t.bit_count() >= k and occupied.isdisjoint(members):
                placed.append((b, t))
                occupied.update(members)
        return n, d, k, placed

    def test_from_partial_families(self):
        # from no intervals the search never backtracks at n <= 11; from a
        # random partial family it sometimes must, and then it has to
        # choose what the recursive reference chooses
        rng = random.Random(1)
        backtracked = 0
        for _ in range(3000):
            n, d, k, placed = self._partial_family(rng)
            if not placed:
                continue
            searcher = _Searcher(n, d, k, BUDGET)
            for b, t in placed:
                searcher._place(b.bit_count(), interval_members_naive([b], [t]), +1)
            found = searcher.search()
            if searcher.nodes == (len(searcher.chosen) + 1 if found else 1):
                continue
            backtracked += 1
            status, chosen, ref_nodes = recursive_certify_reference(n, d, k, placed=placed)
            assert status == ("proved" if found else "disproved"), (n, d, k, placed)
            assert searcher.chosen == chosen and searcher.nodes <= ref_nodes, (n, d, k, placed)
        assert backtracked >= 15


class TestExactSdepth:
    @pytest.mark.parametrize(
        "n,d,value",
        [(7, 2, 3), (5, 2, 3), (9, 3, 4), (5, 1, 3), (9, 1, 5), (4, 2, 2)],
    )
    def test_known_values(self, n, d, value):
        result = exact_sdepth(n, d, BUDGET)
        assert result.status == "proved" and result.value_or_bound == value
        report = verify_certificate(result.certificate)
        assert report.valid and report.achieved_depth >= value

    def test_matches_formula_small(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                result = exact_sdepth(n, d, BUDGET)
                assert result.status == "proved"
                assert result.value_or_bound == d + (n - d) // (d + 1), (n, d)

    def test_descends_from_the_largest_k_in_the_limit(self, monkeypatch):
        # at (9, 1) a certificate for the upper bound 5 has at least 255
        # members, and the proof found has 324; for k = 4, 129 and 186
        for limit, want in ((130, 3), (185, 3), (186, 4), (323, 4)):
            monkeypatch.setattr(intervals, "MAX_MEMBERS", limit)
            result = exact_sdepth(9, 1, BUDGET)
            assert (result.status, result.value_or_bound) == ("member-limit", want)
            report = verify_certificate(result.certificate)
            assert report.valid and report.achieved_depth == want
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 324)
        assert exact_sdepth(9, 1, BUDGET).status == "proved"

    def test_follows_the_verifiers_limit(self, monkeypatch):
        # the pre-search bound at (9, 2, 4) is 120 members, the proof has
        # 168: past the limit is a status after a search, never an error
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 130)
        result = certify_at_least(9, 2, 4, BUDGET)
        assert (result.status, result.certificate) == ("member-limit", None)
        assert result.nodes_explored > 0
        for d in range(1, 5):
            result = exact_sdepth(9, d, BUDGET)
            assert result.status == "member-limit", d
            report = verify_certificate(result.certificate)
            assert report.valid and report.achieved_depth == result.value_or_bound

    def test_exhaustion_reported(self):
        # one node allowance for the whole descent: k = 4 spends it, k = 3
        # is not searched, and k = 2 places no interval
        result = exact_sdepth(9, 2, SearchBudget(max_nodes=2, wall_time_limit=30.0))
        assert result.status == "budget-exhausted"
        assert result.nodes_explored <= 3
        # the reported value is still a proved lower bound
        assert result.value_or_bound >= 2
        assert verify_certificate(result.certificate).valid

    def test_one_deadline_per_call(self):
        # at (40, 2) k = 14..10 are past the limit and k = 9 spends the
        # whole budget; nothing is left for k = 8..3
        t0 = time.monotonic()
        result = exact_sdepth(40, 2, SearchBudget(wall_time_limit=0.2))
        assert time.monotonic() - t0 < 1.0
        assert (result.status, result.value_or_bound) == ("member-limit", 2)
        assert verify_certificate(result.certificate).valid


class TestScan:
    def test_scan_small(self):
        rows = conjecture_scan(5, BUDGET)
        assert len(rows) == 15
        for row in rows:
            assert row.status == "proved"
            assert row.proved == row.conjectured
            assert not row.discrepancy

    def test_bad_max_n(self):
        with pytest.raises(BadParameters):
            conjecture_scan(0, BUDGET)

    def test_past_member_limit_refused_per_cell(self, monkeypatch):
        # at a limit of 130 only the n = 9 cells are past it; each reports
        # member-limit and a proved lower bound, and the rest are solved
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 130)
        t0 = time.monotonic()
        rows = conjecture_scan(9, BUDGET)
        assert time.monotonic() - t0 < 1.0
        assert len(rows) == 45
        limited = [(row.n, row.d, row.proved) for row in rows if row.status != "proved"]
        assert limited == [(9, 1, 3), (9, 2, 3), (9, 3, 3), (9, 4, 4)]
        assert all(row.status == "member-limit" and not row.discrepancy
                   for row in rows if row.n == 9 and row.d <= 4)

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            certify_at_least(3, 2, 1, BUDGET)
        with pytest.raises(BadParameters):
            certify_at_least(64, 1, 1, BUDGET)
        with pytest.raises(BadParameters):
            SearchBudget(max_nodes=0)


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

    def test_exhaustion_reported(self):
        result = exact_sdepth(9, 2, SearchBudget(max_nodes=2, wall_time_limit=30.0))
        assert result.status == "budget-exhausted"
        # the reported value is still a proved lower bound
        assert result.value_or_bound >= 2
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

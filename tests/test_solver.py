import time

import pytest

from vsdepth.errors import BadParameters
from vsdepth.intervals import verify_certificate
from vsdepth.solver import (
    SearchBudget,
    certify_at_least,
    conjecture_scan,
    exact_sdepth,
)

from oracles import unrestricted_family_exists

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
        # a node at (18,2) takes a sizeable fraction of a second
        t0 = time.monotonic()
        result = certify_at_least(18, 2, 7, SearchBudget(wall_time_limit=1.0))
        assert result.status == "budget-exhausted"
        assert time.monotonic() - t0 < 2.5

    def test_bad_params(self):
        with pytest.raises(BadParameters):
            certify_at_least(3, 2, 1, BUDGET)
        with pytest.raises(BadParameters):
            certify_at_least(64, 1, 1, BUDGET)
        with pytest.raises(BadParameters):
            SearchBudget(max_nodes=0)


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
        rows = conjecture_scan(5, BUDGET, workers=1)
        assert len(rows) == 15
        for row in rows:
            assert row.status == "proved"
            assert row.proved == row.conjectured
            assert not row.discrepancy

    def test_bad_max_n(self):
        with pytest.raises(BadParameters):
            conjecture_scan(0, BUDGET)

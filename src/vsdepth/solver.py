"""Exact decision procedure for "Stanley depth >= k" by exhaustive search.

The search looks for a family of pairwise-disjoint intervals, each top of
size >= k, covering every set of size d..k-1 exactly once.  Such a family
plus trivial completion is a full partition with minimum top size >= k;
conversely any witnessing partition restricts to such a family, so the
decision is complete.

Bottom forcing: at every node the colex-least uncovered set m of lowest
rank must be the bottom of its covering interval.  (That interval's
bottom is a member of the interval, hence uncovered now, and it sits at
rank >= d inside m; a proper subset would be an uncovered set of lower
rank, contradicting minimality.  So the bottom equals m.)  Branching is
therefore only over tops.

Counting prune: the U[r0] uncovered sets at the lowest uncovered rank r0
must each bottom their own interval, and those intervals cover at least
C(k-r0, r-r0) pairwise-distinct, currently-uncovered sets at every rank
r < k.  Whenever U[r0] * C(k-r0, r-r0) exceeds U[r] the node is dead.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameters
from .intervals import Certificate, verify_certificate
from .setcore import MAX_UNIVERSE, size_masks_array


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10**8
    wall_time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.wall_time_limit <= 0:
            raise BadParameters("budget limits must be positive")


@dataclass
class SolveResult:
    status: str  # proved | disproved | budget-exhausted
    value_or_bound: int
    certificate: Optional[Certificate]
    nodes_explored: int


class _BudgetExhausted(Exception):
    pass


class _Searcher:
    def __init__(self, n: int, d: int, k: int, budget: SearchBudget):
        self.n, self.d, self.k = n, d, k
        self.budget = budget
        self.nodes = 0
        self.deadline = time.monotonic() + budget.wall_time_limit
        self.occupied = bytearray(1 << n)
        self.rank_lists = {r: size_masks_array(n, r).tolist() for r in range(d, k)}
        self.uncovered = {r: len(self.rank_lists[r]) for r in range(d, k)}
        self.chosen: list[tuple[int, int]] = []
        # C(k-r0, r-r0) table for the counting prune
        self.prune_coeff = {
            r0: [math.comb(k - r0, r - r0) for r in range(r0, k)]
            for r0 in range(d, k)
        }

    def _tick(self) -> None:
        # one node can take a sizeable fraction of a second at n near 20,
        # so the deadline is read at every node
        self.nodes += 1
        if self.nodes > self.budget.max_nodes or time.monotonic() > self.deadline:
            raise _BudgetExhausted

    def _least_uncovered(self) -> Optional[tuple[int, int]]:
        occupied = self.occupied
        for r in range(self.d, self.k):
            if self.uncovered[r]:
                for m in self.rank_lists[r]:
                    if not occupied[m]:
                        return r, m
        return None

    def _candidate_tops(self, m: int, r: int) -> list[int]:
        """Supersets of m of size >= k, in colex (numeric) order."""
        n, k = self.n, self.k
        free = [i for i in range(n) if not m >> i & 1]
        need = k - r
        tops = []
        for sub in range(1 << len(free)):
            if sub.bit_count() >= need:
                t = m
                for j, i in enumerate(free):
                    if sub >> j & 1:
                        t |= 1 << i
                tops.append(t)
        tops.sort()
        return tops

    def _members(self, m: int, t: int) -> list[int]:
        free = t & ~m
        out = []
        sub = free
        while True:
            out.append(m | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
        return out

    def search(self) -> bool:
        self._tick()
        cur = self._least_uncovered()
        if cur is None:
            return True
        r0, m = cur
        u0 = self.uncovered[r0]
        coeff = self.prune_coeff[r0]
        for r in range(r0 + 1, self.k):
            if u0 * coeff[r - r0] > self.uncovered[r]:
                return False
        occupied = self.occupied
        k = self.k
        for t in self._candidate_tops(m, r0):
            members = self._members(m, t)
            if any(occupied[x] for x in members):
                continue
            for x in members:
                occupied[x] = 1
                rx = x.bit_count()
                if rx < k:
                    self.uncovered[rx] -= 1
            self.chosen.append((m, t))
            if self.search():
                return True
            self.chosen.pop()
            for x in members:
                occupied[x] = 0
                rx = x.bit_count()
                if rx < k:
                    self.uncovered[rx] += 1
        return False


def certify_at_least(n: int, d: int, k: int, budget: SearchBudget) -> SolveResult:
    """Decide whether an interval partition with min top size >= k exists."""
    if not (1 <= d <= k <= n <= MAX_UNIVERSE):
        raise BadParameters(
            f"need 1 <= d <= k <= n <= {MAX_UNIVERSE}, got n={n}, d={d}, k={k}"
        )
    searcher = _Searcher(n, d, k, budget)
    try:
        found = searcher.search()
    except _BudgetExhausted:
        return SolveResult("budget-exhausted", k, None, searcher.nodes)
    if not found:
        return SolveResult("disproved", k, None, searcher.nodes)
    bottoms = np.array([b for b, _ in searcher.chosen], dtype=np.int64)
    tops = np.array([t for _, t in searcher.chosen], dtype=np.int64)
    cert = Certificate.from_arrays(n, d, k, bottoms, tops)
    report = verify_certificate(cert)
    if not report.valid or report.achieved_depth < k:
        raise AssertionError(
            f"solver produced an invalid certificate: {report.first_violation}"
        )
    return SolveResult("proved", k, cert, searcher.nodes)


def exact_sdepth(n: int, d: int, budget: SearchBudget) -> SolveResult:
    """Exact value by descending from the counting upper bound.

    The first k proved gives the exact value when k equals the upper
    bound; a budget exhaustion along the way downgrades the status, and
    the reported value is the best proved lower bound.
    """
    if not 1 <= d <= n:
        raise BadParameters(f"need 1 <= d <= n, got n={n}, d={d}")
    upper = d + (n - d) // (d + 1)
    exhausted = False
    total_nodes = 0
    for k in range(upper, d - 1, -1):
        result = certify_at_least(n, d, k, budget)
        total_nodes += result.nodes_explored
        if result.status == "proved":
            status = "budget-exhausted" if exhausted else "proved"
            return SolveResult(status, k, result.certificate, total_nodes)
        if result.status == "budget-exhausted":
            exhausted = True
    raise AssertionError("depth d is always certifiable")


@dataclass
class ScanRow:
    n: int
    d: int
    conjectured: int
    proved: int
    status: str
    discrepancy: bool


def _scan_case(args: tuple[int, int, int, float]) -> ScanRow:
    n, d, max_nodes, wall = args
    conjectured = d + (n - d) // (d + 1)
    result = exact_sdepth(n, d, SearchBudget(max_nodes, wall))
    discrepancy = result.status == "proved" and result.value_or_bound != conjectured
    return ScanRow(n, d, conjectured, result.value_or_bound, result.status, discrepancy)


def conjecture_scan(
    max_n: int, budget: SearchBudget, workers: Optional[int] = None
) -> list[ScanRow]:
    """Exact solve for all 1 <= d <= n <= max_n against the formula."""
    if not 1 <= max_n <= 63:
        raise BadParameters(f"max_n={max_n} not in 1..63")
    if workers is None:
        try:
            workers = int(os.environ.get("VSDEPTH_THREADS", "1"))
        except ValueError as exc:
            raise BadParameters("VSDEPTH_THREADS must be an integer") from exc
    cases = [
        (n, d, budget.max_nodes, budget.wall_time_limit)
        for n in range(1, max_n + 1)
        for d in range(1, n + 1)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_case, cases))
    else:
        rows = [_scan_case(case) for case in cases]
    return rows

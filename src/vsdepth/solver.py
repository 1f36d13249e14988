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
therefore only over tops.  A cursor per rank remembers where the last
lookup found m, so the next lookup does not rescan the sets before it.

Tops: the candidates at a node are the supersets t of m with |t| >= k, in
colex (numeric) order.  They are generated lazily, as the submasks of the
free bits with at least k-|m| of them set, in ascending order, so none is
built past the first that fits.  A candidate fits when no member of
[m, t] is occupied.  The test enumerates the members in ascending order
and stops at the first occupied one, m | s.  Every later candidate that
agrees with t from the lowest bit of s upward contains m | s as well, so
all of them are skipped.  The deadline is read while candidates are
enumerated as well as at every node.

Counting prune: the U[r0] uncovered sets at the lowest uncovered rank r0
must each bottom their own interval, and those intervals cover at least
C(k-r0, r-r0) pairwise-distinct, currently-uncovered sets at every rank
r <= k (at rank k: one each, a k-subset of the top).  Whenever
U[r0] * C(k-r0, r-r0) exceeds U[r] the node is dead.

The depth-first search keeps its open nodes on an explicit stack, one
frame per chosen interval, so the interpreter's recursion limit does not
bound the size of a certificate.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .construct import bounds
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
        # the members of the chosen intervals
        self.occupied: set[int] = set()
        self.rank_lists = {r: size_masks_array(n, r).tolist() for r in range(d, k)}
        # unoccupied sets per rank, d..k; rank k feeds only the counting prune
        self.uncovered = [0] * d + [math.comb(n, r) for r in range(d, k + 1)]
        # rank_lists[r][:cursor[r]] are all occupied
        self.cursor = [0] * k
        self.chosen: list[tuple[int, int]] = []
        # C(k-r0, r-r0) table for the counting prune
        self.prune_coeff = {
            r0: [math.comb(k - r0, r - r0) for r in range(r0, k + 1)]
            for r0 in range(d, k)
        }

    def _tick(self) -> None:
        # the deadline is read at every node, and between candidate tops
        # in _fitting_tops
        self.nodes += 1
        if self.nodes > self.budget.max_nodes or time.monotonic() > self.deadline:
            raise _BudgetExhausted

    def _least_uncovered(self) -> Optional[tuple[int, int]]:
        occupied = self.occupied
        for r in range(self.d, self.k):
            if self.uncovered[r]:
                masks = self.rank_lists[r]
                i = self.cursor[r]
                while masks[i] in occupied:
                    i += 1
                self.cursor[r] = i
                return r, masks[i]
        return None

    def _alive(self, r0: int) -> bool:
        """The counting prune at a node whose lowest uncovered rank is r0."""
        uncovered = self.uncovered
        u0 = uncovered[r0]
        coeff = self.prune_coeff[r0]
        for r in range(r0 + 1, self.k + 1):
            if u0 * coeff[r - r0] > uncovered[r]:
                return False
        return True

    def _fitting_tops(self, m: int, r: int) -> Iterator[tuple[int, list[int]]]:
        """Tops t of the intervals [m, t] with no occupied member, in colex
        order, each with the members of [m, t]; reads the deadline."""
        occupied = self.occupied
        free = ((1 << self.n) - 1) & ~m
        need = self.k - r
        deadline = self.deadline
        sub = 0
        tried = 0
        while True:
            # the least submask of free from sub on with >= need bits:
            # set the lowest free bits that sub lacks
            for _ in range(need - sub.bit_count()):
                gap = free & ~sub
                sub |= gap & -gap
            tried += 1
            if not tried & 63 and time.monotonic() > deadline:
                raise _BudgetExhausted
            members = [m]
            rest = 0
            while True:
                rest = (rest - sub) & sub
                if not rest:
                    yield m | sub, members
                    break
                x = m | rest
                if x in occupied:
                    # every later candidate that agrees with sub from the
                    # lowest bit of rest up holds x too: skip past them
                    sub |= free & ((rest & -rest) - 1)
                    break
                members.append(x)
            if sub == free:
                return
            sub = (sub - free) & free  # the next submask of free

    def _place(self, r0: int, members: list[int], sign: int) -> None:
        """Occupy (sign +1) or release (sign -1) the members of an interval
        bottomed at rank r0; it has C(dim, j) of them at rank r0+j."""
        if sign > 0:
            self.occupied.update(members)
        else:
            self.occupied.difference_update(members)
        dim = len(members).bit_length() - 1
        uncovered = self.uncovered
        for j in range(min(dim, self.k - r0) + 1):
            uncovered[r0 + j] -= sign * math.comb(dim, j)

    def search(self) -> bool:
        # one frame per open node: [fitting tops, bottom, rank, cursors at
        # the node, members of the interval placed from it or None]
        stack: list[list] = []
        chosen = self.chosen
        while True:
            self._tick()
            cur = self._least_uncovered()
            if cur is None:
                return True
            r0, m = cur
            if self._alive(r0):
                stack.append([self._fitting_tops(m, r0), m, r0, self.cursor.copy(), None])
            # place the next fitting top of the deepest open node; a node
            # with none left is closed, and its parent's interval taken back
            while stack:
                frame = stack[-1]
                tops, m, r0, cursor, placed = frame
                if placed is not None:
                    self._place(r0, placed, -1)
                    chosen.pop()
                    self.cursor[:] = cursor
                    frame[4] = None
                step = next(tops, None)
                if step is not None:
                    t, members = step
                    self._place(r0, members, +1)
                    chosen.append((m, t))
                    frame[4] = members
                    break
                stack.pop()
            else:
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
    upper = bounds(n, d).upper
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


def _scan_case(n: int, d: int, budget: SearchBudget) -> ScanRow:
    conjectured = bounds(n, d).conjectured
    result = exact_sdepth(n, d, budget)
    discrepancy = result.status == "proved" and result.value_or_bound != conjectured
    return ScanRow(n, d, conjectured, result.value_or_bound, result.status, discrepancy)


def conjecture_scan(max_n: int, budget: SearchBudget) -> list[ScanRow]:
    """Exact solve for all 1 <= d <= n <= max_n against the formula."""
    if not 1 <= max_n <= MAX_UNIVERSE:
        raise BadParameters(f"max_n={max_n} not in 1..{MAX_UNIVERSE}")
    return [
        _scan_case(n, d, budget)
        for n in range(1, max_n + 1)
        for d in range(1, n + 1)
    ]

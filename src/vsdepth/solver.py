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
therefore only over tops.  Down a branch the lowest uncovered rank never
falls, and within it m never moves back in colex order, so each lookup
starts from the parent node's bottom (at the root, from the least d-set;
past a full rank r, from the least (r+1)-set) and steps to the next set
of that size by Gosper's rule; no table of sets is kept.

Tops: the candidates at a node are the supersets t of m with |t| >= k, in
colex (numeric) order.  They are generated lazily, as the submasks of the
free bits with at least k-|m| of them set, in ascending order, so none is
built past the first that fits.  A candidate fits when no member of
[m, t] is occupied.  The test enumerates the members in ascending order
and stops at the first occupied one, m | s.  Every later candidate that
agrees with t from the lowest bit of s upward contains m | s as well, so
all of them are skipped.  At a node's first failed candidate, every free
bit b with m | b occupied is dropped, since no top holding one fits; the
remaining candidates keep their order.  The deadline is read while
candidates are enumerated as well as at every node.

Counting prune: the U[r0] uncovered sets at the lowest uncovered rank r0
must each bottom their own interval, and those intervals cover at least
C(k-r0, r-r0) pairwise-distinct, currently-uncovered sets at every rank
r <= k (at rank k: one each, a k-subset of the top).  Whenever
U[r0] * C(k-r0, r-r0) exceeds U[r] the node is dead.

The depth-first search keeps its open nodes on an explicit stack, so the
interpreter's recursion limit does not bound the size of a certificate.
Each open node is one suspended ``_fitting_tops`` generator, holding the
interval it last yielded placed until it is resumed.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .construct import bounds
from .errors import BadParameters, MemberLimitExceeded
from .intervals import Certificate, check_cell, check_members, verify_certificate
from .setcore import MAX_UNIVERSE


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10**8
    wall_time_limit: float = 60.0

    def __post_init__(self) -> None:
        # "not > 0" also refuses NaN, whose deadline would never pass
        if not (self.max_nodes > 0 and self.wall_time_limit > 0):
            raise BadParameters("budget limits must be positive")


@dataclass
class SolveResult:
    status: str  # proved | disproved | budget-exhausted | member-limit
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
        # unoccupied sets per rank, d..k; rank k feeds only the counting prune
        self.uncovered = [0] * d + [math.comb(n, r) for r in range(d, k + 1)]
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

    def _least_uncovered(self, r: int, m: int) -> Optional[tuple[int, int]]:
        """(rank, mask) of the least uncovered set, sought from the r-set m."""
        occupied = self.occupied
        for r in range(r, self.k):
            if self.uncovered[r]:
                while m in occupied:
                    # Gosper's rule: the next r-set in colex order
                    low = m & -m
                    ripple = m + low
                    m = ripple | ((m ^ ripple) >> 2) // low
                return r, m
            m = (1 << (r + 1)) - 1
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

    def _dead_bits(self, m: int, free: int) -> int:
        """The free bits b with m | b occupied.  (Inlined as a generator
        expression, it would put _fitting_tops' locals in cells.)"""
        return sum(1 << i for i in range(self.n)
                   if free >> i & 1 and (m | 1 << i) in self.occupied)

    def _fitting_tops(self, m: int, r: int) -> Iterator[tuple[int, list[int]]]:
        """Tops t of the intervals [m, t] with no occupied member, in colex
        order, each with the members of [m, t], which stay placed until the
        generator is resumed; reads the deadline."""
        occupied = self.occupied
        free = ((1 << self.n) - 1) & ~m
        need = self.k - r
        deadline = self.deadline
        sub = 0
        tried = 0
        dead = None
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
                    self._place(r, members, +1)
                    self.chosen.append((m, m | sub))
                    yield m | sub, members
                    self._place(r, members, -1)
                    self.chosen.pop()
                    break
                x = m | rest
                if x in occupied:
                    if dead is None:
                        # once per node: no top holding a dead bit fits
                        dead = self._dead_bits(m, free)
                        if dead:
                            free ^= dead
                            if free.bit_count() < need:
                                return
                            if sub & dead:
                                # the greatest submask of free below sub
                                # that agrees with it above its dead bits
                                sub |= (1 << (sub & dead).bit_length()) - 1
                                sub &= free
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
        # one suspended _fitting_tops generator per open node
        stack: list[Iterator[tuple[int, list[int]]]] = []
        r0, m = self.d, (1 << self.d) - 1
        while True:
            self._tick()
            cur = self._least_uncovered(r0, m)
            if cur is None:
                return True
            r0, m = cur
            if self._alive(r0):
                stack.append(self._fitting_tops(m, r0))
            # resume the deepest open node: it takes its interval back and
            # places its next fitting top; a node with none left is closed
            while stack:
                step = next(stack[-1], None)
                if step is not None:
                    m = step[1][0]
                    r0 = m.bit_count()
                    break
                stack.pop()
            else:
                return False


def _verified(cert: Certificate) -> Optional[Certificate]:
    """``cert`` once the verifier accepts it; None when it has more
    members than the verifier holds, which the pre-search lower bound
    cannot rule out.  A rejection is an internal error."""
    try:
        report = verify_certificate(cert)
    except MemberLimitExceeded:
        return None
    if not report.valid:
        raise AssertionError(
            f"solver produced an invalid certificate: {report.violation()}"
        )
    return cert


def certify_at_least(n: int, d: int, k: int, budget: SearchBudget) -> SolveResult:
    """Decide whether an interval partition with min top size >= k exists.
    A cell whose ranks d..k-1 alone pass the member limit is refused up
    front; past that lower bound, a proof over the limit is ``member-limit``."""
    check_cell(n, d, k)
    check_members(sum(math.comb(n, r) for r in range(d, k)),
                  f"a certificate for n={n}, d={d}, k={k}, at ranks {d}..{k - 1} alone,")
    searcher = _Searcher(n, d, k, budget)
    try:
        found = searcher.search()
    except _BudgetExhausted:
        return SolveResult("budget-exhausted", k, None, searcher.nodes)
    if not found:
        return SolveResult("disproved", k, None, searcher.nodes)
    # the covered sets are freed before the arrays are built, and the
    # chosen list before they are verified, so neither adds to either peak
    searcher.occupied = None
    bottoms = np.array([b for b, _ in searcher.chosen], dtype=np.int64)
    tops = np.array([t for _, t in searcher.chosen], dtype=np.int64)
    searcher.chosen = None
    cert = _verified(Certificate.from_arrays(n, d, k, bottoms, tops))
    status = "proved" if cert is not None else "member-limit"
    return SolveResult(status, k, cert, searcher.nodes)


def exact_sdepth(n: int, d: int, budget: SearchBudget) -> SolveResult:
    """Exact value by descending from the counting upper bound, under one
    deadline and one node allowance for the whole descent.

    The first k proved is exact when every k above it was disproved.  A k
    past the member limit makes the status ``member-limit``, and a k that
    the budget left undecided or unsearched ``budget-exhausted`` (the first
    wins); the value is then the best proved lower bound, at worst d.
    """
    deadline = time.monotonic() + budget.wall_time_limit
    nodes, undecided = 0, None
    for k in range(bounds(n, d).upper, d, -1):
        secs = deadline - time.monotonic()
        if nodes >= budget.max_nodes or secs <= 0:
            undecided = undecided or "budget-exhausted"
            break
        try:
            result = certify_at_least(n, d, k, SearchBudget(budget.max_nodes - nodes, secs))
        except MemberLimitExceeded:
            undecided = undecided or "member-limit"
            continue
        nodes += result.nodes_explored
        if result.status == "proved":
            return SolveResult(undecided or "proved", k, result.certificate, nodes)
        if result.status != "disproved":
            undecided = undecided or result.status
    cert = _verified(Certificate.from_arrays(n, d, d, [], []))
    return SolveResult(undecided or "proved", d, cert, nodes)


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
    """Exact solve for all 1 <= d <= n <= max_n against the formula, each
    cell with its own budget; a cell past the member limit reports
    ``member-limit`` and its best proved lower bound."""
    if not 1 <= max_n <= MAX_UNIVERSE:
        raise BadParameters(f"max_n={max_n} not in 1..{MAX_UNIVERSE}")
    return [
        _scan_case(n, d, budget)
        for n in range(1, max_n + 1)
        for d in range(1, n + 1)
    ]

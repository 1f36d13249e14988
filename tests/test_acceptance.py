"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
import math
import time

import numpy as np

from vsdepth.blocks import Density, block_structure
from vsdepth.construct import (
    bounds,
    construct_c2,
    construct_c3,
    construct_c4,
    construct_general,
)
from vsdepth.intervals import verify_certificate
from vsdepth.setcore import PointSet, size_masks_array
from vsdepth.solver import SearchBudget, certify_at_least, exact_sdepth

from oracles import all_block_structures, uncovered_reference


def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {num}: {label} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_construction_c2():
    t0 = time.time()
    ok = True
    for d in range(1, 13):
        report = verify_certificate(construct_c2(d))
        ok = ok and report.valid and report.achieved_depth == d + 1
    elapsed = time.time() - t0
    _report(1, "c=2 construction, d=1..12, depth d+1", ok and elapsed < 10.0, elapsed)


def test_criterion_2_construction_c3():
    t0 = time.time()
    ok = True
    for d in range(1, 9):
        n = 3 * d + 2
        report = verify_certificate(construct_c3(d))
        ok = ok and report.valid and report.achieved_depth == d + 2
        # every (d+1)-set covered exactly once: with disjointness already
        # verified, full coverage of the rank is coverage exactly once
        ok = ok and report.rank_coverage[d + 1] == math.comb(n, d + 1)
    elapsed = time.time() - t0
    _report(2, "c=3 construction, d=1..8, depth d+2, rank d+1 tiled",
            ok and elapsed < 60.0, elapsed)


def test_criterion_3_construction_c4():
    t0 = time.time()
    ok = True
    for d in range(1, 7):
        # an incomplete or overlapping matching is an overlap or a gap
        # that the verifier reports; chain_successor_bits raises
        # MatchingFailed only for a set with no unmatched position
        report = verify_certificate(construct_c4(d))
        ok = ok and report.valid and report.achieved_depth == d + 3
    elapsed = time.time() - t0
    _report(3, "c=4 construction, d=1..6, depth d+3, matching complete",
            ok and elapsed < 120.0, elapsed)


def _exact_agrees_up_to(max_n: int) -> bool:
    budget = SearchBudget(wall_time_limit=60.0)
    for n in range(1, max_n + 1):
        for d in range(1, n + 1):
            result = exact_sdepth(n, d, budget)
            if result.status != "proved":
                return False
            if result.value_or_bound != d + (n - d) // (d + 1):
                return False
    return True


def test_criterion_4_exact_values():
    t0 = time.time()
    ok = _exact_agrees_up_to(10)
    elapsed = time.time() - t0
    _report(4, "exact values match d + (n-d)//(d+1) for n <= 10", ok, elapsed)


def test_criterion_5_bounds():
    t0 = time.time()
    b = bounds(11, 3)
    ok = b.known_exact == 5
    b = bounds(24, 4)
    ok = ok and (b.lower_certified, b.upper, b.known_exact) == (7, 8, None)
    ok = ok and bounds(4, 2).known_exact == 2
    for n in range(1, 21):
        ok = ok and bounds(n, 1).known_exact == math.ceil(n / 2)
    _report(5, "closed-form bounds at the stated (n, d)", ok, time.time() - t0)


def test_criterion_6_counting_identity():
    t0 = time.time()
    ok = True
    checked = 0
    for c in range(2, 33):
        for d in range(1, 64):
            n = c * d + c - 1
            if n > 63:
                break
            ok = ok and (c - 1) * math.comb(n, d) == math.comb(n, d + 1)
            checked += 1
    ok = ok and checked > 0
    _report(6, f"(c-1)C(n,d) = C(n,d+1) at n = cd+c-1, {checked} cases",
            ok, time.time() - t0)


def test_criterion_7_block_structure_uniqueness():
    t0 = time.time()
    ok = True
    cases = 0
    for n in range(1, 10):
        for mask in range(1, 1 << n):
            A = PointSet(n, mask)
            for q in (1, 2, 3):
                for p in range(q, q * (n - 1) // A.size + 1):
                    delta = Density(p, q)
                    found = all_block_structures(n, A, delta)
                    ok = ok and len(found) == 1
                    ok = ok and found[0] == block_structure(n, A, delta)
                    cases += 1
    elapsed = time.time() - t0
    _report(7, f"block structure unique and matched, {cases} cases",
            ok and elapsed < 300.0, elapsed)


def _intervals_disjoint(n: int, d: int, c: int) -> bool:
    bottoms = size_masks_array(n, d)
    from vsdepth.blocks import f_int_masks

    tops = f_int_masks(n, c, bottoms)
    free = tops & ~bottoms
    members = [bottoms]
    # walk all submasks of the c-1 free bits per interval
    bits = []
    f = free.copy()
    for _ in range(c - 1):
        low = f & -f
        bits.append(low)
        f ^= low
    import itertools

    for r in range(1, c):
        for combo in itertools.combinations(range(c - 1), r):
            extra = np.zeros(bottoms.shape, dtype=np.int64)
            for j in combo:
                extra |= bits[j]
            members.append(bottoms | extra)
    allm = np.concatenate(members)
    return len(np.unique(allm)) == len(allm)


def _uncovered_closed_upward(n: int, d: int, c: int) -> bool:
    # a set has a covered superset iff it is below some top, and then the
    # one-bit extensions chain up to that top; so upward closure of the
    # uncovered family rank by rank is exactly "no covered superset"
    unc = {t: uncovered_reference(n, d, c, t) for t in range(d + 1, d + c)}
    for t in range(d + 1, d + c - 1):
        cur, nxt = unc[t], unc[t + 1]
        for bit in range(n):
            b = np.int64(1) << np.int64(bit)
            grown = cur[cur & b == 0] | b
            pos = np.searchsorted(nxt, grown)
            inside = (pos < len(nxt)) & (nxt[np.minimum(pos, len(nxt) - 1)] == grown)
            if not bool(np.all(inside)):
                return False
    return True


def test_criterion_8_no_collisions_and_uncovered_top():
    t0 = time.time()
    ok = True
    for c in (2, 3, 4):
        for d in range(1, 6):
            n = c * d + c - 1
            ok = ok and _intervals_disjoint(n, d, c)
            ok = ok and _uncovered_closed_upward(n, d, c)
    _report(8, "interval disjointness and uncovered upward closure, c in {2,3,4}, d <= 5",
            ok, time.time() - t0)


def test_criterion_9_general_construction():
    t0 = time.time()
    ok = True
    for n in range(1, 15):
        for d in range(1, n + 1):
            target = d + min((n + 1) // (d + 1), 4) - 1
            report = verify_certificate(construct_general(n, d))
            ok = ok and report.valid and report.achieved_depth >= target
    _report(9, "general construction meets the closed-form lower bound, n <= 14",
            ok, time.time() - t0)


def test_criterion_10_solver_constructor_agreement():
    t0 = time.time()
    budget = SearchBudget(wall_time_limit=60.0)
    ok = True
    for c in (2, 3, 4):
        d = 1
        while c * d + c - 1 <= 11:
            n = c * d + c - 1
            result = certify_at_least(n, d, d + c - 1, budget)
            ok = ok and result.status == "proved"
            if result.certificate is not None:
                report = verify_certificate(result.certificate)
                ok = ok and report.valid and report.achieved_depth >= d + c - 1
            d += 1
    _report(10, "solver reproves every base case n = cd+c-1 <= 11",
            ok, time.time() - t0)

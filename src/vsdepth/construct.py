"""Constructive interval partitions for the degree-d squarefree ideal.

For n = cd+c-1 the intervals [A, f_c(A)] over all d-sets A are pairwise
disjoint (c-1)-cubes that tile rank d+1 exactly.  c=3 is these cubes
alone; c=4 adds an edge from each (d+2)-set they leave to an uncovered
superset.  c=2 uses no f_2 interval: it matches every d-set into a
(d+1)-superset by the parenthesis rule.  The f_2 cubes alone would also
certify depth d+1, but they are other intervals, so switching would
change every certificate that c=2 emits.

The general builder reaches arbitrary (n, d) by the plus-one
composition: the certificate for (n, d) is the one for (n-1, d) followed
by the one for (n-1, d-1) lifted by the point n, down to the base
constructions, the full ring and the trivial certificate.  It builds each
distinct leaf of that recursion once and writes its intervals, lifted,
straight into the result; no intermediate certificate is built.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .blocks import chain_successor_bits, f_int_masks
from .intervals import Certificate, check_cell, check_members, verify_certificate
from .setcore import size_masks_array


def construct_c2(d: int) -> Certificate:
    """Depth d+1 certificate for n = 2d+1.

    Matches each d-set to a (d+1)-superset with the parenthesis rule; for
    n = 2d+1 the two ranks have equal size, so the matching is a
    bijection and the 1-cubes tile both ranks.
    """
    n = 2 * d + 1
    check_cell(n, d)
    bottoms = size_masks_array(n, d)
    tops = np.left_shift(1, chain_successor_bits(bottoms, n), dtype=np.int64)
    tops |= bottoms
    return Certificate.from_arrays(n, d, d + 1, bottoms, tops)


def construct_c3(d: int) -> Certificate:
    """Depth d+2 certificate for n = 3d+2: exactly the f_3 intervals."""
    n = 3 * d + 2
    check_cell(n, d)
    bottoms = size_masks_array(n, d)
    tops = f_int_masks(n, 3, bottoms)
    return Certificate.from_arrays(n, d, d + 2, bottoms, tops)


def construct_c4(d: int) -> Certificate:
    """Depth d+3 certificate for n = 4d+3.

    The f_4 intervals are 3-cubes that tile rank d+1.  A cube's
    (d+2)-sets are its top less one of its three free bits and its only
    (d+3)-set is its top, so the (d+2)-sets that no cube covers are read
    off the tops.  They are matched by the parenthesis rule into
    (d+3)-supersets, and the leftovers fall to the trivial completion.
    Two lemmas make the edges disjoint from each other and from the cubes:
    the rule is injective on sets of one size, and every superset of an
    uncovered set is uncovered, so no matched superset is a top.  Neither
    is re-checked here: a failure of either is an overlap, which the
    verifier reports on every path that emits the certificate.
    """
    n = 4 * d + 3
    check_cell(n, d)
    bottoms = size_masks_array(n, d)
    tops = f_int_masks(n, 4, bottoms)
    v1 = size_masks_array(n, d + 2)
    uncovered = np.ones(len(v1), dtype=bool)
    free = tops & ~bottoms
    for _ in range(3):
        low = free & -free
        free ^= low
        uncovered[np.searchsorted(v1, tops ^ low)] = False
    del free, low
    v1 = v1[uncovered]
    del uncovered
    matched = np.left_shift(1, chain_successor_bits(v1, n), dtype=np.int64)
    matched |= v1
    # the bottoms are two ascending runs of distinct ranks, so inserting
    # each cube before the first edge whose bottom is larger (a d-set
    # never equals a (d+2)-set) merges them in (bottom, top) order
    at = np.searchsorted(v1, bottoms)
    all_bottoms = np.insert(v1, at, bottoms)
    all_tops = np.insert(matched, at, tops)
    return Certificate.from_arrays(n, d, d + 3, all_bottoms, all_tops)


def full_ring_certificate(n: int) -> Certificate:
    """The (n, 0) base object: the single interval [empty, [n]]."""
    return Certificate.from_arrays(n, 0, n, [0], [(1 << n) - 1])


_BASE_BUILDERS = {2: construct_c2, 3: construct_c3, 4: construct_c4}

class Step(NamedTuple):
    """A cell of ``plan``: how (m, e) is built, the depth k it claims, and
    how many members its certificate has, the sum of 2^dim over its
    intervals that the member limit weighs."""

    kind: str  # "full", "trivial", "base" (the paper's c) or "compose"
    c: int
    depth: int
    members: int


@functools.cache
def plan(m: int, e: int) -> Step:
    """How ``construct_general`` builds (m, e): the full ring at e = 0,
    else by c = min(floor((m+1)/(e+1)), 4) the base at m = ce+c-1, the
    plus-one composition down to it, or no interval at all if c < 2."""
    if e == 0:
        return Step("full", 0, m, 1 << m)
    c = min((m + 1) // (e + 1), 4)
    if c <= 1:
        return Step("trivial", 0, e, 0)
    if m == c * e + c - 1:
        # c2 and c3 are C(m,e) cubes of dimension c-1; c4 adds to its
        # 3-cubes one edge per (e+2)-set that they leave uncovered
        cubes = math.comb(m, e)
        if c < 4:
            members = cubes << (c - 1)
        else:
            members = 8 * cubes + 2 * (math.comb(m, e + 2) - 3 * cubes)
        return Step("base", c, e + c - 1, members)
    p1, p2 = plan(m - 1, e - 1), plan(m - 1, e)
    return Step("compose", 0, p2.depth, p1.members + p2.members)


def _leaves(n: int, d: int) -> Iterator[tuple[int, int, int]]:
    """The leaf cells (m, e) of ``plan`` under (n, d), each with the mask
    that lifts it into [n], in the order of the certificate's intervals.

    A composed (m, e) lays out (m-1, e) as it is, then (m-1, e-1) lifted
    by the point m: the first part's masks lie below 2^(m-1) and the
    lifted ones above, so leaves in (bottom, top) order give a layout in
    that order too.
    """
    stack = [(n, d, 0)]
    while stack:
        m, e, lift = stack.pop()
        if plan(m, e).kind != "compose":
            yield m, e, lift
            continue
        stack.append((m - 1, e - 1, lift | 1 << (m - 1)))
        stack.append((m - 1, e, lift))


def _leaf(m: int, e: int) -> Certificate:
    """The certificate of a cell that ``plan`` builds without composing."""
    step = plan(m, e)
    if step.kind == "full":
        return full_ring_certificate(m)
    if step.kind == "trivial":
        return Certificate.from_arrays(m, e, step.depth, [], [])
    return _BASE_BUILDERS[step.c](e)


def construct_general(n: int, d: int) -> Certificate:
    """Certified lower-bound certificate for arbitrary 1 <= d <= n <= 63.

    Builds the certificate that ``plan`` lays out: each distinct leaf of
    ``_leaves`` is built once, and its intervals are written, lifted,
    wherever it is placed.  A plan of more members than the verifier
    accepts is refused by ``check_members`` before anything is built.
    The result is verified once, here; a failure is an internal error
    and raises ``AssertionError``.
    """
    check_cell(n, d)
    step = plan(n, d)
    check_members(step.members, f"the certificate for n={n}, d={d}")
    if step.kind == "compose":
        cert = Certificate.from_arrays(n, d, step.depth, *_splice(n, d))
    else:
        cert = _leaf(n, d)
    report = verify_certificate(cert)
    if not report.valid:
        raise AssertionError(
            f"constructed certificate does not verify: {report.violation()}"
        )
    return cert


def _splice(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The bottoms and tops of the composed (n, d), placed leaf by leaf."""
    leaf = functools.cache(_leaf)
    placed = [(leaf(m, e), lift) for m, e, lift in _leaves(n, d)]
    bottoms = np.concatenate([cert.bottom_masks for cert, _ in placed])
    tops = np.concatenate([cert.top_masks for cert, _ in placed])
    lifts = np.repeat(np.array([lift for _, lift in placed], dtype=np.int64),
                      [cert.num_explicit for cert, _ in placed])
    bottoms |= lifts
    tops |= lifts
    return bottoms, tops


@dataclass(frozen=True)
class Bounds:
    """Certified and conjectured values of the Stanley depth at (n, d)."""

    n: int
    d: int
    lower_certified: int
    upper: int
    known_exact: Optional[int]
    conjectured: int


def bounds(n: int, d: int) -> Bounds:
    """Bounds at (n, d); ``known_exact`` is set only where proved.

    ``lower_certified`` is the depth of ``plan``, which is what
    ``construct_general`` certifies.  Exact values: the counting upper
    bound is attained for n < 5d+4, and d = 1 is the known ceil(n/2) case.
    """
    check_cell(n, d)
    upper = d + (n - d) // (d + 1)
    lower = plan(n, d).depth
    known: Optional[int] = None
    if n < 5 * d + 4 or d == 1:
        known = upper
    return Bounds(n, d, lower, upper, known, upper)

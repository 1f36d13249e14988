"""Constructive interval partitions for the degree-d squarefree ideal.

For n = cd+c-1 the intervals [A, f_c(A)] over all d-sets A are pairwise
disjoint (c-1)-cubes that tile rank d+1 exactly; c=3 needs nothing more,
c=2 and c=4 additionally match leftover sets into leftover supersets.
The general builder reaches arbitrary (n, d) by lifting a pair of
certificates over [n] into one over [n+1] (the plus-one composition) down
to the base constructions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import f_int_masks
from .errors import BadParameters, DepthMismatch, MatchingFailed, UniverseMismatch
from .intervals import Certificate, verify_certificate
from .setcore import (
    MAX_UNIVERSE,
    PointSet,
    interval_members,
    popcount_array,
    size_masks_array,
)


def _veronese_arrays(n: int, d: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    bottoms = size_masks_array(n, d)
    tops = f_int_masks(n, c, bottoms)
    return bottoms, tops


def _uncovered_masks(
    n: int, bottoms: np.ndarray, tops: np.ndarray, ranks
) -> list[np.ndarray]:
    """Per rank t in ``ranks``, the t-sets that no interval [bottom, top]
    covers, in colex order."""
    members = interval_members(bottoms, tops)
    sizes = popcount_array(members)
    return [
        np.setdiff1d(
            size_masks_array(n, t), np.unique(members[sizes == t]), assume_unique=True
        )
        for t in ranks
    ]


def has_covered_superset(D: PointSet, n: int, d: int, c: int) -> bool:
    """Whether some superset of D is covered by an interval [A, f_c(A)].

    Every covered set lies under some top f_c(A), and tops themselves are
    covered, so it is enough to look for a top containing D.
    """
    if c < 2 or d < 1 or n != c * d + c - 1:
        raise BadParameters(
            f"need c >= 2, d >= 1 and n = cd+c-1, got n={n}, c={c}, d={d}"
        )
    if D.n != n:
        raise UniverseMismatch(f"universe {D.n} != n={n}")
    if D.size < d + 1:
        raise BadParameters(f"|D|={D.size} must be at least d+1={d + 1}")
    tops = f_int_masks(n, c, size_masks_array(n, d))
    return bool(np.any(D.mask & ~tops == 0))


def chain_successor_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """Per-mask 0-based position of the leftmost unmatched opening point.

    This is the classic parenthesis rule for matching sets into
    supersets.  Read position i as ')' when i is a member and '(' otherwise, match
    parentheses, and report the leftmost unmatched '('.  Adding that
    position to the set is injective over masks of a fixed size.  Raises
    if some mask has no unmatched opening position (only possible when
    members are at least half the universe).
    """
    masks = np.asarray(masks, dtype=np.int64)
    unmatched_close = np.zeros(masks.shape, dtype=np.int32)
    pos = np.full(masks.shape, -1, dtype=np.int32)
    for i in range(n - 1, -1, -1):
        member = ((masks >> np.int64(i)) & 1).astype(bool)
        pos = np.where(~member & (unmatched_close == 0), np.int32(i), pos)
        unmatched_close = np.where(
            member, unmatched_close + 1, np.maximum(unmatched_close - 1, 0)
        )
    if bool(np.any(pos < 0)):
        raise MatchingFailed("a set has no unmatched opening position")
    return pos


def construct_c2(d: int) -> Certificate:
    """Depth d+1 certificate for n = 2d+1.

    Matches each d-set to a (d+1)-superset with the parenthesis rule; for
    n = 2d+1 the two ranks have equal size, so the matching is a
    bijection and the 1-cubes tile both ranks.
    """
    if d < 1:
        raise BadParameters(f"d={d} must be >= 1")
    n = 2 * d + 1
    bottoms = size_masks_array(n, d)
    tops = bottoms | (np.int64(1) << chain_successor_bits(bottoms, n).astype(np.int64))
    return Certificate.from_arrays(n, d, d + 1, bottoms, tops)


def construct_c3(d: int) -> Certificate:
    """Depth d+2 certificate for n = 3d+2: exactly the f_3 intervals."""
    if d < 1:
        raise BadParameters(f"d={d} must be >= 1")
    n = 3 * d + 2
    bottoms, tops = _veronese_arrays(n, d, 3)
    return Certificate.from_arrays(n, d, d + 2, bottoms, tops)


def construct_c4(d: int) -> Certificate:
    """Depth d+3 certificate for n = 4d+3.

    The f_4 intervals tile ranks d and d+1; the uncovered (d+2)-sets are
    matched injectively into uncovered (d+3)-supersets (every superset of
    an uncovered set is uncovered, so the parenthesis successor lands in
    the target side) and the leftovers fall to the trivial completion.
    """
    if d < 1:
        raise BadParameters(f"d={d} must be >= 1")
    n = 4 * d + 3
    bottoms, tops = _veronese_arrays(n, d, 4)
    v1, v2 = _uncovered_masks(n, bottoms, tops, (d + 2, d + 3))
    matched = v1 | (np.int64(1) << chain_successor_bits(v1, n).astype(np.int64))
    if len(np.unique(matched)) != len(v1):
        raise MatchingFailed("successor rule failed to be injective on V1")
    hits = np.searchsorted(v2, matched)
    ok = (hits < len(v2)) & (v2[np.minimum(hits, len(v2) - 1)] == matched)
    if not bool(np.all(ok)):
        raise MatchingFailed(
            "a matched superset was covered; this contradicts the "
            "uncovered-superset lemma"
        )
    all_bottoms = np.concatenate([bottoms, v1])
    all_tops = np.concatenate([tops, matched])
    return Certificate.from_arrays(n, d, d + 3, all_bottoms, all_tops)


def full_ring_certificate(n: int, k: Optional[int] = None) -> Certificate:
    """The (n, 0) base object: the single interval [empty, [n]]."""
    full = np.array([(1 << n) - 1], dtype=np.int64)
    empty = np.zeros(1, dtype=np.int64)
    return Certificate.from_arrays(n, 0, n if k is None else k, empty, full)


def compose_plus1(p1: Certificate, p2: Certificate) -> Certificate:
    """Lift a (n, d-1) certificate and splice it with a (n, d) one.

    Every explicit interval of p1 is lifted by the new point n+1; p2's
    intervals stay as-is.  Lifted p1 members all contain n+1 while p2
    members never do, so the union is disjoint, and p1's trivial sets lift
    to rank >= p1.k + 1 where the new completion absorbs them.  Only the
    parameters are checked; the splice is not verified, because a defect
    in either input surfaces in the ranks the composition claims, where
    ``construct_general`` verifies its result once.
    """
    if p1.universe_size != p2.universe_size:
        raise UniverseMismatch(
            f"universe sizes differ: {p1.universe_size} vs {p2.universe_size}"
        )
    if p2.min_generator_size != p1.min_generator_size + 1:
        raise BadParameters(
            f"p2 must be one degree above p1: d={p1.min_generator_size} "
            f"vs {p2.min_generator_size}"
        )
    a_plus1 = p2.claimed_depth
    if p1.claimed_depth < a_plus1 - 1:
        raise DepthMismatch(
            f"p1 depth {p1.claimed_depth} below required {a_plus1 - 1}"
        )
    n = p1.universe_size
    new_bit = np.int64(1 << n)
    bottoms = np.concatenate([p1.bottom_masks | new_bit, p2.bottom_masks])
    tops = np.concatenate([p1.top_masks | new_bit, p2.top_masks])
    return Certificate.from_arrays(
        n + 1, p2.min_generator_size, a_plus1, bottoms, tops
    )


_BASE_BUILDERS = {2: construct_c2, 3: construct_c3, 4: construct_c4}


def _check_degree(n: int, d: int) -> None:
    if not 1 <= d <= n <= MAX_UNIVERSE:
        raise BadParameters(f"need 1 <= d <= n <= {MAX_UNIVERSE}, got d={d}, n={n}")


def construct_general(n: int, d: int) -> Certificate:
    """Certified lower-bound certificate for arbitrary 1 <= d <= n <= 63.

    Chooses the strongest available c = min(floor((n+1)/(d+1)), 4), takes
    the base construction at n' = cd+c-1, and walks up to n with the
    plus-one composition; the degree-0 leg of each composition is the
    full-ring interval.  The result is verified once, here; a failure is
    an internal error and raises ``AssertionError``.
    """
    _check_degree(n, d)
    memo: dict[tuple[int, int], Certificate] = {}

    def build(m: int, e: int) -> Certificate:
        if (m, e) in memo:
            return memo[(m, e)]
        if e == 0:
            cert = full_ring_certificate(m)
        else:
            c = min((m + 1) // (e + 1), 4)
            if c <= 1:
                cert = Certificate.from_arrays(
                    m, e, e,
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                )
            elif m == c * e + c - 1:
                cert = _BASE_BUILDERS[c](e)
            else:
                cert = compose_plus1(build(m - 1, e - 1), build(m - 1, e))
        memo[(m, e)] = cert
        return cert

    cert = build(n, d)
    report = verify_certificate(cert)
    if not report.valid:
        raise AssertionError(
            f"constructed certificate does not verify: {report.first_violation}"
        )
    return cert


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
    """Closed-form bounds; ``known_exact`` is set only where proved.

    Exact values: the counting upper bound is attained for n < 5d+4 and
    for d >= ceil(n/2) (where it collapses to d), and d = 1 is the known
    ceil(n/2) case.
    """
    _check_degree(n, d)
    upper = d + (n - d) // (d + 1)
    lower = max(d, d + min((n + 1) // (d + 1), 4) - 1)
    known: Optional[int] = None
    if n < 5 * d + 4 or d >= math.ceil(n / 2) or d == 1:
        known = upper
    return Bounds(n, d, lower, upper, known, upper)

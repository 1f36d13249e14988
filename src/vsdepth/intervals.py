"""Intervals of the Boolean lattice and interval-partition certificates.

A Certificate holds the explicit intervals of a partition of the poset of
all subsets of [n] of size >= d; everything not covered explicitly is
completed by trivial singleton intervals [C,C].  The verifier checks that
the explicit intervals are pairwise disjoint and tile every rank below
the claimed depth exactly once, which makes the trivial completion sound.

Explicit intervals are stored as parallel int64 mask arrays so that
certificates with millions of intervals stay cheap to build and check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BottomTooSmall,
    CertificateFormatError,
    ElementOutOfRange,
    RefusesUnverified,
    UniverseMismatch,
)
from .setcore import (
    MAX_UNIVERSE,
    PointSet,
    format_masks,
    interval_members,
    parse_masks,
    popcount_array,
    size_masks_array,
)

FILE_HEADER = "VSDEPTH-CERT v1"


@dataclass(frozen=True)
class Interval:
    """The subcube [bottom, top] = all C with bottom <= C <= top."""

    bottom: PointSet
    top: PointSet

    def __post_init__(self) -> None:
        if self.bottom.n != self.top.n:
            raise UniverseMismatch(
                f"interval ends in different universes: {self.bottom.n} vs {self.top.n}"
            )
        if self.bottom.mask & ~self.top.mask:
            raise BottomTooSmall(
                f"bottom {self.bottom} not contained in top {self.top}"
            )

    @property
    def n(self) -> int:
        return self.bottom.n

    @property
    def dimension(self) -> int:
        return self.top.size - self.bottom.size


def covers(iv: Interval, C: PointSet) -> bool:
    """True iff bottom <= C <= top."""
    if C.n != iv.n:
        raise UniverseMismatch(f"universe sizes differ: {iv.n} vs {C.n}")
    return iv.bottom.mask & ~C.mask == 0 and C.mask & ~iv.top.mask == 0


def disjoint(i1: Interval, i2: Interval) -> bool:
    """True iff the subcubes share no set.

    Two intervals overlap exactly when the union of the bottoms fits
    inside the intersection of the tops (that union is then a common
    member), so the test is O(1).
    """
    if i1.n != i2.n:
        raise UniverseMismatch(f"universe sizes differ: {i1.n} vs {i2.n}")
    both = i1.bottom.mask | i2.bottom.mask
    return bool(both & ~(i1.top.mask & i2.top.mask))


@dataclass
class Certificate:
    """An interval partition of the rank >= d subsets of [n].

    ``claimed_depth`` is the k being certified: every explicit top has at
    least k points and ranks d..k-1 are covered exactly once, so the
    implied full partition has minimum top size k.
    """

    universe_size: int
    min_generator_size: int
    claimed_depth: int
    bottom_masks: np.ndarray
    top_masks: np.ndarray

    @classmethod
    def from_arrays(
        cls, n: int, d: int, k: int, bottoms: np.ndarray, tops: np.ndarray
    ) -> "Certificate":
        bottoms = np.asarray(bottoms, dtype=np.int64)
        tops = np.asarray(tops, dtype=np.int64)
        order = np.lexsort((tops, bottoms))
        return cls(n, d, k, bottoms[order], tops[order])

    @property
    def num_explicit(self) -> int:
        return len(self.bottom_masks)


@dataclass
class VerifyReport:
    valid: bool
    achieved_depth: Optional[int]
    first_violation: Optional[tuple] = None
    rank_coverage: dict[int, int] = field(default_factory=dict)


def verify_certificate(cert: Certificate) -> VerifyReport:
    """Check the partition property and report the achieved depth.

    Valid iff the explicit intervals are pairwise disjoint, every set of
    size d..k-1 is covered exactly once, and every explicit top has at
    least k points.  ``rank_coverage`` counts the covered sets at every
    rank d..n once the intervals are found disjoint.
    """
    n = cert.universe_size
    d = cert.min_generator_size
    k = cert.claimed_depth
    bottoms, tops = cert.bottom_masks, cert.top_masks

    if cert.num_explicit == 0:
        # purely trivial certificate: sound iff there is nothing below k
        coverage = {t: 0 for t in range(d, n + 1)}
        if k > d:
            return VerifyReport(
                False, d, ("gap-at-rank", d, _find_missing(n, d, np.empty(0, np.int64))),
                coverage,
            )
        return VerifyReport(True, k, None, coverage)

    if bool(np.any(bottoms & ~tops)):
        idx = int(np.argmax((bottoms & ~tops) != 0))
        return VerifyReport(
            False, None,
            ("bottom-not-in-top", PointSet(n, int(bottoms[idx]))),
        )
    bot_sizes = popcount_array(bottoms)
    top_sizes = popcount_array(tops)
    if bool(np.any(bot_sizes < d)):
        idx = int(np.argmax(bot_sizes < d))
        return VerifyReport(
            False, None, ("bottom-too-small", PointSet(n, int(bottoms[idx])))
        )
    if bool(np.any(top_sizes < k)):
        idx = int(np.argmax(top_sizes < k))
        return VerifyReport(
            False, None, ("top-too-small", PointSet(n, int(tops[idx])))
        )

    members = interval_members(bottoms, tops)
    members.sort()
    if len(members) > 1 and bool(np.any(members[1:] == members[:-1])):
        idx = int(np.argmax(members[1:] == members[:-1]))
        return VerifyReport(
            False, None, ("overlap", PointSet(n, int(members[idx])))
        )

    ranks = popcount_array(members)
    counts = np.bincount(ranks, minlength=n + 1)
    coverage = {t: int(counts[t]) for t in range(d, n + 1)}
    for t in range(d, k):
        want = math.comb(n, t)
        if counts[t] != want:
            missing = _find_missing(n, t, members[ranks == t])
            return VerifyReport(False, None, ("gap-at-rank", t, missing), coverage)

    achieved = min(k, int(top_sizes.min()))
    return VerifyReport(True, achieved, None, coverage)


def _find_missing(n: int, t: int, covered: np.ndarray) -> PointSet:
    everything = size_masks_array(n, t)
    gap = np.setdiff1d(everything, covered)
    return PointSet(n, int(gap[0]))


def _monomial(mask: int, n: int) -> str:
    return "".join(f"x{i}" for i in PointSet(n, mask).members()) or "1"


def render_stanley(cert: Certificate) -> str:
    """The decomposition as a direct sum of monomial-times-subring summands."""
    report = verify_certificate(cert)
    if not report.valid:
        raise RefusesUnverified(f"certificate does not verify: {report.first_violation}")
    n = cert.universe_size
    lines = []
    for b, t in zip(cert.bottom_masks, cert.top_masks):
        variables = ",".join(f"x{i}" for i in PointSet(n, int(t)).members())
        lines.append(f"{_monomial(int(b), n)}·K[{variables}]")
    trivia = []
    for t, covered in report.rank_coverage.items():
        rest = math.comb(n, t) - covered
        if rest:
            trivia.append(f"rank {t}: {rest}")
    lines.append("trivial summands: " + ("; ".join(trivia) if trivia else "none"))
    return "\n".join(lines)


def format_certificate(cert: Certificate) -> str:
    """Canonical line-oriented certificate text (round-trip stable)."""
    n = cert.universe_size
    order = np.lexsort((cert.top_masks, cert.bottom_masks))
    bottoms, tops = cert.bottom_masks[order], cert.top_masks[order]
    if bool(np.any((bottoms | tops) >> n)):
        raise ElementOutOfRange(f"an interval has members outside 1..{n}")
    # spelled in slices so that only one slice's literals exist at a time
    step = 1 << 16
    body = "".join(
        "".join(map(
            "interval {} {}\n".format,
            format_masks(bottoms[i:i + step]),
            format_masks(tops[i:i + step]),
        ))
        for i in range(0, len(order), step)
    )
    return (
        f"{FILE_HEADER}\nn={n} d={cert.min_generator_size} k={cert.claimed_depth}\n"
        f"{body}trivial-completion\n"
    )


def _interval_literals(lines: list[str]):
    """The bottom and top literal of each interval line, in turn."""
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "interval":
            raise CertificateFormatError(f"bad interval line: {line!r}")
        yield parts[1]
        yield parts[2]


def parse_certificate(text: str) -> Certificate:
    """Certificate from its text; refuses parameters outside
    1 <= d <= k <= n <= 63 and malformed lines or set literals."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != FILE_HEADER:
        raise CertificateFormatError("missing VSDEPTH-CERT v1 header")
    try:
        fields = dict(part.split("=", 1) for part in lines[1].split())
        n, d, k = int(fields["n"]), int(fields["d"]), int(fields["k"])
    except (ValueError, KeyError) as exc:
        raise CertificateFormatError(f"bad parameter line: {lines[1]!r}") from exc
    if not 1 <= d <= k <= n <= MAX_UNIVERSE:
        raise CertificateFormatError(
            f"parameters outside 1 <= d <= k <= n <= {MAX_UNIVERSE}: {lines[1]!r}"
        )
    if lines[-1] != "trivial-completion":
        raise CertificateFormatError("missing trivial-completion terminator")
    masks = parse_masks(_interval_literals(lines[2:-1]), n)
    return Certificate.from_arrays(n, d, k, masks[0::2], masks[1::2])

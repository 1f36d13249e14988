"""Block structures of a set on the circular representation of [n].

For a nonempty A and a rational density p/q >= 1, the circle splits
uniquely into alternating blocks and gaps B_1,G_1,...,B_k,G_k where each
block starts at an element of A, gaps avoid A, and block lengths track
the density: writing s(P) = p*|P & A| - q*|P| for a prefix P of a block,
every proper prefix has s >= q and the full block lands in 0 <= s < q.

So one clockwise recurrence reads the structure off.  A point weighs
w = p-q if it is in A and -q otherwise, and

    s' = (s if s >= q else 0) + w.

While s >= q a block is open and keeps running; s < q closes it, and the
next point starts afresh.  A member x with s < q just before it opens a
block, x is a gap point when s' < 0, and x ends its block when
0 <= s' < q.  A run started closed (s = -q) before point 1 is exact on
its second lap:

- every block is shorter than n, because a full lap weighs
  p|A| - qn <= -q, while a block weighs >= 0 and its prefixes >= q;
- while the true run is open, the started run's s is never larger (it
  only ever restarts from 0 where the true run keeps s >= q), so it is
  closed too by the time the true block containing point 1 has ended;
- from the first point at which both runs are closed, they agree.

At q = 1, "s < 1 -> 0" is max(s, 0), so s' = max(s, 0) + w with w = c-1
or -1.  ``recurrence_signs`` reads the bits of a mask array itself and
runs that over it for the two rules that sit beside it: ``f_int_masks``
(f_c: gaps where s' < 0 on the second lap from point 1) and
``chain_successor_bits`` (the parenthesis rule: one lap at c = 2 from
point n down; max(s, 0) counts the pending ')', and s' < 0 marks an
unmatched '(').
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    DensityOutOfRange,
    ElementOutOfRange,
    EmptySet,
    MatchingFailed,
    UniverseMismatch,
)
from .setcore import PointSet, _check_universe, circ_mask, slices


@dataclass(frozen=True)
class Density:
    """Exact rational density p/q >= 1, stored in lowest terms."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise DensityOutOfRange(f"density {self.p}/{self.q} not positive")
        if self.p < self.q:
            raise DensityOutOfRange(f"density {self.p}/{self.q} below 1")
        g = math.gcd(self.p, self.q)
        if g != 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)

    @classmethod
    def parse(cls, text: str) -> "Density":
        """Parse ``p/q`` or the integer shorthand ``c``, in ASCII digits
        with no sign, space or underscore."""
        match = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", text)
        try:
            p, q = int(match[1]), int(match[2] or 1)
        except (TypeError, ValueError) as exc:  # no match, or past int()'s digits
            raise DensityOutOfRange(f"malformed density {text!r}") from exc
        return cls(p, q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}" if self.q != 1 else str(self.p)


@dataclass(frozen=True)
class CircBlock:
    """A clockwise run [start, end] on the circle, wrapping past n."""

    n: int
    start: int
    end: int

    def __post_init__(self) -> None:
        _check_universe(self.n)
        for point in (self.start, self.end):
            if not 1 <= point <= self.n:
                raise ElementOutOfRange(f"point {point} not in 1..{self.n}")

    @property
    def mask(self) -> int:
        return circ_mask(self.n, self.start, self.end)

    def to_set(self) -> PointSet:
        return PointSet(self.n, self.mask)

    @property
    def length(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class BlockStructure:
    """Alternating blocks/gaps partition of the circle for a set A.

    ``gaps[i]`` is the gap following ``blocks[i]``; empty gaps are kept as
    None so blocks and gaps stay index-aligned.
    """

    n: int
    set: PointSet
    density: Density
    blocks: tuple[CircBlock, ...]
    gaps: tuple[Optional[CircBlock], ...]

    def gap_set(self) -> PointSet:
        mask = 0
        for g in self.gaps:
            if g is not None:
                mask |= g.mask
        return PointSet(self.n, mask)


def _cyclic_succ(n: int, i: int) -> int:
    return i % n + 1


def _check_density_range(n: int, A: PointSet, delta: Density) -> None:
    if A.mask == 0:
        raise EmptySet("block structure requires a nonempty set")
    if delta.p * A.size > delta.q * (n - 1):
        raise DensityOutOfRange(
            f"density {delta} exceeds (n-1)/|A| for n={n}, |A|={A.size}"
        )


def _scan(n: int, a_mask: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """Ascending block starts and block ends of A, from the second lap of
    the recurrence in the module doc; Python ints keep any p/q exact."""
    starts: list[int] = []
    ends: list[int] = []
    s = -q
    for step in range(2 * n):
        x = step % n + 1
        member = a_mask >> (x - 1) & 1
        if step >= n and member and s < q:
            starts.append(x)
        s = (s if s >= q else 0) + (p - q if member else -q)
        if step >= n and 0 <= s < q:
            ends.append(x)
    return starts, ends


def block_structure(n: int, A: PointSet, delta: Density) -> BlockStructure:
    """The unique block structure of A on [n] with density delta."""
    if A.n != n:
        raise UniverseMismatch(f"set universe {A.n} != n={n}")
    _check_density_range(n, A, delta)
    starts, ends = _scan(n, A.mask, delta.p, delta.q)
    if ends[0] < starts[0]:
        # the last block wraps past n and ends first
        ends = ends[1:] + ends[:1]
    blocks: list[CircBlock] = []
    gaps: list[Optional[CircBlock]] = []
    for b, e, nxt in zip(starts, ends, starts[1:] + starts[:1]):
        blocks.append(CircBlock(n, b, e))
        # the gap runs from just past the block end to just before the
        # next start; an empty gap means the next block is adjacent
        after = _cyclic_succ(n, e)
        gaps.append(None if after == nxt else CircBlock(n, after, (nxt - 2) % n + 1))
    bs = BlockStructure(n, A, delta, tuple(blocks), tuple(gaps))
    violation = block_structure_violation(bs)
    if violation is not None:
        raise AssertionError(f"scan of A={A}, delta={delta} fails {violation}")
    return bs


def block_structure_violation(bs: BlockStructure) -> Optional[str]:
    """First violated clause of the block-structure definition, or None.

    Tags: ``partition``, ``clause-i``, ``clause-ii``, ``clause-iii``,
    ``clause-iv``.
    """
    n = bs.n
    a_mask = bs.set.mask
    p, q = bs.density.p, bs.density.q
    if len(bs.blocks) == 0 or len(bs.blocks) != len(bs.gaps):
        return "partition"
    # blocks and gaps in turn, empty gaps skipped, are arcs that must each
    # start just past the one before; arcs laid so round the circle cover
    # it exactly once iff their lengths sum to n
    arcs = [arc for pair in zip(bs.blocks, bs.gaps) for arc in pair if arc is not None]
    if sum(arc.length for arc in arcs) != n or any(
        _cyclic_succ(n, prev.end) != arc.start for prev, arc in zip(arcs[-1:] + arcs, arcs)
    ):
        return "partition"
    for block in bs.blocks:
        if not a_mask >> (block.start - 1) & 1:
            return "clause-i"
    for gap in bs.gaps:
        if gap is not None and gap.mask & a_mask:
            return "clause-ii"
    for block in bs.blocks:
        size = block.length
        inter = (block.mask & a_mask).bit_count()
        if not (p * inter - q < q * size <= p * inter):
            return "clause-iii"
    for block in bs.blocks:
        # proper initial segments: s(P) >= q, i.e. q*(|P|+1) <= p*|P & A|
        pos = block.start
        length, inter = 0, 0
        for _ in range(block.length - 1):
            length += 1
            inter += a_mask >> (pos - 1) & 1
            if q * (length + 1) > p * inter:
                return "clause-iv"
            pos = _cyclic_succ(n, pos)
    return None


def verify_block_structure(bs: BlockStructure) -> bool:
    """True iff all four clauses and the partition property hold."""
    return block_structure_violation(bs) is None


def f_delta(n: int, A: PointSet, delta: Density) -> PointSet:
    """A together with all its gaps: the canonical interval top over A."""
    bs = block_structure(n, A, delta)
    return A | bs.gap_set()


def recurrence_signs(masks: np.ndarray, c: int,
                     positions) -> Iterator[tuple[int, np.ndarray]]:
    """``(i, negative)`` per position i of the sequence ``positions``:
    per mask of the 1-d array ``masks``, whether s' < 0 in the q = 1
    recurrence from s = 0, with w = c-1 <= 62 at a member; ``negative``
    is rewritten in place.  The byte that holds bit i is copied out once
    per run of positions that fall in it, so each position reads one
    byte per mask, not eight."""
    columns = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    # -1 <= s <= len(positions)(c-1): 126 at c = 2, else at most 2*63*62
    bound = len(positions) * (c - 1)
    s = np.zeros(len(columns), dtype=np.int8 if bound < 1 << 7 else np.int16)
    negative = np.empty(len(columns), dtype=bool)
    bits = np.empty(len(columns), dtype=np.uint8)
    w = bits.view(np.int8)
    byte, column = -1, None
    for i in positions:
        if i >> 3 != byte:
            byte = i >> 3
            column = np.ascontiguousarray(columns[:, byte])
        np.right_shift(column, i & 7, out=bits)
        np.bitwise_and(bits, 1, out=bits)
        np.maximum(s, 0, out=s)
        w *= c
        s += w
        s -= 1
        np.less(s, 0, out=negative)
        yield i, negative


def f_int_masks(n: int, c: int, masks: np.ndarray) -> np.ndarray:
    """Vectorized f_c for integer density c over an array of set masks.

    Over the d-sets, the intervals [A, f_c(A)] are disjoint at n =
    (d+1)c-1 (the paper's bases).  At n = (d+1)c-2 they are too, with the
    least top at the upper bound: an observation that tests/test_blocks.py
    checks, not a theorem of the paper.  The recurrence runs a slice of
    masks at a time, so its temporaries are O(slice).
    """
    if c < 2:
        raise DensityOutOfRange(f"vectorized f_c needs integer c >= 2, got {c}")
    masks = np.asarray(masks, dtype=np.int64)
    # from c = n on, an arc from a member never goes negative, so f_c = f_n
    c = min(c, n)
    laps = [*range(n)] * 2
    tops = masks.copy()
    for part in slices(len(masks)):
        top = tops[part]
        for step, (i, negative) in enumerate(recurrence_signs(masks[part], c, laps)):
            if step >= n:
                np.bitwise_or(top, np.int64(1 << i), out=top, where=negative)
    return tops


def chain_successor_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """Per-mask 0-based position (int8) of the leftmost unmatched opening point.

    This is the classic parenthesis rule for matching sets into
    supersets.  Read position i as ')' when i is a member and '(' otherwise, match
    parentheses, and report the leftmost unmatched '('.  Adding that
    position to the set is injective over masks of a fixed size.  Raises
    if some mask has no unmatched opening position (only possible when
    members are at least half the universe).  It is one lap of
    ``recurrence_signs`` at c = 2 from point n down, keeping the lowest
    position where the value dips below 0, run a slice of masks at a time.
    """
    masks = np.asarray(masks, dtype=np.int64)
    pos = np.full(masks.shape, -1, dtype=np.int8)
    for part in slices(len(masks)):
        for i, negative in recurrence_signs(masks[part], 2, range(n - 1, -1, -1)):
            np.copyto(pos[part], i, where=negative)
    if bool(np.any(pos < 0)):
        raise MatchingFailed("a set has no unmatched opening position")
    return pos

"""Subsets of [n] = {1,...,n} on the circular representation.

A PointSet is an immutable characteristic bitmask over a universe of at
most 63 points, so all set algebra is single-word arithmetic.  Bit i-1 of
``mask`` holds membership of point i.  The canonical ordering everywhere
is colexicographic, which for subsets of equal size coincides with the
numeric order of the masks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ElementOutOfRange, UniverseMismatch, UniverseOutOfRange

MAX_UNIVERSE = 63


def _check_universe(n: int) -> None:
    if not 1 <= n <= MAX_UNIVERSE:
        raise UniverseOutOfRange(f"universe size {n} not in 1..{MAX_UNIVERSE}")


@dataclass(frozen=True)
class PointSet:
    """A subset of [n], stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_universe(self.n)
        if self.mask < 0 or self.mask >> self.n:
            raise ElementOutOfRange(
                f"mask {self.mask:#x} has members outside 1..{self.n}"
            )

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __contains__(self, point: int) -> bool:
        return 1 <= point <= self.n and bool(self.mask >> (point - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.size

    def _same_universe(self, other: "PointSet") -> None:
        if self.n != other.n:
            raise UniverseMismatch(f"universe sizes differ: {self.n} vs {other.n}")

    def union(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask | other.mask)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask & other.mask)

    def difference(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.n, ~self.mask & ((1 << self.n) - 1))

    def issubset(self, other: "PointSet") -> bool:
        self._same_universe(other)
        return self.mask & ~other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset

    def __str__(self) -> str:
        return format_masks([self.mask])[0]


def make_set(n: int, elems: list[int] | tuple[int, ...]) -> PointSet:
    """Build a PointSet from explicit members; duplicates collapse."""
    _check_universe(n)
    mask = 0
    for e in elems:
        if not 1 <= e <= n:
            raise ElementOutOfRange(f"element {e} not in 1..{n}")
        mask |= 1 << (e - 1)
    return PointSet(n, mask)


@functools.cache
def _literal_parts(j: int) -> np.ndarray:
    """Entry v + 256 * lower spells the members held by byte j of a mask
    when that byte has value v; lower = 1 adds the comma that separates
    them from members in the bytes below."""
    parts = [",".join(str(8 * j + i + 1) for i in range(8) if v >> i & 1)
             for v in range(256)]
    return np.array(parts + ["," + p if p else "" for p in parts], dtype=object)


def format_masks(masks) -> list[str]:
    """Canonical set literals ``{a,b,c}``, ascending, no whitespace.

    Each mask is spelled byte by byte through ``_literal_parts``, one
    array operation per byte over all masks at once.
    """
    rest = np.asarray(masks, dtype=np.int64)
    out = np.full(rest.shape, "{", dtype=object)
    lower = np.zeros(rest.shape, dtype=bool)
    for j in range(8):
        if not rest.any():
            break
        byte = rest & 255
        out += _literal_parts(j)[byte + 256 * lower]
        lower |= byte != 0
        rest = rest >> 8
    return (out + "}").tolist()


def parse_masks(literals, n: int) -> np.ndarray:
    """Masks over [n] of set literals, the inverse of ``format_masks``.

    Surrounding whitespace is ignored, members may come in any order and
    may repeat; anything else that is not a ``{...}`` of integers in
    1..n raises ``ElementOutOfRange``.  ``literals`` may be any iterable;
    it is read once.
    """
    _check_universe(n)
    bits = {str(i + 1): 1 << i for i in range(n)}

    def masks():
        for text in literals:
            text = text.strip()
            if not (text.startswith("{") and text.endswith("}")):
                raise ElementOutOfRange(f"malformed set literal {text!r}")
            mask = 0
            if len(text) > 2:
                for tok in text[1:-1].split(","):
                    bit = bits.get(tok)
                    if bit is None:
                        bit = 1 << (_element(tok, text, n) - 1)
                    mask |= bit
            yield mask

    return np.fromiter(masks(), dtype=np.int64)


def _element(tok: str, text: str, n: int) -> int:
    """A member written other than canonically, such as ``03``."""
    try:
        e = int(tok)
    except ValueError as exc:
        raise ElementOutOfRange(f"malformed set literal {text!r}") from exc
    if not 1 <= e <= n:
        raise ElementOutOfRange(f"element {e} not in 1..{n}")
    return e


def binomial(n: int, k: int) -> int:
    """Exact C(n,k); k > n gives 0."""
    if n < 0 or n > MAX_UNIVERSE:
        raise UniverseOutOfRange(f"n={n} not in 0..{MAX_UNIVERSE}")
    if k < 0:
        raise ElementOutOfRange(f"k={k} negative")
    if k > n:
        return 0
    return math.comb(n, k)


def circ_block(n: int, i: int, j: int) -> PointSet:
    """The clockwise run from i through j inclusive; wraps past n to 1."""
    _check_universe(n)
    for point in (i, j):
        if not 1 <= point <= n:
            raise ElementOutOfRange(f"point {point} not in 1..{n}")
    return PointSet(n, circ_mask(n, i, j))


def circ_mask(n: int, i: int, j: int) -> int:
    if i <= j:
        return ((1 << (j - i + 1)) - 1) << (i - 1)
    full = (1 << n) - 1
    return full & ~circ_mask(n, j + 1, i - 1) if j + 1 <= i - 1 else full


def size_masks_array(n: int, t: int) -> np.ndarray:
    """All t-subset masks of [n] as an int64 array, colex order.

    Built level-by-level: the first C(m,t) entries of the level-t array
    are exactly the t-subsets of [m], so each level is a concatenation of
    prefixes of the previous one shifted by a new top bit.  Above t = n/2
    the levels would pass through C(n, n/2) entries, so the t-subsets are
    built as the complements of the (n-t)-subsets, whose reverse order is
    again colex.
    """
    _check_universe(n)
    if not 0 <= t <= n:
        raise ElementOutOfRange(f"subset size {t} not in 0..{n}")
    if 2 * t > n:
        return np.int64((1 << n) - 1) ^ size_masks_array(n, n - t)[::-1]
    level = np.zeros(1, dtype=np.int64)  # the single 0-subset
    for size in range(1, t + 1):
        parts = [
            level[: math.comb(m - 1, size - 1)] | np.int64(1 << (m - 1))
            for m in range(size, n + 1)
        ]
        level = np.concatenate(parts)
    return level


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 mask array."""
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def interval_members(bottoms: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Every member of every interval [bottom, top], with multiplicity.

    Intervals are grouped by dimension; each group of G intervals of
    dimension k fills a (2**k, G) block of one preallocated output by
    doubling: rows [2**j, 2**(j+1)) are rows [0, 2**j) with each
    interval's j-th lowest free bit added.  The order of the output is
    unspecified.
    """
    free = tops & ~bottoms
    dims = popcount_array(free)
    counts = np.bincount(dims)
    out = np.empty(sum(int(g) << k for k, g in enumerate(counts)), dtype=np.int64)
    start = 0
    for k in np.flatnonzero(counts).tolist():
        g = int(counts[k])
        block = out[start:start + (g << k)].reshape(1 << k, g)
        sel = dims == k
        block[0] = bottoms[sel]
        rest = free[sel]
        for j in range(k):
            low = rest & -rest
            rest ^= low
            np.bitwise_or(block[: 1 << j], low, out=block[1 << j: 2 << j])
        start += block.size
    return out

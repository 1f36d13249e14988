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
# intervals or members per slice of the sliced full-length steps
_SLICE = 1 << 18


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

    def _same_universe(self, other: "PointSet") -> None:
        if self.n != other.n:
            raise UniverseMismatch(f"universe sizes differ: {self.n} vs {other.n}")

    def union(self, other: "PointSet") -> "PointSet":
        self._same_universe(other)
        return PointSet(self.n, self.mask | other.mask)

    __or__ = union

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
def _byte_pieces(j: int, n: int) -> np.ndarray:
    """Row v spells the members of [n] held by byte j of a mask when that
    byte has value v, each followed by ``,``; row 256 + v is the same
    with the last ``,`` made ``}`` (row 256 alone is ``}``), for the
    highest nonempty byte of a literal.  Rows are zero-padded to the
    longest, so a literal is spelled by one row gather per byte and its
    padding is dropped afterwards."""
    members = [str(8 * j + i + 1) for i in range(min(8, n - 8 * j))]
    rows = [
        "".join(m + "," for i, m in enumerate(members) if v >> i & 1).encode()
        for v in range(256)
    ]
    rows += [row[:-1] + b"}" for row in rows]
    table = np.zeros((512, max(map(len, rows))), dtype=np.uint8)
    for v, row in enumerate(rows):
        table[v, :len(row)] = np.frombuffer(row, dtype=np.uint8)
    return table


def literal_width(n: int) -> int:
    """Bytes ``write_literals`` fills per mask over [n]."""
    return 1 + sum(_byte_pieces(j, n).shape[1] for j in range((n + 7) // 8))


def write_literals(out: np.ndarray, masks: np.ndarray, n: int) -> None:
    """Spell each mask over [n] as its literal ``{a,b,c}`` into the
    matching row of ``out``, a zeroed uint8 array (or view) of shape
    ``(len(masks), literal_width(n))``; the unused bytes of a row stay
    zero, for the caller to drop.  Bits above n are not spelled."""
    columns = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    count = (n + 7) // 8
    highest = np.zeros(len(columns), dtype=np.uint8)
    for j in range(1, count):
        highest[columns[:, j] != 0] = j
    out[:, 0] = ord("{")
    col = 1
    for j in range(count):
        table = _byte_pieces(j, n)
        rows = columns[:, j].astype(np.intp)
        rows[highest == j] += 256
        out[:, col:col + table.shape[1]] = table[rows]
        col += table.shape[1]


def format_masks(masks) -> list[str]:
    """Canonical set literals ``{a,b,c}``, ascending, no whitespace,
    spelled by ``write_literals``."""
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    n = max(int(masks.max(initial=0)).bit_length(), 1)
    rows = np.zeros((len(masks), literal_width(n) + 1), dtype=np.uint8)
    write_literals(rows[:, :-1], masks, n)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


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


def circ_mask(n: int, i: int, j: int) -> int:
    """The points of [n] on the clockwise arc from i to j, both in it, or
    the whole circle when i = j % n + 1: a run of (j - i) % n + 1 bits
    from bit i - 1, its part past bit n - 1 rotated down to bit 0."""
    run = ((1 << (j - i) % n + 1) - 1) << (i - 1)
    return (run | run >> n) & ((1 << n) - 1)


def size_masks_array(n: int, t: int) -> np.ndarray:
    """All t-subset masks of [n] as an int64 array, colex order.

    Built level-by-level: the first C(m,t) entries of the level-t array
    are exactly the t-subsets of [m], so each level is filled, in one
    array, with prefixes of the previous one shifted by a new top bit.
    Above t = n/2 the levels would pass through C(n, n/2) entries, so the
    t-subsets are built as the complements of the (n-t)-subsets, whose
    reverse order is again colex.
    """
    _check_universe(n)
    if not 0 <= t <= n:
        raise ElementOutOfRange(f"subset size {t} not in 0..{n}")
    if 2 * t > n:
        return np.int64((1 << n) - 1) ^ size_masks_array(n, n - t)[::-1]
    level = np.zeros(1, dtype=np.int64)  # the single 0-subset
    for size in range(1, t + 1):
        # no view of the level below outlives this pass, so only two
        # levels are ever held
        out = np.empty(math.comb(n, size), dtype=np.int64)
        start = 0
        for m in range(size, n + 1):
            count = math.comb(m - 1, size - 1)
            np.bitwise_or(level[:count], np.int64(1 << (m - 1)),
                          out=out[start:start + count])
            start += count
        level = out
    return level


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Per-element popcount of an int64 mask array, as uint8 (a count is
    at most 64); the masks are read in place as unsigned."""
    return np.bitwise_count(np.asarray(masks, dtype=np.int64).view(np.uint64))


def slices(length: int, weight: int = 1) -> Iterator[slice]:
    """Consecutive slices of at most ``_SLICE // weight`` items, and at
    least one, that cover ``range(length)``, so that a full-length step
    run slice by slice, over items that each span ``weight`` values,
    needs only O(_SLICE) temporaries."""
    step = max(1, _SLICE // max(weight, 1))
    return (slice(i, min(i + step, length)) for i in range(0, length, step))

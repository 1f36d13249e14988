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

import bisect
import io
import itertools
import math
import re
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Iterable, Iterator, Optional

import numpy as np

from .errors import (
    BadParameters,
    CertificateFormatError,
    ElementOutOfRange,
    MemberLimitExceeded,
    RefusesUnverified,
)
from . import setcore
from .setcore import (
    MAX_UNIVERSE,
    PointSet,
    literal_width,
    popcount_array,
    read_literals,
    slices,
    write_literals,
)

FILE_HEADER = "VSDEPTH-CERT v1"
FILE_TERMINATOR = "trivial-completion"

# The canonical layout that ``format_certificate`` writes, as
# ``parse_certificate`` reads it byte by byte: the header and parameter
# lines, then lines ``interval {a,b} {c}`` with single spaces, then the
# terminator; each number has one or two digits and no leading zero.
_HEADER_LINE = f"{FILE_HEADER}\n".encode()
_CANONICAL_HEAD = re.compile(
    re.escape(_HEADER_LINE) + rb"n=([1-9]\d?) d=([1-9]\d?) k=([1-9]\d?)\n"
)
_TERMINATOR_LINE = f"{FILE_TERMINATOR}\n".encode()
_CANONICAL_TAIL = b"\n" + _TERMINATOR_LINE
_LINE_START = np.frombuffer(b"interval {", dtype=np.uint8)
_LINE_HEAD = _LINE_START[:-1]  # what the writer puts before the first literal
# bottom sizes and dimensions run over 0..63
_RANKS = MAX_UNIVERSE + 1

# The most members, the sum of 2^dim over the intervals, of a certificate
# that ``verify_certificate`` accepts.  It lists only the members of the
# intervals narrower than a cube, to find overlaps, a part of one
# dimension at a time, in the narrowest unsigned word that holds [n]
# (uint32 for n in 17..32), and holds them in the fewer bytes of two
# forms: the whole list, filled part by part and sorted, or a set of
# 2^n bits that each part's members are marked in, which costs 2^n/8
# bytes and one part's working set.  So c2(12)'s 10.4M members of
# [25] take a 4 MiB set, not a 42 MB list, and (22, 2)'s 11,550 members
# a 46 KB list, not a 512 KiB set.  A cube's members, the coverage and a
# gap's witness are counted, so a certificate costs far less: (26, 1)
# verifies without listing any member of its widest interval, of 2^25.
# The limit still weighs every member, so that it refuses what it
# refused when the verifier listed them all.
MAX_MEMBERS = 1 << 27
# ``_narrow_parts`` cuts parts of at most _SLICE / _PART_WEIGHT = 2^15
# members, or one interval of more.  The marked overlap scan holds up to
# _PART_BYTES per member of a part beside its set of 2^n bits: the
# members and their words (uint32 for n in 17..32), their bits and the
# ORs per word as uint64, and the part's intervals, which are copied
# where a slice mixes dimensions (48 measured on c4(6), 22-26 on c2 and
# c3).
_PART_WEIGHT = 8
_PART_BYTES = 48


def check_members(count: int, what: str) -> None:
    """Refuse ``what``, a certificate of ``count`` members to verify, when
    that is more than the verifier holds."""
    if count > MAX_MEMBERS:
        raise MemberLimitExceeded(
            f"{what} has {count} members to verify, above the limit of {MAX_MEMBERS}"
        )


def check_cell(n: int, d: int, k: Optional[int] = None) -> None:
    """Refuse parameters outside 1 <= d <= k <= n <= 63; k defaults to d."""
    if not _in_domain(n, d, d if k is None else k):
        got = f"n={n}, d={d}" + ("" if k is None else f", k={k}")
        raise BadParameters(f"need 1 <= d <= k <= n <= {MAX_UNIVERSE}, got {got}")


@dataclass(frozen=True, eq=False)
class Certificate:
    """An interval partition of the rank >= d subsets of [n].

    ``claimed_depth`` is the k being certified: every explicit top has at
    least k points and ranks d..k-1 are covered exactly once, so the
    implied full partition has minimum top size k.  Construction refuses
    parameters outside 1 <= d <= k <= n <= 63 and mask arrays that are not
    1-d of equal length (BadParameters) or hold a member past n
    (ElementOutOfRange), and puts the intervals in (bottom, top) order,
    keeping ordered arrays uncopied.  Frozen, equal by value, unhashable.
    """

    universe_size: int
    min_generator_size: int
    claimed_depth: int
    bottom_masks: np.ndarray
    top_masks: np.ndarray

    def __post_init__(self) -> None:
        n = self.universe_size
        check_cell(n, self.min_generator_size, self.claimed_depth)
        bottoms = np.asarray(self.bottom_masks, dtype=np.int64)
        tops = np.asarray(self.top_masks, dtype=np.int64)
        if bottoms.ndim != 1 or bottoms.shape != tops.shape:
            raise BadParameters(f"need 1-d bottoms and tops of equal length, "
                                f"got shapes {bottoms.shape} and {tops.shape}")
        idx = _first(lambda part: (bottoms[part] | tops[part]) >> n != 0, len(bottoms))
        if idx is not None:
            raise ElementOutOfRange(f"interval [{int(bottoms[idx])}, {int(tops[idx])}] "
                                    f"has members outside 1..{n}")
        bottoms, tops = _ordered(bottoms, tops)
        object.__setattr__(self, "bottom_masks", bottoms)
        object.__setattr__(self, "top_masks", tops)

    @classmethod
    def from_arrays(cls, n: int, d: int, k: int, bottoms: np.ndarray,
                    tops: np.ndarray) -> "Certificate":
        """``Certificate(n, d, k, bottoms, tops)``."""
        return cls(n, d, k, bottoms, tops)

    def __eq__(self, other: object) -> bool:
        """Equal iff n, d, k and both mask arrays are equal."""
        if not isinstance(other, Certificate):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def num_explicit(self) -> int:
        return len(self.bottom_masks)


def _ordered(bottoms: np.ndarray, tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intervals in (bottom, top) order: the arrays themselves if no
    neighbours fall, found in slices overlapping by one, else sorted copies."""
    def falls(part: slice) -> np.ndarray:
        b, t = bottoms[part.start:part.stop + 1], tops[part.start:part.stop + 1]
        return (b[1:] < b[:-1]) | (b[1:] == b[:-1]) & (t[1:] < t[:-1])
    if _first(falls, len(bottoms) - 1) is None:
        return bottoms, tops
    order = np.lexsort((tops, bottoms))
    return bottoms[order], tops[order]


@dataclass
class VerifyReport:
    """An invalid verdict has no ``achieved_depth``; its ``first_violation``
    is a tag and PointSet witness: bottom-not-in-top, bottom-too-small or
    top-too-small and an end, overlap and a set, or gap-at-rank, t, a set."""

    valid: bool
    achieved_depth: Optional[int]
    first_violation: Optional[tuple] = None
    rank_coverage: dict[int, int] = field(default_factory=dict)

    def violation(self) -> str:
        """The first violation as ``verify`` prints it: ``gap-at-rank 1 {1}``."""
        return " ".join(map(str, self.first_violation))


def verify_certificate(cert: Certificate) -> VerifyReport:
    """Check the partition property and report the achieved depth.

    Valid iff each bottom lies in its top (construction put both in
    [n]), the explicit intervals are pairwise disjoint, every set of size
    d..k-1 is covered exactly once, and every explicit top has at least k
    points.  ``rank_coverage`` counts the covered sets at every rank d..n
    once the intervals are found disjoint.  The size checks read |b| and
    |t| = |b| + dim off the counts of ``_shapes``; only a failing one
    scans the ends, to name the first interval that fails it.  Past these
    checks, a certificate of more members than the verifier holds is
    refused by ``check_members`` before any member is listed.

    An interval of 2^dim > N members, N the number of intervals, is a
    cube.  Cubes are tested against all N intervals, which costs less
    than listing their members; the other intervals' members are listed
    by ``interval_members``, a part of one dimension from
    ``_narrow_parts`` at a time, in the narrowest unsigned word that
    holds [n], and a member listed twice is an overlap too.  They are
    found in whichever form takes fewer bytes, as read off n and the
    counts of ``_shapes`` before any member is listed: the whole list,
    sized by those counts and sorted (``_sorted_shared``), or a set of
    2^n bits, 2^n/8 bytes, and one part's working set
    (``_marked_shared``).  The reported overlap is the least set two
    intervals share.  Coverage is counted, not listed: C(dim, t-|b|)
    sets of rank t per interval; the least set missing from a short rank
    is found by the same count (``_least_missing``), so no member is
    listed past the overlap scan.
    """
    n = cert.universe_size
    d = cert.min_generator_size
    k = cert.claimed_depth
    bottoms, tops = cert.bottom_masks, cert.top_masks

    idx = _first(lambda part: bottoms[part] & ~tops[part] != 0, len(bottoms))
    if idx is not None:
        return VerifyReport(
            False, None,
            ("bottom-not-in-top", PointSet(n, int(bottoms[idx]))),
        )
    cut = len(bottoms).bit_length()  # dim >= cut iff 2^dim > N: a cube
    shapes, cubes = _shapes(bottoms, tops, cut)
    for tag, ends, least, small in (
        ("bottom-too-small", bottoms, d, any(p < d for p, _, _ in shapes)),
        ("top-too-small", tops, k, any(p + dim < k for p, dim, _ in shapes)),
    ):
        if small:
            idx = _first(lambda part: popcount_array(ends[part]) < least, len(ends))
            return VerifyReport(False, None, (tag, PointSet(n, int(ends[idx]))))
    check_members(sum(g << dim for _, dim, g in shapes), "the certificate")

    shared = list(_cube_meets(bottoms, tops, cubes))
    if _marking_is_smaller(n, shapes, cut):
        least = _marked_shared(bottoms, tops, n, cut)
    else:
        listed = sum(g << dim for _, dim, g in shapes if dim < cut)
        least = _sorted_shared(bottoms, tops, n, cut, listed)
    if least is not None:
        shared.append(least)
    if shared:
        return VerifyReport(False, None, ("overlap", PointSet(n, min(shared))))

    coverage = {t: _covered(shapes, t) for t in range(d, n + 1)}
    for t in range(d, k):
        if coverage[t] != math.comb(n, t):
            missing = PointSet(n, _least_missing(n, t, bottoms, tops))
            return VerifyReport(False, None, ("gap-at-rank", t, missing), coverage)

    return VerifyReport(True, k, None, coverage)


def _first(test, length: int) -> Optional[int]:
    """The least index below ``length`` at which ``test`` holds, or None.

    ``test`` maps each slice of ``slices(length)``, in order, to a bool
    array over it, so only one slice's temporaries exist at a time."""
    for part in slices(length):
        hits = test(part)
        if hits.any():
            return part.start + int(np.argmax(hits))
    return None


def _shapes(bottoms: np.ndarray, tops: np.ndarray, cut: int = _RANKS,
            m: int = MAX_UNIVERSE, high: int = 0):
    """``(|b|, dim, g)`` for each g > 0 intervals [b, t] of that bottom
    size and dimension, and the indices of the cubes, the intervals of
    dimension >= ``cut`` (none by default), from one sliced pass.  For
    m < 63 it counts only the intervals whose bottom's points above m lie
    in ``high``, each cut to [m].  A function of its own, so that no
    slice array outlives the pass into the verifier's peak."""
    low = (1 << m) - 1
    shapes = np.zeros((_RANKS, _RANKS), dtype=np.int64)
    cubes = [np.empty(0, dtype=np.intp)]
    for part in slices(len(bottoms)):
        part_bottoms, part_tops = bottoms[part], tops[part]
        if m < MAX_UNIVERSE:
            kept = (part_bottoms & ~high) >> m == 0
            part_bottoms, part_tops = part_bottoms[kept] & low, part_tops[kept] & low
        dims = popcount_array(part_tops & ~part_bottoms)
        shapes += np.bincount(
            popcount_array(part_bottoms).astype(np.intp) * _RANKS + dims,
            minlength=_RANKS * _RANKS,
        ).reshape(_RANKS, _RANKS)
        cubes.append(np.flatnonzero(dims >= cut) + part.start)
    counts = [(int(p), int(dim), int(shapes[p, dim]))
              for p, dim in zip(*np.nonzero(shapes))]
    return counts, np.concatenate(cubes)


def _covered(shapes, t: int) -> int:
    """The number of t-sets in disjoint intervals of the ``shapes`` of
    ``_shapes``: C(dim, t-|b|) per interval."""
    return sum(g * math.comb(dim, t - p) for p, dim, g in shapes if p <= t)


def _least_missing(n: int, t: int, bottoms: np.ndarray, tops: np.ndarray) -> int:
    """The least t-set of [n] in colex order, as a mask, that none of the
    intervals covers; they must be disjoint, lie in [n] and miss a t-set,
    so that every count below is exact.

    The descent fixes the missing set's points from the highest down.
    With its points above m fixed as ``high`` and j points left, the sets
    high | R, R a j-subset of [m], come first in colex order among the
    t-sets whose points above m are ``high``, so the number of them that
    no interval covers never falls as m grows: the next point down is the
    least m at which it is positive, found by ``bisect`` over m in j..hi.
    It is C(m, j) less ``_covered`` of the intervals cut to [m] whose top
    holds ``high`` and whose bottom's points above m lie in it; the
    others are dropped as each point is fixed.
    """
    high, hi = 0, n
    for j in range(t, 0, -1):
        hi = bisect.bisect_left(range(hi), True, lo=j, key=lambda m: _covered(
            _shapes(bottoms, tops, m=m, high=high)[0], j) < math.comb(m, j))
        high |= 1 << hi - 1
        hi -= 1
        kept = (high & ~tops == 0) & ((bottoms & ~high) >> hi == 0)
        bottoms, tops = bottoms[kept], tops[kept]
    return high


def _cube_meets(bottoms: np.ndarray, tops: np.ndarray, cubes: np.ndarray):
    """For each block of pairs in which a cube, one of the intervals at
    index ``cubes``, meets another interval, the least member such a pair
    shares.

    [b1, t1] and [b2, t2] share exactly the sets of [b1|b2, t1&t2], so
    they meet iff b1|b2 lies in t1&t2, and b1|b2 is their least shared
    member.  Each block pairs a slice of cubes with a slice of intervals
    and holds O(_SLICE) pairs."""
    for block in slices(len(cubes), weight=len(bottoms)):
        chosen = cubes[block, None]
        cube_bottoms, cube_tops = bottoms[chosen], tops[chosen]
        for part in slices(len(bottoms)):
            union = cube_bottoms | bottoms[part]
            outside = cube_tops & tops[part]
            np.invert(outside, out=outside)
            outside &= union
            meet = outside == 0
            meet &= chosen != np.arange(part.start, part.stop)
            if meet.any():
                yield int(union[meet].min())


def _marking_is_smaller(n: int, shapes, cut: int) -> bool:
    """True iff ``_marked_shared`` needs fewer bytes than
    ``_sorted_shared`` for the intervals of the ``shapes`` of ``_shapes``
    below dimension ``cut``: its 2^n bits and one part's working set,
    ``_PART_BYTES`` per member, against the full list of their members."""
    listed = [(dim, g) for _, dim, g in shapes if dim < cut]
    if not listed:
        return False
    count = sum(g << dim for dim, g in listed)
    part = min(count, max(setcore._SLICE // _PART_WEIGHT, 1 << max(dim for dim, _ in listed)))
    return (1 << n) // 8 + part * _PART_BYTES < count * member_word(n).itemsize


def _sorted_shared(bottoms: np.ndarray, tops: np.ndarray, n: int, cut: int,
                   count: int) -> Optional[int]:
    """The least member that two intervals of dimension below ``cut``
    share, or None: all ``count`` of their members are listed into one
    array, a part of ``_narrow_parts`` at a time, sorted, and scanned
    for a duplicate."""
    members = np.empty(count, dtype=member_word(n))
    start = 0
    for k, part_bottoms, part_tops in _narrow_parts(bottoms, tops, cut):
        stop = start + (len(part_bottoms) << k)
        interval_members(part_bottoms, part_tops, members[start:stop].reshape(1 << k, -1))
        start = stop
    members.sort()
    idx = _first(lambda part: members[part.start + 1:part.stop + 1] == members[part],
                 len(members) - 1)
    return None if idx is None else int(members[idx])


def _marked_shared(bottoms: np.ndarray, tops: np.ndarray, n: int, cut: int) -> Optional[int]:
    """``_sorted_shared`` with the members listed one part of
    ``_narrow_parts`` at a time and marked in a set of 2^n bits, held in
    uint64 words.

    Each part's members are sorted, which groups them by word and puts a
    member listed twice in the part next to itself; such a member, and
    one whose bit an earlier part set, is shared.  The part's bits are
    ORed per word with ``np.bitwise_or.reduceat``, and only a part that
    meets the set or lists a member twice is scanned member by member
    before its bits are set."""
    word = member_word(n)
    marks = np.zeros(max(1, (1 << n) >> 6), dtype=np.uint64)
    found = []
    for k, part_bottoms, part_tops in _narrow_parts(bottoms, tops, cut):
        members = np.empty(len(part_bottoms) << k, dtype=word)
        interval_members(part_bottoms, part_tops, members.reshape(1 << k, -1))
        members.sort()
        words = members >> 6
        bits = np.bitwise_and(members, 63, dtype=np.uint64)
        np.left_shift(1, bits, out=bits)
        heads = np.empty(len(words), dtype=bool)
        heads[0] = True
        np.not_equal(words[1:], words[:-1], out=heads[1:])
        starts = np.flatnonzero(heads)
        del heads
        merged = np.bitwise_or.reduceat(bits, starts)
        at = words[starts]
        del starts
        held = marks[at]
        repeated = members[1:] == members[:-1]
        if repeated.any() or (held & merged).any():
            shared = (marks[words] & bits) != 0
            shared[1:] |= repeated
            found.append(int(members[np.argmax(shared)]))
        del members, words, bits, repeated
        held |= merged
        marks[at] = held
    return min(found, default=None)


def _narrow_parts(bottoms: np.ndarray, tops: np.ndarray, cut: int):
    """The intervals of dimension k < ``cut`` as ``(k, bottoms, tops)``
    parts of one dimension k and at most max(_SLICE / _PART_WEIGHT, 2^k)
    members, for ``interval_members`` to list: each ``slices`` part of
    _SLICE / _PART_WEIGHT intervals is split by dimension, and each
    dimension's intervals into ``slices`` of weight _PART_WEIGHT * 2^k.
    Where a slice holds one dimension only, its parts are views, not
    copies.  This is where the verifier groups the intervals whose
    members it lists by dimension, once."""
    for chunk in slices(len(bottoms), weight=_PART_WEIGHT):
        chunk_bottoms, chunk_tops = bottoms[chunk], tops[chunk]
        dims = popcount_array(chunk_tops & ~chunk_bottoms)
        counts = np.bincount(dims)
        for k in np.flatnonzero(counts[:cut]).tolist():
            if counts[k] == len(dims):
                kept_bottoms, kept_tops = chunk_bottoms, chunk_tops
            else:
                chosen = np.flatnonzero(dims == k)
                kept_bottoms, kept_tops = chunk_bottoms[chosen], chunk_tops[chosen]
            for part in slices(int(counts[k]), weight=_PART_WEIGHT << k):
                yield k, kept_bottoms[part], kept_tops[part]


def member_word(n: int) -> np.dtype:
    """The narrowest unsigned word that holds every subset of [n]: uint8
    up to n = 8, uint16 up to 16, uint32 up to 32, uint64 above."""
    return np.min_scalar_type((1 << n) - 1)


def interval_members(bottoms: np.ndarray, tops: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, of shape (2^k, G) in an unsigned word, with the
    members of the G intervals [bottom, top], which all have dimension
    k: column i lists interval i's.  Rows [2^j, 2^(j+1)) are rows
    [0, 2^j) with each interval's j-th lowest free bit added.  The ends
    must fit the word, or members are cut to it."""
    rest = (tops & ~bottoms).astype(out.dtype)
    out[0] = bottoms
    for j in range(out.shape[0].bit_length() - 1):
        low = rest & -rest
        rest ^= low
        np.bitwise_or(out[:1 << j], low, out=out[1 << j:2 << j])


def _monomial(mask: int, n: int) -> str:
    return "".join(f"x{i}" for i in PointSet(n, mask).members()) or "1"


def render_stanley(cert: Certificate) -> str:
    """The decomposition as a direct sum of monomial-times-subring summands."""
    report = verify_certificate(cert)
    if not report.valid:
        raise RefusesUnverified(f"certificate does not verify: {report.violation()}")
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


def write_certificate(cert: Certificate) -> Iterator[bytes]:
    """The canonical text of ``cert`` in pieces, holding one at a time:
    the header, the interval lines in slices of about ``setcore._SLICE``
    bytes of zero-padded rows spelled by ``write_literals``, the end."""
    n, bottoms, tops = cert.universe_size, cert.bottom_masks, cert.top_masks
    width, head = literal_width(n), len(_LINE_HEAD)
    row = head + 2 * width + 2
    yield f"{FILE_HEADER}\nn={n} d={cert.min_generator_size} k={cert.claimed_depth}\n".encode()
    for part in slices(len(bottoms), weight=row):
        rows = np.zeros((part.stop - part.start, row), dtype=np.uint8)
        rows[:, :head] = _LINE_HEAD
        write_literals(rows[:, head:head + width], bottoms[part], n)
        rows[:, head + width] = ord(" ")
        write_literals(rows[:, head + width + 1:-1], tops[part], n)
        rows[:, -1] = ord("\n")
        yield rows.tobytes().translate(None, b"\0")
    yield _TERMINATOR_LINE


def format_certificate(cert: Certificate) -> bytes:
    """The pieces of ``write_certificate`` joined: it holds the text twice."""
    return b"".join(write_certificate(cert))


def parse_certificate(data: bytes | str) -> Certificate:
    """``read_certificate`` of bytes, or of a str encoded once; holds the text."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    return read_certificate(io.BytesIO(raw))


def read_certificate(stream: BinaryIO) -> Certificate:
    """Certificate from a binary stream, a pipe too, read once from where
    it stands: what ``format_certificate`` writes, LF or CR LF, else a
    refusal of the header, parameters, domain, terminator or first bad
    line, in that order.  It holds the masks and one run of lines."""
    runs, head = _line_runs(stream), b""
    for run in runs:
        head += run  # both header lines, or 96 bytes: 80 of line 2 to quote
        if len(head) >= 96 or head.count(b"\n") >= 2:
            break
    if not head.startswith(_HEADER_LINE):
        raise CertificateFormatError(f"missing {FILE_HEADER} header")
    params = _CANONICAL_HEAD.match(head)
    if params is None:
        raise CertificateFormatError(f"bad parameter line: {_quote(head, len(_HEADER_LINE))}")
    n, d, k = map(int, params.groups())
    if not _in_domain(n, d, k):
        raise CertificateFormatError(f"parameters outside 1 <= d <= k <= n <= {MAX_UNIVERSE}: "
                                     f"{_quote(head, len(_HEADER_LINE))}")
    return Certificate(n, d, k, *_canonical_body(itertools.chain([head[params.end():]], runs), n))


def _line_runs(stream: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``stream``, CR LF made LF, in runs of whole lines: each
    ``readinto`` of a buffer of 4 KiB that doubles with each read up to
    max(``setcore._SLICE``, 1 KiB), cut at its last line end (whole at the
    end, or if full at that size: a line past 373 bytes), the rest kept."""
    top = max(setcore._SLICE, 1 << 10)
    buffer, held, got = bytearray(min(top, 1 << 12)), 0, True
    while got:
        got = stream.readinto(memoryview(buffer)[held:])
        held += got
        cut = buffer.rfind(b"\n", 0, held) + 1
        if not got or not cut and held == len(buffer) >= top:
            cut = held
        if cut:
            run = bytes(memoryview(buffer)[:cut])
            yield run.replace(b"\r\n", b"\n") if b"\r" in run else run
            buffer[:held - cut] = buffer[cut:held]
            held -= cut
        if len(buffer) < top:
            buffer.extend(bytes(len(buffer)))


def _quote(raw: bytes, start: int) -> str:
    """Up to 80 bytes of the line of ``raw`` at ``start``, quoted for a
    message, a byte past ASCII as ``\\xNN``."""
    return ascii(raw[start:start + 80].partition(b"\n")[0].decode("latin-1"))


def _in_domain(n: int, d: int, k: int) -> bool:
    """True iff the parameters a certificate file may state are valid."""
    return 1 <= d <= k <= n <= MAX_UNIVERSE


def _canonical_body(runs: Iterable[bytes], n: int):
    """The masks of the interval lines in ``runs`` (file lines 3 on) up to
    the terminator ending the text, else the first bad line by number. It
    holds one run and the masks, in arrays doubled in place, cut at the end."""
    bottoms, tops = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    done, tail, bad = 0, b"\n", None
    for run in filter(None, runs):
        if tail == _CANONICAL_TAIL and bad is None:  # text after a terminator line
            bad = f"line {done + 3} is not a canonical interval line: {FILE_TERMINATOR!r}"
        tail = (tail + run[-len(_CANONICAL_TAIL):])[-len(_CANONICAL_TAIL):]
        if bad is not None:
            continue
        part = run[:-len(_TERMINATOR_LINE)] if tail == _CANONICAL_TAIL else run
        if not part:
            continue
        chunk = np.frombuffer(part, dtype=np.uint8)
        masks = _canonical_masks(chunk, n) if part.endswith(b"\n") else None
        if masks is None:
            # a run of lines is canonical iff each of its lines is
            ends = np.flatnonzero(chunk == ord("\n")) + 1
            first = bisect.bisect_left(range(len(ends)), True, key=lambda i: _canonical_masks(
                chunk[:ends[i]], n) is None)
            bad = (f"line {done + 3 + first} is not a canonical interval line: "
                   f"{_quote(part, int(ends[first - 1]) if first else 0)}")
            continue
        lines = len(masks) // 2
        if done + lines > len(bottoms):
            for array in (bottoms, tops):
                array.resize(max(2 * len(array), done + lines), refcheck=False)
        bottoms[done:done + lines] = masks[0::2]
        tops[done:done + lines] = masks[1::2]
        done += lines
    if tail != _CANONICAL_TAIL:
        raise CertificateFormatError(f"missing {FILE_TERMINATOR} terminator")
    if bad is not None:
        raise CertificateFormatError(bad)
    for array in (bottoms, tops):
        array.resize(done, refcheck=False)
    return bottoms, tops


def _canonical_masks(chunk: np.ndarray, n: int) -> Optional[np.ndarray]:
    """The bottom and top mask of each line of ``chunk``, whole lines as
    uint8, in turn; None unless every line is canonical.

    The fixed bytes of each line are found by position: ``interval {``
    at its start, ``}`` just before its line end, and `` {`` after the
    line's first ``}``; no other ``{`` or ``}`` may occur.  The literals
    are read by ``setcore.read_literals``.
    """
    is_close = chunk == ord("}")
    ends = np.flatnonzero(chunk == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    for i, byte in enumerate(_LINE_START):
        if not bool(np.all(chunk[starts + i] == byte)):
            return None
    closes = np.flatnonzero(is_close)
    if len(closes) != 2 * len(ends) or not bool(np.all(closes[1::2] == ends - 1)):
        return None
    first = closes[0::2]
    if not bool(np.all((chunk[first + 1] == ord(" ")) & (chunk[first + 2] == ord("{")))):
        return None
    if np.count_nonzero(chunk == ord("{")) != 2 * len(ends):
        return None
    return read_literals(chunk, is_close, n)

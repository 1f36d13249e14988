"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: enumeration over all candidates,
checked clause by clause, with no shared machinery beyond the public
datatypes it validates.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from vsdepth.blocks import (
    BlockStructure,
    CircBlock,
    Density,
    f_int_masks,
    verify_block_structure,
)
from vsdepth.construct import construct_c2, construct_c3, construct_c4
from vsdepth.errors import (
    BadParameters,
    CertificateFormatError,
    DensityOutOfRange,
    ElementOutOfRange,
    MatchingFailed,
    UniverseOutOfRange,
)
from vsdepth.intervals import (
    FILE_HEADER,
    MAX_MEMBERS,
    Certificate,
    VerifyReport,
)
from vsdepth.setcore import MAX_UNIVERSE, PointSet, popcount_array, size_masks_array


def pascal_binomial(n: int, k: int) -> int:
    """C(n,k) by the Pascal recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _fitting_ends(A: PointSet, delta: Density, arc: list[int]) -> list[int]:
    """The points arc[j] at which a block from arc[0] may end: the block
    arc[:j+1] passes clauses iii/iv and the gap arc[j+1:] after it passes
    clause ii, checked straight from the definitions.  With
    s(P) = p*|P & A| - q*|P|, every proper prefix P has s >= q, the block
    has 0 <= s < q, and the gap holds no member of A."""
    p, q = delta.p, delta.q
    inside = [A.mask >> (x - 1) & 1 for x in arc]
    s = list(itertools.accumulate(p * a - q for a in inside))
    return [
        arc[j] for j in range(len(arc))
        if all(v >= q for v in s[:j]) and 0 <= s[j] < q and not any(inside[j + 1:])
    ]


def all_block_structures(n: int, A: PointSet, delta: Density) -> list[BlockStructure]:
    """Every alternating blocks/gaps partition satisfying all clauses.

    Enumerates all nonempty subsets of A as block starts and, for each
    start, every block end before the next start that passes the
    per-block clauses (``_fitting_ends``), then filters every combination
    with the clause verifier.  The clauses hold block by block, so the
    pruning drops only combinations the verifier would reject.
    """
    members = list(A.members())
    found = []
    for r in range(1, len(members) + 1):
        for starts in itertools.combinations(members, r):
            # the block from starts[i] may end anywhere in the clockwise
            # arc before starts[i+1]
            ends_per_start = []
            for i, b in enumerate(starts):
                nxt = starts[(i + 1) % len(starts)]
                # with a single start the block may extend around the
                # whole circle, so walk all n positions in that case
                arc = [b]
                pos = b % n + 1
                while pos != nxt:
                    arc.append(pos)
                    pos = pos % n + 1
                ends_per_start.append(_fitting_ends(A, delta, arc))
            for ends in itertools.product(*ends_per_start):
                blocks, gaps = [], []
                for i, b in enumerate(starts):
                    e = ends[i]
                    nxt = starts[(i + 1) % len(starts)]
                    after = e % n + 1
                    blocks.append(CircBlock(n, b, e))
                    if after == nxt:
                        gaps.append(None)
                    else:
                        gaps.append(CircBlock(n, after, (nxt - 2) % n + 1))
                bs = BlockStructure(n, A, delta, tuple(blocks), tuple(gaps))
                if verify_block_structure(bs):
                    found.append(bs)
    return found


def arcs_partition_circle(bs: BlockStructure) -> bool:
    """True iff the blocks and gaps of ``bs`` partition the circle [n]:
    taken in turn with empty gaps skipped, every point of [n] lies in the
    mask of exactly one of them, and each starts just past the end of the
    one before it."""
    n = bs.n
    if not bs.blocks or len(bs.blocks) != len(bs.gaps):
        return False
    arcs = []
    for block, gap in zip(bs.blocks, bs.gaps):
        arcs += [block] if gap is None else [block, gap]
    hits = [sum(arc.mask >> (x - 1) & 1 for arc in arcs) for x in range(1, n + 1)]
    return hits == [1] * n and all(
        arcs[i - 1].end % n + 1 == arcs[i].start for i in range(len(arcs))
    )


def intervals_share_member(n: int, b1: int, t1: int, b2: int, t2: int) -> bool:
    """Whether the intervals [b1, t1] and [b2, t2] over [n] share a set,
    by membership comparison over the whole Boolean lattice."""
    for mask in range(1 << n):
        in1 = b1 & ~mask == 0 and mask & ~t1 == 0
        in2 = b2 & ~mask == 0 and mask & ~t2 == 0
        if in1 and in2:
            return True
    return False


def has_covered_superset(D: int, n: int, d: int, c: int) -> bool:
    """Whether some superset of the set with mask D is covered by an
    interval [A, f_c(A)] over the d-sets A of [n], n = cd+c-1.

    Every covered set lies under some top f_c(A), and tops themselves are
    covered, so it is enough to look for a top containing D.
    """
    if c < 2 or d < 1 or n != c * d + c - 1:
        raise ValueError(f"need c >= 2, d >= 1 and n = cd+c-1, got n={n}, c={c}, d={d}")
    tops = f_int_masks(n, c, size_masks_array(n, d))
    return bool(np.any(D & ~tops == 0))


def iter_size_masks(n: int, t: int):
    """Masks of all t-subsets of [n] in colex (= numeric) order, by
    Gosper's hack."""
    if t == 0:
        yield 0
        return
    m = (1 << t) - 1
    limit = 1 << n
    while m < limit:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | ((m ^ ripple) >> (low.bit_length() + 1))


def set_literal_naive(mask: int) -> str:
    """The canonical ``{a,b,c}`` literal, one bit at a time."""
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def interval_members_naive(bottoms, tops) -> list[int]:
    """Every member of every interval by descending submask enumeration."""
    out = []
    for b, t in zip(bottoms, tops):
        free = t & ~b
        sub = free
        while True:
            out.append(b | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
    return out


def unrestricted_family_exists(n: int, d: int, k: int) -> bool:
    """Disjoint-interval-family decision with arbitrary bottoms.

    Search over intervals [C, B] with d <= |C|, |B| >= k, C an arbitrary
    subset of the set being covered; used to validate the solver's
    bottom-forcing reduction.
    """
    occupied = bytearray(1 << n)
    ranks = {r: [m for m in range(1 << n) if bin(m).count("1") == r]
             for r in range(d, k)}

    def least_uncovered():
        for r in range(d, k):
            for m in ranks[r]:
                if not occupied[m]:
                    return m
        return None

    def members_of(c: int, b: int) -> list[int]:
        free = b & ~c
        out, sub = [], free
        while True:
            out.append(c | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
        return out

    def search() -> bool:
        s = least_uncovered()
        if s is None:
            return True
        # all intervals covering s: bottom inside s, top outside
        s_bits = [i for i in range(n) if s >> i & 1]
        free_bits = [i for i in range(n) if not s >> i & 1]
        for drop in range(1 << len(s_bits)):
            c = s
            for j, i in enumerate(s_bits):
                if drop >> j & 1:
                    c &= ~(1 << i)
            if bin(c).count("1") < d:
                continue
            for add in range(1 << len(free_bits)):
                b = s
                for j, i in enumerate(free_bits):
                    if add >> j & 1:
                        b |= 1 << i
                if bin(b).count("1") < k:
                    continue
                mem = members_of(c, b)
                if any(occupied[x] for x in mem):
                    continue
                for x in mem:
                    occupied[x] = 1
                if search():
                    return True
                for x in mem:
                    occupied[x] = 0
        return False

    return search()


class _ReferenceBudgetExhausted(Exception):
    pass


class _RecursiveSearcher:
    """The solver's recursive search as it stood before the explicit
    stack, kept verbatim (rank lists from Gosper's iterator, which gives
    the same colex order) as the reference for certificate identity."""

    def __init__(self, n: int, d: int, k: int, max_nodes: int):
        self.n, self.d, self.k = n, d, k
        self.max_nodes = max_nodes
        self.nodes = 0
        self.occupied = bytearray(1 << n)
        self.rank_lists = {r: list(iter_size_masks(n, r)) for r in range(d, k)}
        self.uncovered = {r: len(self.rank_lists[r]) for r in range(d, k)}
        self.chosen: list[tuple[int, int]] = []
        # C(k-r0, r-r0) table for the counting prune
        self.prune_coeff = {
            r0: [pascal_binomial(k - r0, r - r0) for r in range(r0, k)]
            for r0 in range(d, k)
        }

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _ReferenceBudgetExhausted

    def _least_uncovered(self):
        occupied = self.occupied
        for r in range(self.d, self.k):
            if self.uncovered[r]:
                for m in self.rank_lists[r]:
                    if not occupied[m]:
                        return r, m
        return None

    def _candidate_tops(self, m: int, r: int) -> list[int]:
        """Supersets of m of size >= k, in colex (numeric) order."""
        n, k = self.n, self.k
        free = [i for i in range(n) if not m >> i & 1]
        need = k - r
        tops = []
        for sub in range(1 << len(free)):
            if sub.bit_count() >= need:
                t = m
                for j, i in enumerate(free):
                    if sub >> j & 1:
                        t |= 1 << i
                tops.append(t)
        tops.sort()
        return tops

    def _members(self, m: int, t: int) -> list[int]:
        free = t & ~m
        out = []
        sub = free
        while True:
            out.append(m | sub)
            if sub == 0:
                break
            sub = (sub - 1) & free
        return out

    def search(self) -> bool:
        self._tick()
        cur = self._least_uncovered()
        if cur is None:
            return True
        r0, m = cur
        u0 = self.uncovered[r0]
        coeff = self.prune_coeff[r0]
        for r in range(r0 + 1, self.k):
            if u0 * coeff[r - r0] > self.uncovered[r]:
                return False
        occupied = self.occupied
        k = self.k
        for t in self._candidate_tops(m, r0):
            members = self._members(m, t)
            if any(occupied[x] for x in members):
                continue
            for x in members:
                occupied[x] = 1
                rx = x.bit_count()
                if rx < k:
                    self.uncovered[rx] -= 1
            self.chosen.append((m, t))
            if self.search():
                return True
            self.chosen.pop()
            for x in members:
                occupied[x] = 0
                rx = x.bit_count()
                if rx < k:
                    self.uncovered[rx] += 1
        return False


def recursive_certify_reference(n: int, d: int, k: int, max_nodes: int = 10**7,
                                placed=()):
    """``(status, chosen, nodes)`` of the recursive search: status is
    proved, disproved or budget-exhausted, chosen the (bottom, top) masks
    in the order the search placed them.  The search starts with the
    disjoint intervals ``placed`` occupied."""
    searcher = _RecursiveSearcher(n, d, k, max_nodes)
    for x in interval_members_naive(*zip(*placed)) if placed else ():
        searcher.occupied[x] = 1
        if x.bit_count() in searcher.uncovered:
            searcher.uncovered[x.bit_count()] -= 1
    try:
        found = searcher.search()
    except _ReferenceBudgetExhausted:
        return "budget-exhausted", [], searcher.nodes
    return ("proved" if found else "disproved"), searcher.chosen, searcher.nodes


def chain_successor_bits_reference(masks: np.ndarray, n: int) -> np.ndarray:
    """The parenthesis successor positions, on int64/int32 temporaries
    built afresh at every bit."""
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


def f_int_masks_reference(n: int, c: int, masks: np.ndarray) -> np.ndarray:
    """The circular Kadane scan for f_c, on int64 temporaries built
    afresh at every position."""
    if c < 2:
        raise DensityOutOfRange(f"vectorized f_c needs integer c >= 2, got {c}")
    best = np.full(masks.shape, np.int64(-4 * n), dtype=np.int64)
    gaps = np.zeros(masks.shape, dtype=np.int64)
    for step in range(2 * n):
        i = step % n
        w = np.where((masks >> np.int64(i)) & 1 == 1, np.int64(c - 1), np.int64(-1))
        best = np.maximum(w, best + w)
        if step >= n:
            gaps |= (best < 0).astype(np.int64) << np.int64(i)
    return masks | gaps


def gap_witness_reference(cert) -> tuple | None:
    """``("gap-at-rank", t, mask)`` for the lowest rank t in d..k-1 that
    the intervals of ``cert`` do not cover, with the least missing
    t-set found by a set difference; None if every such rank is full."""
    n, d, k = cert.universe_size, cert.min_generator_size, cert.claimed_depth
    members = np.array(
        interval_members_naive(cert.bottom_masks.tolist(), cert.top_masks.tolist()),
        dtype=np.int64,
    )
    ranks = popcount_array(members)
    for t in range(d, k):
        missing = np.setdiff1d(size_masks_array(n, t), members[ranks == t])
        if len(missing):
            return ("gap-at-rank", t, int(missing[0]))
    return None


def compose_reference(n: int, d: int, memo: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The bottoms and tops of ``construct_general(n, d)`` by the
    recursive splice: (n-1, d) as it is, then (n-1, d-1) with the point n
    added, each cell built once, down to the full ring at d = 0, no
    interval for c = min(floor((n+1)/(d+1)), 4) < 2, and the c-base at
    n = cd+c-1."""
    memo = {} if memo is None else memo
    if (n, d) not in memo:
        c = min((n + 1) // (d + 1), 4)
        if d == 0:
            memo[n, d] = np.array([0]), np.array([(1 << n) - 1])
        elif c < 2:
            memo[n, d] = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        elif n == c * d + c - 1:
            cert = {2: construct_c2, 3: construct_c3, 4: construct_c4}[c](d)
            memo[n, d] = cert.bottom_masks, cert.top_masks
        else:
            b2, t2 = compose_reference(n - 1, d, memo)
            b1, t1 = compose_reference(n - 1, d - 1, memo)
            bit = np.int64(1 << (n - 1))
            memo[n, d] = np.concatenate([b2, b1 | bit]), np.concatenate([t2, t1 | bit])
    return memo[n, d]


def parse_certificate_reference(text: str) -> Certificate:
    """The certificate parser as it was before the byte-level pass:
    ``str.splitlines``, then one Python step per literal and member
    (``parse_certificate``, ``_interval_literals``, ``parse_masks`` and
    ``_element`` of that version, verbatim)."""
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
    masks = _parse_masks_reference(_interval_literals_reference(lines[2:-1]), n)
    return Certificate.from_arrays(n, d, k, masks[0::2], masks[1::2])


def _interval_literals_reference(lines: list[str]):
    """The bottom and top literal of each interval line, in turn."""
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "interval":
            raise CertificateFormatError(f"bad interval line: {line!r}")
        yield parts[1]
        yield parts[2]


def _parse_masks_reference(literals, n: int) -> np.ndarray:
    if not 1 <= n <= MAX_UNIVERSE:
        raise UniverseOutOfRange(f"universe size {n} not in 1..{MAX_UNIVERSE}")
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
                        bit = 1 << (_element_reference(tok, text, n) - 1)
                    mask |= bit
            yield mask

    return np.fromiter(masks(), dtype=np.int64)


def _element_reference(tok: str, text: str, n: int) -> int:
    try:
        e = int(tok)
    except ValueError as exc:
        raise ElementOutOfRange(f"malformed set literal {text!r}") from exc
    if not 1 <= e <= n:
        raise ElementOutOfRange(f"element {e} not in 1..{n}")
    return e


def interval_members_reference(bottoms: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Every member of every interval, with multiplicity, as int64: the
    package's member lister as it was before it ran in slices, verbatim,
    grouping all the intervals by dimension and listing each group at
    full length by doubling.  The package now lists one dimension at a
    time (``intervals.interval_members``) over the parts that
    ``intervals._narrow_parts`` cuts, in the word of [n]."""
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


def uncovered_reference(n: int, d: int, c: int, t: int) -> np.ndarray:
    """The t-sets of [n] in no interval [A, f_c(A)] over the d-sets A,
    colex order: the set difference of all t-sets and the members that
    ``interval_members_reference`` lists."""
    bottoms = size_masks_array(n, d)
    members = interval_members_reference(bottoms, f_int_masks(n, c, bottoms))
    return np.setdiff1d(size_masks_array(n, t), members[popcount_array(members) == t])


def _find_missing(n: int, t: int, covered: np.ndarray) -> PointSet:
    """The least t-set of [n] missing from ``covered``, which must be a
    sorted, distinct, proper subsequence of the colex t-sets: the first
    place where the two differ, else the t-set just past ``covered``.
    The first C(m, t) colex t-sets of [n] are the t-subsets of [m], so
    only those of the least m with C(m, t) > len(covered) are built."""
    m = next(m for m in range(max(t, 1), n + 1) if math.comb(m, t) > len(covered))
    prefix = size_masks_array(m, t)
    differ = np.flatnonzero(prefix[: len(covered)] != covered)
    first = int(differ[0]) if len(differ) else len(covered)
    return PointSet(n, int(prefix[first]))


def verify_reference(cert: Certificate) -> VerifyReport:
    """``intervals.verify_certificate`` as it was before it ran in
    slices, verbatim but for the member enumerator, which is
    ``interval_members_reference``: every check at full length."""
    n = cert.universe_size
    d = cert.min_generator_size
    k = cert.claimed_depth
    bottoms, tops = cert.bottom_masks, cert.top_masks

    if bool(np.any((bottoms | tops) >> n)):
        idx = int(np.argmax((bottoms | tops) >> n != 0))
        bad = bottoms[idx] if bottoms[idx] >> n else tops[idx]
        return VerifyReport(False, None, ("outside-universe", int(bad)))
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

    dims = np.bincount(top_sizes - bot_sizes)
    total = sum(int(count) << dim for dim, count in enumerate(dims))
    if total > MAX_MEMBERS:
        raise BadParameters(
            f"the certificate has {total} members to enumerate, above the "
            f"limit of {MAX_MEMBERS}"
        )
    members = interval_members_reference(bottoms, tops)
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

    return VerifyReport(True, k, None, coverage)

"""Secondary-structure parsing and per-structure end-proximity statistics.

Positions are 1-based throughout, matching bpseq conventions.  A structure is
a partial pairing of positions; the exterior loop is the set of positions not
enclosed by any pair.  All statistics here are measurements of that loop:
pair count (deg), unpaired count (unp), covalent-bond count (chn), nucleotide
count (len_ext), a two-scale physical distance estimate (ete), the first-helix
length (hel) and the first-stem pair count (stm).

A block of records comes from dot-bracket text, from partner tables or from
the samplers' step rows; text and step rows pair through one sort, in which
by nesting level each opener lands right before its mate.  Text is read in
blocks of whole records.  A record weighs its structure characters plus a
fixed charge for its Python objects, and a block weighs at most
_BLOCK_CHARS unless one record alone is heavier, so the memory of a block,
its arrays and its records, is bounded by the cap whatever the file size;
a stream of lines is read one block at a time.  The statistics are columns
over a block's partner and depth arrays, with one level-synchronous
breadth-first search for all of its crossing records.  The single-structure
functions (`parse_dot_bracket`, `exterior_stats`, `shortest_path_stats`,
`first_helix_length`, `first_stem`) are blocks of one record, and so is a
file record built around a SecondaryStructure (a bpseq record): every
record that holds a structure holds it as a row of a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

import numpy as np

OPENERS = "([{<"
CLOSERS = ")]}>"

# a block of records weighs at most _BLOCK_CHARS, a record weighing the
# characters of its structure line plus _RECORD_CHARS (one heavier record
# makes a block of its own).  The scan's temporaries peak at about 25 bytes
# a structure character, and the Python objects of one record (its
# ParsedRecord, its id and its entries in the statistics columns) weigh
# about as much as 20 characters do through `stats`, so the cap bounds both
_BLOCK_CHARS = 1 << 16
_RECORD_CHARS = 48

# character classes of the scan: 0 a dot, 1-4 the openers and 5-8 the
# closers of the bracket families in OPENERS order, 9 anything else
_DOT, _ILLEGAL = 0, 9
_CLASS = np.frombuffer(
    bytes({ord(ch): k for k, ch in enumerate("." + OPENERS + CLOSERS)}.get(b, _ILLEGAL) for b in range(256)),
    dtype=np.int8,
)


class StructureError(ValueError):
    """Base class for structure parsing/validation failures."""


class IllegalCharacter(StructureError):
    pass


class UnbalancedBracket(StructureError):
    pass


class NonContiguousIndices(StructureError):
    pass


class AsymmetricPair(StructureError):
    pass


class SelfPair(StructureError):
    pass


class CrossingStructure(StructureError):
    pass


class EmptyStructure(StructureError):
    pass


@dataclass(frozen=True)
class EteModel:
    """Two-scale step model for the physical end-to-end distance estimate.

    b_nm is the hydrogen-bridge step, c_nm the covalent step, and a_nm the
    average step of the root-mean-square estimate.  All lengths in nm.
    """

    b_nm: float = 1.5
    c_nm: float = 0.62
    exponent: float = 6 / 5
    a_nm: float = 0.75

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.b_nm, self.c_nm, self.a_nm)):
            raise ValueError("step lengths must be finite and positive")
        if not 1 < self.exponent < 2:
            raise ValueError("exponent must lie in (1, 2)")


DEFAULT_ETE = EteModel()


def _check_pairs(partner: tuple[int, ...]) -> None:
    """Each nonzero partner[i-1] = j must be another position in 1..n that pairs back."""
    for i1, j in enumerate(partner, start=1):
        if j == 0:
            continue
        if j == i1:
            raise SelfPair(f"position {i1} pairs with itself")
        if not 1 <= j <= len(partner) or partner[j - 1] != i1:
            raise AsymmetricPair(f"pair ({i1},{j}) is not reciprocated")


@dataclass(frozen=True)
class SecondaryStructure:
    """Pairing table of a length-n structure.

    partner[i-1] is the 1-based partner of position i, or 0 if unpaired.
    crossing is True iff two pairs (i,j), (k,l) interleave as i < k < j < l.
    sequence optionally carries the nucleotide letters (never validated
    against the pairing).
    """

    length: int
    partner: tuple[int, ...]
    crossing: bool
    sequence: Optional[str] = None

    def validate(self) -> None:
        if self.length != len(self.partner):
            raise StructureError("partner table length mismatch")
        _check_pairs(self.partner)
        if self.crossing != _crosses(self.partner):
            raise StructureError("crossing flag inconsistent with pairs")

    def pairs(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i < j, in order of i."""
        return [(i1, j) for i1, j in enumerate(self.partner, start=1) if j > i1]

    def is_paired(self, i1: int) -> bool:
        return self.partner[i1 - 1] != 0


@dataclass(frozen=True)
class ExteriorStats:
    """The end-proximity measurements of one structure."""

    deg: int
    unp: int
    chn: int
    len_ext: int
    ete_nm: float
    rms_nm: float
    hel: Optional[int] = None
    stm: Optional[int] = None
    stem_helices: Optional[int] = None


_STAT_FIELDS = [f.name for f in fields(ExteriorStats)]


# ---------------------------------------------------------------------------
# the block scan

_T = TypeVar("_T")


def _blocks(items: Iterable[_T], size: Callable[[_T], int]) -> Iterator[list[_T]]:
    """Consecutive records in lists of at most _BLOCK_CHARS total weight, a
    record weighing its size plus _RECORD_CHARS; a record heavier than
    that makes a list of its own."""
    block: list[_T] = []
    total = 0
    for item in items:
        n = size(item) + _RECORD_CHARS
        if block and total + n > _BLOCK_CHARS:
            yield block
            block, total = [], 0
        block.append(item)
        total += n
    if block:
        yield block


def _offsets(lengths) -> np.ndarray:
    """0, then the running totals of lengths."""
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.add.accumulate(lengths, out=out[1:])
    return out


def _level_order(at: np.ndarray, opens: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Bracket positions `at` of one stack, reordered so that each opener is
    followed by its mate.

    depth is the depth after each bracket, and the brackets form balanced
    runs (records) one after another.  An opener's level is the depth after
    it and a closer's the depth before it; at each level openers and closers
    then alternate, opener first, so a stable sort by level makes mates
    neighbours.
    """
    level = depth + ~opens
    if level.size and level.max() < 1 << 15:  # a stable sort of 16-bit keys is a radix sort
        level = level.astype(np.int16)
    return at[np.argsort(level, kind="stable")]


def _crossing(partner: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per record, whether two of its pairs interleave.

    One stack for all families nests whatever it pairs, and reproduces
    exactly the nested pairings, so a record crosses iff its pairs differ
    from the one-stack matching of the same brackets.
    """
    at = (partner >= 0).nonzero()[0]
    opens = partner[at] > at
    order = _level_order(at, opens, np.add.accumulate(opens.astype(np.int8) * 2 - 1, dtype=np.int32))
    first = order[0::2]
    wrong = first[partner[first] != order[1::2]]
    crossing = np.zeros(len(starts) - 1, dtype=bool)
    crossing[starts.searchsorted(wrong, side="right") - 1] = True
    return crossing


def _crosses(partner: Sequence[int]) -> bool:
    """True iff two pairs of a symmetric 1-based partner table interleave."""
    mate = np.asarray(partner, dtype=np.int64) - 1
    return bool(_crossing(mate, np.array([0, len(mate)]))[0])


@dataclass(eq=False)
class _Block:
    """Records scanned or measured together.

    Record r holds positions starts[r]:starts[r + 1]; partner holds each
    position's mate as a block position, or -1 (every position of a record
    with an error is -1).  errors maps a record to its parse error.
    """

    starts: np.ndarray
    partner: np.ndarray
    crossing: np.ndarray
    errors: dict[int, StructureError]

    @classmethod
    def of(cls, structures: Sequence[SecondaryStructure]) -> "_Block":
        starts = _offsets([s.length for s in structures])
        partner = np.fromiter(chain.from_iterable(s.partner for s in structures), np.int64, starts[-1]) - 1
        paired = partner >= 0
        partner[paired] += np.repeat(starts[:-1], starts[1:] - starts[:-1])[paired]
        return cls(starts, partner, np.array([s.crossing for s in structures], dtype=bool), {})

    @classmethod
    def from_steps(cls, rows: Sequence[np.ndarray]) -> "_Block":
        """Step rows of any lengths as records; a 2-D array is a sequence of rows."""
        starts = _offsets([len(row) for row in rows])
        steps = np.concatenate([*rows, np.zeros(0, dtype=np.int8)])
        at = steps.nonzero()[0]
        order = _level_order(at, steps[at] > 0, np.add.accumulate(steps[at], dtype=np.int32))
        partner = np.full(starts[-1], -1, dtype=np.int64)
        partner[order[0::2]] = order[1::2]
        partner[order[1::2]] = order[0::2]
        return cls(starts, partner, np.zeros(len(starts) - 1, dtype=bool), {})

    @cached_property
    def _mates(self) -> list[int]:
        """Every position's 1-based mate within its record, or 0."""
        first = np.repeat(self.starts[:-1], self.starts[1:] - self.starts[:-1])
        return np.where(self.partner >= 0, self.partner - (first - 1), 0).tolist()

    def structure(self, r: int, sequence: Optional[str] = None) -> SecondaryStructure:
        a, b = int(self.starts[r]), int(self.starts[r + 1])
        return SecondaryStructure(b - a, tuple(self._mates[a:b]), bool(self.crossing[r]), sequence)


def _classes(text: str) -> np.ndarray:
    """The scan class of every character of text."""
    if text.isascii():
        return _CLASS[np.frombuffer(text.encode("ascii"), np.uint8)]
    # one code point per character keeps character positions
    return _CLASS[np.minimum(np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32), 255)]


def _record_depths(at: np.ndarray, opens: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Depth after each bracket of one family, counted from the start of
    its record."""
    depth = np.add.accumulate(opens.astype(np.int8) * 2 - 1, dtype=np.int32)
    bounds = at.searchsorted(starts)
    base = np.where(bounds[:-1] > 0, depth[bounds[:-1] - 1], 0)
    depth -= np.repeat(base.astype(np.int32), bounds[1:] - bounds[:-1])
    return depth


def _errors(lines: Sequence[str], starts: np.ndarray, illegal: np.ndarray, families: list) -> dict[int, StructureError]:
    """Each bad record's error: its first illegal character or unmatched
    closer, by position; failing that, the top unmatched opener of its first
    family in OPENERS order.  families holds (family, positions, opens,
    depths) of the brackets of each family that occurs, in OPENERS order."""
    errors: dict[int, StructureError] = {}
    bad = np.sort(np.concatenate([illegal, *(at[depth < 0] for _, at, _, depth in families)]))
    rec = starts.searchsorted(bad, side="right") - 1
    for r, p in zip(rec.tolist(), bad.tolist()):
        if r in errors:  # not the record's first bad position
            continue
        pos = p - int(starts[r])
        ch = lines[r][pos]
        if ch in CLOSERS:
            errors[r] = UnbalancedBracket(f"unmatched '{ch}' at position {pos + 1}")
        else:
            errors[r] = IllegalCharacter(f"illegal character {ch!r} at position {pos + 1}")
    for f, at, opens, depth in families:
        bounds = at.searchsorted(starts)
        left_open = (bounds[1:] > bounds[:-1]) & (depth[bounds[1:] - 1] > 0)
        for r in left_open.nonzero()[0].tolist():
            if r in errors:  # an earlier error, or an earlier family left open
                continue
            a, b = bounds[r], bounds[r + 1]
            top = a + (opens[a:b] & (depth[a:b] == depth[b - 1])).nonzero()[0][-1]
            pos = int(at[top] - starts[r])
            errors[r] = UnbalancedBracket(f"unmatched '{OPENERS[f]}' at position {pos + 1} (end of string reached)")
    return errors


def _scan(lines: Sequence[str]) -> _Block:
    """Parse dot-bracket lines (stripped) as one block; four bracket
    families pair independently, each on its own stack."""
    starts = _offsets([len(line) for line in lines])
    cls = _classes("".join(lines))
    counts = np.bincount(cls, minlength=_ILLEGAL + 1)
    families = []
    for f in range(len(OPENERS)):
        if counts[1 + f] or counts[5 + f]:
            at = ((cls == 1 + f) | (cls == 5 + f)).nonzero()[0]
            opens = cls[at] == 1 + f
            families.append((f, at, opens, _record_depths(at, opens, starts)))
    illegal = (cls == _ILLEGAL).nonzero()[0] if counts[_ILLEGAL] else np.zeros(0, dtype=np.int64)
    del cls
    errors = _errors(lines, starts, illegal, families)
    ok = np.ones(len(lines), dtype=bool)
    ok[list(errors)] = False
    partner = np.full(starts[-1], -1, dtype=np.int32)
    for _, at, opens, depth in families:
        if errors:
            keep = np.repeat(ok, starts[1:] - starts[:-1])[at]
            at, opens, depth = at[keep], opens[keep], depth[keep]
        order = _level_order(at, opens, depth)
        partner[order[0::2]] = order[1::2]
        partner[order[1::2]] = order[0::2]
    return _Block(starts, partner, _crossing(partner, starts), errors)


def parse_dot_bracket(text: str) -> SecondaryStructure:
    """Parse a dot-bracket string; four bracket families pair independently.

    Raises IllegalCharacter or UnbalancedBracket (with 1-based position).
    """
    block = _scan([text.strip()])
    if block.errors:
        raise block.errors[0]
    return block.structure(0)


def parse_dot_bracket_lines(texts: Iterable[str]) -> Iterator[SecondaryStructure]:
    """parse_dot_bracket of each text, one scan per block of texts; raises
    the error of the first text that fails."""
    for lines in _blocks((text.strip() for text in texts), len):
        block = _scan(lines)
        for r in range(len(lines)):
            if r in block.errors:
                raise block.errors[r]
            yield block.structure(r)


def parse_bpseq(text: str) -> SecondaryStructure:
    """Parse bpseq content: lines of "index base partner", 0 = unpaired.

    '#' comment lines and blank lines are ignored, and text with no other
    line is an EmptyStructure.  Indices must be exactly 1..n; pairs must be
    symmetric and non-self.
    """
    entries: dict[int, tuple[str, int]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise NonContiguousIndices(f"malformed bpseq line: {raw!r}")
        try:
            idx, base, mate = int(fields[0]), fields[1], int(fields[2])
        except ValueError as exc:
            raise NonContiguousIndices(f"malformed bpseq line: {raw!r}") from exc
        if idx in entries:
            raise NonContiguousIndices(f"duplicate index {idx}")
        entries[idx] = (base, mate)
    n = len(entries)
    if not n:
        raise EmptyStructure("bpseq text has no position lines")
    if sorted(entries) != list(range(1, n + 1)):
        raise NonContiguousIndices("indices do not cover 1..n exactly once")
    partner = tuple(entries[i1][1] for i1 in range(1, n + 1))
    _check_pairs(partner)
    seq = "".join(entries[i1][0] for i1 in range(1, n + 1))
    return SecondaryStructure(n, partner, _crosses(partner), seq)


def to_dot_bracket(s: SecondaryStructure) -> str:
    """Serialize to dot-bracket.  Crossing structures use extra bracket
    families, assigned greedily; raises StructureError past four families.

    Pairs are taken in order of opening position, and each goes to the first
    family it crosses no pair of.  A family's pairs still open at position i
    are nested, so it keeps their closing positions on a stack, innermost on
    top; (i, j) fits when, after popping the ends before i, the top is past j.
    """
    chars = ["."] * s.length
    families = [([], op, cl) for op, cl in zip(OPENERS, CLOSERS)]
    for i, j in enumerate(s.partner, start=1):
        if j <= i:
            continue
        for ends, op, cl in families:
            while ends and ends[-1] < i:
                ends.pop()
            if not ends or ends[-1] > j:
                ends.append(j)
                chars[i - 1] = op
                chars[j - 1] = cl
                break
        else:
            raise StructureError("structure needs more than four bracket families")
    return "".join(chars)


def ete_distance(deg: int, chn: int, m: EteModel = DEFAULT_ETE) -> float:
    """Two-scale distance estimate from deg bridge steps and chn covalent steps."""
    if deg < 0 or chn < 0:
        raise ValueError("step counts must be nonnegative")
    e = m.exponent
    return math.sqrt(m.b_nm**2 * deg**e + m.c_nm**2 * chn**e)


def rms_distance(length: int, m: EteModel = DEFAULT_ETE) -> float:
    """Root-mean-square estimate a*sqrt(length-1); 0 for length <= 1."""
    return m.a_nm * math.sqrt(max(0, length - 1))


# ---------------------------------------------------------------------------
# statistics as columns


def _runs(flags: np.ndarray, start: np.ndarray) -> np.ndarray:
    """One plus the number of True flags in a row from each start on; the
    last flag must be False."""
    ends = (~flags).nonzero()[0]
    return ends[ends.searchsorted(start)] - start + 1


def _optional(values: np.ndarray, present: np.ndarray) -> list[Optional[int]]:
    return [v if ok else None for v, ok in zip(values.tolist(), present.tolist())]


def _columns(block: _Block, rows: np.ndarray, path: np.ndarray, m: EteModel) -> list[list]:
    """The ExteriorStats fields of the block's records `rows`, one list per
    field.  Records flagged in `path` are measured along the shortest 5'-3'
    path, the others by the exterior walk, which needs them nested.

    Depth is the one-stack depth after each position.  In a nested record
    the exterior holds the pairs that open at depth 1 and the dots at depth
    0.  The first helix and the first stem run along consecutive pair
    openings: a pair (i, j) continues the helix when (i+1, j-1) is a pair,
    and continues the stem when the next opening lies inside it and the
    opening after that child pair does not.
    """
    partner, starts = block.partner, block.starts
    size = len(partner)
    opener = partner > np.arange(size, dtype=partner.dtype)
    depth = np.add.accumulate(opener.astype(np.int8) - ((partner >= 0) & ~opener), dtype=np.int32)
    top = (opener & (depth == 1)).nonzero()[0].searchsorted(starts)
    dots = ((partner < 0) & (depth == 0)).nonzero()[0].searchsorted(starts)
    del depth
    deg = (top[1:] - top[:-1])[rows]
    unp = (dots[1:] - dots[:-1])[rows]
    chn = np.maximum(deg + unp - 1, 0)

    op = opener.nonzero()[0]
    close = partner[op].astype(np.int64)
    stacked = (op + 2 < close) & (partner[op + 1] == close - 1)
    op_end = np.concatenate((op, [size]))
    single = (op_end[1:] < close) & (op_end[op.searchsorted(np.concatenate((close[1:], [size])))] > close)
    first = op.searchsorted(starts[rows])
    has = first < op.searchsorted(starts[rows + 1])
    hel = np.zeros(len(rows), dtype=np.int64)
    stm = np.zeros(len(rows), dtype=np.int64)
    helices = np.zeros(len(rows), dtype=np.int64)
    k = first[has]
    hel[has] = _runs(stacked, k)
    stm[has] = _runs(single, k)
    breaks = _offsets(~stacked)  # breaks[k]: openings before k that are not stacked
    helices[has] = 1 + breaks[k + stm[has] - 1] - breaks[k]
    stem = has & ~block.crossing[rows]

    if path.any():
        deg[path], unp[path], chn[path] = _path_counts(block, rows[path], m)
    deg_list, chn_list = deg.tolist(), chn.tolist()
    return [
        deg_list,
        unp.tolist(),
        chn_list,
        (2 * deg + unp).tolist(),
        [ete_distance(d, c, m) for d, c in zip(deg_list, chn_list)],
        [rms_distance(n, m) for n in (starts[rows + 1] - starts[rows]).tolist()],
        _optional(hel, has),
        _optional(stm, stem),
        _optional(helices, stem),
    ]


def _distances(block: _Block, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first distances from both ends of each of the block's
    records `rows`, all found in one level-synchronous pass.

    The records are laid out one after another, twice: the search starts
    from every record's 5' end in the first copy and from its 3' end in the
    second.  Returns (offsets, mate, from5, from3): record i holds nodes
    offsets[i]:offsets[i + 1], mate is each node's 0-based mate within its
    record or -1, and from5 and from3 are the distances.
    """
    lengths = block.starts[rows + 1] - block.starts[rows]
    offsets = _offsets(lengths)
    size = int(offsets[-1])
    first = np.repeat(offsets[:-1], lengths)
    node = np.arange(size)
    start = np.repeat(block.starts[rows], lengths)  # block position of each record's first node
    mate = block.partner[node - first + start].astype(np.int64)
    mate = np.where(mate >= 0, mate - start, -1)
    # each node's neighbours in both copies: 5' side, 3' side, mate; a
    # missing one is -1, the last entry of dist, which counts as visited
    left, right = node - 1, node + 1
    left[offsets[:-1]] = -1
    right[offsets[1:] - 1] = -1
    one = np.stack([left, right, np.where(mate >= 0, first + mate, -1)])
    neighbours = np.concatenate([one, np.where(one >= 0, one + size, -1)], axis=1)
    frontier = np.concatenate([offsets[:-1], offsets[1:] - 1 + size])
    dist = np.full(2 * size + 1, -1, dtype=np.int32)
    dist[frontier] = 0
    dist[-1] = 0
    slot = np.empty(2 * size, dtype=np.int64)  # where a node last appears in reach
    level = 0
    while frontier.size:
        level += 1
        reach = neighbours[:, frontier].ravel()
        reach = reach[dist[reach] < 0]
        index = np.arange(len(reach))
        slot[reach] = index
        frontier = reach[slot[reach] == index]
        dist[frontier] = level
    return offsets, mate, dist[:size], dist[size:-1]


def _path_counts(block: _Block, rows: np.ndarray, m: EteModel) -> tuple[list[int], list[int], list[int]]:
    """(pair steps, unpaired nodes, backbone steps) of the selected shortest
    5'-3' path of each of the block's records `rows`."""
    offsets, mate, from5, from3 = _distances(block, rows)
    lengths = offsets[1:] - offsets[:-1]
    rec = np.repeat(np.arange(len(rows)), lengths)
    # the nodes on some shortest path, by record, farthest from the 5' end first
    on = (from5 + from3 == np.repeat(from5[offsets[1:] - 1], lengths)).nonzero()[0]
    on = on[np.lexsort((-from5[on], rec[on]))]
    cut = rec[on].searchsorted(np.arange(len(rows) + 1)).tolist()
    deg, unp, chn = [], [], []
    for i, (a, b) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        mates = mate[a:b].tolist()
        order = (on[cut[i] : cut[i + 1]] - a).tolist()
        d, c, seq = _min_ete_path(mates, from5[a:b].tolist(), from3[a:b].tolist(), order, m)
        deg.append(d)
        chn.append(c)
        unp.append(sum(1 for v in seq if mates[v] < 0))
    return deg, unp, chn


def _min_ete_path(
    mate: list[int], dist1: list[int], distn: list[int], order: list[int], m: EteModel
) -> tuple[int, int, list[int]]:
    """(pair steps, backbone steps, node sequence) of the selected path of
    one structure.  Nodes are 0-based positions, mate[u] is u's partner or
    -1, dist1 and distn are the distances from the two ends, and order
    lists the nodes on a shortest path, farthest from the 5' end first."""
    n = len(mate)
    last = n - 1
    total = dist1[last]

    def neighbors(u: int) -> list[tuple[int, int]]:
        # (node, step type); type 1 when a pair exists, even for adjacent mates
        w = mate[u]
        out = [(v, 0) for v in (u - 1, u + 1) if 0 <= v < n and v != w]
        if w >= 0:
            out.append((w, 1))
        return out

    # feasible pair-step counts per node, as bitmasks over the DAG of
    # shortest-path edges
    feasible = [0] * n
    feasible[last] = 1
    for u in order:
        if u == last:
            continue
        mask = 0
        for v, t in neighbors(u):
            if dist1[u] + 1 + distn[v] == total and dist1[v] + distn[v] == total:
                mask |= feasible[v] << t
        feasible[u] = mask

    options = [d for d in range(total + 1) if feasible[0] >> d & 1]
    best = min(ete_distance(d, total - d, m) for d in options)
    target = 0
    for d in options:
        if ete_distance(d, total - d, m) == best:
            target |= 1 << d

    # lexicographically smallest node sequence among paths hitting a target
    # pair count
    seq = [0]
    u, mask, deg = 0, target, 0
    while u != last:
        step = None
        for v, t in sorted(neighbors(u)):
            if dist1[u] + 1 + distn[v] != total:
                continue
            sub = (mask >> t) & feasible[v]
            if sub:
                step = (v, t, sub)
                break
        assert step is not None, "walk left the shortest-path DAG"
        v, t, mask = step
        deg += t
        seq.append(v)
        u = v
    return deg, total - deg, seq


def _stats_of(s: SecondaryStructure, path: bool, m: EteModel) -> ExteriorStats:
    columns = _columns(_Block.of([s]), np.zeros(1, dtype=np.int64), np.array([path]), m)
    return ExteriorStats(*(column[0] for column in columns))


def first_helix_length(s: SecondaryStructure) -> Optional[int]:
    """Length of the run of directly nested pairs starting at the pair with
    smallest opening position; None if the structure has no pair.

    Defined for crossing structures too (the run definition does not need
    nestedness), since pipelines report it for pseudoknotted records.
    """
    return _stats_of(s, False, DEFAULT_ETE).hel


def first_stem(s: SecondaryStructure) -> Optional[tuple[int, int]]:
    """(stem pair count, helix count within the stem) for the stem that the
    first pair opens; None if no pair exists.

    The stem follows the unique chain of pairs below the first pair and stops
    at a hairpin or at a multiloop (two or more child pairs).
    """
    if s.crossing:
        raise CrossingStructure("first_stem requires a nested structure")
    st = _stats_of(s, False, DEFAULT_ETE)
    return None if st.stm is None else (st.stm, st.stem_helices)


def exterior_stats(s: SecondaryStructure, m: EteModel = DEFAULT_ETE) -> ExteriorStats:
    """All end-proximity statistics of a nested structure.

    Raises CrossingStructure for pseudoknotted input; those go through
    shortest_path_stats instead.
    """
    if s.crossing:
        raise CrossingStructure("exterior_stats requires a nested structure")
    return _stats_of(s, False, m)


def shortest_path_stats(s: SecondaryStructure, m: EteModel = DEFAULT_ETE) -> ExteriorStats:
    """End-proximity statistics via the 5'-3' shortest path; crossing allowed.

    Nodes are positions, edges are backbone links (i, i+1) and pairs (i, j).
    Among minimum-edge-count node sequences the one minimizing the distance
    estimate is chosen, remaining ties broken by lexicographically smallest
    node sequence.  A step between adjacent paired positions counts as a pair
    step, which makes the result coincide with exterior_stats on every nested
    structure.  Unpaired nodes anywhere on the path (endpoints included)
    count toward unp.  Stem statistics are omitted for crossing structures.
    """
    if s.length == 0:
        raise EmptyStructure("cannot take a path through an empty structure")
    return _stats_of(s, True, m)


# ---------------------------------------------------------------------------
# structure files


class ParsedRecord:
    """One record of a structure file; either a structure or a parse error.

    A structure is held as a row of a block of records, with the record's
    sequence: a record read from dot-bracket text refers to its row of the
    scanned block, and a structure given to the constructor becomes a block
    of one record.  The SecondaryStructure is built when `structure` is
    first read.
    """

    def __init__(
        self,
        id: str,
        group: Optional[str] = None,
        structure: Optional[SecondaryStructure] = None,
        error: Optional[str] = None,
    ):
        self.id = id
        self.group = group
        self.error = error
        self._row: Optional[tuple[_Block, int, Optional[str]]] = (  # block, record, sequence
            None if structure is None else (_Block.of([structure]), 0, structure.sequence)
        )

    @cached_property
    def structure(self) -> Optional[SecondaryStructure]:
        return None if self._row is None else self._row[0].structure(*self._row[1:])

    @property
    def has_structure(self) -> bool:
        """Whether the record holds a structure, without building it."""
        return self._row is not None

    def __repr__(self) -> str:
        return f"ParsedRecord(id={self.id!r}, group={self.group!r}, error={self.error!r})"


def _record_lines(lines: Iterable[str]) -> Iterator[tuple[Optional[str], Optional[str], Optional[str]]]:
    """The (header, sequence, structure) lines of each dot-bracket record,
    stripped, with blank lines dropped.  A record is an optional header
    line, then, after a header only, an optional letters-only sequence
    line, then one structure line; a header is None for a bare structure
    line, and a structure is None for a header that the next header or the
    end of the lines follows."""
    header = sequence = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line[0] == ">":
            if header is not None:
                yield header, sequence, None
            header, sequence = line, None
        elif header is not None and sequence is None and line.isalpha():
            sequence = line
        else:
            yield header, sequence, line
            header = sequence = None
    if header is not None:
        yield header, sequence, None


def _structure_size(record: tuple[Optional[str], Optional[str], Optional[str]]) -> int:
    return len(record[2] or "")


def read_dot_bracket_records(
    text: str | Iterable[str], default_group: Optional[str] = None, first: int = 1
) -> list[ParsedRecord]:
    """Read dot-bracket records: an optional ">id key=value ..." header line
    followed by one structure line; bare structure lines are allowed.

    text is the file's text or its lines.  A letters-only line right after a
    header is that record's sequence (the three-line header, sequence,
    structure layout); a record whose sequence and structure differ in
    length gets an error, and so does a header followed by another header
    or by the end of the input.  A record without an id is numbered from
    `first`.  Structure lines are parsed one block of whole records at a
    time, cut as read_dot_bracket_blocks cuts them.
    """
    records: list[ParsedRecord] = []
    lines = text.splitlines() if isinstance(text, str) else text
    for block in _blocks(_record_lines(lines), _structure_size):
        pending: list[tuple[ParsedRecord, str, Optional[str]]] = []
        for header, sequence, line in block:
            tokens = header[1:].split() if header else []
            rec = ParsedRecord(tokens[0] if tokens else f"rec{first + len(records)}", default_group)
            for tok in tokens[1:]:
                if tok.startswith("group="):
                    rec.group = tok[len("group="):]
            records.append(rec)
            if line is None:
                rec.error = "header with no structure line"
            else:
                pending.append((rec, line, sequence))
        scanned = _scan([line for _, line, _ in pending])
        for r, (rec, line, sequence) in enumerate(pending):
            if r in scanned.errors:
                rec.error = str(scanned.errors[r])
            elif sequence is not None and len(sequence) != len(line):
                rec.error = f"sequence length {len(sequence)} differs from structure length {len(line)}"
            else:
                rec._row = (scanned, r, sequence)
    return records


def read_dot_bracket_blocks(lines: Iterable[str], default_group: Optional[str] = None) -> Iterator[list[ParsedRecord]]:
    """read_dot_bracket_records over a stream of lines, one list of records
    per block, so only one block is held at a time.  A block takes whole
    records while their weight stays within _BLOCK_CHARS, a record weighing
    the characters of its structure line plus _RECORD_CHARS; one heavier
    record makes a block of its own."""
    first = 1
    for block in _blocks(_record_lines(lines), _structure_size):
        records = read_dot_bracket_records([line for record in block for line in record if line], default_group, first)
        first += len(records)
        yield records


def read_bpseq_records(text: str, rec_id: str, group: Optional[str] = None) -> list[ParsedRecord]:
    """Read a bpseq file as a single record, which holds the parse error of
    a file that does not parse or has no position line."""
    try:
        return [ParsedRecord(rec_id, group, parse_bpseq(text))]
    except StructureError as exc:
        return [ParsedRecord(rec_id, group, error=str(exc))]


def stats_columns(records: Sequence[ParsedRecord], m: EteModel = DEFAULT_ETE) -> dict[str, list]:
    """`length`, `crossing` and every ExteriorStats field, one list each in
    record order, of records that all hold a structure.

    Each run of consecutive records that share a block is measured
    together, where it sits, and its columns are appended in place.
    Crossing records are measured along the shortest path, nested ones by
    the exterior walk, as `shortest_path_stats` and `exterior_stats` do.
    """
    names = ["length", "crossing", *_STAT_FIELDS]
    out: dict[str, list] = {name: [] for name in names}
    for block, run in groupby(records, lambda rec: rec._row[0]):  # blocks compare by identity
        rows = np.array([rec._row[1] for rec in run], dtype=np.int64)
        crossing = block.crossing[rows]
        lengths = block.starts[rows + 1] - block.starts[rows]
        columns = [lengths.tolist(), crossing.tolist(), *_columns(block, rows, crossing, m)]
        for name, column in zip(names, columns):
            out[name] += column
    return out

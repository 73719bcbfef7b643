"""Secondary-structure parsing and per-structure end-proximity statistics.

Positions are 1-based throughout, matching bpseq conventions.  A structure is
a partial pairing of positions; the exterior loop is the set of positions not
enclosed by any pair.  All statistics here are measurements of that loop:
pair count (deg), unpaired count (unp), covalent-bond count (chn), nucleotide
count (len_ext), a two-scale physical distance estimate (ete), the first-helix
length (hel) and the first-stem pair count (stm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

OPENERS = "([{<"
CLOSERS = ")]}>"
_CLOSE_OF = dict(zip(OPENERS, CLOSERS))
_OPEN_OF = dict(zip(CLOSERS, OPENERS))


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
        if min(self.b_nm, self.c_nm, self.a_nm) <= 0:
            raise ValueError("step lengths must be positive")
        if not 1 < self.exponent < 2:
            raise ValueError("exponent must lie in (1, 2)")


DEFAULT_ETE = EteModel()


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
        for i1, j in enumerate(self.partner, start=1):
            if j == 0:
                continue
            if j == i1:
                raise SelfPair(f"position {i1} pairs with itself")
            if not 1 <= j <= self.length or self.partner[j - 1] != i1:
                raise AsymmetricPair(f"pair ({i1},{j}) is not reciprocated")
        if self.crossing != _has_crossing(self.partner):
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


def _has_crossing(partner: Sequence[int]) -> bool:
    """True iff two pairs of a symmetric partner table interleave.

    One stack scan over the pair endpoints: in a nested structure every
    closing position's mate is the innermost pair still open, so a closer
    whose mate is not on top of the stack crosses the pair that is.
    """
    stack: list[int] = []
    for i1, j in enumerate(partner, start=1):
        if j > i1:
            stack.append(i1)
        elif j and stack.pop() != j:
            return True
    return False


def parse_dot_bracket(text: str) -> SecondaryStructure:
    """Parse a dot-bracket string; four bracket families pair independently.

    Raises IllegalCharacter or UnbalancedBracket (with 1-based position).
    """
    line = text.strip()
    partner = [0] * len(line)
    stacks: dict[str, list[int]] = {op: [] for op in OPENERS}
    for pos, ch in enumerate(line, start=1):
        if ch == ".":
            continue
        if ch in OPENERS:
            stacks[ch].append(pos)
        elif ch in CLOSERS:
            stack = stacks[_OPEN_OF[ch]]
            if not stack:
                raise UnbalancedBracket(f"unmatched '{ch}' at position {pos}")
            i = stack.pop()
            partner[i - 1] = pos
            partner[pos - 1] = i
        else:
            raise IllegalCharacter(f"illegal character {ch!r} at position {pos}")
    for op, stack in stacks.items():
        if stack:
            raise UnbalancedBracket(
                f"unmatched '{op}' at position {stack[-1]} (end of string reached)"
            )
    return SecondaryStructure(len(line), tuple(partner), _has_crossing(partner))


def parse_bpseq(text: str) -> SecondaryStructure:
    """Parse bpseq content: lines of "index base partner", 0 = unpaired.

    '#' comment lines and blank lines are ignored.  Indices must be exactly
    1..n; pairs must be symmetric and non-self.
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
    if sorted(entries) != list(range(1, n + 1)):
        raise NonContiguousIndices("indices do not cover 1..n exactly once")
    partner = [0] * n
    seq = []
    for i1 in range(1, n + 1):
        base, mate = entries[i1]
        seq.append(base)
        if mate == 0:
            continue
        if mate == i1:
            raise SelfPair(f"position {i1} pairs with itself")
        if not 1 <= mate <= n or entries[mate][1] != i1:
            raise AsymmetricPair(f"pair ({i1},{mate}) is not reciprocated")
        partner[i1 - 1] = mate
    return SecondaryStructure(n, tuple(partner), _has_crossing(partner), "".join(seq))


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


def _exterior_walk(s: SecondaryStructure) -> tuple[list[tuple[int, int]], int]:
    """Top-level pairs and exterior unpaired count of a nested structure."""
    top_pairs = []
    unp = 0
    i1 = 1
    while i1 <= s.length:
        j = s.partner[i1 - 1]
        if j == 0:
            unp += 1
            i1 += 1
        else:
            top_pairs.append((i1, j))
            i1 = j + 1
    return top_pairs, unp


def first_helix_length(s: SecondaryStructure) -> Optional[int]:
    """Length of the run of directly nested pairs starting at the pair with
    smallest opening position; None if the structure has no pair.

    Defined for crossing structures too (the run definition does not need
    nestedness), since pipelines report it for pseudoknotted records.
    """
    first = None
    for i1, j in enumerate(s.partner, start=1):
        if j > i1:
            first = (i1, j)
            break
    if first is None:
        return None
    i, j = first
    h = 0
    while i + h < j - h and s.partner[i + h - 1] == j - h:
        h += 1
    return h


def first_stem(s: SecondaryStructure) -> Optional[tuple[int, int]]:
    """(stem pair count, helix count within the stem) for the stem that the
    first pair opens; None if no pair exists.

    The stem follows the unique chain of pairs below the first pair and stops
    at a hairpin or at a multiloop (two or more child pairs).
    """
    if s.crossing:
        raise CrossingStructure("first_stem requires a nested structure")
    first = None
    for i1, j in enumerate(s.partner, start=1):
        if j > i1:
            first = (i1, j)
            break
    if first is None:
        return None
    stm = 1
    helices = 1
    i, j = first
    while True:
        children = []
        k = i + 1
        while k < j:
            mate = s.partner[k - 1]
            if mate > k:
                children.append((k, mate))
                k = mate + 1
            else:
                k += 1
            if len(children) > 1:
                break
        if len(children) != 1:
            return stm, helices
        (ci, cj) = children[0]
        stm += 1
        if (ci, cj) != (i + 1, j - 1):
            helices += 1
        i, j = ci, cj


def exterior_stats(s: SecondaryStructure, m: EteModel = DEFAULT_ETE) -> ExteriorStats:
    """All end-proximity statistics of a nested structure.

    Raises CrossingStructure for pseudoknotted input; those go through
    shortest_path_stats instead.
    """
    if s.crossing:
        raise CrossingStructure("exterior_stats requires a nested structure")
    top_pairs, unp = _exterior_walk(s)
    deg = len(top_pairs)
    chn = max(0, deg + unp - 1)
    stem = first_stem(s)
    return ExteriorStats(
        deg=deg,
        unp=unp,
        chn=chn,
        len_ext=2 * deg + unp,
        ete_nm=ete_distance(deg, chn, m),
        rms_nm=rms_distance(s.length, m),
        hel=first_helix_length(s),
        stm=stem[0] if stem else None,
        stem_helices=stem[1] if stem else None,
    )


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
    n = s.length
    if n == 0:
        raise EmptyStructure("cannot take a path through an empty structure")

    if n == 1:
        deg, chn, seq = 0, 0, [1]
    else:
        deg, chn, seq = _min_ete_path(s, m)

    unp = sum(1 for v in seq if not s.is_paired(v))
    stem = None
    if not s.crossing:
        stem = first_stem(s)
    return ExteriorStats(
        deg=deg,
        unp=unp,
        chn=chn,
        len_ext=2 * deg + unp,
        ete_nm=ete_distance(deg, chn, m),
        rms_nm=rms_distance(s.length, m),
        hel=first_helix_length(s),
        stm=stem[0] if stem else None,
        stem_helices=stem[1] if stem else None,
    )


def _neighbors(s: SecondaryStructure, u: int) -> Iterator[tuple[int, int]]:
    # (node, step type); type 1 when a pair exists, even for adjacent mates
    mate = s.partner[u - 1]
    for v in (u - 1, u + 1):
        if 1 <= v <= s.length and v != mate:
            yield v, 0
    if mate:
        yield mate, 1


def _bfs(s: SecondaryStructure, source: int) -> list[int]:
    dist = [-1] * (s.length + 1)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in _neighbors(s, u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _min_ete_path(s: SecondaryStructure, m: EteModel) -> tuple[int, int, list[int]]:
    """(pair steps, backbone steps, node sequence) of the selected path."""
    n = s.length
    dist1 = _bfs(s, 1)
    distn = _bfs(s, n)
    total = dist1[n]

    # feasible pair-step counts per node, as bitmasks over the DAG of
    # shortest-path edges
    order = sorted(
        (v for v in range(1, n + 1) if dist1[v] + distn[v] == total),
        key=lambda v: dist1[v],
        reverse=True,
    )
    feasible = [0] * (n + 1)
    feasible[n] = 1
    for u in order:
        if u == n:
            continue
        mask = 0
        for v, t in _neighbors(s, u):
            if dist1[u] + 1 + distn[v] == total and dist1[v] + distn[v] == total:
                mask |= feasible[v] << t
        feasible[u] = mask

    options = [d for d in range(total + 1) if feasible[1] >> d & 1]
    best = min(ete_distance(d, total - d, m) for d in options)
    target = 0
    for d in options:
        if ete_distance(d, total - d, m) == best:
            target |= 1 << d

    # lexicographically smallest node sequence among paths hitting a target
    # pair count
    seq = [1]
    u, mask, deg = 1, target, 0
    while u != n:
        step = None
        for v, t in sorted(_neighbors(s, u)):
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


@dataclass
class ParsedRecord:
    """One record of a structure file; either a structure or a parse error."""

    id: str
    group: Optional[str] = None
    structure: Optional[SecondaryStructure] = None
    error: Optional[str] = None


def read_dot_bracket_records(text: str, default_group: Optional[str] = None) -> list[ParsedRecord]:
    """Read dot-bracket records: an optional ">id key=value ..." header line
    followed by one structure line; bare structure lines are allowed.

    A letters-only line right after a header is that record's sequence (the
    three-line header, sequence, structure layout); a record whose sequence
    and structure differ in length gets an error, and so does a header
    followed by another header or by the end of the input.
    """
    records: list[ParsedRecord] = []
    header: Optional[tuple[str, Optional[str]]] = None
    sequence: Optional[str] = None
    orphan = "header with no structure line"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header:
                records.append(ParsedRecord(*header, error=orphan))
            tokens = line[1:].split()
            rec_id = tokens[0] if tokens else f"rec{len(records) + 1}"
            group = default_group
            for tok in tokens[1:]:
                if tok.startswith("group="):
                    group = tok[len("group="):]
            header = (rec_id, group)
            sequence = None
            continue
        if header and sequence is None and line.isalpha():
            sequence = line
            continue
        rec_id, group = header if header else (f"rec{len(records) + 1}", default_group)
        header = None
        rec = ParsedRecord(id=rec_id, group=group)
        try:
            s = parse_dot_bracket(line)
            if sequence is not None:
                if len(sequence) != s.length:
                    raise StructureError(
                        f"sequence length {len(sequence)} differs from structure length {s.length}"
                    )
                s = replace(s, sequence=sequence)
            rec.structure = s
        except StructureError as exc:
            rec.error = str(exc)
        sequence = None
        records.append(rec)
    if header:
        records.append(ParsedRecord(*header, error=orphan))
    return records


def read_bpseq_records(text: str, rec_id: str, group: Optional[str] = None) -> list[ParsedRecord]:
    """Read a bpseq file as a single record."""
    rec = ParsedRecord(id=rec_id, group=group)
    try:
        rec.structure = parse_bpseq(text)
    except StructureError as exc:
        rec.error = str(exc)
    return [rec]

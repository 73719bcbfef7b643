"""The scalar structure layer that the block scan replaced, kept as an oracle.

These are character-by-character and record-by-record versions of the dot-
bracket parser, the crossing check, the exterior walk, the helix and stem
walks, the breadth-first searches of the shortest-path statistics and the
per-record `run_stats` rows, with the CLI's whole-file reader and a
list-based `summarize` whose means and variances are exact Fractions of each
group's whole value list, rounded once.  They return the package's own
types and block shape, so their results compare with the package's by
equality.  `unp_deg_of_steps` reads the
exterior (unp, deg) straight off sampler step rows, without the package.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from endprox import pipeline
from endprox.structure import (
    _STAT_FIELDS,
    CLOSERS,
    DEFAULT_ETE,
    OPENERS,
    CrossingStructure,
    EmptyStructure,
    EteModel,
    ExteriorStats,
    IllegalCharacter,
    ParsedRecord,
    SecondaryStructure,
    StructureError,
    UnbalancedBracket,
    ete_distance,
    read_bpseq_records,
    rms_distance,
)

_OPEN_OF = dict(zip(CLOSERS, OPENERS))


def has_crossing(partner: Sequence[int]) -> bool:
    stack: list[int] = []
    for i1, j in enumerate(partner, start=1):
        if j > i1:
            stack.append(i1)
        elif j and stack.pop() != j:
            return True
    return False


def parse_dot_bracket(text: str) -> SecondaryStructure:
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
    return SecondaryStructure(len(line), tuple(partner), has_crossing(partner))


def unp_deg_of_steps(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exterior (unp, deg) of every step row: the dots and the up steps met
    at height zero.  Heights are int16, enough for rows shorter than 2**16."""
    before = np.cumsum(steps, axis=1, dtype=np.int16)
    before -= steps
    top = before == 0
    return (top & (steps == 0)).sum(axis=1), (top & (steps == 1)).sum(axis=1)


def exterior_walk(s: SecondaryStructure) -> tuple[list[tuple[int, int]], int]:
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
    if s.crossing:
        raise CrossingStructure("exterior_stats requires a nested structure")
    top_pairs, unp = exterior_walk(s)
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
    n = s.length
    if n == 0:
        raise EmptyStructure("cannot take a path through an empty structure")
    if n == 1:
        deg, chn, seq = 0, 0, [1]
    else:
        deg, chn, seq = min_ete_path(s, m)
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


def neighbors(s: SecondaryStructure, u: int) -> Iterator[tuple[int, int]]:
    mate = s.partner[u - 1]
    for v in (u - 1, u + 1):
        if 1 <= v <= s.length and v != mate:
            yield v, 0
    if mate:
        yield mate, 1


def bfs(s: SecondaryStructure, source: int) -> list[int]:
    dist = [-1] * (s.length + 1)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in neighbors(s, u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def min_ete_path(s: SecondaryStructure, m: EteModel) -> tuple[int, int, list[int]]:
    n = s.length
    dist1 = bfs(s, 1)
    distn = bfs(s, n)
    total = dist1[n]
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
        for v, t in neighbors(s, u):
            if dist1[u] + 1 + distn[v] == total and dist1[v] + distn[v] == total:
                mask |= feasible[v] << t
        feasible[u] = mask
    options = [d for d in range(total + 1) if feasible[1] >> d & 1]
    best = min(ete_distance(d, total - d, m) for d in options)
    target = 0
    for d in options:
        if ete_distance(d, total - d, m) == best:
            target |= 1 << d
    seq = [1]
    u, mask, deg = 1, target, 0
    while u != n:
        step = None
        for v, t in sorted(neighbors(s, u)):
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


def read_dot_bracket_records(text: str, default_group: Optional[str] = None) -> list[ParsedRecord]:
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
        try:
            s = parse_dot_bracket(line)
            if sequence is not None:
                if len(sequence) != s.length:
                    raise StructureError(
                        f"sequence length {len(sequence)} differs from structure length {s.length}"
                    )
                s = replace(s, sequence=sequence)
            rec = ParsedRecord(rec_id, group, s)
        except StructureError as exc:
            rec = ParsedRecord(rec_id, group, error=str(exc))
        sequence = None
        records.append(rec)
    if header:
        records.append(ParsedRecord(*header, error=orphan))
    return records


def row_from_record(rec: ParsedRecord, m: EteModel) -> dict:
    s = rec.structure
    ex = shortest_path_stats(s, m) if s.crossing else exterior_stats(s, m)
    return dict(
        id=rec.id,
        length=s.length,
        deg=ex.deg,
        unp=ex.unp,
        chn=ex.chn,
        len_ext=ex.len_ext,
        ete_nm=ex.ete_nm,
        rms_nm=ex.rms_nm,
        hel=ex.hel,
        stm=ex.stm,
        stem_helices=ex.stem_helices,
        pseudoknotted=s.crossing,
        group=rec.group or "default",
    )


def run_stats(records: Sequence[ParsedRecord], m: EteModel = DEFAULT_ETE, *, summary: bool = True):
    if not records:
        raise pipeline.NoRecords("no records in input")
    good = [rec for rec in records if rec.structure is not None]
    errors = [(rec.id, rec.error or "parse error") for rec in records if rec.structure is None]
    if not good:
        raise pipeline.NoRecords("every record failed to parse")
    rows = [row_from_record(rec, m) for rec in good]
    block = {name: [row[name] for row in rows] for name in pipeline.ROW_FIELDS}
    return block, summarize([block]) if summary else [], errors


def summarize(blocks, number=Fraction):
    """Each group's rows gathered whole; the mean and the mean squared
    deviation from it in `number` arithmetic, exact Fractions unless told
    otherwise, each rounded to a float once."""
    by_group: dict[str, list] = {}
    for block in blocks:
        for k, group in enumerate(block["group"]):
            by_group.setdefault(group, []).append({name: column[k] for name, column in block.items()})
    out = []
    for group, members in by_group.items():
        means: dict[str, float] = {}
        variances: dict[str, float] = {}
        for name in _STAT_FIELDS:
            values = [number(r[name]) for r in members if r[name] is not None]
            if not values:
                continue
            mu = sum(values) / len(values)
            means[name] = float(mu)
            variances[name] = float(sum((v - mu) ** 2 for v in values) / len(values))
        out.append(pipeline.SummaryBlock(group, len(members), means, variances))
    return out


def looks_like_bpseq(path: str, text: str) -> bool:
    if path.endswith(".bpseq"):
        return True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        return len(fields) == 3 and fields[0].isdigit() and fields[2].lstrip("-").isdigit()
    return False


def read_structure_files(paths: list[str]) -> list[list[ParsedRecord]]:
    """Every input read whole, all of its records as one block."""
    if not paths:
        return [read_dot_bracket_records(sys.stdin.read(), "stdin")]
    records: list[ParsedRecord] = []
    for path in paths:
        text = Path(path).read_text()
        stem = Path(path).stem
        if looks_like_bpseq(path, text):
            records.extend(read_bpseq_records(text, rec_id=stem, group=stem))
        else:
            records.extend(read_dot_bracket_records(text, default_group=stem))
    return [records]

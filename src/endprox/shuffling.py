"""k-let-preserving sequence shuffling.

A shuffle preserves the multiset of length-k substrings (and hence the first
and last (k-1)-mers).  Valid shuffles correspond to Euler paths in the de
Bruijn multigraph whose vertices are (k-1)-mers and whose edges are the k-let
occurrences; drawing a uniform last-exit arborescence toward the terminal
vertex and ordering every other out-edge uniformly yields a uniform Euler
path, i.e. a uniform valid shuffle.  k = 1 degenerates to a plain uniform
permutation of the letters.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .sampling import RngHandle


class KTooLarge(ValueError):
    """k exceeds the sequence length; no k-lets exist to preserve."""


def validate_klets(a: str, b: str, k: int) -> bool:
    """True iff a and b have equal k-let multisets (both empty counts as equal)."""
    count_a = Counter(a[i : i + k] for i in range(len(a) - k + 1))
    count_b = Counter(b[i : i + k] for i in range(len(b) - k + 1))
    return count_a == count_b


def klet_shuffle(s: str, k: int, rng: RngHandle) -> str:
    """Uniform draw among the sequences sharing s's k-let multiset (and its
    first and last (k-1)-mers).  Raises KTooLarge when k > len(s)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(s) < 1:
        raise ValueError("sequence must be nonempty")
    if k > len(s):
        raise KTooLarge(f"k={k} exceeds sequence length {len(s)}")
    gen = rng.generator
    if k == 1:
        letters = list(s)
        return "".join(letters[i] for i in gen.permutation(len(letters)))

    order = k - 1
    start, end = s[:order], s[len(s) - order :]
    out_edges: dict[str, list[str]] = {}
    for i in range(len(s) - k + 1):
        out_edges.setdefault(s[i : i + order], []).append(s[i + 1 : i + k])
    out_edges.setdefault(end, [])

    last_exit = _uniform_arborescence(out_edges, end, gen)

    order_of: dict[str, list[str]] = {}
    for u, targets in out_edges.items():
        reserved = last_exit.get(u)
        pool = list(targets)
        if reserved is not None:
            pool.remove(reserved)
        shuffled = [pool[i] for i in gen.permutation(len(pool))] if pool else []
        if reserved is not None:
            shuffled.append(reserved)
        order_of[u] = shuffled

    cursor = {u: 0 for u in order_of}
    chars = [start]
    node = start
    for _ in range(len(s) - k + 1):
        nxt = order_of[node][cursor[node]]
        cursor[node] += 1
        chars.append(nxt[-1])
        node = nxt
    return "".join(chars)


def _uniform_arborescence(
    out_edges: dict[str, list[str]], root: str, gen
) -> dict[str, str]:
    """Uniform last-exit tree toward root via loop-erased backward-stopping
    random walks (Wilson's algorithm on edge instances)."""
    in_tree = {root}
    chosen: dict[str, str] = {}
    for u in sorted(out_edges):
        if u in in_tree:
            continue
        path = [u]
        seen = {u: 0}
        node = u
        while node not in in_tree:
            targets = out_edges[node]
            node = targets[int(gen.integers(0, len(targets)))]
            if node in seen:
                del path[seen[node] + 1 :]  # erase the loop
                for v in list(seen):
                    if seen[v] > seen[node]:
                        del seen[v]
            else:
                seen[node] = len(path)
                path.append(node)
        for a, b in zip(path, path[1:]):
            chosen[a] = b
            in_tree.add(a)
    return chosen


def read_fasta(text: str) -> list[tuple[str, str]]:
    """Minimal FASTA-like reader: '>id ...' header lines, sequence lines
    concatenated; bare sequences get recN ids."""
    records: list[tuple[str, list[str]]] = []
    count = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            tokens = line[1:].split()
            count += 1
            records.append((tokens[0] if tokens else f"rec{count}", []))
        else:
            if not records:
                count += 1
                records.append((f"rec{count}", []))
            records[-1][1].append(line)
    return [(rec_id, "".join(parts)) for rec_id, parts in records]


def write_fasta(records: list[tuple[str, str]]) -> str:
    return "".join(f">{rec_id}\n{seq}\n" for rec_id, seq in records)

"""k-let-preserving sequence shuffling.

A shuffle preserves the multiset of length-k substrings (and hence the first
and last (k-1)-mers).  Valid shuffles correspond to Euler paths in the de
Bruijn multigraph whose vertices are (k-1)-mers and whose edges are the k-let
occurrences; drawing a uniform last-exit arborescence toward the terminal
vertex and ordering every other out-edge uniformly yields a uniform Euler
path, i.e. a uniform valid shuffle.  At k = 1 the one vertex is the empty
string, and the walk is a uniform permutation of the letters.
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
    # the de Bruijn multigraph: each k-let is an edge from its first k - 1
    # letters to its last; k = 1 walks loops on the one empty vertex
    order = k - 1
    start, end = s[:order], s[len(s) - order :]
    out_edges: dict[str, list[str]] = {}
    for i in range(len(s) - k + 1):
        out_edges.setdefault(s[i : i + order], []).append(s[i : i + k])
    out_edges.setdefault(end, [])

    last_exit = _uniform_arborescence(out_edges, end, gen)

    order_of: dict[str, list[str]] = {}
    for u, edges in out_edges.items():
        reserved = last_exit.get(u)
        pool = list(edges)
        if reserved is not None:
            pool.remove(reserved)
        shuffled = [pool[i] for i in gen.permutation(len(pool))] if pool else []
        if reserved is not None:
            shuffled.append(reserved)
        order_of[u] = shuffled[::-1]  # the walk pops its next edge off the end

    chars = [start]
    node = start
    for _ in range(len(s) - k + 1):
        edge = order_of[node].pop()
        chars.append(edge[-1])
        node = edge[1:]
    return "".join(chars)


def _uniform_arborescence(
    out_edges: dict[str, list[str]], root: str, gen
) -> dict[str, str]:
    """Uniform last-exit tree toward root, as {vertex: its tree edge}, by
    Wilson's algorithm on edge instances: from each vertex outside the tree,
    walk until the tree is hit, keeping each vertex's last exit, then add
    the path those exits trace (the loop-erased walk) to the tree."""
    in_tree = {root}
    chosen: dict[str, str] = {}
    for u in sorted(out_edges):
        node = u
        while node not in in_tree:
            edges = out_edges[node]
            chosen[node] = edges[int(gen.integers(0, len(edges)))]
            node = chosen[node][1:]
        node = u
        while node not in in_tree:
            in_tree.add(node)
            node = chosen[node][1:]
    return chosen


def read_fasta(text: str) -> list[tuple[str, str]]:
    """FASTA-like records: '>id ...' headers, sequence lines joined; a record
    with no id (empty header, or lines before any header) is rec<its number>."""
    records: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            tokens = line[1:].split()
            records.append((tokens[0] if tokens else f"rec{len(records) + 1}", []))
        else:
            if not records:
                records.append(("rec1", []))
            records[-1][1].append(line)
    return [(rec_id, "".join(parts)) for rec_id, parts in records]

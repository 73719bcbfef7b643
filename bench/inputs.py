"""Seeded benchmark inputs, drawn with the benchmark's own numpy Generator.

Nothing here calls endprox: the package's samplers may change their random
stream between commits, and inputs must be identical on both sides of a
comparison.  Every function takes a `numpy.random.Generator`; the same seed
gives the same text.
"""

from __future__ import annotations

import numpy as np

GROUP_LENGTHS = (120, 200, 300, 500)
RECORDS_PER_GROUP = 1000
CROSSING_EVERY = 20  # about one record in twenty gets an extra [ ] pair
FASTA_RECORDS = 1000
FASTA_LENGTH = 300

# Shape of the nested structures, loosely after the grammar's defaults: an
# exterior item is a helix about one time in eight, helices run a geometric
# number of stacked pairs (mean about 4.5), and a helix closes either a
# hairpin of dots or a loop that holds further items (a multiloop or an
# interior loop).
_P_HELIX = 0.125
_P_STACK_END = 0.22
_MAX_HAIRPIN = 10


def nested_structure(rng: np.random.Generator, n: int) -> str:
    """A nested dot-bracket string of length exactly n."""
    out: list[str] = []
    _fill(rng, n, out)
    return "".join(out)


def _fill(rng: np.random.Generator, n: int, out: list[str]) -> None:
    # a sequence of items (dots and helices) covering exactly n positions
    while n > 0:
        if n >= 5 and rng.random() < _P_HELIX:
            pairs = min(int(rng.geometric(_P_STACK_END)), (n - 3) // 2)
            inner = int(rng.integers(3, n - 2 * pairs + 1))
            out.append("(" * pairs)
            if inner <= _MAX_HAIRPIN:
                out.append("." * inner)
            else:
                _fill(rng, inner, out)
            out.append(")" * pairs)
            n -= 2 * pairs + inner
        else:
            out.append(".")
            n -= 1


def add_crossing_pair(rng: np.random.Generator, text: str) -> str | None:
    """Put one [ ] pair on two unpaired positions so that it crosses a pair
    of the nested text: one end inside that pair, the other outside.  None
    when the text has no pair with dots both inside and outside it."""
    partner = partners(text)
    dots = np.array([i for i, ch in enumerate(text) if ch == "."])
    candidates = []
    for i, j in enumerate(partner):
        if j > i:
            inside = dots[(dots > i) & (dots < j)]
            outside = dots[(dots < i) | (dots > j)]
            if inside.size and outside.size:
                candidates.append((inside, outside))
    if not candidates:
        return None
    inside, outside = candidates[int(rng.integers(len(candidates)))]
    a = int(inside[rng.integers(inside.size)])
    b = int(outside[rng.integers(outside.size)])
    lo, hi = min(a, b), max(a, b)
    chars = list(text)
    chars[lo], chars[hi] = "[", "]"
    return "".join(chars)


def partners(text: str) -> list[int]:
    """0-based partner of each position of a dot-bracket string, -1 if
    unpaired; each bracket family pairs on its own stack."""
    partner = [-1] * len(text)
    stacks: dict[str, list[int]] = {"(": [], "[": []}
    close_of = {")": "(", "]": "["}
    for pos, ch in enumerate(text):
        if ch in stacks:
            stacks[ch].append(pos)
        elif ch in close_of:
            i = stacks[close_of[ch]].pop()
            partner[i], partner[pos] = pos, i
    return partner


def dataset(rng: np.random.Generator) -> list[tuple[str, str, str]]:
    """(id, group, dot-bracket) records: RECORDS_PER_GROUP per length in
    GROUP_LENGTHS, every CROSSING_EVERY-th record with a crossing pair."""
    records = []
    for length in GROUP_LENGTHS:
        for r in range(RECORDS_PER_GROUP):
            text = nested_structure(rng, length)
            if r % CROSSING_EVERY == CROSSING_EVERY - 1:
                crossed = add_crossing_pair(rng, text)
                while crossed is None:
                    crossed = add_crossing_pair(rng, nested_structure(rng, length))
                text = crossed
            records.append((f"L{length}_{r}", f"L{length}", text))
    return records


def dataset_text(records: list[tuple[str, str, str]]) -> str:
    return "".join(f">{rec_id} group={group}\n{text}\n" for rec_id, group, text in records)


def fasta(rng: np.random.Generator) -> list[tuple[str, str]]:
    """FASTA_RECORDS uniform random RNA sequences of FASTA_LENGTH letters."""
    letters = np.array(list("ACGU"))
    draws = rng.integers(0, 4, size=(FASTA_RECORDS, FASTA_LENGTH))
    return [(f"seq{r}", "".join(letters[row])) for r, row in enumerate(draws)]


def fasta_text(records: list[tuple[str, str]]) -> str:
    return "".join(f">{rec_id}\n{seq}\n" for rec_id, seq in records)

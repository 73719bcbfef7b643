"""Exact random generation of structures under the three models.

Every sampler returns step rows: an int8 array of shape (count, length) whose
entries are +1 (opens a pair), -1 (closes the innermost open pair) and 0 (an
unpaired position), at count 0 and length 0 too.  Rows pair through the level
sort of the dot-bracket scan (`structure._Block.from_steps`), which gives the
single-structure calls (`sample_dyck`, `sample_motzkin`, `sample_pfold`) their
structure; `step_rows_text` renders rows straight to dot-bracket lines.

Randomness comes from the Philox 4x64 counter-based generator, so identical
seeds reproduce identical sample streams on every platform.

- Dyck paths: the cycle-lemma rotation of a random step arrangement.
- Motzkin paths: the number of pairs k drawn exactly from arbitrary-precision
  weights, then the cycle lemma on k up steps, k + 1 down steps and flat
  steps, which places the 2k paired positions and their pattern at once.
- Grammar output: stochastic traceback through the inside tables conditioned
  on length, run level by level over a batch of samples.  Each sample reads
  its own block of 2n uniforms (a production slot and a split slot per
  position), so a run of draws gives the same rows however its calls are
  chunked.  The split tables keep every 8th prefix sum of each split row,
  about n**2 / 16 floats, and a split point rebuilds the few sums it needs
  in the row's own order, so it is the one the whole row would give.

The seeded Dyck stream is the one earlier versions drew.  The seeded grammar
stream changed when the batched traceback replaced the per-sample one, and
the seeded Motzkin stream, at every length, when the vectorized pair-count
draw replaced both the counted walk and the per-value draw; both draw from
the same exact laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import DEFAULT_PFOLD, PfoldParams, _pfold_mass, pfold_inside
from .structure import SecondaryStructure, _Block


@dataclass
class RngHandle:
    """Seeded handle owning one sample stream; not safe to share across
    concurrent streams (hand each its own handle)."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.Philox(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError("count must be nonnegative")


# Rows are filled in blocks of at most this many steps, which bounds the
# working arrays (uniforms, permutations) whatever the count.
_BLOCK_STEPS = 1 << 20


def _in_blocks(count: int, length: int, draw) -> np.ndarray:
    """count step rows of the given length; draw(r) returns the next r rows."""
    steps = np.empty((count, length), dtype=np.int8)
    block = max(1, _BLOCK_STEPS // max(length, 1))
    for start in range(0, count, block):
        rows = steps[start : start + block]
        rows[:] = draw(len(rows))
    return steps


_DOT_BRACKET = np.frombuffer(b").(", dtype=np.uint8)  # indexed by step + 1


def step_rows_text(steps: np.ndarray) -> str:
    """Step rows as dot-bracket lines, each ending in a newline."""
    count, length = steps.shape
    out = np.empty((count, length + 1), dtype=np.uint8)
    out[:, :length] = _DOT_BRACKET[steps + 1]
    out[:, length] = ord("\n")
    return out.tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# cycle lemma: Dyck paths, and Motzkin paths of a given pair count


def _cycle_lemma_rows(ups: np.ndarray, length: int, gen: np.random.Generator) -> np.ndarray:
    """One uniform path of the given length per entry of ups, with ups[r]
    up steps, as many down steps and flat steps for the rest.

    Row r starts as a random arrangement of ups[r] up steps, ups[r] + 1 down
    steps and flat steps, length + 1 in all.  The steps sum to -1, so exactly
    one rotation keeps every proper prefix nonnegative (the cycle lemma); it
    ends in a forced down step, which is dropped.  Each path is the image of
    length + 1 arrangements, one per rotation, so the draw is uniform.
    """
    col = np.arange(length + 1)
    base = 2 * (col < ups[:, None]).astype(np.int8) - (col < 2 * ups[:, None] + 1)
    perm = gen.permuted(base, axis=1)
    first_min = np.argmin(np.cumsum(perm, axis=1, dtype=np.int32), axis=1)  # first minimum
    # each rotation is a window of the row written twice
    windows = sliding_window_view(np.concatenate([perm, perm], axis=1), length, axis=1)
    return windows[np.arange(len(perm)), first_min + 1]


def sample_dyck_steps(n: int, count: int, rng: RngHandle) -> np.ndarray:
    """count exact-uniform Dyck paths of semilength n as rows of +1/-1 steps,
    by the cycle lemma on n up and n+1 down steps."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    _check_count(count)
    if n == 0 or count == 0:
        return np.zeros((count, 2 * n), dtype=np.int8)
    gen = rng.generator
    return _in_blocks(count, 2 * n, lambda r: _cycle_lemma_rows(np.full(r, n), 2 * n, gen))


def sample_dyck(n: int, rng: RngHandle) -> SecondaryStructure:
    """One exact-uniform Dyck structure of semilength n (all positions paired)."""
    return _Block.from_steps(sample_dyck_steps(n, 1, rng)).structure(0)


# ---------------------------------------------------------------------------
# Motzkin

def _pair_count_cumweights(n: int) -> list[int]:
    """Cumulative counts of length-n paths by number of up steps k:
    C(n, 2k) placements times the Catalan fill, each term from the last by
    the exact ratio (n-2k)(n-2k-1) / ((k+1)(k+2))."""
    term = acc = 1
    cum = [1]
    for k in range(n // 2):
        term = term * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (k + 2))
        acc += term
        cum.append(acc)
    return cum


def _pair_count_table(n: int) -> tuple[int, np.ndarray]:
    """(nbits, table) for _pair_counts at length n: nbits is the bit length
    of the path count, and table holds the cumulative counts as equal-width
    big-endian byte strings, which sort as the integers they encode."""
    cum = _pair_count_cumweights(n)
    nbits = cum[-1].bit_length()
    nbytes = (nbits + 7) // 8
    table = np.array([c.to_bytes(nbytes, "big") for c in cum], dtype=f"S{nbytes}")
    table.flags.writeable = False
    return nbits, table


class _PairTables:
    """Pair-count tables by length, least recently used first, kept while
    they hold at most limit bytes in all; a single draw would otherwise spend
    most of its time rebuilding its length's bigint weights and table."""

    def __init__(self, limit: int):
        self.limit = limit
        self.tables: dict[int, tuple[int, np.ndarray]] = {}
        self.nbytes = 0

    def get(self, n: int) -> tuple[int, np.ndarray]:
        entry = self.tables.pop(n, None)
        if entry is None:
            entry = _pair_count_table(n)
            self.nbytes += entry[1].nbytes
        self.tables[n] = entry
        while self.nbytes > self.limit:
            _, old = self.tables.pop(next(iter(self.tables)))
            self.nbytes -= old.nbytes
        return entry


# 4 MB: the tables of every length up to 500 at once, or of one length up to 6500
_PAIR_TABLES = _PairTables(limit=1 << 22)


def _pair_counts(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """count exact draws of the pair count k of a uniform length-n path:
    bisect_right(cum, x) over its cumulative weights cum, x uniform in
    [0, cum[-1]).

    x is a big-endian string of nbytes random bytes, its top byte masked to
    the bit length of cum[-1].  Equal-width big-endian strings sort as the
    integers they encode, so one searchsorted over cum in the same form gives
    every k; x >= cum[-1] lands past the end and is drawn again, all such x
    of a round in one batch.
    """
    nbits, table = _PAIR_TABLES.get(n)
    nbytes = table.itemsize
    ks = np.empty(count, dtype=np.intp)
    todo = np.arange(count)
    while todo.size:
        raw = np.frombuffer(gen.bytes(nbytes * todo.size), dtype=np.uint8)
        x = raw.reshape(todo.size, nbytes).copy()
        x[:, 0] &= 0xFF >> (8 * nbytes - nbits)
        ks[todo] = np.searchsorted(table, x.view(table.dtype).ravel(), side="right")
        todo = todo[ks[todo] == len(table)]
    return ks


def sample_motzkin_steps(n: int, count: int, rng: RngHandle) -> np.ndarray:
    """count exact-uniform Motzkin paths of length n as rows over {0, +1, -1}.

    Each path is drawn as (pair count k, a path with k up steps): k from the
    arbitrary-precision weights C(n, 2k) * Catalan(k), the path given k from
    the cycle lemma, which places the 2k paired positions and the bracket
    pattern in one permutation.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    _check_count(count)
    if n == 0 or count == 0:
        return np.zeros((count, n), dtype=np.int8)
    gen = rng.generator
    return _in_blocks(count, n, lambda r: _cycle_lemma_rows(_pair_counts(n, r, gen), n, gen))


def sample_motzkin(n: int, rng: RngHandle) -> SecondaryStructure:
    """One exact-uniform dot-bracket structure of length n."""
    return _Block.from_steps(sample_motzkin_steps(n, 1, rng)).structure(0)


# ---------------------------------------------------------------------------
# grammar traceback


# A rebuild between two marks costs the same few numpy passes at any
# spacing; 16 measured no faster than 8, which keeps an eighth of the sums.
_MARK_SPACING = 8


class _GrammarTables:
    """Per-(params, capacity) arrays for the batched traceback.

    A job is an S (symbol 0) or F (symbol 1) spanning m positions, and its
    row in total/thresh is symbol * (capacity + 1) + m.  The production test
    is u * total < thresh: for S a hit means S -> L S, for F it means
    F -> ( F ).

    The split row of length m is cumsum(L[1:m] * S[m-1:0:-1]), m - 1 prefix
    sums.  Only its marks are kept: a leading 0 and then every
    _MARK_SPACING-th prefix sum, back to back for every m from 2 to
    capacity, row m in marks[start[m] : start[m + 1]]; last[m] is the
    row's final sum.  About capacity**2 / 16 floats in all, where whole rows
    take capacity**2 / 2.  lpad and spad are L and S with zeros on the side
    a rebuild past the row's end reads (spad[k + _MARK_SPACING] = S[k]).
    """

    def __init__(self, p: PfoldParams, capacity: int):
        inside = pfold_inside(p, capacity)
        S, L, F, LS = (a[: capacity + 1] for a in (inside.S, inside.L, inside.F, inside.LS))
        nest = np.zeros(capacity + 1)
        nest[2:] = p.p3 * F[:-2]
        self.capacity = capacity
        self.total = np.concatenate([S, F])
        self.thresh = np.concatenate([p.p1 * LS, nest])
        pad = np.zeros(_MARK_SPACING)
        self.lpad = np.concatenate([L, pad])
        self.spad = np.concatenate([pad, S])
        counts = 1 + (np.arange(capacity + 1) - 1) // _MARK_SPACING  # none at m = 0
        self.start = np.concatenate([[0], np.cumsum(counts)])
        self.marks = np.zeros(self.start[-1])
        self.last = np.zeros(capacity + 1)
        for m in range(2, capacity + 1):
            row = np.cumsum(L[1:m] * S[m - 1 : 0 : -1])
            s = self.start[m]
            self.marks[s + 1 : s + counts[m]] = row[_MARK_SPACING - 1 :: _MARK_SPACING]
            self.last[m] = row[-1]


_SAMPLER_CACHE: dict[PfoldParams, _GrammarTables] = {}


def _grammar_tables(p: PfoldParams, n: int) -> _GrammarTables:
    cached = _SAMPLER_CACHE.get(p)
    if cached is None or cached.capacity < n:
        cached = _GrammarTables(p, max(n, 256, 0 if cached is None else 2 * cached.capacity))
        _SAMPLER_CACHE[p] = cached
    return cached


def _split_points(tables: _GrammarTables, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """bisect_right(row m, u * row_m[-1]) + 1 for every job, row m being
    cumsum(L[1:m] * S[m-1:0:-1]), with the floats of that cumsum.

    Most jobs stop at the row's first sum (a first item that is a dot).  The
    rest search their marks, branchless, for the last mark <= x, and rebuild
    the sums up to the next mark from it by one cumsum, which adds in the
    row's own order.  Sums rebuilt past the row's end repeat its last one;
    the clamp to m - 1 drops them where x reaches that end.
    """
    lpad, spad = tables.lpad, tables.spad
    x = u * tables.last[m]
    a = np.ones(len(m), dtype=np.int64)
    rest = np.flatnonzero(lpad[1] * spad[m - 1 + _MARK_SPACING] <= x)
    m, x = m[rest], x[rest]
    marks, start = tables.marks, tables.start[m]
    base = start
    size = tables.start[m + 1] - start
    for _ in range(int(size.max(initial=1) - 1).bit_length()):  # ceil(log2(most marks))
        half = size >> 1
        base = np.where(marks[base + half] <= x, base + half, base)
        size = size - half
    k = (base - start) * _MARK_SPACING + np.arange(_MARK_SPACING + 1)[:, None]
    terms = lpad[k] * spad[m - k + _MARK_SPACING]
    terms[0] = marks[base]
    below = (np.cumsum(terms, axis=0)[1:] <= x).sum(axis=0)
    a[rest] = np.minimum(k[0] + below, m - 1) + 1
    return a


def _pfold_traceback(tables: _GrammarTables, n: int, u: np.ndarray) -> np.ndarray:
    """Step rows for one block; row r reads the uniforms u[r, 2*i] (the
    production at position i) and u[r, 2*i + 1] (the split at position i).

    Jobs live in flat coordinates, r * n + offset, and are expanded one
    derivation level at a time.  L is resolved where it appears: its length
    fixes the rule (L -> . at length 1, L -> ( F ) above it).
    """
    count = u.shape[0]
    rows = np.zeros(count * n, dtype=np.int8)
    flat_u = u.reshape(-1)
    stride = tables.capacity + 1
    pos = np.arange(count, dtype=np.int64) * n
    size = np.full(count, n, dtype=np.int64)
    is_f = np.zeros(count, dtype=bool)
    while pos.size:
        key = size + stride * is_f
        hit = flat_u[2 * pos] * tables.total[key] < tables.thresh[key]
        split = hit != is_f
        whole = ~split
        sp, sm = pos[split], size[split]
        a = _split_points(tables, sm, flat_u[2 * sp + 1])
        l_pos = np.concatenate([pos[whole], sp])
        l_size = np.concatenate([size[whole], a])
        arch = l_size >= 2
        l_pos, l_size = l_pos[arch], l_size[arch]
        rows[l_pos] = 1
        rows[l_pos + l_size - 1] = -1
        pos = np.concatenate([l_pos + 1, sp + a])
        size = np.concatenate([l_size - 2, sm - a])
        is_f = np.arange(len(pos)) < len(l_pos)
    return rows.reshape(count, n)


def sample_pfold_many(
    n: int, count: int, p: PfoldParams = DEFAULT_PFOLD, rng: Optional[RngHandle] = None
) -> np.ndarray:
    """count structures drawn from the grammar conditioned on output length n,
    as step rows.

    Stochastic traceback through the inside tables: every production and
    split point is chosen with probability proportional to its contribution
    to the current symbol's length-m weight.
    """
    if rng is None:
        raise ValueError("an RngHandle is required")
    _check_count(count)
    _pfold_mass(p, n)  # raises for a length without mass, before any split table is built
    if count == 0:
        return np.zeros((0, n), dtype=np.int8)
    tables = _grammar_tables(p, n)
    gen = rng.generator
    return _in_blocks(count, n, lambda r: _pfold_traceback(tables, n, gen.random((r, 2 * n))))


def sample_pfold(
    n: int, p: PfoldParams = DEFAULT_PFOLD, rng: Optional[RngHandle] = None
) -> SecondaryStructure:
    """One structure drawn from the grammar conditioned on output length n."""
    return _Block.from_steps(sample_pfold_many(n, 1, p, rng)).structure(0)

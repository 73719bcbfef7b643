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
  A draw of k is placed by its first 64 bits among the same prefixes of the
  cumulative counts, n // 2 + 1 uint64 keys per length, and compared with
  the counts in full only when its prefix ties a key.
- Grammar output: stochastic traceback through the inside tables conditioned
  on length, run level by level over a batch of samples.  Each sample reads
  its own block of 2n uniforms (a production slot and a split slot per
  position), so a run of draws gives the same rows however its calls are
  chunked.  The split tables keep every 16th prefix sum of each split row,
  about n**2 / 32 floats, and a split point rebuilds the few sums it needs
  in the row's own order, so it is the one the whole row would give.

Rows are drawn in blocks (`_blocks`), and `sample` writes each block as it
is drawn, so its memory is bounded by a block, not by the count.

The seeded Dyck stream is the one earlier versions drew.  The seeded grammar
stream changed when the batched traceback replaced the per-sample one, and
the seeded Motzkin stream, at every length, when the vectorized pair-count
draw replaced both the counted walk and the per-value draw; both draw from
the same exact laws.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import DEFAULT_PFOLD, Model, PfoldParams, _pfold_mass, pfold_inside
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


# A block holds at most _BLOCK_STEPS steps of Dyck or Motzkin rows, whose
# seeded streams depend on this cut.  A grammar row reads two float64
# uniforms, _UNIFORM_BYTES bytes, a step, and its stream does not depend on
# the cut, so a grammar block holds 1 MB of uniforms.
_BLOCK_STEPS = 1 << 20
_UNIFORM_BYTES = 16


def _blocks(count: int, length: int, draw, step_bytes: int = 1) -> Iterator[np.ndarray]:
    """draw(r) for the r rows of each block in turn, count rows of the given
    length in all, a block holding at most _BLOCK_STEPS // step_bytes steps
    and at least one row.  The first block is drawn even at a count of 0 or
    below, so that draw's own checks run before any row is used."""
    rows = max(1, _BLOCK_STEPS // (step_bytes * max(length, 1)))
    yield draw(min(rows, count))
    for start in range(rows, count, rows):
        yield draw(min(rows, count - start))


def _in_blocks(count: int, length: int, draw, step_bytes: int = 1) -> np.ndarray:
    """count step rows of the given length, filled from _blocks."""
    steps = np.empty((count, length), dtype=np.int8)
    start = 0
    for block in _blocks(count, length, draw, step_bytes):
        steps[start : start + len(block)] = block
        start += len(block)
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
    base = (col < ups[:, None]).astype(np.int8)
    base += base
    base -= col < 2 * ups[:, None] + 1
    gen.permuted(base, axis=1, out=base)
    dtype = np.int16 if length + 1 < 1 << 15 else np.int32  # holds every prefix sum
    first_min = np.argmin(np.add.accumulate(base, axis=1, dtype=dtype), axis=1)  # first minimum
    # each rotation is a window of the row written twice
    windows = sliding_window_view(np.concatenate([base, base], axis=1), length, axis=1)
    return windows[np.arange(len(base)), first_min + 1]


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

def _pair_count_cumweights(n: int) -> Iterator[int]:
    """Cumulative counts of length-n paths by number of up steps k:
    C(n, 2k) placements times the Catalan fill, each term from the last by
    the exact ratio (n-2k)(n-2k-1) / ((k+1)(k+2))."""
    term = acc = 1
    yield acc
    for k in range(n // 2):
        term = term * (n - 2 * k) * (n - 2 * k - 1) // ((k + 1) * (k + 2))
        acc += term
        yield acc


@lru_cache(maxsize=128)  # the acceptance tests draw at 120 lengths in turn
def _pair_count_keys(n: int) -> tuple[int, int, np.ndarray]:
    """(nbits, shift, keys) for _pair_counts at length n: nbits is the bit
    length of the path count, and keys[k] is the cumulative count through k
    shifted right by shift bits, the first 64 bits of its big-endian form at
    the draw's width, or the whole count when that width is 8 bytes or less.
    A first walk finds the width, and a second fills the keys, so no list of
    the counts is held."""
    nbits = deque(_pair_count_cumweights(n), maxlen=1)[0].bit_length()
    shift = 8 * max((nbits + 7) // 8 - 8, 0)
    keys = np.fromiter((c >> shift for c in _pair_count_cumweights(n)), dtype=np.uint64, count=n // 2 + 1)
    keys.flags.writeable = False
    return nbits, shift, keys


def _pair_counts(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """count exact draws of the pair count k of a uniform length-n path:
    bisect_right(cum, x) over its cumulative weights cum, x uniform in
    [0, cum[-1]).

    x is a big-endian string of nbytes random bytes, its top byte masked to
    the bit length of cum[-1].  Its first 64 bits, taken as the keys are,
    place it by one searchsorted over the keys.  That is k unless the prefix
    equals a key and x is wider than 64 bits; only then are the counts of
    the tied keys compared with x in full, all ties of a round in one walk
    of the counts.  x >= cum[-1] lands past the end and is drawn again, all
    such x of a round in one batch.
    """
    nbits, shift, keys = _pair_count_keys(n)
    nbytes = (nbits + 7) // 8
    ks = np.empty(count, dtype=np.intp)
    todo = np.arange(count)
    while todo.size:
        raw = np.frombuffer(gen.bytes(nbytes * todo.size), dtype=np.uint8).reshape(todo.size, nbytes)
        head = np.zeros((todo.size, 8), dtype=np.uint8)
        head[:, 8 - min(nbytes, 8) :] = raw[:, :8]
        prefix = head.view(">u8").ravel() & np.uint64((1 << nbits - shift) - 1)
        k = np.searchsorted(keys, prefix, side="right")
        if shift:
            lo = np.searchsorted(keys, prefix, side="left")
            tied = np.flatnonzero(lo < k)
            if tied.size:
                lo, hi = lo[tied], k[tied]
                xs = np.array([int.from_bytes(row, "big") for row in raw[tied]], dtype=object) & ((1 << nbits) - 1)
                k[tied] = lo
                for j, c in enumerate(islice(_pair_count_cumweights(n), int(hi.max()))):
                    k[tied] += (lo <= j) & (j < hi) & (xs >= c)
        ks[todo] = k
        todo = todo[k == len(keys)]
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


# A rebuild from a mark adds in the row's own order at any spacing, so the
# spacing moves no float and no decision; it trades table size against the
# width of a rebuild.  At 16 the marks take 1.01 MB at capacity 2000, and a
# rebuild is one cumsum over 17 terms per job.
_MARK_SPACING = 16


class _GrammarTables:
    """Per-(params, capacity) arrays for the batched traceback.

    A job is an S (symbol 0) or F (symbol 1) spanning m positions, and its
    row in total/thresh is symbol * (capacity + 1) + m.  The production test
    is u * total < thresh: for S a hit means S -> L S, for F it means
    F -> ( F ).

    The split row of length m is cumsum(L[1:m] * S[m-1:0:-1]), m - 1 prefix
    sums.  Only its marks are kept: a leading 0 and then every
    _MARK_SPACING-th prefix sum, back to back for every m from 2 to
    capacity, row m in marks[start[m] : start[m + 1]]; first[m] and last[m]
    are the row's first and final sums.  About capacity**2 / 32 floats in
    all, where whole rows take capacity**2 / 2.  lpad and spad are L and S
    with zeros on the side a rebuild past the row's end reads
    (spad[k + _MARK_SPACING] = S[k]).
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
        self.first = np.zeros(capacity + 1)
        self.first[1:] = L[1] * S[:-1]
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
    rest = np.flatnonzero(tables.first[m] <= x)
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


# A level costs a few dozen small numpy passes.  A dot split off an S, or a
# pair nested in an F, leaves a job of the same symbol one position on, so a
# level first takes up to this many such steps per job, each by the test its
# own level would make: the rows stay, and a block at n = 2000 runs about a
# quarter of the levels.
_RUN_STEPS = 8


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
    steps = np.arange(_RUN_STEPS)[:, None]
    while pos.size:
        # the run of forced steps that starts each job, to its first other
        # step or to _RUN_STEPS steps: S -> L S with L -> ., or F -> ( F )
        m = np.maximum(size - (1 + is_f) * steps, 0)
        at = 2 * (pos + np.minimum(steps, size - 1))
        key = m + stride * is_f
        forced = (flat_u[at] * tables.total[key] < tables.thresh[key]) & (
            is_f | (tables.first[m] > flat_u[at + 1] * tables.last[m])
        )
        run = np.logical_and.accumulate(forced).sum(axis=0)
        k, nested = np.nonzero(is_f & (steps < run))
        rows[pos[nested] + k] = 1
        rows[pos[nested] + size[nested] - 1 - k] = -1
        pos = pos + run
        size = size - (1 + is_f) * run
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
    return _in_blocks(count, n, lambda r: _pfold_traceback(tables, n, gen.random((r, 2 * n))), _UNIFORM_BYTES)


def sample_pfold(
    n: int, p: PfoldParams = DEFAULT_PFOLD, rng: Optional[RngHandle] = None
) -> SecondaryStructure:
    """One structure drawn from the grammar conditioned on output length n."""
    return _Block.from_steps(sample_pfold_many(n, 1, p, rng)).structure(0)


def _sampled_blocks(
    model: Model, n: int, count: int, p: PfoldParams, rng: RngHandle
) -> Iterator[np.ndarray]:
    """The rows of the model's array sampler at (n, count), from one call
    per block, cut where it cuts its own: the rows one call gives, and its
    checks made before the first block is out."""
    if model is Model.DYCK:
        return _blocks(count, 2 * n, lambda r: sample_dyck_steps(n, r, rng))
    if model is Model.MOTZKIN:
        return _blocks(count, n, lambda r: sample_motzkin_steps(n, r, rng))
    return _blocks(count, n, lambda r: sample_pfold_many(n, r, p, rng), _UNIFORM_BYTES)

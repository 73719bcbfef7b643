"""Exact random generation of structures under the three models.

Randomness comes from the Philox 4x64 counter-based generator, so identical
seeds reproduce identical sample streams on every platform.  Dyck paths are
drawn by the cycle-lemma rotation of a random step multiset; Motzkin paths by
sequential step choice against exact remaining-path counts; grammar output by
stochastic traceback through the inside weight tables conditioned on length.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exact import DEFAULT_PFOLD, PfoldParams, ZeroMassLength, catalan, pfold_inside
from .structure import SecondaryStructure


@dataclass
class RngHandle:
    """Seeded handle owning one sample stream; not safe to share across
    concurrent streams (hand each its own handle).

    The grammar sampler reads the handle's one uniform buffer, so a run of
    draws gives the same structures however its calls are chunked.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)
    _uniforms: _UniformBuffer = field(init=False, repr=False)

    def __post_init__(self):
        self._gen = np.random.Generator(np.random.Philox(self.seed))
        self._uniforms = _UniformBuffer(self._gen)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _rand_below(gen: np.random.Generator, bound: int) -> int:
    """Exact uniform integer in [0, bound) for arbitrary-precision bounds."""
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    excess = 8 * nbytes - nbits
    while True:
        r = int.from_bytes(gen.bytes(nbytes), "big") >> excess
        if r < bound:
            return r


def _steps_to_structure(steps) -> SecondaryStructure:
    """Steps +1 (open), -1 (close), 0 (dot) to a nested structure."""
    partner = [0] * len(steps)
    stack: list[int] = []
    for pos0, s in enumerate(steps):
        if s > 0:
            stack.append(pos0)
        elif s < 0:
            i = stack.pop()
            partner[i] = pos0 + 1
            partner[pos0] = i + 1
    return SecondaryStructure(len(partner), tuple(partner), False)


# ---------------------------------------------------------------------------
# Dyck


def sample_dyck_steps(n: int, count: int, rng: RngHandle) -> np.ndarray:
    """count exact-uniform Dyck paths of semilength n as rows of +1/-1 steps.

    Each row starts from a random arrangement of n up and n+1 down steps; the
    unique rotation with nonnegative proper prefixes ends in a forced down
    step, which is dropped.
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    if n == 0 or count == 0:
        return np.zeros((count, 0), dtype=np.int16)
    width = 2 * n + 1
    dtype = np.int16 if width < 2**15 else np.int64
    base = np.full((count, width), -1, dtype=dtype)
    base[:, :n] = 1
    perm = rng.generator.permuted(base, axis=1)
    sums = np.cumsum(perm, axis=1)
    first_min = np.argmin(sums, axis=1)  # first index attaining the minimum
    idx = (first_min[:, None] + 1 + np.arange(width)) % width
    rotated = np.take_along_axis(perm, idx, axis=1)
    return rotated[:, : 2 * n]


def sample_dyck(n: int, rng: RngHandle) -> SecondaryStructure:
    """One exact-uniform Dyck structure of semilength n (all positions paired)."""
    return _steps_to_structure(sample_dyck_steps(n, 1, rng)[0])


# ---------------------------------------------------------------------------
# Motzkin

_MEANDER_CACHE: dict[int, list[list[int]]] = {}


def motzkin_meander_table(n: int) -> list[list[int]]:
    """T[m][h] = number of {-1,0,+1} paths of length m from height h down to 0
    staying nonnegative; T[m][0] is the Motzkin number."""
    rows = _MEANDER_CACHE.get(n)
    if rows is not None:
        return rows
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[m - 1]

        def tprev(h: int) -> int:
            return prev[h] if 0 <= h < len(prev) else 0

        rows.append([tprev(h) + tprev(h + 1) + (tprev(h - 1) if h else 0) for h in range(m + 1)])
    _MEANDER_CACHE[n] = rows
    return rows


_INT64_SAFE_N = 38  # 3^38 < 2^62, so every table entry fits a signed word
_MEANDER_MAX_N = 256  # above this the quadratic count table gets heavy


def _pair_count_cumweights(n: int) -> list[int]:
    """Cumulative counts of length-n paths by number of up steps k:
    C(n, 2k) placements times the Catalan fill."""
    acc = 0
    cum = []
    for k in range(n // 2 + 1):
        acc += math.comb(n, 2 * k) * catalan(k)
        cum.append(acc)
    return cum


def _sample_motzkin_composition(n: int, count: int, rng: RngHandle) -> np.ndarray:
    """Exact-uniform paths for large n, avoiding the quadratic count table.

    A path is equivalent to (up-step count k, the sorted 2k paired positions,
    a balanced pattern on them); each component is drawn exactly: k by
    arbitrary-precision weights C(n, 2k) * Catalan(k), positions uniformly
    without replacement, the pattern by the cycle lemma."""
    gen = rng.generator
    cum = _pair_count_cumweights(n)
    total = cum[-1]
    steps = np.zeros((count, n), dtype=np.int8)
    for r in range(count):
        k = bisect_right(cum, _rand_below(gen, total))
        if k == 0:
            continue
        slots = np.sort(gen.choice(n, size=2 * k, replace=False))
        steps[r, slots] = sample_dyck_steps(k, 1, rng)[0].astype(np.int8)
    return steps


def sample_motzkin_steps(n: int, count: int, rng: RngHandle) -> np.ndarray:
    """count exact-uniform Motzkin paths of length n as rows over {0, +1, -1}.

    Steps are chosen sequentially with probability proportional to the exact
    number of completions: small sizes run vectorized on machine integers,
    mid sizes walk each sample with arbitrary-precision counts, and large
    sizes switch to the composition draw (still exactly uniform) because the
    completion-count table grows quadratically.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > _MEANDER_MAX_N:
        return _sample_motzkin_composition(n, count, rng)
    rows = motzkin_meander_table(n)
    steps = np.zeros((count, n), dtype=np.int8)
    if n == 0 or count == 0:
        return steps
    if n <= _INT64_SAFE_N:
        table = np.zeros((n + 1, n + 2), dtype=np.int64)
        for m, row in enumerate(rows):
            table[m, : len(row)] = row
        gen = rng.generator
        h = np.zeros(count, dtype=np.int64)
        for m in range(n, 0, -1):
            w_flat = table[m - 1, h]
            w_up = table[m - 1, h + 1]
            total = table[m, h]
            u = gen.integers(0, total)
            up = (u >= w_flat) & (u < w_flat + w_up)
            down = u >= w_flat + w_up
            steps[:, n - m] = up.astype(np.int8) - down.astype(np.int8)
            h = h + up - down
        return steps
    for r in range(count):
        rank = _rand_below(rng.generator, rows[n][0])
        h = 0
        for m in range(n, 0, -1):
            prev = rows[m - 1]
            w_flat = prev[h] if h < len(prev) else 0
            w_up = prev[h + 1] if h + 1 < len(prev) else 0
            if rank < w_flat:
                continue
            rank -= w_flat
            if rank < w_up:
                steps[r, n - m] = 1
                h += 1
            else:
                rank -= w_up
                steps[r, n - m] = -1
                h -= 1
    return steps


def sample_motzkin(n: int, rng: RngHandle) -> SecondaryStructure:
    """One exact-uniform dot-bracket structure of length n."""
    return _steps_to_structure(sample_motzkin_steps(n, 1, rng)[0])


# ---------------------------------------------------------------------------
# grammar traceback


class _GrammarSampler:
    """Per-(params, capacity) caches: inside weights as plain lists plus
    lazily built cumulative split tables for the L*S convolutions."""

    def __init__(self, p: PfoldParams, capacity: int):
        inside = pfold_inside(p, capacity)
        self.p = p
        self.capacity = capacity
        self.S = inside.S.tolist()
        self.L = inside.L.tolist()
        self.F = inside.F.tolist()
        self.LS = inside.LS.tolist()
        self._splits: dict[int, list[float]] = {}

    def split_cum(self, m: int) -> list[float]:
        cum = self._splits.get(m)
        if cum is None:
            acc = 0.0
            cum = []
            L, S = self.L, self.S
            for a in range(1, m):
                acc += L[a] * S[m - a]
                cum.append(acc)
            self._splits[m] = cum
        return cum


_SAMPLER_CACHE: dict[PfoldParams, _GrammarSampler] = {}


def _grammar_sampler(p: PfoldParams, n: int) -> _GrammarSampler:
    cached = _SAMPLER_CACHE.get(p)
    if cached is None or cached.capacity < n:
        cached = _GrammarSampler(p, max(n, 256))
        _SAMPLER_CACHE[p] = cached
    return cached


class _UniformBuffer:
    """Blocks of uniforms drawn once, consumed one at a time."""

    _BLOCK = 8192

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf: list[float] = []
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(self._BLOCK).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u


_SYM_S, _SYM_L, _SYM_F, _EMIT_CLOSE = 0, 1, 2, 3


def sample_pfold(
    n: int, p: PfoldParams = DEFAULT_PFOLD, rng: Optional[RngHandle] = None
) -> SecondaryStructure:
    """One structure drawn from the grammar conditioned on output length n.

    Stochastic traceback through the inside tables: every production and
    split point is chosen with probability proportional to its contribution
    to the current symbol's length-m weight.
    """
    if rng is None:
        raise ValueError("an RngHandle is required")
    return _pfold_traceback(n, p, rng._uniforms)


def sample_pfold_many(
    n: int, count: int, p: PfoldParams = DEFAULT_PFOLD, rng: Optional[RngHandle] = None
) -> list[SecondaryStructure]:
    if rng is None:
        raise ValueError("an RngHandle is required")
    return [_pfold_traceback(n, p, rng._uniforms) for _ in range(count)]


def _pfold_traceback(n: int, p: PfoldParams, buf: _UniformBuffer) -> SecondaryStructure:
    tables = _grammar_sampler(p, n)
    if n < 1 or tables.S[n] <= 0.0:
        raise ZeroMassLength(f"no length-{n} output")
    S, L, F, LS = tables.S, tables.L, tables.F, tables.LS
    p1, p2, p3 = p.p1, p.p2, p.p3
    partner = [0] * n
    open_stack: list[int] = []
    pos = 0
    work: list[tuple[int, int]] = [(_SYM_S, n)]
    while work:
        sym, m = work.pop()
        if sym == _EMIT_CLOSE:
            i = open_stack.pop()
            partner[i] = pos + 1
            partner[pos] = i + 1
            pos += 1
            continue
        if sym == _SYM_S:
            if buf.next() * S[m] < p1 * LS[m]:
                cum = tables.split_cum(m)
                a = bisect_right(cum, buf.next() * cum[-1]) + 1
                work.append((_SYM_S, m - a))
                work.append((_SYM_L, a))
            else:
                work.append((_SYM_L, m))
        elif sym == _SYM_L:
            w_pair = p2 * F[m - 2] if m >= 2 else 0.0
            if buf.next() * L[m] < w_pair:
                open_stack.append(pos)
                pos += 1
                work.append((_EMIT_CLOSE, 0))
                work.append((_SYM_F, m - 2))
            else:
                pos += 1  # unpaired
        else:  # _SYM_F
            w_nest = p3 * F[m - 2] if m >= 2 else 0.0
            if buf.next() * F[m] < w_nest:
                open_stack.append(pos)
                pos += 1
                work.append((_EMIT_CLOSE, 0))
                work.append((_SYM_F, m - 2))
            else:
                cum = tables.split_cum(m)
                a = bisect_right(cum, buf.next() * cum[-1]) + 1
                work.append((_SYM_S, m - a))
                work.append((_SYM_L, a))
    assert pos == n and not open_stack
    return SecondaryStructure(n, tuple(partner), False)

import hashlib
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from endprox import sampling
from endprox.exact import (
    DEFAULT_PFOLD,
    Model,
    PfoldParams,
    ZeroMassLength,
    catalan,
    enumerate_all,
    motzkin_number,
    pfold_inside,
    pfold_joint_probs,
    pfold_string_probability,
)
from endprox.sampling import (
    RngHandle,
    _GrammarTables,
    _pair_count_cumweights,
    _pair_counts,
    _split_points,
    sample_dyck,
    sample_dyck_steps,
    sample_motzkin,
    sample_motzkin_steps,
    sample_pfold,
    sample_pfold_many,
    step_rows_text,
)
from endprox.structure import _Block, to_dot_bracket


def _structures(steps: np.ndarray) -> list:
    block = _Block.from_steps(steps)
    return [block.structure(r) for r in range(len(steps))]


class TestRng:
    def test_reproducible_streams(self):
        a = RngHandle(123).generator.random(8)
        b = RngHandle(123).generator.random(8)
        assert np.array_equal(a, b)

    def test_distinct_seeds(self):
        assert not np.array_equal(RngHandle(1).generator.random(4), RngHandle(2).generator.random(4))

    def test_grammar_batch_needs_a_handle(self):
        with pytest.raises(ValueError, match="an RngHandle is required"):
            sample_pfold_many(5, 1)


class TestDyck:
    def test_degenerate_sizes(self):
        assert to_dot_bracket(sample_dyck(0, RngHandle(0))) == ""
        for seed in range(5):
            assert to_dot_bracket(sample_dyck(1, RngHandle(seed))) == "()"

    def test_reproducible(self):
        s1 = sample_dyck(6, RngHandle(42))
        s2 = sample_dyck(6, RngHandle(42))
        assert s1 == s2

    def test_all_paired(self):
        for seed in range(10):
            s = sample_dyck(7, RngHandle(seed))
            s.validate()
            assert all(j != 0 for j in s.partner)
            assert not s.crossing

    def test_uniform_small(self):
        n, count = 3, 100_000
        steps = sample_dyck_steps(n, count, RngHandle(11))
        freqs = Counter(map(bytes, steps.astype(np.int8)))
        assert len(freqs) == catalan(n)
        for v in freqs.values():
            assert v / count == pytest.approx(0.2, abs=0.01)

    def test_batch_matches_single(self):
        batch = sample_dyck_steps(5, 1, RngHandle(9))[0]
        single = sample_dyck(5, RngHandle(9))
        assert to_dot_bracket(single) == "".join("(" if s > 0 else ")" for s in batch)


class _FixedBytes:
    """Stands in for a Generator's bytes(): hands out the given integers as
    big-endian strings of nbytes bytes, in order."""

    def __init__(self, values, nbytes):
        self.data = b"".join(v.to_bytes(nbytes, "big") for v in values)

    def bytes(self, length):
        out, self.data = self.data[:length], self.data[length:]
        assert len(out) == length
        return out


class TestMotzkin:
    def test_degenerate(self):
        for seed in range(5):
            assert to_dot_bracket(sample_motzkin(1, RngHandle(seed))) == "."
        assert to_dot_bracket(sample_motzkin(0, RngHandle(3))) == ""

    def test_uniform_small(self):
        n, count = 3, 100_000
        steps = sample_motzkin_steps(n, count, RngHandle(12))
        freqs = Counter(map(bytes, steps))
        assert len(freqs) == motzkin_number(n)
        for v in freqs.values():
            assert v / count == pytest.approx(0.25, abs=0.01)

    def test_bigint_path_valid(self):
        # at n = 55 the pair-count weights pass 64 bits
        for seed in range(4):
            s = sample_motzkin(55, RngHandle(seed))
            s.validate()
            assert not s.crossing

    def test_bigint_path_uniform_spot(self):
        # tiny-size distribution check of the composition draw
        count = 40_000
        steps = sample_motzkin_steps(3, count, RngHandle(21))
        freqs = Counter(map(bytes, steps))
        assert len(freqs) == 4
        for v in freqs.values():
            assert v / count == pytest.approx(0.25, abs=0.015)

    def test_deg_mean_matches_exact_table(self):
        # moderate-size statistical agreement with the exact DP mean,
        # through the composition draw
        from endprox.exact import conditional_law, Stat

        n, count = 120, 20_000
        law = conditional_law(Model.MOTZKIN, Stat.DEG, n)
        exact_mean = float(np.dot(np.arange(len(law)), law))
        exact_var = float(np.dot(np.arange(len(law)) ** 2, law)) - exact_mean**2
        _, degs = oracle.unp_deg_of_steps(sample_motzkin_steps(n, count, RngHandle(13)))
        se = math.sqrt(exact_var / count)
        assert abs(np.mean(degs) - exact_mean) < 4 * se

    def test_composition_path_exact_small(self):
        # the composition draw at an enumerable size
        n, count = 5, 200_000
        steps = sample_motzkin_steps(n, count, RngHandle(33))
        freqs = Counter(map(bytes, steps))
        assert len(freqs) == motzkin_number(n)
        p0 = 1 / motzkin_number(n)
        se = math.sqrt(p0 * (1 - p0) / count)
        for v in freqs.values():
            assert abs(v / count - p0) < 5 * se

    @pytest.mark.parametrize("n", [1, 2, 8, 39, 1000])
    def test_pair_count_draw_is_bisect_right(self, n):
        # x = c - 1 and x = c at every cumulative weight c
        cum = list(_pair_count_cumweights(n))
        nbytes = (cum[-1].bit_length() + 7) // 8
        xs = sorted({x for c in cum for x in (c - 1, c) if x < cum[-1]})
        ks = _pair_counts(n, len(xs), _FixedBytes(xs, nbytes))
        assert ks.tolist() == [bisect_right(cum, x) for x in xs]

    def test_pair_count_draw_masks_and_redraws(self):
        # 323 paths of length 8 need 9 bits: 0xFE01 masks to 1, and 323 and
        # 511 are drawn again from the values that follow
        cum = list(_pair_count_cumweights(8))
        ks = _pair_counts(8, 4, _FixedBytes([322, 323, 511, 0xFE01, 0, 2], 2))
        assert ks.tolist() == [bisect_right(cum, x) for x in (322, 0, 2, 1)]

    def test_pair_tables_cold_and_warm(self):
        """Caching the per-length keys changes no row: draws from a cold
        cache, from a warm one and from one cleared between calls agree."""

        def draws(clear=False):
            rng, out = RngHandle(5), []
            for n in (1, 8, 55, 120, 8):
                for count in (1, 7):
                    if clear:
                        sampling._pair_count_keys.cache_clear()
                    out.append(sample_motzkin_steps(n, count, rng).tobytes())
            return out

        sampling._pair_count_keys.cache_clear()
        cold = draws()
        assert sampling._pair_count_keys.cache_info().misses == 4
        assert draws() == cold
        assert draws(clear=True) == cold

    @pytest.mark.parametrize(
        "n, digest",
        [
            (1, "cc2786e1f9910a9d811400edcddaf7075195f7a16b216dcbefba3bc7c4f2ae51"),
            (200, "617fed70ca7fb4f83148792e63b3a7a8a61b628a7e0823033361a1e5870286ed"),
            (1000, "f0f43117ccbc3012a53de1f0a9b78c3081c5c434fb4515e85dd2783c0fe5d441"),
            (7000, "b41ef14b1ba0944f64bb000dcdff692d0e0156872f1091240f4b2b9f59470c00"),
            (10_000, "dbff2ffa3d4f906b506e60b2cabd1f70f2eef50f90e23c6c483a890252b81172"),
        ],
    )
    def test_pair_table_keeps_the_stream(self, n, digest):
        # the draw's width sets how many random bytes it reads, so the rows
        # pin it; the digests are those of the exact byte-string table the
        # keys replaced; at 7000 that table passed the 4 MB it was cached in
        sampling._pair_count_keys.cache_clear()
        rows = sample_motzkin_steps(n, 50, RngHandle(7))
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_pair_keys_built_once_per_draw(self):
        # 300 rows of length 10**4 fill three blocks of 104 rows
        sampling._pair_count_keys.cache_clear()
        sample_motzkin_steps(10_000, 300, RngHandle(3))
        assert sampling._pair_count_keys.cache_info().misses == 1

    def test_pair_key_build_peak(self):
        # n // 2 + 1 uint64 keys, 40 KB at n = 10**4, where the byte-string
        # table they replace took 9.9 MB
        tracemalloc.start()
        try:
            keys = sampling._pair_count_keys.__wrapped__(10_000)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.nbytes == 8 * 5001 and peak <= 64 << 10

    def test_composition_samples_are_valid_structures(self):
        for seed in range(4):
            s = sample_motzkin(300, RngHandle(seed))
            s.validate()
            assert s.length == 300 and not s.crossing

    def test_deg_mean_at_500(self):
        # large-size run: empirical deg mean within 4 standard errors of the
        # exact finite-size mean at length 500 with 1e5 samples
        from endprox.exact import conditional_law, Stat

        n, count = 500, 100_000
        law = conditional_law(Model.MOTZKIN, Stat.DEG, n)
        exact_mean = float(np.dot(np.arange(len(law)), law))
        exact_var = float(np.dot(np.arange(len(law)) ** 2, law)) - exact_mean**2
        _, degs = oracle.unp_deg_of_steps(sample_motzkin_steps(n, count, RngHandle(14)))
        se = math.sqrt(exact_var / count)
        assert abs(np.mean(degs) - exact_mean) < 4 * se


_PARAM_SETS = [DEFAULT_PFOLD, PfoldParams(0.5, 0.5, 0.5), PfoldParams(0.2, 0.9, 0.2)]


# (n, params, draws, seed) for the frequency test against pfold_string_probability
_FREQUENCY_CASES = [(6, DEFAULT_PFOLD, 60_000, 17)] + [
    (n, p, 100_000, n) for p in _PARAM_SETS for n in (5, 7)
]


class TestPfold:
    def test_forced_small_lengths(self):
        for seed in range(5):
            assert to_dot_bracket(sample_pfold(1, rng=RngHandle(seed))) == "."
            assert to_dot_bracket(sample_pfold(2, rng=RngHandle(seed))) == ".."

    def test_zero_mass(self):
        with pytest.raises(ZeroMassLength):
            sample_pfold(0, rng=RngHandle(1))

    def test_reproducible(self):
        a = [to_dot_bracket(s) for s in _structures(sample_pfold_many(30, 5, rng=RngHandle(8)))]
        b = [to_dot_bracket(s) for s in _structures(sample_pfold_many(30, 5, rng=RngHandle(8)))]
        assert a == b

    def test_chunked_calls_match_one_call(self):
        n = 50
        whole = _structures(sample_pfold_many(n, 20, rng=RngHandle(1)))
        rng = RngHandle(1)
        chunked = _structures(sample_pfold_many(n, 10, rng=rng))
        chunked += _structures(sample_pfold_many(n, 9, rng=rng))
        chunked.append(sample_pfold(n, rng=rng))
        assert [s.partner for s in chunked] == [s.partner for s in whole]

    def test_samples_live_in_grammar_support(self):
        for s in _structures(sample_pfold_many(40, 50, rng=RngHandle(4))):
            s.validate()
            assert s.length == 40
            assert pfold_string_probability(s) > 0.0

    def test_small_length_frequencies(self):
        for n, p, count, seed in _FREQUENCY_CASES:
            rows = sample_pfold_many(n, count, p, RngHandle(seed))
            hist = Counter(step_rows_text(rows).splitlines())
            support = {}
            for s in enumerate_all(Model.MOTZKIN, n):
                w = pfold_string_probability(s, p)
                if w > 0:
                    support[to_dot_bracket(s)] = w
            total = sum(support.values())
            assert set(hist) <= set(support)
            for text, w in support.items():
                q = w / total
                se = math.sqrt(q * (1 - q) / count)
                assert abs(hist.get(text, 0) / count - q) < 5 * se

    def test_joint_histogram_moderate(self):
        # distribution-level agreement with the exact conditional law
        n, count = 80, 30_000
        probs = pfold_joint_probs(n)
        unp, deg = oracle.unp_deg_of_steps(sample_pfold_many(n, count, rng=RngHandle(19)))
        hist = Counter(zip(unp.tolist(), deg.tolist()))
        tv = 0.5 * sum(
            abs(hist.get(k, 0) / count - probs.get(k, 0.0)) for k in set(hist) | set(probs)
        )
        # expected empirical TV at this sample size is ~0.021
        assert tv < 0.035


def _draw(model: str, n: int, count: int, seed: int) -> np.ndarray:
    rng = RngHandle(seed)
    if model == "dyck":
        return sample_dyck_steps(n, count, rng)
    if model == "motzkin":
        return sample_motzkin_steps(n, count, rng)
    return sample_pfold_many(n, count, rng=rng)


class TestStepRows:
    @pytest.mark.parametrize("model", ["dyck", "motzkin", "pfold"])
    def test_shape_and_dtype(self, model):
        width = {"dyck": 10, "motzkin": 5, "pfold": 5}[model]
        for count in (0, 1, 4):
            steps = _draw(model, 5, count, 3)
            assert steps.dtype == np.int8 and steps.shape == (count, width)
        if model != "pfold":  # the grammar has no length-0 output
            for count in (0, 3):
                steps = _draw(model, 0, count, 3)
                assert steps.dtype == np.int8 and steps.shape == (count, 0)

    @pytest.mark.parametrize("model", ["dyck", "motzkin", "pfold"])
    def test_negative_count(self, model):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            _draw(model, 5, -1, 3)

    @pytest.mark.parametrize(
        "model, n, count, digest",
        [
            ("dyck", 100, 12_000, "767245c101855dcb839986fda72f942ed749b3a161b064b9af9172115667d77e"),
            ("dyck", 500, 2500, "fd2ab0a467ece2c60dda03bedc639d30f1f0542c83f9078403ca0a195d52cb67"),
            ("motzkin", 200, 6000, "3d9626823331de6d200c311cd2fd4e22fde2d85e67ffdb2a373626a64ea1e7d1"),
            ("motzkin", 1000, 2500, "d1a3f9d96d01e7287989b9ef62ea294a0c1f04acb227c6c05552ae52cc6d68da"),
        ],
    )
    def test_uniform_streams_pinned(self, model, n, count, digest):
        # the Dyck and Motzkin streams depend on where blocks are cut; each
        # count here spans two or three blocks of _BLOCK_STEPS steps
        assert count * (2 * n if model == "dyck" else n) > sampling._BLOCK_STEPS
        rows = _draw(model, n, count, 5)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_cycle_lemma_block_peak(self):
        # one full Motzkin block at n = 200, 1 MB of rows, traced 10.1 MB
        # with the step arrangement copied for the shuffle and int32 sums,
        # and 5.0 MB with it shuffled in place and int16 sums
        n = 200
        gen = np.random.Generator(np.random.Philox(9))
        ups = _pair_counts(n, sampling._BLOCK_STEPS // n, gen)
        tracemalloc.start()
        try:
            rows = sampling._cycle_lemma_rows(ups, n, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (len(ups), n) and peak <= 6 << 20

    def test_cycle_lemma_wide_sums(self):
        # a path of 2**15 steps or more takes its prefix sums in int32
        rows = sample_dyck_steps(1 << 14, 2, RngHandle(4))
        depth = np.add.accumulate(rows, axis=1, dtype=np.int32)
        assert rows.shape == (2, 1 << 15) and depth.min() == 0 and not depth[:, -1].any()

    @given(
        st.sampled_from(["dyck", "motzkin", "pfold"]),
        st.integers(0, 80),
        st.integers(0, 80),
        st.integers(0, 6),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_rendering_matches_structures(self, model, n, m, count, seed):
        # the rendered lines parse to the structures that the block pairs;
        # rows of lengths n and m share one block, as a 2-D array does one
        assume(model != "pfold" or min(n, m) > 0)  # the grammar has no length-0 output
        batches = [_draw(model, n, count, seed), _draw(model, m, count, seed + 1)]
        lines = [line for steps in batches for line in step_rows_text(steps).splitlines()]
        ragged = _Block.from_steps([row for steps in batches for row in steps])
        square = _Block.from_steps(batches[0])
        assert len(lines) == 2 * count
        for r, line in enumerate(lines):
            s = ragged.structure(r)
            assert s == oracle.parse_dot_bracket(line) and not s.crossing
            if r < count:
                assert square.structure(r) == s


def _serial_traceback(n: int, p: PfoldParams, u: np.ndarray) -> list[int]:
    """One sample by the serial stochastic traceback with Python floats and
    per-length split lists, reading u[2*i] for the production and u[2*i + 1]
    for the split of the S or F job that starts at position i."""
    inside = pfold_inside(p, n)
    S, L, F, LS = (a.tolist() for a in (inside.S, inside.L, inside.F, inside.LS))

    def split(m: int, v: float) -> int:
        acc, cum = 0.0, []
        for a in range(1, m):
            acc += L[a] * S[m - a]
            cum.append(acc)
        return bisect_right(cum, v * cum[-1]) + 1

    row = [0] * n
    work = [("S", 0, n)]
    while work:
        sym, i, m = work.pop()
        if sym == "L":
            if m >= 2:  # L -> ( F ); at length 1, L -> .
                row[i], row[i + m - 1] = 1, -1
                work.append(("F", i + 1, m - 2))
        elif sym == "S" and u[2 * i] * S[m] >= p.p1 * LS[m]:
            work.append(("L", i, m))
        elif sym == "F" and u[2 * i] * F[m] < (p.p3 * F[m - 2] if m >= 2 else 0.0):
            row[i], row[i + m - 1] = 1, -1
            work.append(("F", i + 1, m - 2))
        else:
            a = split(m, u[2 * i + 1])
            work += [("S", i + a, m - a), ("L", i, a)]
    return row


class TestPfoldBatch:
    @pytest.mark.parametrize("p", _PARAM_SETS)
    def test_matches_serial_traceback(self, p):
        # the batched traceback makes the serial traceback's decisions on
        # the same uniforms: 2n per sample, read from the handle in order
        # the rows at n = 2000 search split rows of up to 125 marks and
        # nest and split off dots in runs longer than _RUN_STEPS
        for n, count in ((1, 30), (2, 30), (3, 30), (8, 30), (45, 30), (130, 30), (2000, 3)):
            u = RngHandle(n).generator.random((count, 2 * n))
            expected = np.array([_serial_traceback(n, p, row) for row in u], dtype=np.int8)
            assert np.array_equal(sample_pfold_many(n, count, p, RngHandle(n)), expected)

    @pytest.mark.parametrize(
        "n, count, digest",
        [
            (2000, 100, "702fb0450b0362e7910b8009caa368c55a94a079197c00211d8c0431771b9045"),
            (200, 2000, "aee3068651d1bf6ae9e22bcc604753614f8ffd9817bb636eddc99b21aefd63c5"),
        ],
    )
    def test_seeded_stream_pinned(self, n, count, digest):
        rows = sample_pfold_many(n, count, rng=RngHandle(5))
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    @given(st.integers(1, 60), st.lists(st.integers(0, 7), min_size=1, max_size=6), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_chunk_invariant(self, n, chunks, seed):
        whole = sample_pfold_many(n, sum(chunks), rng=RngHandle(seed))
        rng = RngHandle(seed)
        parts = [sample_pfold_many(n, c, rng=rng) for c in chunks]
        assert np.array_equal(np.concatenate(parts), whole)


class TestGrammarTables:
    @pytest.mark.parametrize("capacity", [256, 2000])
    @pytest.mark.parametrize("p", _PARAM_SETS[:2])
    def test_split_points_match_bisect(self, p, capacity):
        # every split row, at the ends of [0, 1), at seeded uniforms, and at
        # u = row[k] / row[-1] for the first sum and the sums around the
        # first mark, which put x on those sums (u = 1 on rows that short)
        spacing = sampling._MARK_SPACING
        inside = pfold_inside(p, capacity)
        L, S = inside.L, inside.S
        us = RngHandle(capacity).generator.random((capacity - 1, 11))
        us[:, :4] = [0.0, 2.0**-53, 0.5, 1 - 2.0**-53]
        expected = []
        for size, row_us in zip(range(2, capacity + 1), us):
            row = np.cumsum(L[1:size] * S[size - 1 : 0 : -1])
            row_us[8:] = row[np.minimum([0, spacing - 1, spacing], size - 2)] / row[-1]
            row = row.tolist()
            expected += [bisect_right(row, v * row[-1]) + 1 for v in row_us.tolist()]
        m = np.repeat(np.arange(2, capacity + 1), us.shape[1])
        got = _split_points(_GrammarTables(p, capacity), m, us.ravel())
        assert got.tolist() == expected

    def test_tables_are_small(self):
        # whole split rows took about capacity**2 / 2 floats, 15.3 MB here,
        # and every 8th sum 2.1 MB
        tables = _GrammarTables(DEFAULT_PFOLD, 2000)
        size = sum(a.nbytes for a in vars(tables).values() if isinstance(a, np.ndarray))
        assert size <= 1.3e6

    def test_cold_draw_peak(self, monkeypatch):
        monkeypatch.setattr(sampling, "_SAMPLER_CACHE", {})
        pfold_inside(DEFAULT_PFOLD, 2000)
        tracemalloc.start()
        try:
            sample_pfold_many(2000, 100, rng=RngHandle(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_count_zero_builds_no_tables(self, monkeypatch):
        monkeypatch.setattr(sampling, "_SAMPLER_CACHE", {})
        rows = sample_pfold_many(4000, 0, rng=RngHandle(1))
        assert rows.shape == (0, 4000) and rows.dtype == np.int8
        assert sampling._SAMPLER_CACHE == {}

    def test_rising_lengths_rebuild_rarely(self, monkeypatch):
        monkeypatch.setattr(sampling, "_SAMPLER_CACHE", {})
        built = []

        class Counted(_GrammarTables):
            def __init__(self, p, capacity):
                built.append(capacity)
                super().__init__(p, capacity)

        monkeypatch.setattr(sampling, "_GrammarTables", Counted)
        for n in range(300, 341):
            sample_pfold_many(n, 1, rng=RngHandle(n))
        assert built == [300, 600]

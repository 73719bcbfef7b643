import math
from collections import Counter

import numpy as np
import pytest

from endprox.exact import (
    DEFAULT_PFOLD,
    Model,
    ZeroMassLength,
    catalan,
    enumerate_all,
    motzkin_number,
    pfold_joint_probs,
    pfold_string_probability,
)
from endprox.sampling import (
    RngHandle,
    motzkin_meander_table,
    sample_dyck,
    sample_dyck_steps,
    sample_motzkin,
    sample_motzkin_steps,
    sample_pfold,
    sample_pfold_many,
)
from endprox.structure import to_dot_bracket


def _deg_of_steps(steps: np.ndarray) -> np.ndarray:
    """Top-level pair count per row: up steps taken at height zero."""
    heights = np.cumsum(steps, axis=1, dtype=np.int32)
    before = heights - steps
    return ((steps == 1) & (before == 0)).sum(axis=1)


class TestRng:
    def test_reproducible_streams(self):
        a = RngHandle(123).generator.random(8)
        b = RngHandle(123).generator.random(8)
        assert np.array_equal(a, b)

    def test_distinct_seeds(self):
        assert not np.array_equal(RngHandle(1).generator.random(4), RngHandle(2).generator.random(4))


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


class TestMotzkin:
    def test_meander_marginal(self):
        rows = motzkin_meander_table(40)
        for m in range(41):
            assert rows[m][0] == motzkin_number(m)

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
        # n above the machine-word regime exercises the exact unranking walk
        for seed in range(4):
            s = sample_motzkin(55, RngHandle(seed))
            s.validate()
            assert not s.crossing

    def test_bigint_path_uniform_spot(self):
        # tiny-size distribution check routed through the scalar walk
        import endprox.sampling as sampling

        old = sampling._INT64_SAFE_N
        sampling._INT64_SAFE_N = 0
        try:
            count = 40_000
            steps = sample_motzkin_steps(3, count, RngHandle(21))
        finally:
            sampling._INT64_SAFE_N = old
        freqs = Counter(map(bytes, steps))
        assert len(freqs) == 4
        for v in freqs.values():
            assert v / count == pytest.approx(0.25, abs=0.015)

    def test_deg_mean_matches_exact_table(self):
        # moderate-size statistical agreement with the exact DP mean,
        # through the arbitrary-precision sequential walk
        from endprox.exact import conditional_law, Stat

        n, count = 120, 20_000
        law = conditional_law(Model.MOTZKIN, Stat.DEG, n)
        exact_mean = float(np.dot(np.arange(len(law)), law))
        exact_var = float(np.dot(np.arange(len(law)) ** 2, law)) - exact_mean**2
        steps = sample_motzkin_steps(n, count, RngHandle(13))
        degs = _deg_of_steps(steps)
        se = math.sqrt(exact_var / count)
        assert abs(np.mean(degs) - exact_mean) < 4 * se

    def test_composition_path_exact_small(self):
        # force the large-n composition draw at an enumerable size
        from endprox.sampling import _sample_motzkin_composition

        n, count = 5, 200_000
        steps = _sample_motzkin_composition(n, count, RngHandle(33))
        freqs = Counter(map(bytes, steps))
        assert len(freqs) == motzkin_number(n)
        p0 = 1 / motzkin_number(n)
        se = math.sqrt(p0 * (1 - p0) / count)
        for v in freqs.values():
            assert abs(v / count - p0) < 5 * se

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
        steps = sample_motzkin_steps(n, count, RngHandle(14))
        degs = _deg_of_steps(steps)
        se = math.sqrt(exact_var / count)
        assert abs(np.mean(degs) - exact_mean) < 4 * se


class TestPfold:
    def test_forced_small_lengths(self):
        for seed in range(5):
            assert to_dot_bracket(sample_pfold(1, rng=RngHandle(seed))) == "."
            assert to_dot_bracket(sample_pfold(2, rng=RngHandle(seed))) == ".."

    def test_zero_mass(self):
        with pytest.raises(ZeroMassLength):
            sample_pfold(0, rng=RngHandle(1))

    def test_reproducible(self):
        a = [to_dot_bracket(s) for s in sample_pfold_many(30, 5, rng=RngHandle(8))]
        b = [to_dot_bracket(s) for s in sample_pfold_many(30, 5, rng=RngHandle(8))]
        assert a == b

    def test_chunked_calls_match_one_call(self):
        n = 50
        whole = sample_pfold_many(n, 20, rng=RngHandle(1))
        rng = RngHandle(1)
        chunked = sample_pfold_many(n, 10, rng=rng) + sample_pfold_many(n, 9, rng=rng)
        chunked.append(sample_pfold(n, rng=rng))
        assert [s.partner for s in chunked] == [s.partner for s in whole]

    def test_samples_live_in_grammar_support(self):
        for s in sample_pfold_many(40, 50, rng=RngHandle(4)):
            s.validate()
            assert s.length == 40
            assert pfold_string_probability(s) > 0.0

    def test_small_length_frequencies(self):
        n, count = 6, 60_000
        hist = Counter(
            to_dot_bracket(s) for s in sample_pfold_many(n, count, rng=RngHandle(17))
        )
        total = 0.0
        support = {}
        for s in enumerate_all(Model.MOTZKIN, n):
            w = pfold_string_probability(s)
            if w > 0:
                support[to_dot_bracket(s)] = w
                total += w
        assert set(hist) <= set(support)
        for text, w in support.items():
            q = w / total
            se = math.sqrt(q * (1 - q) / count)
            assert abs(hist.get(text, 0) / count - q) < 5 * se

    def test_joint_histogram_moderate(self):
        # distribution-level agreement with the exact conditional law
        n, count = 80, 30_000
        probs = pfold_joint_probs(n)
        hist = Counter()
        for s in sample_pfold_many(n, count, rng=RngHandle(19)):
            deg = 0
            unp = 0
            i = 1
            while i <= n:
                j = s.partner[i - 1]
                if j == 0:
                    unp += 1
                    i += 1
                else:
                    deg += 1
                    i = j + 1
            hist[(unp, deg)] += 1
        tv = 0.5 * sum(
            abs(hist.get(k, 0) / count - probs.get(k, 0.0)) for k in set(hist) | set(probs)
        )
        # expected empirical TV at this sample size is ~0.021
        assert tv < 0.035

import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endprox.sampling import RngHandle
from endprox.shuffling import KTooLarge, klet_shuffle, read_fasta, validate_klets

sequences = st.text(alphabet="ACGU", min_size=1, max_size=40)


class TestValidate:
    def test_doublet_mismatch(self):
        assert not validate_klets("AAC", "ACA", 2)

    def test_equal_multisets(self):
        assert validate_klets("AACG", "ACGA", 1)
        assert validate_klets("ABAB", "ABAB", 2)

    def test_degenerate_large_k(self):
        assert validate_klets("AC", "GT", 5)  # both k-let multisets empty

    @given(sequences, st.integers(1, 4))
    @settings(max_examples=200)
    def test_shuffle_postcondition(self, s, k):
        if k > len(s):
            with pytest.raises(KTooLarge):
                klet_shuffle(s, k, RngHandle(1))
            return
        out = klet_shuffle(s, k, RngHandle(1))
        assert len(out) == len(s)
        assert validate_klets(s, out, k)
        if k >= 2:
            assert out[: k - 1] == s[: k - 1]
            assert out[len(s) - k + 1 :] == s[len(s) - k + 1 :]


class TestShuffle:
    def test_doublets_preserved_with_ends(self):
        out = klet_shuffle("AACGT", 2, RngHandle(3))
        assert validate_klets("AACGT", out, 2)
        assert out[0] == "A" and out[-1] == "T"

    def test_k1_is_permutation(self):
        out = klet_shuffle("ABC", 1, RngHandle(5))
        assert sorted(out) == ["A", "B", "C"]

    def test_forced_output(self):
        outs = {klet_shuffle("ABAB", 2, RngHandle(7)) for _ in range(100)}
        assert outs == {"ABAB"}

    def test_errors(self):
        with pytest.raises(KTooLarge):
            klet_shuffle("AC", 3, RngHandle(1))
        with pytest.raises(ValueError):
            klet_shuffle("", 1, RngHandle(1))
        with pytest.raises(ValueError):
            klet_shuffle("AC", 0, RngHandle(1))

    def test_uniform_over_valid_set(self):
        s = "AABABA"
        valid = {
            "".join(perm)
            for perm in set(permutations(s))
            if perm[0] == s[0] and perm[-1] == s[-1] and validate_klets(s, "".join(perm), 2)
        }
        assert len(valid) == 3
        count = 30_000
        rng = RngHandle(23)
        freqs = Counter(klet_shuffle(s, 2, rng) for _ in range(count))
        assert set(freqs) == valid
        p = 1 / len(valid)
        se = math.sqrt(p * (1 - p) / count)
        for v in freqs.values():
            assert abs(v / count - p) < 5 * se

    def test_k1_uniform(self):
        count = 30_000
        rng = RngHandle(29)
        freqs = Counter(klet_shuffle("ABC", 1, rng) for _ in range(count))
        assert set(freqs) == {"".join(p) for p in permutations("ABC")}
        se = math.sqrt((1 / 6) * (5 / 6) / count)
        for v in freqs.values():
            assert abs(v / count - 1 / 6) < 5 * se


class TestFasta:
    def test_round_trip(self):
        text = ">a group=x\nACGU\nACGU\n>b\nGGG\n"
        recs = read_fasta(text)
        # the write half is shuffle's own, pinned in test_pinned_outputs
        assert recs == [("a", "ACGUACGU"), ("b", "GGG")]

    def test_bare_sequence(self):
        assert read_fasta("ACGT\n") == [("rec1", "ACGT")]

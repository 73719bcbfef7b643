import csv
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endprox import exact
from endprox.exact import (
    DEFAULT_PFOLD,
    Model,
    PfoldParams,
    SizeTooLarge,
    Stat,
    UnsupportedCombination,
    ZeroMassLength,
    catalan,
    conditional_law,
    dyck_deg_counts,
    enumerate_all,
    hel_stm_counts,
    motzkin_deg_counts,
    motzkin_joint_counts,
    motzkin_number,
    pfold_exterior_totals,
    pfold_inside,
    pfold_joint_probs,
    pfold_joint_table,
    pfold_string_probability,
)
from endprox.structure import exterior_stats


def exterior_of(s):
    return exterior_stats(s)


class TestSequences:
    def test_catalan_against_binomial(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_motzkin_against_binomial_sum(self):
        # independent closed form: sum_k C(n, 2k) * Catalan(k)
        for n in range(0, 31):
            direct = sum(math.comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))
            assert motzkin_number(n) == direct


class TestDyckDeg:
    def test_small_tables(self):
        assert dyck_deg_counts(0).entries == {0: 1}
        assert dyck_deg_counts(1).entries == {1: 1}
        assert dyck_deg_counts(3).entries == {1: 2, 2: 2, 3: 1}

    def test_totals(self):
        for n in range(0, 31):
            assert dyck_deg_counts(n).total() == catalan(n)


class TestMotzkinJoint:
    def test_small_tables(self):
        assert motzkin_joint_counts(0).entries == {(0, 0): 1}
        assert motzkin_joint_counts(3).entries == {(0, 3): 1, (1, 1): 2, (1, 0): 1}
        assert motzkin_joint_counts(4).entries[(1, 2)] == 3
        assert motzkin_joint_counts(4).total() == 9

    def test_totals(self):
        for n in range(0, 31):
            assert motzkin_joint_counts(n).total() == motzkin_number(n)

    def test_deg_marginal_matches_independent_dp(self):
        for n in range(0, 26):
            joint = motzkin_joint_counts(n)
            marginal: dict[int, int] = {}
            for (d, _k), w in joint.entries.items():
                marginal[d] = marginal.get(d, 0) + w
            assert marginal == motzkin_deg_counts(n).entries


class TestExteriorEngine:
    """The (unp, deg) tables and laws of all three models come from one
    exterior-sequence kernel; these check it against independent oracles."""

    @given(st.integers(0, 80))
    @settings(max_examples=50, deadline=None)
    def test_motzkin_deg_marginal_matches_independent_dp(self, n):
        marginal = Counter()
        for (d, _k), w in motzkin_joint_counts(n).entries.items():
            marginal[d] += w
        assert dict(marginal) == motzkin_deg_counts(n).entries

    @given(st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_dyck_deg_counts_are_ballot_numbers(self, n):
        ballot = {l: l * math.comb(2 * n - l, n - l) // (2 * n - l) for l in range(1, n + 1)}
        assert dyck_deg_counts(n).entries == ballot

    @given(st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_uniform_laws_match_exact_ratios(self, n):
        dyck = dyck_deg_counts(n)
        law = conditional_law(Model.DYCK, Stat.DEG, n)
        assert len(law) == min(400, n) + 1
        for l, p in enumerate(law):
            assert p == pytest.approx(dyck.entries.get(l, 0) / dyck.total(), abs=1e-12)
        joint = motzkin_joint_counts(n)
        total = joint.total()
        deg, unp = Counter(), Counter()
        for (d, k), w in joint.entries.items():
            deg[d] += w
            unp[k] += w
        for stat, counts in ((Stat.DEG, deg), (Stat.UNP, unp)):
            law = conditional_law(Model.MOTZKIN, stat, n)
            assert len(law) == (min(250, n // 2) if stat is Stat.DEG else n) + 1
            for v, p in enumerate(law):
                assert p == pytest.approx(counts.get(v, 0) / total, abs=1e-12)

    @given(
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.integers(1, 300),
    )
    @settings(max_examples=50, deadline=None)
    def test_pfold_exterior_totals_conserve_mass(self, p1, p2, p3, n):
        p = PfoldParams(p1, p2, p3)
        totals = pfold_exterior_totals(p, n)
        assert np.abs(totals[1:] - pfold_inside(p, n).S[1 : n + 1]).max() < 1e-12

    @given(
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.integers(1, 300),
    )
    @settings(max_examples=50, deadline=None)
    def test_projected_laws_match_kernel_sums(self, p1, p2, p3, n):
        """The DEG and UNP laws (power projection) are the column and row
        sums of the (unp, deg) weights of the table kernel."""
        p = PfoldParams(p1, p2, p3)
        mass = pfold_inside(p, n).S[n]
        rows = list(exact._exterior_weights(exact._pfold_exterior(p, n)))
        deg = conditional_law(Model.PFOLD, Stat.DEG, n, p, cap=n)
        unp = conditional_law(Model.PFOLD, Stat.UNP, n, p)
        assert len(deg) == len(rows) and len(unp) == n + 1
        np.testing.assert_allclose(deg, [w.sum() / mass for _, w in rows], rtol=0, atol=1e-13)
        by_unp = np.zeros(n + 1)
        for _, w in rows:
            by_unp[: len(w)] += w
        np.testing.assert_allclose(unp, by_unp / mass, rtol=0, atol=1e-13)

    def test_motzkin_joint_400_sums_to_motzkin_number(self):
        assert motzkin_joint_counts(400).total() == motzkin_number(400)


class TestPfoldInside:
    def test_smallest_lengths(self):
        p = DEFAULT_PFOLD
        ins = pfold_inside(p, 8)
        assert ins.S[1] == pytest.approx(p.q1 * p.q2, abs=0)
        assert abs(ins.S[1] - 0.117614) < 1e-5
        assert ins.S[2] == pytest.approx(p.p1 * p.q2 * p.q1 * p.q2)
        assert ins.F[0] == 0.0 and ins.L[2] == 0.0

    def test_joint_small(self):
        assert pfold_joint_probs(1) == {(1, 0): pytest.approx(1.0)}
        assert pfold_joint_probs(2) == {(2, 0): pytest.approx(1.0)}

    def test_joint_normalized(self):
        for n in (1, 2, 7, 40, 200):
            assert sum(pfold_joint_probs(n).values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass(self):
        with pytest.raises(ZeroMassLength):
            pfold_joint_probs(0)

    def test_underflowed_mass_raises(self):
        """At this high-rho point S[2500] underflows to 0.0 although every
        length has positive probability; no table or law may come back empty
        or NaN."""
        p = PfoldParams(0.2, 0.9, 0.2)
        assert pfold_inside(p, 2500).S[2500] == 0.0
        calls = [
            lambda: pfold_joint_table(2500, p),
            lambda: pfold_joint_probs(2500, p),
            lambda: hel_stm_counts(Model.PFOLD, 2500, Stat.HEL, p),
            lambda: conditional_law(Model.PFOLD, Stat.DEG, 2500, p),
            lambda: conditional_law(Model.PFOLD, Stat.UNP, 2500, p),
            lambda: conditional_law(Model.PFOLD, Stat.HEL, 2500, p),
        ]
        for call in calls:
            with pytest.raises(ZeroMassLength, match="underflowed"):
                call()

    def test_conservation_small_scale(self):
        p = DEFAULT_PFOLD
        totals = pfold_exterior_totals(p, 300)
        ins = pfold_inside(p, 300)
        assert np.abs(totals[1:301] - ins.S[1:301]).max() < 1e-13

    def test_partial_sums_below_one(self):
        ins = pfold_inside(DEFAULT_PFOLD, 500)
        assert ins.S[:501].sum() <= 1.0

    def test_string_probability_oracle(self):
        """Per-string parse probabilities, summed by (unp, deg), rebuild the
        length-indexed tables; summed overall they rebuild S(n)."""
        p = DEFAULT_PFOLD
        for n in range(1, 10):
            by_key: dict[tuple[int, int], float] = {}
            total = 0.0
            for s in enumerate_all(Model.MOTZKIN, n):
                w = pfold_string_probability(s, p)
                if w == 0.0:
                    continue
                total += w
                st = exterior_of(s)
                key = (st.unp, st.deg)
                by_key[key] = by_key.get(key, 0.0) + w
            table = pfold_joint_table(n, p)
            assert total == pytest.approx(pfold_inside(p, n).S[n], abs=1e-15)
            for key in set(by_key) | set(table.entries):
                assert by_key.get(key, 0.0) == pytest.approx(
                    table.entries.get(key, 0.0), abs=1e-15
                )

    def test_literal_three_index_dp_oracle(self):
        """The sequence/multinomial factorization agrees with a direct DP on
        the exterior-tracking rules."""
        p = DEFAULT_PFOLD
        n = 25
        ins = pfold_inside(p, n)
        rows: list[dict] = [dict() for _ in range(n + 1)]
        if n >= 1:
            rows[1][(1, 0)] = p.q1 * p.q2
        for m in range(2, n + 1):
            ent = rows[m]
            for (k, l), w in rows[m - 1].items():  # leading exterior dot
                ent[(k + 1, l)] = ent.get((k + 1, l), 0.0) + p.p1 * p.q2 * w
            for a in range(4, m):  # leading exterior arch of length a
                wa = p.p2 * ins.F[a - 2]
                for (k, l), w in rows[m - a].items():
                    ent[(k, l + 1)] = ent.get((k, l + 1), 0.0) + p.p1 * wa * w
            if m >= 4:  # terminal arch
                ent[(0, 1)] = ent.get((0, 1), 0.0) + p.q1 * p.p2 * ins.F[m - 2]
        table = pfold_joint_table(n, p).entries
        for key in set(rows[n]) | set(table):
            assert rows[n].get(key, 0.0) == pytest.approx(table.get(key, 0.0), abs=1e-16)

    def test_custom_params_validated(self):
        with pytest.raises(ValueError):
            PfoldParams(p1=1.2)


def _recursive_string_probability(s, p):
    """The grammar's derivation probability by direct recursion on the
    S -> LS | L, L -> dot | (F), F -> (F) | LS rules."""
    match = s.partner

    def item_end(i):
        return i + 1 if match[i] == 0 else match[i]

    def prob_S(i, j):
        if i >= j:
            return 0.0
        a = item_end(i)
        if a == j:
            return p.q1 * prob_L(i, j)
        return p.p1 * prob_L(i, a) * prob_S(a, j)

    def prob_L(i, j):
        if j == i + 1:
            return p.q2 if match[i] == 0 else 0.0
        if match[i] == j:
            return p.p2 * prob_F(i + 1, j - 1)
        return 0.0

    def prob_F(i, j):
        if j - i < 2:
            return 0.0
        if match[i] == j:
            return p.p3 * prob_F(i + 1, j - 1)
        a = item_end(i)
        return p.q3 * prob_L(i, a) * prob_S(a, j)

    return prob_S(0, s.length)


class TestStringProbability:
    @pytest.mark.parametrize("p", [DEFAULT_PFOLD, PfoldParams(0.2, 0.9, 0.2)])
    def test_matches_recursive_oracle(self, p):
        # the iterative walk multiplies the same factors in another order
        for n in range(0, 13):
            for s in enumerate_all(Model.MOTZKIN, n):
                expected = _recursive_string_probability(s, p)
                got = pfold_string_probability(s, p)
                if expected == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_each_stacked_pair_multiplies_by_p3(self):
        p = DEFAULT_PFOLD
        ratio = pfold_string_probability("((...))") / pfold_string_probability("(...)")
        assert ratio == pytest.approx(p.p3, rel=1e-12) and p.p3 == 0.78764

    def test_deep_hairpin(self):
        p = DEFAULT_PFOLD
        text = "(" * 1500 + "..." + ")" * 1500
        expected = pfold_string_probability("(...)") * p.p3**1499
        assert pfold_string_probability(text) == pytest.approx(expected, rel=1e-12, abs=0)


class TestHelStmTables:
    def test_dyck_hel_example(self):
        assert hel_stm_counts(Model.DYCK, 3, Stat.HEL).entries == {1: 3, 2: 1, 3: 1}

    def test_motzkin_hel_example(self):
        assert hel_stm_counts(Model.MOTZKIN, 3, Stat.HEL).entries == {None: 1, 1: 3}

    def test_motzkin_stm_example(self):
        assert hel_stm_counts(Model.MOTZKIN, 2, Stat.STM).entries == {None: 1, 1: 1}

    def test_totals(self):
        for n in range(0, 16):
            assert hel_stm_counts(Model.MOTZKIN, n, Stat.HEL).total() == motzkin_number(n)
            assert hel_stm_counts(Model.MOTZKIN, n, Stat.STM).total() == motzkin_number(n)
            assert (
                hel_stm_counts(Model.MOTZKIN, n, Stat.STEM_HELICES).total()
                == motzkin_number(n)
            )
        for n in range(0, 12):
            assert hel_stm_counts(Model.DYCK, n, Stat.HEL).total() == catalan(n)

    def test_pfold_hel_conserves_mass(self):
        p = DEFAULT_PFOLD
        for n in (1, 2, 9, 50):
            table = hel_stm_counts(Model.PFOLD, n, Stat.HEL, p)
            assert table.total() == pytest.approx(pfold_inside(p, n).S[n], rel=1e-12)

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            hel_stm_counts(Model.PFOLD, 10, Stat.STM)
        with pytest.raises(UnsupportedCombination):
            hel_stm_counts(Model.DYCK, 10, Stat.STM)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_all(Model.MOTZKIN, 3)) == 4
        assert sum(1 for _ in enumerate_all(Model.DYCK, 3)) == 5
        assert sum(1 for _ in enumerate_all(Model.MOTZKIN, 0)) == 1

    def test_guard(self):
        with pytest.raises(SizeTooLarge):
            list(enumerate_all(Model.DYCK, 17))

    def test_histograms_match_tables_small(self):
        for n in range(0, 9):
            joint = Counter()
            stm = Counter()
            for s in enumerate_all(Model.MOTZKIN, n):
                st = exterior_of(s)
                joint[(st.deg, st.unp)] += 1
                stm[st.stm] += 1
            assert dict(joint) == motzkin_joint_counts(n).entries
            assert dict(stm) == hel_stm_counts(Model.MOTZKIN, n, Stat.STM).entries


LAW_PAIRS = [
    (Model.DYCK, Stat.DEG),
    (Model.MOTZKIN, Stat.DEG),
    (Model.PFOLD, Stat.DEG),
    (Model.MOTZKIN, Stat.UNP),
    (Model.PFOLD, Stat.UNP),
    (Model.DYCK, Stat.HEL),
    (Model.MOTZKIN, Stat.HEL),
    (Model.PFOLD, Stat.HEL),
]


class TestConditionalLaw:
    def test_matches_exact_tables(self):
        for n in (5, 12):
            law = conditional_law(Model.MOTZKIN, Stat.DEG, n)
            table = motzkin_deg_counts(n)
            total = table.total()
            for d in range(len(law)):
                assert law[d] == pytest.approx(table.entries.get(d, 0) / total, abs=1e-13)
        law = conditional_law(Model.DYCK, Stat.DEG, 9)
        table = dyck_deg_counts(9)
        for d in range(len(law)):
            assert law[d] == pytest.approx(table.entries.get(d, 0) / table.total(), abs=1e-13)

    def test_hel_matches_tables(self):
        for model, n in [(Model.DYCK, 8), (Model.MOTZKIN, 9), (Model.PFOLD, 9)]:
            law = conditional_law(model, Stat.HEL, n)
            table = hel_stm_counts(model, n, Stat.HEL, DEFAULT_PFOLD)
            total = table.total()
            for d in range(len(law)):
                key = None if d == 0 else d
                assert law[d] == pytest.approx(
                    float(table.entries.get(key, 0)) / float(total), abs=1e-12
                )

    def test_pfold_marginals_match_joint(self):
        n = 60
        probs = pfold_joint_probs(n)
        deg_law = conditional_law(Model.PFOLD, Stat.DEG, n)
        unp_law = conditional_law(Model.PFOLD, Stat.UNP, n)
        deg = Counter()
        unp = Counter()
        for (k, l), w in probs.items():
            deg[l] += w
            unp[k] += w
        for l in range(len(deg_law)):
            assert deg_law[l] == pytest.approx(deg.get(l, 0.0), abs=1e-12)
        for k in range(len(unp_law)):
            assert unp_law[k] == pytest.approx(unp.get(k, 0.0), abs=1e-12)

    def test_sums_to_one(self):
        for model, stat in [
            (Model.DYCK, Stat.DEG),
            (Model.MOTZKIN, Stat.DEG),
            (Model.MOTZKIN, Stat.UNP),
            (Model.MOTZKIN, Stat.HEL),
            (Model.PFOLD, Stat.DEG),
            (Model.PFOLD, Stat.HEL),
        ]:
            law = conditional_law(model, stat, 150)
            assert law.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            conditional_law(Model.DYCK, Stat.UNP, 50)

    @pytest.mark.parametrize("model, stat", LAW_PAIRS)
    def test_cap_is_the_largest_value_returned(self, model, stat):
        for n in (9, 60, 150):
            full = conditional_law(model, stat, n)
            for c in (0, 1, 7):
                # the baby/giant split of the projection depends on the cap,
                # so the DEG and UNP values agree up to rounding
                np.testing.assert_allclose(
                    conditional_law(model, stat, n, cap=c), full[: c + 1], rtol=1e-13, atol=1e-16
                )


class TestSerialization:
    def test_csv_round(self):
        table = motzkin_joint_counts(3)
        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "model,n,stat_name,stat_value,weight"
        assert '"deg,unp"' in lines[1]
        assert len(lines) == 1 + len(table.entries)

    def test_absent_bucket(self):
        table = hel_stm_counts(Model.MOTZKIN, 3, Stat.HEL)
        buf = io.StringIO()
        table.write_csv(buf)
        assert "absent" in buf.getvalue()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dyck_deg_counts(0),
            lambda: dyck_deg_counts(40),
            lambda: hel_stm_counts(Model.DYCK, 0, Stat.HEL),
            lambda: hel_stm_counts(Model.DYCK, 30, Stat.HEL),
            lambda: motzkin_joint_counts(60),
            lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.HEL),
            lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.STM),
            lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.STEM_HELICES),
            lambda: pfold_joint_table(300),
            lambda: hel_stm_counts(Model.PFOLD, 300, Stat.HEL),
        ],
        ids=[
            "dyck-deg-0", "dyck-deg", "dyck-hel-0", "dyck-hel", "motzkin-joint", "motzkin-hel",
            "motzkin-stm", "motzkin-stem-helices", "pfold-joint", "pfold-hel",
        ],
    )
    def test_csv_matches_csv_writer(self, make):
        table = make()
        buf = io.StringIO()
        table.write_csv(buf)
        assert buf.getvalue() == _csv_writer_oracle(table)
        assert buf.getvalue().count("\n") == 1 + len(table.entries)


def _csv_writer_oracle(table):
    """The table through csv.writer, sorted with the absent bucket first."""

    def order(key):
        if key is None:
            return (0,)
        return (1,) + key if isinstance(key, tuple) else (1, key)

    def text(key):
        if key is None:
            return "absent"
        return ",".join(str(v) for v in key) if isinstance(key, tuple) else str(key)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "n", "stat_name", "stat_value", "weight"])
    name = ",".join(table.axes)
    for key in sorted(table.entries, key=order):
        writer.writerow([table.model.value, table.size, name, text(key), table.entries[key]])
    return buf.getvalue()

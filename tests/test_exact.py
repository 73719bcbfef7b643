import csv
import io
import json
import math
import os
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from endprox import exact
from endprox.cli import main
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
    motzkin_joint_counts,
    motzkin_number,
    pfold_exterior_totals,
    pfold_inside,
    pfold_joint_probs,
    pfold_joint_table,
    pfold_string_probability,
)
from endprox.sampling import RngHandle, sample_pfold_many
from endprox.structure import exterior_stats
from exact_oracle import motzkin_deg_counts, motzkin_numbers_by_convolution, table_from_entries


def exterior_of(s):
    return exterior_stats(s)


class TestSequences:
    def test_catalan_against_binomial(self):
        assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_negative_index_counts_nothing(self):
        assert catalan(-1) == motzkin_number(-1) == 0

    def test_motzkin_against_binomial_sum(self):
        # independent closed form: sum_k C(n, 2k) * Catalan(k)
        for n in range(0, 31):
            direct = sum(math.comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1))
            assert motzkin_number(n) == direct

    def test_motzkin_recurrence_matches_convolution(self):
        # the three-term recurrence against the first-return convolution
        assert [motzkin_number(m) for m in range(401)] == motzkin_numbers_by_convolution(400)


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

    def test_deg_oracle_rejects_negative_length(self):
        with pytest.raises(ValueError, match="nonnegative"):
            motzkin_deg_counts(-1)

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
        rows = list(exact._exterior_weights(exact._exterior(Model.PFOLD, n, p)))
        deg = conditional_law(Model.PFOLD, Stat.DEG, n, p)
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
        with pytest.raises(ZeroMassLength, match="length at least 1"):
            pfold_exterior_totals(DEFAULT_PFOLD, 0)

    def test_underflowed_mass_raises(self):
        """At this high-rho point S[2500] underflows to 0.0 although every
        length has positive probability; no table or law may come back empty
        or NaN.  A subnormal S[n] (n = 582..611 at the first point below,
        2212..2321 at the second) has lost most of its bits and raises too."""
        p = PfoldParams(0.2, 0.9, 0.2)
        assert pfold_inside(p, 2500).S[2500] == 0.0
        cases = [(p, 2500), (p, 2300)] + [(PfoldParams(0.95, 0.95, 0.05), n) for n in (582, 600, 611)]
        for q, n in cases:
            assert pfold_inside(q, n).S[n] < np.finfo(float).tiny
            calls = [
                lambda: pfold_joint_table(n, q),
                lambda: pfold_joint_probs(n, q),
                lambda: pfold_exterior_totals(q, n),
                lambda: hel_stm_counts(Model.PFOLD, n, Stat.HEL, q),
                lambda: conditional_law(Model.PFOLD, Stat.DEG, n, q),
                lambda: conditional_law(Model.PFOLD, Stat.UNP, n, q),
                lambda: conditional_law(Model.PFOLD, Stat.HEL, n, q),
                lambda: sample_pfold_many(n, 2, q, RngHandle(0)),
            ]
            for call in calls:
                with pytest.raises(ZeroMassLength, match="underflowed"):
                    call()

    def test_conservation_small_scale(self):
        p = DEFAULT_PFOLD
        totals = pfold_exterior_totals(p, 300)
        ins = pfold_inside(p, 300)
        assert np.abs(totals[1:301] - ins.S[1:301]).max() < 1e-13

    @pytest.mark.parametrize("n", [3250, 4000])
    def test_conservation_past_the_coefficient_overflow(self, n):
        """From n ~ 3250 the running product C(k + l, k) (p1 q2)^k passes
        the float range; the totals stay finite, warning-free and equal to S."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            totals = pfold_exterior_totals(DEFAULT_PFOLD, n)
        S = pfold_inside(DEFAULT_PFOLD, n).S[1 : n + 1]
        assert np.isfinite(totals).all()
        np.testing.assert_allclose(totals[1:], S, rtol=1e-12, atol=0)

    def test_joint_table_past_the_coefficient_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pfold_joint_table(4000)
        assert all(np.isfinite(w).all() for _, w in table.runs)
        assert table.total() == pytest.approx(pfold_inside(DEFAULT_PFOLD, 4000).S[4000], rel=1e-12)

    def test_scaled_coefficients_keep_every_product(self):
        """Where the running product passes 2**1024, coef comes back scaled
        down and the arch power up by the same power of two.  Against a
        subnormal power every product is a normal weight, checked in log
        space."""
        n, l, tiny = 4000, 600, 2.0**-1060
        ext = exact._exterior(Model.PFOLD, n)
        k = np.arange(n - 4 * l + 1)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.cumprod(ext.step * ext.dot * (k[1:] + l) / k[1:])).all()
        coef, power = exact._seq_coefs(ext, l, np.full(n + 1, tiny))
        w = coef * power[: len(coef)]
        log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
        log_w = (
            math.log(ext.head) + (l - 1) * math.log(ext.step) + k * math.log(ext.step * ext.dot)
            + log_fact[k + l] - log_fact[k] - log_fact[l] + math.log(tiny)
        )
        normal = w >= np.finfo(float).tiny
        assert np.isfinite(w).all() and normal.sum() > 1000
        np.testing.assert_allclose(np.log(w[normal]), log_w[normal], rtol=0, atol=1e-9)

    def test_weights_below_the_coefficient_overflow_are_unchanged(self):
        """At n = 3000 the running product stays finite, and every kernel
        weight is bitwise the plain product."""
        ext = exact._exterior(Model.PFOLD, 3000)
        for (l, w), power in zip(exact._exterior_weights(ext), exact._arch_powers(ext)):
            ks = np.arange(1, ext.n - 4 * l + 1)
            coef = np.empty(len(ks) + 1)
            coef[0] = ext.step ** (l - 1)
            coef[1:] = coef[0] * np.cumprod(ext.step * ext.dot * (ks + l) / ks)
            plain = ext.head * coef * power[ext.n + 1 - len(coef) :][::-1]
            assert np.isfinite(plain).all()
            assert np.array_equal(w.view(np.uint64), plain.view(np.uint64))

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

    def test_empty_string_is_no_output(self):
        # S derives at least one item
        assert pfold_string_probability("") == 0.0

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


# The derivations that the first-arch engine replaced, kept as oracles: the
# helix and stem dict DPs of the tables, the uniform HEL laws and the
# grammar's helix-tracking recurrence.


def _dyck_hel_rows_oracle(n):
    # helper H assigns positive depth only to paths whose first and last
    # steps are matched; everything else sits in its 0 bucket
    hrows = [{0: 1}]
    for m in range(1, n + 1):
        row = {d + 1: w for d, w in hrows[m - 1].items()}
        notch = catalan(m) - catalan(m - 1)
        if notch:
            row[0] = row.get(0, 0) + notch
        hrows.append(row)
    rows = [{}]
    for m in range(1, n + 1):
        row = {}
        for j in range(m):
            c = catalan(m - 1 - j)
            for d, w in hrows[j].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return rows


def _motzkin_hel_rows_oracle(n):
    hrows = [{0: 1}]
    if n >= 1:
        hrows.append({0: motzkin_number(1)})
    for m in range(2, n + 1):
        row = {d + 1: w for d, w in hrows[m - 2].items()}
        notch = motzkin_number(m) - motzkin_number(m - 2)
        if notch:
            row[0] = row.get(0, 0) + notch
        hrows.append(row)
    rows = [{0: 1}]
    for m in range(1, n + 1):
        row = {d: w for d, w in rows[m - 1].items()}  # leading dot
        for j in range(m - 1):
            c = motzkin_number(m - 2 - j)
            for d, w in hrows[j].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return rows


def _dots_squared_triple_oracle(n):
    """Coefficients of z^4 * L^2 * M^3 with L the dot-run series."""
    mot = [motzkin_number(i) for i in range(n + 1)]
    m2 = [sum(mot[a] * mot[m - a] for a in range(m + 1)) for m in range(n + 1)]
    m3 = [sum(mot[a] * m2[m - a] for a in range(m + 1)) for m in range(n + 1)]
    out = [0] * (n + 1)
    for m in range(4, n + 1):
        out[m] = sum((a + 1) * m3[m - 4 - a] for a in range(m - 3))
    return out


def _motzkin_stem_rows_oracle(n, by_helices):
    tail = _dots_squared_triple_oracle(n)
    star = []
    for m in range(n + 1):
        row = {0: 1 + tail[m]}  # hairpin dots, or a multiloop ending the stem
        if by_helices:
            if m >= 2:
                for d, w in star[m - 2].items():  # tight nesting, same helix
                    row[d] = row.get(d, 0) + w
            for gap in range(1, m - 1):  # dots on either side start a helix
                for d, w in star[m - 2 - gap].items():
                    row[d + 1] = row.get(d + 1, 0) + (gap + 1) * w
        else:
            for gap in range(0, m - 1):  # any continuation pair extends stm
                for d, w in star[m - 2 - gap].items():
                    row[d + 1] = row.get(d + 1, 0) + (gap + 1) * w
        star.append(row)
    rows = [{0: 1}]
    for m in range(1, n + 1):
        row = dict(rows[m - 1])
        for a in range(m - 1):
            c = motzkin_number(m - 2 - a)
            for d, w in star[a].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return rows


_TABLE_ORACLES = {
    Stat.HEL: _motzkin_hel_rows_oracle,
    Stat.STM: lambda n: _motzkin_stem_rows_oracle(n, False),
    Stat.STEM_HELICES: lambda n: _motzkin_stem_rows_oracle(n, True),
}


def _oracle_entries(row):
    return {(None if d == 0 else d): w for d, w in row.items() if w}


def _uniform_hel_law_oracle(model, n):
    if model is Model.DYCK:
        ct = exact._scaled_catalan(n)
        notch = ct.copy()
        notch[1:] -= ct[:-1] * 0.25
        w = np.convolve(notch, ct)[: n + 1]
        out = np.zeros(n + 1)
        if n == 0:
            out[0] = 1.0
            return out
        for h in range(1, n + 1):
            out[h] = 0.25**h * w[n - h] / ct[n]
        return out
    x = 1.0 / 3.0
    mt = exact._scaled_motzkin(n)
    notch = mt.copy()
    notch[2:] -= mt[:-2] * x * x
    w = np.convolve(notch, mt)[: n + 1]
    geo = x ** np.arange(n + 1)
    u = np.convolve(geo, w)[: n + 1]
    out = np.zeros(n // 2 + 1)
    out[0] = geo[n] / mt[n]
    for d in range(1, n // 2 + 1):
        out[d] = x ** (2 * d) * u[n - 2 * d] / mt[n]
    return out


def _pfold_hel_weights_oracle(p, n):
    """Weights of the length-n outputs by first-helix length h = 0 .. n // 2
    from the helix-tracking rewrite of the grammar: leading dots, a one-pair
    helix closed by F -> L S, then p3^(h-1) and a shift per stacked pair."""
    inside = pfold_inside(p, n)
    S, LS = inside.S[: n + 1], inside.LS[: n + 1]
    rhs = np.zeros((2, n + 1))
    if n >= 1:
        rhs[0, 1] = p.q1 * p.q2
    ff = p.q3 * LS
    rhs[1, 2:] = p.p1 * p.p2 * np.convolve(ff, S)[: max(0, n - 1)]
    rhs[1, 2:] += p.q1 * p.p2 * ff[: n - 1]
    x = p.p1 * p.q2
    for m in range(1, n + 1):  # leading exterior dots
        rhs[:, m] += x * rhs[:, m - 1]
    dots, y = rhs
    h = np.arange(1, n // 2 + 1)
    return np.concatenate(([dots[n]], p.p3 ** (h - 1) * y[n - 2 * (h - 1)]))


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
TABLE_PAIRS = [
    (Model.DYCK, Stat.HEL),
    (Model.MOTZKIN, Stat.HEL),
    (Model.MOTZKIN, Stat.STM),
    (Model.MOTZKIN, Stat.STEM_HELICES),
    (Model.PFOLD, Stat.HEL),
]
ORACLE_SIZES = (1, 2, 3, 9, 60, 250, 2000)
ORACLE_PARAMS = [DEFAULT_PFOLD, PfoldParams(0.5, 0.5, 0.5), PfoldParams(0.2, 0.9, 0.2)]


class TestFirstArchEngine:
    """Every HEL, STM and STEM_HELICES table and every HEL law comes from one
    first-arch split; these check it against the derivations it replaced."""

    def test_dyck_hel_matches_deleted_dp(self):
        rows = _dyck_hel_rows_oracle(40)
        for n in range(41):
            expected = {None: 1} if n == 0 else _oracle_entries(rows[n])
            assert hel_stm_counts(Model.DYCK, n, Stat.HEL).entries == expected

    @pytest.mark.parametrize("stat", list(_TABLE_ORACLES), ids=lambda s: s.value)
    def test_motzkin_tables_match_deleted_dps(self, stat):
        rows = _TABLE_ORACLES[stat](60)
        for n in range(61):
            entries = hel_stm_counts(Model.MOTZKIN, n, stat).entries
            assert entries == _oracle_entries(rows[n])
            assert all(type(w) is int for w in entries.values())

    def test_motzkin_stm_csv_at_150_matches_deleted_dp(self, capsys):
        # the size the benchmark's tables workload writes
        assert main(["exact", "--model", "motzkin", "--n", "150", "--stat", "stm"]) == 0
        expected = io.StringIO()
        entries = _oracle_entries(_motzkin_stem_rows_oracle(150, False)[150])
        table_from_entries(Model.MOTZKIN, 150, ("stm",), entries).write_csv(expected)
        assert capsys.readouterr().out == expected.getvalue()

    @pytest.mark.parametrize("model", [Model.DYCK, Model.MOTZKIN], ids=lambda m: m.value)
    def test_uniform_hel_laws_match_deleted_derivation(self, model):
        for n in ORACLE_SIZES:
            law = conditional_law(model, Stat.HEL, n)
            expected = _uniform_hel_law_oracle(model, n)
            assert law.shape == expected.shape
            np.testing.assert_allclose(law, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", ORACLE_PARAMS, ids=["default", "half", "high-rho"])
    def test_pfold_hel_matches_deleted_recurrence(self, p):
        for n in ORACLE_SIZES:
            mass = pfold_inside(p, n).S[n]
            weights = _pfold_hel_weights_oracle(p, n)
            expected = {(None if h == 0 else h): w for h, w in enumerate(weights) if w > 0.0}
            table = hel_stm_counts(Model.PFOLD, n, Stat.HEL, p).entries
            assert set(table) == set(expected)
            for key, w in expected.items():
                assert table[key] == pytest.approx(w, rel=1e-12, abs=0)
            law = conditional_law(Model.PFOLD, Stat.HEL, n, p)
            oracle = weights / mass
            assert law.shape == oracle.shape
            np.testing.assert_allclose(law, oracle, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "kind, model, stat",
    [("table", m, s) for m, s in TABLE_PAIRS] + [("law", m, s) for m, s in LAW_PAIRS],
    ids=lambda v: getattr(v, "value", v),
)
def test_negative_size_is_rejected(kind, model, stat):
    with pytest.raises(ValueError):
        if kind == "table":
            hel_stm_counts(model, -1, stat)
        else:
            conditional_law(model, stat, -1)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_all(Model.MOTZKIN, 3)) == 4
        assert sum(1 for _ in enumerate_all(Model.DYCK, 3)) == 5
        assert sum(1 for _ in enumerate_all(Model.MOTZKIN, 0)) == 1

    def test_guard(self):
        with pytest.raises(SizeTooLarge):
            list(enumerate_all(Model.DYCK, 17))

    def test_grammar_is_not_enumerated(self):
        with pytest.raises(UnsupportedCombination, match="enumeration covers the uniform models only"):
            list(enumerate_all(Model.PFOLD, 3))

    @pytest.mark.parametrize("model", [Model.DYCK, Model.MOTZKIN])
    def test_negative_size_has_no_structures(self, model):
        assert list(enumerate_all(model, -1)) == []

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
    def test_negative_cap_is_rejected(self, model, stat):
        """A law ends where its support or _DEG_CAP ends it, so there is no
        cap to pass: any cap, negative or not, is refused, not ignored."""
        with pytest.raises(TypeError, match="cap"):
            conditional_law(model, stat, 60, cap=-1)

    @pytest.mark.parametrize("model, stat", LAW_PAIRS)
    def test_cap_is_the_largest_value_returned(self, model, stat):
        """UNP ends at n and HEL at n // stack_size, the largest values size
        n allows; DEG ends at _DEG_CAP once n // amin passes it."""
        amin, stack_size = {Model.DYCK: (1, 1), Model.MOTZKIN: (2, 2), Model.PFOLD: (4, 2)}[model]
        for n in (9, 60, 150, 1000):
            cap = {
                Stat.DEG: min(exact._DEG_CAP[model], n // amin),
                Stat.UNP: n,
                Stat.HEL: n // stack_size,
            }[stat]
            assert len(conditional_law(model, stat, n)) == cap + 1

    @given(
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        st.integers(1, 1500),
        st.integers(0, 2000),
    )
    # the grammar's HEL law here has mean about 664, far past any small fixed cap
    @example(0.7367, 0.6783, 0.9962, 904, 2000)
    @settings(max_examples=40, deadline=None)
    def test_every_law_keeps_its_mass(self, p1, p2, p3, n, m):
        """Every DEG, UNP and HEL law is nonnegative and sums to 1 within
        1e-12: the grammar's at length n and p, the uniform models' at size
        m.  Grammar lengths whose inside weight S[n] underflows raise
        ZeroMassLength (the high-rho underflow of ROADMAP item 1) and are
        assumed away."""
        p = PfoldParams(p1, p2, p3)
        try:
            exact._pfold_mass(p, n)
        except ZeroMassLength:
            assume(False)
        laws = [(model, stat, m, None) for model, stat in LAW_PAIRS if model is not Model.PFOLD]
        laws += [(Model.PFOLD, stat, n, p) for stat in (Stat.DEG, Stat.UNP, Stat.HEL)]
        for model, stat, size, q in laws:
            law = conditional_law(model, stat, size, q)
            assert law.min() >= 0, (model, stat)
            assert abs(law.sum() - 1) <= 1e-12, (model, stat)


# The dict builders that the array-backed tables replaced, kept as oracles:
# each reads the same kernel rows into a {key: weight} dict.


def _dyck_deg_entries_oracle(n):
    weights = exact._exterior_weights(exact._exterior(Model.DYCK, n, exact=True))
    return {l: w[0] for l, w in weights if w[0]}


def _motzkin_joint_entries_oracle(n):
    weights = exact._exterior_weights(exact._exterior(Model.MOTZKIN, n, exact=True))
    return {(l, k): c for l, w in weights for k, c in enumerate(w) if c}


def _pfold_joint_entries_oracle(n):
    rows = exact._exterior_weights(exact._exterior(Model.PFOLD, n))
    return {(k, l): w for l, row in rows for k, w in enumerate(row.tolist()) if w > 0.0}


def _first_arch_entries_oracle(model, stat, n):
    weights, _ = exact._first_arch_weights(model, stat, n, exact=True)
    return {(d or None): w for d, w in enumerate(weights) if w}


def _marginal_oracle(entries, i):
    marginal = {}
    for key, w in entries.items():
        marginal[key[i]] = marginal.get(key[i], 0) + w
    return marginal


ARRAY_TABLES = {
    "dyck-deg": (dyck_deg_counts, _dyck_deg_entries_oracle),
    "motzkin-joint": (motzkin_joint_counts, _motzkin_joint_entries_oracle),
    "motzkin-deg-marginal": (
        lambda n: motzkin_joint_counts(n).marginal("deg"),
        lambda n: _marginal_oracle(_motzkin_joint_entries_oracle(n), 0),
    ),
    "motzkin-unp-marginal": (
        lambda n: motzkin_joint_counts(n).marginal("unp"),
        lambda n: _marginal_oracle(_motzkin_joint_entries_oracle(n), 1),
    ),
    "pfold-joint": (pfold_joint_table, _pfold_joint_entries_oracle),
    **{
        f"{m.value}-{s.value}": (
            lambda n, m=m, s=s: hel_stm_counts(m, n, s),
            lambda n, m=m, s=s: _first_arch_entries_oracle(m, s, n),
        )
        for m, s in TABLE_PAIRS
    },
}


class TestArrayTables:
    """A table holds one weight array; its entries, key order and marginals
    must match the dict builders it replaced, bitwise."""

    @pytest.mark.parametrize("name", list(ARRAY_TABLES))
    def test_entries_match_deleted_dict_builders(self, name):
        build, oracle = ARRAY_TABLES[name]
        sizes = (1, 2, 5, 300, 2000) if name.startswith("pfold") else (0, 1, 2, 5, 300)
        for n in sizes:
            table, expected = build(n), oracle(n)
            assert table.entries == expected
            assert list(table.entries) == sorted(expected, key=_key_order)
            if table.model is not Model.PFOLD:
                assert all(type(w) is int for w in table.entries.values())

    def test_one_axis_marginal_is_the_table(self):
        table = dyck_deg_counts(5)
        assert table.marginal("deg") is table
        with pytest.raises(ValueError):
            table.marginal("unp")

    def test_grammar_csv_streams_from_the_array(self):
        """The n = 2000 grammar CSV (310014 lines) is written from the
        table's runs (2.4 MB), without its {key: weight} dict, which alone
        would take tens of MB, or a dense grid over its keys (7.6 MB)."""
        table, peak = _traced_write(lambda: pfold_joint_table(2000), "write_csv")
        assert peak < 4 * 2**20
        assert "entries" not in vars(table)

    def test_grammar_json_streams_from_the_runs(self):
        table, peak = _traced_write(lambda: pfold_joint_table(2000), "write_json")
        assert peak < 4 * 2**20
        assert "entries" not in vars(table)


def _traced_write(build, writer):
    """(table, traced peak bytes) of building a table and writing it to
    the null device."""
    tracemalloc.start()
    try:
        table = build()
        with open(os.devnull, "w") as null:
            getattr(table, writer)(null)
        return table, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The gapped tables have zeros inside their runs, which are not keys; no
# model's table at sizes up to 40 has one.  The empty table has no key at all.
_GAPPED = {(0, 1): 2, (0, 3): 1, (0, 4): 5, (2, 0): 4, (2, 6): 1}

WRITTEN_TABLES = {
    "dyck-deg-0": lambda: dyck_deg_counts(0),
    "dyck-deg": lambda: dyck_deg_counts(40),
    "dyck-hel-0": lambda: hel_stm_counts(Model.DYCK, 0, Stat.HEL),
    "dyck-hel": lambda: hel_stm_counts(Model.DYCK, 30, Stat.HEL),
    "motzkin-joint": lambda: motzkin_joint_counts(60),
    "motzkin-hel": lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.HEL),
    "motzkin-stm": lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.STM),
    "motzkin-stem-helices": lambda: hel_stm_counts(Model.MOTZKIN, 40, Stat.STEM_HELICES),
    "pfold-joint": lambda: pfold_joint_table(300),
    "pfold-hel": lambda: hel_stm_counts(Model.PFOLD, 300, Stat.HEL),
    "gapped-deg-unp": lambda: table_from_entries(Model.MOTZKIN, 9, ("deg", "unp"), _GAPPED),
    "gapped-unp-deg": lambda: table_from_entries(
        Model.PFOLD, 9, ("unp", "deg"), {(k, l): w / 8 for (l, k), w in _GAPPED.items()}
    ),
    "gapped-hel": lambda: table_from_entries(Model.MOTZKIN, 9, ("hel",), {None: 3, 2: 1, 5: 7}),
    "empty": lambda: table_from_entries(Model.MOTZKIN, 9, ("hel",), {}),
}


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

    @pytest.mark.parametrize("make", list(WRITTEN_TABLES.values()), ids=list(WRITTEN_TABLES))
    def test_csv_matches_csv_writer(self, make):
        table = make()
        buf = io.StringIO()
        table.write_csv(buf)
        assert buf.getvalue() == _csv_writer_oracle(table)
        assert buf.getvalue().count("\n") == 1 + len(table.entries)

    @pytest.mark.parametrize("make", list(WRITTEN_TABLES.values()), ids=list(WRITTEN_TABLES))
    def test_json_matches_json_dump(self, make):
        table = make()
        buf = io.StringIO()
        table.write_json(buf)
        assert buf.getvalue() == _json_dump_oracle(table)

    @pytest.mark.parametrize("make", list(WRITTEN_TABLES.values()), ids=list(WRITTEN_TABLES))
    def test_small_chunks_cut_rows_and_blocks(self, make, monkeypatch):
        # three cells a yield: long runs are cut, and an unp-first block holds one row
        table = make()
        whole = [io.StringIO(), io.StringIO()]
        table.write_csv(whole[0])
        table.write_json(whole[1])
        monkeypatch.setattr(exact, "_CSV_CHUNK", 3)
        cut = [io.StringIO(), io.StringIO()]
        table.write_csv(cut[0])
        table.write_json(cut[1])
        assert [buf.getvalue() for buf in cut] == [buf.getvalue() for buf in whole]
        assert list(table.entries.items()) == list(_run_entries(table).items())


def _run_entries(table):
    """{key: weight} read cell by cell off the runs: the absent bucket
    first, then ascending keys."""
    cells = {}
    for l, (start, w) in enumerate(table.runs):
        for j, v in enumerate(w.tolist()):
            if v:
                k = start + j
                cells[k if len(table.axes) == 1 else (l, k) if table.axes[0] == "deg" else (k, l)] = v
    return ({None: table.absent} if table.absent else {}) | dict(sorted(cells.items()))


def _key_order(key):
    """Output order: the absent bucket first, then ascending keys."""
    if key is None:
        return (0,)
    return (1,) + key if isinstance(key, tuple) else (1, key)


def _csv_writer_oracle(table):
    """The table through csv.writer, sorted with the absent bucket first."""

    def text(key):
        if key is None:
            return "absent"
        return ",".join(str(v) for v in key) if isinstance(key, tuple) else str(key)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "n", "stat_name", "stat_value", "weight"])
    name = ",".join(table.axes)
    for key in sorted(table.entries, key=_key_order):
        writer.writerow([table.model.value, table.size, name, text(key), table.entries[key]])
    return buf.getvalue()


def _json_dump_oracle(table):
    """The table's JSON as the exact command wrote it through json.dump."""

    def text(key):
        if key is None:
            return "absent"
        return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)

    payload = {
        "model": table.model.value,
        "n": table.size,
        "axes": list(table.axes),
        "entries": {text(k): w for k, w in table.entries.items()},
    }
    return json.dumps(payload, indent=2, default=float) + "\n"

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endprox import limits
from endprox.exact import DEFAULT_PFOLD, Model, PfoldParams, Stat, UnsupportedCombination
from endprox.limits import (
    JointNB,
    LenDist,
    NegBinomial,
    NoRootInRange,
    PfoldDerived,
    TolNotAchievable,
    dyck_ete_truncations,
    ete_limit_moments,
    limit_of,
    moments,
    pfold_rho_delta,
    pmf_expand,
    singularity_polynomial_coeffs,
)
from endprox.structure import DEFAULT_ETE
from exact_oracle import singularity_polynomial_factored


class TestRoot:
    def test_default_delta_range(self):
        d = pfold_rho_delta()
        assert 0.775 <= d.delta <= 0.780
        assert d.rho < 1 / math.sqrt(DEFAULT_PFOLD.p3)
        assert 1.0000 <= d.rho <= 1.0002 + 1e-4

    def test_residual(self):
        d = pfold_rho_delta(tol=1e-12)
        assert d.residual < 1e-10

    def test_cross_check_hel_success(self):
        d = pfold_rho_delta()
        assert 1 - d.rho**2 * DEFAULT_PFOLD.p3 == pytest.approx(0.212, abs=0.002)

    def test_expansion_matches_factored_form(self):
        # guards transcription of the expanded quartic
        import random

        rnd = random.Random(1)
        for _ in range(20):
            p = PfoldParams(rnd.uniform(0.05, 0.95), rnd.uniform(0.05, 0.95), rnd.uniform(0.05, 0.95))
            coeffs = singularity_polynomial_coeffs(p)
            z = rnd.uniform(0, 1.2)
            horner = sum(c * z**k for k, c in enumerate(coeffs))
            assert horner == pytest.approx(singularity_polynomial_factored(p, z), abs=1e-12)

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            pfold_rho_delta(tol=-1.0)


class TestLaws:
    def test_rational_constants(self):
        cases = {
            (Model.DYCK, Stat.DEG): (3, 4),
            (Model.MOTZKIN, Stat.DEG): (3, 4),
            (Model.MOTZKIN, Stat.UNP): (2, 4),
            (Model.MOTZKIN, Stat.CHN): (4, 12),
            (Model.MOTZKIN, Stat.LEN): (8, 28),
            (Model.DYCK, Stat.HEL): (Fraction(4, 3), Fraction(4, 9)),
            (Model.MOTZKIN, Stat.HEL): (Fraction(9, 8), Fraction(9, 64)),
            (Model.MOTZKIN, Stat.STM): (Fraction(4, 3), Fraction(4, 9)),
            (Model.MOTZKIN, Stat.STEM_HELICES): (Fraction(32, 27), Fraction(160, 729)),
        }
        for (model, stat), (mean, var) in cases.items():
            summary = moments(limit_of(model, stat))
            assert summary.mean == mean
            assert summary.variance == var
            assert summary.certified_error == 0

    def test_uniform_laws_are_exact_closed_forms(self):
        # the uniform models' laws as they were once stated one by one
        motzkin = JointNB(Fraction(1, 3), Fraction(1, 3))
        stated = {
            (Model.DYCK, Stat.DEG): NegBinomial(1, 2, Fraction(1, 2)),
            (Model.DYCK, Stat.HEL): NegBinomial(1, 1, Fraction(3, 4)),
            (Model.MOTZKIN, Stat.DEG): NegBinomial(1, 2, Fraction(1, 2)),
            (Model.MOTZKIN, Stat.UNP): NegBinomial(0, 2, Fraction(1, 2)),
            (Model.MOTZKIN, Stat.CHN): NegBinomial(0, 2, Fraction(1, 3)),
            (Model.MOTZKIN, Stat.HEL): NegBinomial(1, 1, Fraction(8, 9)),
            (Model.MOTZKIN, Stat.STM): NegBinomial(1, 1, Fraction(3, 4)),
            (Model.MOTZKIN, Stat.STEM_HELICES): NegBinomial(1, 1, Fraction(27, 32)),
            (Model.MOTZKIN, Stat.JOINT): motzkin,
            (Model.MOTZKIN, Stat.LEN): LenDist(motzkin),
        }
        for (model, stat), law in stated.items():
            got = limit_of(model, stat)
            assert got == law, (model, stat)
            joint = got.joint if isinstance(got, LenDist) else got
            params = [joint.p] if isinstance(joint, NegBinomial) else [joint.a, joint.b]
            assert all(type(x) is Fraction for x in params), (model, stat)

    @given(*[st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)] * 3)
    @settings(max_examples=100, deadline=None)
    def test_grammar_projections_match_closed_forms(self, p1, p2, p3):
        # the grammar laws as they were once stated in delta alone
        params = PfoldParams(p1, p2, p3)
        try:
            d = pfold_rho_delta(params).delta
        except NoRootInRange:
            assume(False)
        closed = {Stat.DEG: 1 / (1 + d), Stat.UNP: (1 - d) / (1 + d**2), Stat.CHN: (1 - d) / (1 + d)}
        for stat, p in closed.items():
            assert limit_of(Model.PFOLD, stat, params).p == pytest.approx(p, rel=1e-14, abs=0), stat
        joint = limit_of(Model.PFOLD, Stat.JOINT, params)
        assert (joint.a, joint.b) == (d, d * (1 - d) / (1 + d))

    def test_dyck_deg_pmf_prefix(self):
        law = limit_of(Model.DYCK, Stat.DEG)
        assert pmf_expand(law, 4) == pytest.approx([0.0, 0.25, 0.25, 0.1875, 0.125])

    def test_offset_geometric(self):
        law = NegBinomial(1, 1, Fraction(3, 4))
        assert law.pmf(0) == 0
        assert law.pmf(1) == Fraction(3, 4)
        assert law.pmf(2) == Fraction(3, 16)
        assert pmf_expand(law, 0) == [0.0]
        with pytest.raises(ValueError, match="kmax must be nonnegative"):
            pmf_expand(law, -1)

    def test_joint_pmf_values(self):
        joint = limit_of(Model.MOTZKIN, Stat.JOINT)
        assert joint.pmf(0, 1) == Fraction(1, 9)
        assert joint.pmf(1, 1) == Fraction(2, 27)
        assert joint.pmf(5, 0) == 0

    def test_joint_pmf_matches_formula(self):
        joint = limit_of(Model.MOTZKIN, Stat.JOINT)
        for i in range(6):
            for j in range(1, 6):
                expected = Fraction(math.comb(i + j - 1, i) * (i + j), 3 ** (i + j + 1))
                assert joint.pmf(i, j) == expected

    def test_pfold_parameter_shapes(self):
        d = pfold_rho_delta().delta
        deg = limit_of(Model.PFOLD, Stat.DEG)
        assert (deg.offset, deg.r) == (1, 2)
        assert deg.p == pytest.approx(1 / (1 + d))
        unp = limit_of(Model.PFOLD, Stat.UNP)
        assert unp.p == pytest.approx((1 - d) / (1 + d**2))
        chn = limit_of(Model.PFOLD, Stat.CHN)
        assert chn.p == pytest.approx((1 - d) / (1 + d))
        joint = limit_of(Model.PFOLD, Stat.JOINT)
        assert joint.a == pytest.approx(d)
        assert joint.b == pytest.approx(d * (1 - d) / (1 + d))

    def test_pfold_deg_shift(self):
        # success probability moves mass toward low degrees vs the uniform models
        law = limit_of(Model.PFOLD, Stat.DEG)
        assert round(float(law.p), 2) == 0.56
        p12 = float(law.pmf(1) + law.pmf(2))
        assert p12 > 0.5  # uniform models put exactly 0.5 on degrees 1 and 2

    def test_unsupported(self):
        for model, stat in [
            (Model.DYCK, Stat.UNP),
            (Model.DYCK, Stat.CHN),
            (Model.DYCK, Stat.LEN),
            (Model.PFOLD, Stat.STM),
            (Model.PFOLD, Stat.STEM_HELICES),
        ]:
            with pytest.raises(UnsupportedCombination):
                limit_of(model, stat)

    def test_normalization_all_default_laws(self):
        supported = [
            (Model.DYCK, Stat.DEG),
            (Model.DYCK, Stat.HEL),
            (Model.MOTZKIN, Stat.DEG),
            (Model.MOTZKIN, Stat.UNP),
            (Model.MOTZKIN, Stat.CHN),
            (Model.MOTZKIN, Stat.LEN),
            (Model.MOTZKIN, Stat.HEL),
            (Model.MOTZKIN, Stat.STM),
            (Model.MOTZKIN, Stat.STEM_HELICES),
            (Model.PFOLD, Stat.DEG),
            (Model.PFOLD, Stat.UNP),
            (Model.PFOLD, Stat.CHN),
            (Model.PFOLD, Stat.LEN),
            (Model.PFOLD, Stat.HEL),
        ]
        for model, stat in supported:
            total = sum(pmf_expand(limit_of(model, stat), 200))
            assert total >= 1 - 1e-9, (model, stat, total)


def _scalar_laws():
    """(model, stat, grammar) of every scalar law; the uniform models' laws
    do not depend on the grammar parameters."""
    for model in Model:
        for grammar in (None, PfoldParams(0.2, 0.9, 0.2)) if model is Model.PFOLD else (None,):
            for stat in Stat:
                try:
                    limit_of(model, stat, grammar)
                except UnsupportedCombination:
                    continue
                if stat is not Stat.JOINT:
                    name = f"{model.value}-{stat.value}{'-alt' if grammar else ''}"
                    yield pytest.param(model, stat, grammar, id=name)


class TestExpansion:
    @pytest.mark.parametrize("model,stat,grammar", _scalar_laws())
    def test_expansion_is_the_pmf_bit_for_bit(self, model, stat, grammar):
        law = limit_of(model, stat, grammar)
        # the rational len law's pmf sums O(k) Fraction terms a value, about
        # a minute to k = 2000, so that law is read to k = 300
        kmax = 300 if (model, stat) == (Model.MOTZKIN, Stat.LEN) else 2000
        values = pmf_expand(law, kmax)
        assert [v.hex() for v in values] == [float(law.pmf(k)).hex() for k in range(kmax + 1)]
        assert all(map(math.isfinite, values))


class TestJointConsistency:
    def test_marginals_match(self):
        for joint in (limit_of(Model.MOTZKIN, Stat.JOINT), limit_of(Model.PFOLD, Stat.JOINT)):
            deg_m = joint.deg_marginal()
            unp_m = joint.unp_marginal()
            for j in range(0, 40):
                from_joint = sum(float(joint.pmf(i, j)) for i in range(0, 200))
                assert from_joint == pytest.approx(float(deg_m.pmf(j)), abs=1e-9)
            for i in range(0, 40):
                from_joint = sum(float(joint.pmf(i, j)) for j in range(0, 200))
                assert from_joint == pytest.approx(float(unp_m.pmf(i)), abs=1e-9)

    def test_diagonal_starts_at_one(self):
        # deg >= 1, so unp + deg = 0 has no mass
        assert JointNB(0.2, 0.3).diagonal_pmf(0) == 0

    def test_pfold_deg_marginal_algebra(self):
        # substituting u = 1 must reproduce v / (1 + d - d v)^2
        d = pfold_rho_delta().delta
        joint = limit_of(Model.PFOLD, Stat.JOINT)
        law = joint.deg_marginal()
        assert law.p == pytest.approx(1 / (1 + d))
        assert law.offset == 1 and law.r == 2

    def test_chn_is_shifted_diagonal(self):
        for model in (Model.MOTZKIN, Model.PFOLD):
            joint = limit_of(model, Stat.JOINT)
            chn = limit_of(model, Stat.CHN)
            tv = 0.0
            for n in range(1, 300):
                tv += abs(float(joint.diagonal_pmf(n)) - float(chn.pmf(n - 1)))
            assert tv / 2 < 1e-9

    def test_len_is_weighted_sum(self):
        for model in (Model.MOTZKIN, Model.PFOLD):
            joint = limit_of(model, Stat.JOINT)
            length = limit_of(model, Stat.LEN)
            hist: dict[int, float] = {}
            for i in range(0, 120):
                for j in range(1, 60):
                    m = i + 2 * j
                    if m <= 80:
                        hist[m] = hist.get(m, 0.0) + float(joint.pmf(i, j))
            for m in range(0, 81):
                assert hist.get(m, 0.0) == pytest.approx(float(length.pmf(m)), abs=1e-9)

    def test_pfold_degenerates_to_motzkin(self, monkeypatch):
        # the grammar's joint law at delta = 1/2 projects to the Motzkin chn law
        monkeypatch.setattr(limits, "pfold_rho_delta", lambda p: PfoldDerived(rho=1.0, delta=0.5, residual=0.0))
        chn_half = limit_of(Model.PFOLD, Stat.CHN)
        motzkin = limit_of(Model.MOTZKIN, Stat.CHN)
        assert chn_half.p == pytest.approx(float(motzkin.p), abs=1e-15)
        assert (chn_half.offset, chn_half.r) == (motzkin.offset, motzkin.r)

    def test_product_identity_rational(self):
        stm = moments(limit_of(Model.MOTZKIN, Stat.STM)).mean
        hel = moments(limit_of(Model.MOTZKIN, Stat.HEL)).mean
        sh = moments(limit_of(Model.MOTZKIN, Stat.STEM_HELICES)).mean
        assert stm == sh * hel == Fraction(4, 3)


class TestMoments:
    def test_nb_moments_match_pmf_sums(self):
        law = NegBinomial(1, 2, 0.44)
        mean = sum(k * law.pmf(k) for k in range(400))
        var = sum(k * k * law.pmf(k) for k in range(400)) - mean**2
        summary = moments(law)
        assert summary.mean == pytest.approx(mean, abs=1e-9)
        assert summary.variance == pytest.approx(var, abs=1e-8)

    def test_len_moments_match_pmf_sums(self):
        law = limit_of(Model.PFOLD, Stat.LEN)
        mean = sum(k * float(law.pmf(k)) for k in range(600))
        var = sum(k * k * float(law.pmf(k)) for k in range(600)) - mean**2
        summary = moments(law)
        assert float(summary.mean) == pytest.approx(mean, abs=1e-6)
        assert float(summary.variance) == pytest.approx(var, abs=1e-4)

    def test_joint_rejected(self):
        with pytest.raises(UnsupportedCombination):
            moments(limit_of(Model.MOTZKIN, Stat.JOINT))
        with pytest.raises(UnsupportedCombination):
            pmf_expand(limit_of(Model.MOTZKIN, Stat.JOINT), 5)


class TestEteMoments:
    def test_dyck_truncations(self):
        assert dyck_ete_truncations(DEFAULT_ETE, 1e-3) == (20, 27)

    def test_dyck_values(self):
        summary = ete_limit_moments(Model.DYCK, tol=1e-3)
        assert float(summary.mean) == pytest.approx(2.893, abs=0.0025)
        assert float(summary.variance) == pytest.approx(1.42, abs=0.01)

    def test_dyck_spec_tol(self):
        summary = ete_limit_moments(Model.DYCK, tol=0.0025)
        assert float(summary.mean) == pytest.approx(2.893, abs=0.0025)

    def test_motzkin_values(self):
        summary = ete_limit_moments(Model.MOTZKIN, tol=4e-3)
        assert float(summary.mean) == pytest.approx(3.08, abs=0.01)
        assert float(summary.variance) == pytest.approx(1.56, abs=0.01)

    def test_pfold_values(self):
        summary = ete_limit_moments(Model.PFOLD, tol=4e-3)
        assert float(summary.mean) == pytest.approx(3.83, abs=0.01)
        assert float(summary.variance) == pytest.approx(2.23, abs=0.02)

    def test_oracle_fixed_large_truncation(self):
        """Brute sums at a fixed deep truncation agree within the certificate."""
        summary = ete_limit_moments(Model.MOTZKIN, tol=2e-3)
        joint = limit_of(Model.MOTZKIN, Stat.JOINT)
        e = DEFAULT_ETE.exponent
        mean = 0.0
        for i in range(0, 220):
            for j in range(1, 220 - i):
                w = float(joint.pmf(i, j))
                mean += w * math.sqrt(1.5**2 * j**e + 0.62**2 * (i + j - 1) ** e)
        assert float(summary.mean) == pytest.approx(mean, abs=2e-3)

    def test_tolerance_guard(self):
        with pytest.raises(ValueError):
            ete_limit_moments(Model.DYCK, tol=0.0)
        with pytest.raises(TolNotAchievable):
            ete_limit_moments(Model.PFOLD, tol=1e-280)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        """A NaN tol passed a bare tol <= 0 check and cut every sum at once."""
        for model in Model:
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                ete_limit_moments(model, tol=tol)

    @pytest.mark.parametrize("tol", [1e-300, 1e-320])
    def test_dyck_tail_bound_stops_inside_the_float_range(self, tol):
        """Dyck's tail bound divides by 2**k, which leaves the float range
        at k = 1024; the cut stops there instead of overflowing."""
        with pytest.raises(TolNotAchievable, match="tail bound does not reach tol"):
            ete_limit_moments(Model.DYCK, tol=tol)
        with pytest.raises(TolNotAchievable):
            dyck_ete_truncations(DEFAULT_ETE, tol)


class TestFiniteSizeConvergence:
    """Distance to the limit shrinks along the size ladder for every
    statistic with both a finite-size law and a limit law (degree is covered
    again, with more size points, by the acceptance suite)."""

    @pytest.mark.parametrize(
        "model,stat",
        [
            (Model.DYCK, Stat.DEG),
            (Model.MOTZKIN, Stat.DEG),
            (Model.PFOLD, Stat.DEG),
            (Model.MOTZKIN, Stat.UNP),
            (Model.PFOLD, Stat.UNP),
            (Model.DYCK, Stat.HEL),
            (Model.MOTZKIN, Stat.HEL),
            (Model.PFOLD, Stat.HEL),
        ],
    )
    def test_tv_strictly_decreasing(self, model, stat):
        from endprox.exact import conditional_law

        law = limit_of(model, stat)

        def tv(n: int) -> float:
            arr = conditional_law(model, stat, n)
            body = 0.0
            law_body = 0.0
            for k in range(len(arr)):
                pk = float(law.pmf(k))
                law_body += pk
                body += abs(arr[k] - pk)
            tail = max(0.0, 1 - float(arr.sum()))
            return 0.5 * body + 0.5 * abs(tail - max(0.0, 1 - law_body))

        values = [tv(n) for n in (250, 500, 1000, 2000)]
        assert all(a > b for a, b in zip(values, values[1:])), values

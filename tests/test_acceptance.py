"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or check captured output on failure).

Criterion 8b (the grammar sampler's joint (unp, deg) law at n=200 lies
within total variation 0.01 of the exact law) is measured on 1e6 draws.
The statistic is the plug-in TV between the empirical histogram and
``pfold_joint_probs(200)``, and it has a noise floor that no sampler can get
under, exact or not:

- the exact law has 4951 cells with positive mass; 242 of them hold 99% of
  it, and the long tail of rare cells is where a finite sample misses;
- a multinomial drawn straight from the exact law has expected plug-in TV
  0.0172 at 1e5 draws (spread 0.0009 over 200 replicates, largest 0.0197),
  so 1e5 draws cannot show TV < 0.01 even for an ideal sampler;
- at 1e6 draws the ideal expectation is 0.0055 (spread 0.0003, largest
  0.0064), which leaves the 0.01 threshold measurable.

Raising the count does not loosen the criterion.  If the sampler's true law
is q, the empirical histogram h has E[h] = q, and TV(., p) is convex, so by
Jensen's inequality E[TV(h, p)] >= TV(q, p): the plug-in TV overstates the
sampler's error at every count, and a pass still bounds that error by about
0.01.  The 8b line reports the ideal-draw floor at the count used, so a
pass shows its margin.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endprox import shuffling
from endprox.exact import (
    DEFAULT_PFOLD,
    Model,
    Stat,
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
    pfold_string_probability,
)
from endprox.limits import dyck_ete_truncations, ete_limit_moments, limit_of, moments, pfold_rho_delta
from endprox.sampling import RngHandle, sample_dyck_steps, sample_motzkin_steps, sample_pfold_many, step_rows_text
from endprox.structure import _STAT_FIELDS, DEFAULT_ETE, _Block, _columns, exterior_stats, parse_dot_bracket, to_dot_bracket
from structure_oracle import unp_deg_of_steps


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _measured(block: _Block, path: bool) -> dict[str, list]:
    """Every ExteriorStats column of all the block's records, from one call:
    along the shortest 5'-3' path, or by the exterior walk."""
    rows = np.arange(len(block.starts) - 1)
    return dict(zip(_STAT_FIELDS, _columns(block, rows, np.full(len(rows), path), DEFAULT_ETE)))


def _tv_against_law(arr: np.ndarray, law) -> float:
    body = 0.0
    law_body = 0.0
    for k in range(len(arr)):
        pk = float(law.pmf(k))
        law_body += pk
        body += abs(arr[k] - pk)
    return 0.5 * body + 0.5 * abs(max(0.0, 1 - arr.sum()) - max(0.0, 1 - law_body))


def test_criterion_01_table_constants():
    t0 = time.perf_counter()
    cases = {
        (Model.DYCK, Stat.DEG): (Fraction(3), Fraction(4)),
        (Model.MOTZKIN, Stat.DEG): (Fraction(3), Fraction(4)),
        (Model.MOTZKIN, Stat.UNP): (Fraction(2), Fraction(4)),
        (Model.MOTZKIN, Stat.CHN): (Fraction(4), Fraction(12)),
        (Model.MOTZKIN, Stat.LEN): (Fraction(8), Fraction(28)),
        (Model.DYCK, Stat.HEL): (Fraction(4, 3), Fraction(4, 9)),
        (Model.MOTZKIN, Stat.HEL): (Fraction(9, 8), Fraction(9, 64)),
        (Model.MOTZKIN, Stat.STEM_HELICES): (Fraction(32, 27), Fraction(160, 729)),
        (Model.MOTZKIN, Stat.STM): (Fraction(4, 3), Fraction(4, 9)),
    }
    ok = True
    for (model, stat), (mean, var) in cases.items():
        summary = moments(limit_of(model, stat))
        ok = ok and summary.mean == mean and summary.variance == var
    elapsed = time.perf_counter() - t0
    _report("1", ok and elapsed < 1.0, f"exact rational moments, {elapsed * 1e3:.1f} ms")


def test_criterion_02_pfold_defaults():
    t0 = time.perf_counter()
    derived = pfold_rho_delta()
    targets = {
        Stat.DEG: (2.55, 0.01, 2.76, 0.02),
        Stat.UNP: (12.39, 0.05, 89.19, 0.5),
        Stat.CHN: (13.95, 0.05, 111.21, 0.5),
        Stat.LEN: (17.50, 0.05, 138.76, 0.5),
        Stat.HEL: (4.71, 0.02, 17.51, 0.1),
    }
    details = [f"delta={derived.delta:.6f}"]
    ok = 0.775 <= derived.delta <= 0.780
    for stat, (mean, mtol, var, vtol) in targets.items():
        summary = moments(limit_of(Model.PFOLD, stat))
        ok = ok and abs(float(summary.mean) - mean) <= mtol
        ok = ok and abs(float(summary.variance) - var) <= vtol
        details.append(f"{stat.value}=({float(summary.mean):.3f},{float(summary.variance):.2f})")
    elapsed = time.perf_counter() - t0
    _report("2", ok and elapsed < 1.0, " ".join(details) + f", {elapsed:.2f} s")


def test_criterion_03_ete_moments():
    t0 = time.perf_counter()
    ok = dyck_ete_truncations(DEFAULT_ETE, 1e-3) == (20, 27)
    dyck = ete_limit_moments(Model.DYCK, tol=1e-3)
    ok = ok and abs(float(dyck.mean) - 2.893) <= 0.0025
    ok = ok and abs(float(dyck.variance) - 1.42) <= 0.01
    motzkin = ete_limit_moments(Model.MOTZKIN, tol=4e-3)
    ok = ok and abs(float(motzkin.mean) - 3.08) <= 0.01
    ok = ok and abs(float(motzkin.variance) - 1.56) <= 0.01
    pfold = ete_limit_moments(Model.PFOLD, tol=4e-3)
    ok = ok and abs(float(pfold.mean) - 3.83) <= 0.01
    ok = ok and abs(float(pfold.variance) - 2.23) <= 0.02
    elapsed = time.perf_counter() - t0
    _report(
        "3",
        ok and elapsed < 5.0,
        f"K=(20,27), dyck=({float(dyck.mean):.4f},{float(dyck.variance):.3f}), "
        f"motzkin=({float(motzkin.mean):.3f},{float(motzkin.variance):.3f}), "
        f"pfold=({float(pfold.mean):.3f},{float(pfold.variance):.3f}), {elapsed:.2f} s",
    )


def test_criterion_04_figure_regression():
    st = exterior_stats(parse_dot_bracket(".(...)..(...)."))
    ok = (st.deg, st.unp, st.len_ext) == (2, 4, 8) and abs(st.ete_nm - 2.80) <= 0.005
    _report("4", ok, f"deg={st.deg} unp={st.unp} len={st.len_ext} ete={st.ete_nm:.4f}")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    # every structure of a size measured by the exterior walk in one batch
    for n in range(0, 13):
        stats = _measured(_Block.of(list(enumerate_all(Model.MOTZKIN, n))), False)
        ok = ok and dict(Counter(zip(stats["deg"], stats["unp"]))) == motzkin_joint_counts(n).entries
        for stat in (Stat.HEL, Stat.STM, Stat.STEM_HELICES):
            ok = ok and dict(Counter(stats[stat.value])) == hel_stm_counts(Model.MOTZKIN, n, stat).entries
    for n in range(0, 11):
        stats = _measured(_Block.of(list(enumerate_all(Model.DYCK, n))), False)
        ok = ok and dict(Counter(stats["deg"])) == dyck_deg_counts(n).entries
        ok = ok and dict(Counter(stats["hel"])) == hel_stm_counts(Model.DYCK, n, Stat.HEL).entries
    elapsed = time.perf_counter() - t0
    _report("5", ok and elapsed < 30.0, f"motzkin n<=12, dyck n<=10, {elapsed:.1f} s")


def test_criterion_06_convergence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for model in (Model.DYCK, Model.MOTZKIN, Model.PFOLD):
        law = limit_of(model, Stat.DEG)
        tvs = [
            _tv_against_law(conditional_law(model, Stat.DEG, n), law)
            for n in (250, 500, 1000, 2000)
        ]
        ok = ok and all(a > b for a, b in zip(tvs, tvs[1:])) and tvs[-1] < 0.05
        details.append(f"{model.value}: " + "/".join(f"{v:.2e}" for v in tvs))
    elapsed = time.perf_counter() - t0
    _report("6", ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_07_pfold_conservation():
    n = 2000
    inside = pfold_inside(DEFAULT_PFOLD, n)
    totals = pfold_exterior_totals(DEFAULT_PFOLD, n)
    worst = float(np.abs(totals[1 : n + 1] - inside.S[1 : n + 1]).max())
    partial = float(inside.S[: n + 1].sum())
    ok = worst <= 1e-12 and partial <= 1.0
    _report("7", ok, f"max|sum-S|={worst:.2e}, partial sum={partial:.6f}")


def test_criterion_08a_sampler_exactness_small():
    t0 = time.perf_counter()
    n, count = 8, 1_000_000
    ok = True

    steps = sample_dyck_steps(n, count, RngHandle(101))
    freqs = Counter(map(bytes, steps.astype(np.int8)))
    p0 = 1 / catalan(n)
    se = math.sqrt(p0 * (1 - p0) / count)
    zd = max(abs(v / count - p0) / se for v in freqs.values())
    ok = ok and len(freqs) == catalan(n) and zd < 5

    steps = sample_motzkin_steps(n, count, RngHandle(102))
    freqs = Counter(map(bytes, steps))
    p0 = 1 / motzkin_number(n)
    se = math.sqrt(p0 * (1 - p0) / count)
    zm = max(abs(v / count - p0) / se for v in freqs.values())
    ok = ok and len(freqs) == motzkin_number(n) and zm < 5

    hist = Counter(step_rows_text(sample_pfold_many(n, count, rng=RngHandle(103))).splitlines())
    mass = pfold_inside(DEFAULT_PFOLD, n).S[n]
    support = {}
    for s in enumerate_all(Model.MOTZKIN, n):
        w = pfold_string_probability(s)
        if w > 0.0:
            support[to_dot_bracket(s)] = w / mass
    ok = ok and set(hist) <= set(support)
    zp = max(
        abs(hist.get(text, 0) / count - q) / math.sqrt(q * (1 - q) / count)
        for text, q in support.items()
    )
    ok = ok and zp < 5
    elapsed = time.perf_counter() - t0
    _report(
        "8a",
        ok,
        f"1e6 samples at size 8, max|z| dyck={zd:.2f} motzkin={zm:.2f} pfold={zp:.2f}, {elapsed:.0f} s",
    )


_JOINT_CHUNK = 100_000


def _pfold_joint_hist(n: int, count: int, seed: int) -> Counter:
    """(unp, deg) histogram of ``count`` grammar draws from one seeded stream.

    Draws go in chunks so that no more than ``_JOINT_CHUNK`` step rows are
    alive at once; a count up to one chunk is a single ``sample_pfold_many``
    call.
    """
    rng = RngHandle(seed)
    hist: Counter = Counter()
    for start in range(0, count, _JOINT_CHUNK):
        unp, deg = unp_deg_of_steps(sample_pfold_many(n, min(_JOINT_CHUNK, count - start), rng=rng))
        hist.update(zip(unp.tolist(), deg.tolist()))
    return hist


@given(st.sampled_from(["dyck", "motzkin", "pfold"]), st.integers(1, 120), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_unp_deg_reading_matches_partner_walk(model, n, seed):
    """Not a criterion: the step-row reading that criterion 8b histograms
    agrees with the exterior walk over the rows' partner tables, on rows
    from every sampler."""
    rng = RngHandle(seed)
    if model == "dyck":
        steps = sample_dyck_steps(n, 20, rng)
    elif model == "motzkin":
        steps = sample_motzkin_steps(n, 20, rng)
    else:
        steps = sample_pfold_many(n, 20, rng=rng)
    unp, deg = unp_deg_of_steps(steps)
    walked = _measured(_Block.from_steps(steps), False)
    assert (unp.tolist(), deg.tolist()) == (walked["unp"], walked["deg"])


def _joint_tv(hist: Counter, probs: dict, count: int) -> float:
    return 0.5 * sum(
        abs(hist.get(key, 0) / count - probs.get(key, 0.0)) for key in set(hist) | set(probs)
    )


def test_criterion_08b_pfold_joint_tv_as_stated():
    # 1e6 draws, not 1e5: at 1e5 an ideal sampler's plug-in TV sits near
    # 0.017, above the threshold (see module docstring).
    t0 = time.perf_counter()
    n, count = 200, 1_000_000
    probs = pfold_joint_probs(n)
    tv = _joint_tv(_pfold_joint_hist(n, count, 42), probs, count)
    pv = np.array(list(probs.values()))
    ideal = np.random.default_rng(7).multinomial(count, pv / pv.sum())
    floor = 0.5 * float(np.abs(ideal / count - pv).sum())
    elapsed = time.perf_counter() - t0
    _report(
        "8b",
        tv < 0.01,
        f"joint TV at n=200 with {count:,} samples = {tv:.4f} "
        f"(ideal-draw floor {floor:.4f}), {elapsed:.0f} s",
    )


def test_criterion_08b_evidence_sampler_is_ideal():
    """Not a criterion: the sampler's plug-in TV at 1e5 matches that of an
    ideal multinomial drawn directly from the exact law, so the value at that
    count is the noise floor, not sampler error; the ideal draw falls below
    0.01 at 1e6, the count criterion 8b uses."""
    n = 200
    probs = pfold_joint_probs(n)
    pv = np.array(list(probs.values()))
    rng = np.random.default_rng(7)
    oracle = rng.multinomial(100_000, pv / pv.sum())
    oracle_tv = 0.5 * float(np.abs(oracle / 100_000 - pv).sum())
    sampler_tv = _joint_tv(_pfold_joint_hist(n, 100_000, 43), probs, 100_000)
    big = rng.multinomial(1_000_000, pv / pv.sum())
    oracle_tv_1e6 = 0.5 * float(np.abs(big / 1_000_000 - pv).sum())
    print(
        f"EVIDENCE 8b: ideal TV(1e5)={oracle_tv:.4f}, sampler TV(1e5)={sampler_tv:.4f}, "
        f"ideal TV(1e6)={oracle_tv_1e6:.4f}"
    )
    assert abs(sampler_tv - oracle_tv) < 0.006
    assert oracle_tv_1e6 < 0.01


def test_criterion_09_shuffle():
    t0 = time.perf_counter()
    gen = RngHandle(31)
    npgen = np.random.default_rng(77)
    ok = True
    for _ in range(10_000):
        length = int(npgen.integers(3, 50))
        seq = "".join("ACGU"[i] for i in npgen.integers(0, 4, length))
        k = int(npgen.integers(1, 4))
        out = shuffling.klet_shuffle(seq, k, gen)
        ok = ok and len(out) == len(seq) and shuffling.validate_klets(seq, out, k)
    from itertools import permutations

    base = "AABABA"
    valid = {
        "".join(p)
        for p in set(permutations(base))
        if p[0] == base[0] and p[-1] == base[-1] and shuffling.validate_klets(base, "".join(p), 2)
    }
    count = 100_000
    freqs = Counter(shuffling.klet_shuffle(base, 2, gen) for _ in range(count))
    ok = ok and set(freqs) == valid
    p0 = 1 / len(valid)
    se = math.sqrt(p0 * (1 - p0) / count)
    zmax = max(abs(v / count - p0) / se for v in freqs.values())
    ok = ok and zmax < 5
    elapsed = time.perf_counter() - t0
    _report("9", ok, f"1e4 validate cases, uniformity max|z|={zmax:.2f} over {len(valid)} outputs, {elapsed:.0f} s")


def test_criterion_10_path_agreement():
    t0 = time.perf_counter()
    # the draws of sample_motzkin, measured as one block both ways
    rng = RngHandle(9)
    block = _Block.from_steps([sample_motzkin_steps(1 + (i % 120), 1, rng)[0] for i in range(10_000)])
    walk, path = _measured(block, False), _measured(block, True)
    mismatches = sum(any(walk[k][r] != path[k][r] for k in ("deg", "unp", "chn", "ete_nm")) for r in range(10_000))
    elapsed = time.perf_counter() - t0
    _report("10", mismatches == 0, f"{mismatches} mismatches over 1e4 structures, {elapsed:.0f} s")


def test_criterion_11_product_identity():
    stm = moments(limit_of(Model.MOTZKIN, Stat.STM)).mean
    hel = moments(limit_of(Model.MOTZKIN, Stat.HEL)).mean
    sh = moments(limit_of(Model.MOTZKIN, Stat.STEM_HELICES)).mean
    ok = stm == sh * hel == Fraction(4, 3)
    _report("11", ok, f"{sh} * {hel} = {sh * hel}")

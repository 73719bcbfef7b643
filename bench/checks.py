"""Output checks, computed apart from the program under test.

Each check takes the text a command printed and raises CheckFailed when it
is wrong.  Expected values come from closed forms, from the benchmark's own
scans of the text it generated, or from properties every correct output
has; no check compares with a stored copy of an earlier output.  The one
exception the method itself calls for is the grammar's exact deg mean,
taken from `endprox.exact.pfold_joint_probs`, a table that shares no code
with the sampler's traceback.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from inputs import partners

# distance model the CLI uses by default (--ete-b, --ete-c, --ete-exp, --ete-a)
ETE_B, ETE_C, ETE_EXP, ETE_A = 1.5, 0.62, 1.2, 0.75
ETE_BAND_EDGES = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]
LIMITS_TOL = 1e-3  # the CLI's default --tol for limits
REL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# closed forms


def ete_nm(deg: int, chn: int) -> float:
    return math.sqrt(ETE_B**2 * deg**ETE_EXP + ETE_C**2 * chn**ETE_EXP)


def ete_band(x: float) -> str:
    for lo, hi in zip(ETE_BAND_EDGES, ETE_BAND_EDGES[1:]):
        if lo <= x < hi:
            return f"{lo:g}-{hi:g}"
    return "other"


def motzkin_numbers(n: int) -> list[int]:
    """M_0..M_n by the three-term recurrence (m+2) M_m = (2m+1) M_{m-1} +
    3(m-1) M_{m-2}, not by the convolution the program uses."""
    out = [1, 1]
    for m in range(2, n + 1):
        value, rest = divmod((2 * m + 1) * out[m - 1] + 3 * (m - 1) * out[m - 2], m + 2)
        assert rest == 0
        out.append(value)
    return out[: n + 1]


def motzkin_mean_deg(n: int) -> float:
    """Exact mean top-level pair count of a uniform length-n dot-bracket
    string: [z^(n-2)] M(z)^3 / M_n."""
    mot = motzkin_numbers(n)
    square = [sum(mot[a] * mot[m - a] for a in range(m + 1)) for m in range(n - 1)]
    cube = sum(mot[a] * square[n - 2 - a] for a in range(n - 1))
    return float(Fraction(cube, mot[n]))


def dyck_mean_deg(n: int) -> float:
    return 3 * n / (n + 2)


def motzkin_joint_law(n: int, lmax: int = 60) -> dict[tuple[int, int], float]:
    """P(deg = l, unp = k) for a uniform length-n dot-bracket string, l <= lmax:
    C(k+l, k) [z^(n-k-2l)] M^l / M_n, in floats scaled by 3^-length (the mass
    past lmax is below 1e-15)."""
    m = np.zeros(n + 1)  # M_j / 3^j by the three-term recurrence
    m[0] = 1.0
    m[1] = 1 / 3
    for j in range(2, n + 1):
        m[j] = ((2 * j + 1) * m[j - 1] + (j - 1) * m[j - 2]) / (3 * (j + 2))
    law = {}
    power = np.zeros(n + 1)
    power[0] = 1.0
    for l in range(0, min(lmax, n // 2) + 1):
        if l:
            power = np.convolve(power, m)[: n + 1]
        kmax = n - 2 * l
        coef = np.ones(kmax + 1)  # C(k+l, k) 3^-k
        coef[1:] = np.cumprod((np.arange(1, kmax + 1) + l) / (3.0 * np.arange(1, kmax + 1)))
        cells = coef * power[kmax::-1] / 9.0**l / m[n]
        law.update({(l, k): float(p) for k, p in enumerate(cells) if p > 0.0})
    return law


def dyck_joint_law(n: int) -> dict[tuple[int, int], float]:
    total = math.comb(2 * n, n) // (n + 1)
    return {(k, 0): float(Fraction(ballot(n, k), total)) for k in range(1, n + 1)}


def chi_square_fits(values: list, law: dict, z: float = 5.0) -> tuple[float, float]:
    """(statistic, critical value) of a chi-square goodness-of-fit test of
    values against law, bins pooled to at least 5 expected.  The critical
    value is the Wilson-Hilferty quantile z standard deviations up (one-sided
    level about 3e-7 at z = 5)."""
    count = len(values)
    observed = Counter(values)
    require(set(observed) <= set(law), f"values outside the law's support: {set(observed) - set(law)}")
    bins: list[list[float]] = []
    expected = seen = 0.0
    for k in sorted(law):
        expected += law[k] * count
        seen += observed[k]
        if expected >= 5:
            bins.append([expected, seen])
            expected = seen = 0.0
    if bins:
        bins[-1][0] += expected
        bins[-1][1] += seen
    df = len(bins) - 1
    if df < 1:
        return 0.0, math.inf
    stat = sum((o - e) ** 2 / e for e, o in bins)
    crit = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    return stat, crit


def ballot(n: int, k: int) -> int:
    """Dyck paths of semilength n with k returns: k/(2n-k) C(2n-k, n)."""
    value, rest = divmod(k * math.comb(2 * n - k, n), 2 * n - k)
    assert rest == 0
    return value


def motzkin_joint_expected(n: int) -> dict[tuple[int, int], int]:
    """(deg, unp) -> C(k+l, k) [z^(n-k)] (z^2 M)^l, with l = deg, k = unp."""
    mot = motzkin_numbers(n)
    power = [1] + [0] * n  # coefficients of M^l, truncated at z^n
    out = {}
    for l in range(0, n // 2 + 1):
        if l:
            power = [sum(power[a] * mot[m - a] for a in range(m + 1)) for m in range(n + 1)]
        for k in range(0, n - 2 * l + 1):
            weight = math.comb(k + l, k) * power[n - k - 2 * l]
            if weight and (k + l):
                out[(l, k)] = weight
    return out


def grammar_mass(p1: float, p2: float, p3: float, n: int) -> float:
    """S(n): probability that the grammar S -> L S | L, L -> ( F ) | .,
    F -> ( F ) | L S emits a string of length n, by its inside recursion."""
    S, L, F, LS = (np.zeros(n + 1) for _ in range(4))
    for m in range(1, n + 1):
        LS[m] = float(np.dot(L[1:m], S[m - 1 : 0 : -1]))
        F[m] = (p3 * F[m - 2] if m >= 2 else 0.0) + (1 - p3) * LS[m]
        L[m] = (p2 * F[m - 2] if m >= 2 else 0.0) + ((1 - p2) if m == 1 else 0.0)
        S[m] = p1 * LS[m] + (1 - p1) * L[m]
    return float(S[n])


def grammar_delta(p1: float, p2: float, p3: float) -> float:
    """delta = p1 q2 rho, rho the smallest positive root of
    (1 - p1 q2 z)^2 (1 - p3 z^2) - 4 p2 q1 q2 q3 z^3."""
    alpha = p1 * (1 - p2)
    poly = np.polysub(
        np.polymul(np.polymul([-alpha, 1.0], [-alpha, 1.0]), [-p3, 0.0, 1.0]),
        [4 * p2 * (1 - p1) * (1 - p2) * (1 - p3), 0.0, 0.0, 0.0],
    )
    roots = np.roots(poly)
    rho = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    return alpha * rho


def dyck_ete_mean(terms: int = 400) -> float:
    return sum(
        n / 2 ** (n + 1) * math.sqrt(ETE_B**2 * n**ETE_EXP + ETE_C**2 * (n - 1) ** ETE_EXP)
        for n in range(1, terms)
    )


def bfs_distance(partner: list[int]) -> int:
    """Edges on a shortest path from the first to the last position over
    backbone links and pairs."""
    n = len(partner)
    dist = [-1] * n
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in (u - 1, u + 1, partner[u]):
                if 0 <= v < n and dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist[n - 1]


# ---------------------------------------------------------------------------
# dataset


@dataclass
class Expected:
    """What the benchmark knows about one generated record."""

    id: str
    group: str
    length: int
    crossing: bool
    deg: int = 0
    unp: int = 0
    hel: int | None = None
    path_edges: int = 0  # BFS distance, crossing records only


def expected_records(records: list[tuple[str, str, str]]) -> list[Expected]:
    out = []
    for rec_id, group, text in records:
        partner = partners(text)
        if "[" in text:
            out.append(Expected(rec_id, group, len(text), True, path_edges=bfs_distance(partner)))
            continue
        deg, unp = exterior_counts(text)
        first = text.find("(")
        hel = None
        if first >= 0:
            hel, i, j = 0, first, partner[first]
            while i < j and partner[i] == j:
                hel, i, j = hel + 1, i + 1, j - 1
        out.append(Expected(rec_id, group, len(text), False, deg, unp, hel))
    return out


_INT_FIELDS = ("length", "deg", "unp", "chn", "len_ext", "hel", "stm", "stem_helices")
SUMMARY_STATS = ("deg", "unp", "chn", "len_ext", "ete_nm", "rms_nm", "hel", "stm", "stem_helices")


@dataclass
class DatasetState:
    """Rows of the round's `stats` output, once checked; the summary,
    compare and heatmap checks of the same round recompute from them."""

    expected: list[Expected]
    rows: list[dict] = field(default_factory=list)


def check_stats(state: DatasetState, out: str, err: str) -> None:
    table = csv_rows(out)
    header, body = table[0], table[1:]
    require(len(body) == len(state.expected), f"{len(body)} rows for {len(state.expected)} records")
    require("skipped" not in err, "a record was skipped")
    rows = []
    for values, exp in zip(body, state.expected):
        row = dict(zip(header, values))
        for name in _INT_FIELDS:
            row[name] = int(row[name]) if row[name] != "" else None
        row["ete_nm"], row["rms_nm"] = float(row["ete_nm"]), float(row["rms_nm"])
        require(row["id"] == exp.id and row["group"] == exp.group, f"row order at {exp.id}")
        require(row["length"] == exp.length, f"{exp.id}: length")
        require(row["pseudoknotted"] == ("true" if exp.crossing else "false"), f"{exp.id}: crossing flag")
        deg, unp, chn = row["deg"], row["unp"], row["chn"]
        if exp.crossing:
            require(deg + chn == exp.path_edges, f"{exp.id}: deg+chn {deg + chn} != BFS {exp.path_edges}")
        else:
            require((deg, unp) == (exp.deg, exp.unp), f"{exp.id}: (deg, unp) {(deg, unp)} != {(exp.deg, exp.unp)}")
            require(chn == max(0, deg + unp - 1), f"{exp.id}: chn")
            require(row["hel"] == exp.hel, f"{exp.id}: hel")
        require(row["len_ext"] == 2 * deg + unp, f"{exp.id}: len_ext")
        require(close(row["ete_nm"], ete_nm(deg, chn)), f"{exp.id}: ete_nm")
        require(close(row["rms_nm"], ETE_A * math.sqrt(exp.length - 1)), f"{exp.id}: rms_nm")
        rows.append(row)
    state.rows = rows


def _rows(state: DatasetState) -> list[dict]:
    require(bool(state.rows), "no checked stats rows this round")
    return state.rows


def check_summary(state: DatasetState, out: str, err: str) -> None:
    blocks = {b["group"]: b for b in json.loads(out)}
    by_group: dict[str, list[dict]] = {}
    for row in _rows(state):
        by_group.setdefault(row["group"], []).append(row)
    require(set(blocks) == set(by_group), "summary groups differ from the records' groups")
    for group, members in by_group.items():
        block = blocks[group]
        require(block["n_structures"] == len(members), f"{group}: n_structures")
        for name in SUMMARY_STATS:
            values = [r[name] for r in members if r[name] is not None]
            if not values:
                require(name not in block["means"], f"{group}: {name} has no values")
                continue
            mu = sum(values) / len(values)
            var = sum((v - mu) ** 2 for v in values) / len(values)
            require(close(block["means"][name], mu), f"{group}: mean {name}")
            require(close(block["variances"][name], var, abs_tol=1e-9), f"{group}: variance {name}")


def check_compare(state: DatasetState, out: str, err: str) -> None:
    table = csv_rows(out)
    head = dict(zip(table[0], table[1]))
    degs = [r["deg"] for r in _rows(state)]
    delta = grammar_delta(0.868534, 0.105397, 0.787640)
    require(head["model"] == "pfold" and head["stat"] == "deg", "compare header")
    require(int(head["n_values"]) == len(degs) and int(head["n_skipped"]) == 0, "compare counts")
    require(close(float(head["empirical_mean"]), sum(degs) / len(degs)), "compare empirical mean")
    require(close(float(head["law_mean"]), 1 + 2 * delta), f"law mean {head['law_mean']} != 1+2*delta")
    require(0.0 <= float(head["tv"]) <= 1.0, "tv outside [0, 1]")
    require(table[2] == [] and table[3] == ["value", "empirical_prob", "law_pmf"], "compare bins header")
    hist = Counter(degs)
    p = 1 / (1 + delta)
    for value, emp, pmf in table[4:]:
        k = int(value)
        require(close(float(emp), hist[k] / len(degs)), f"compare bin {k}: empirical")
        law = k * p * p * (1 - p) ** (k - 1) if k >= 1 else 0.0
        require(close(float(pmf), law), f"compare bin {k}: law pmf")


def check_heatmap(state: DatasetState, out: str, err: str) -> None:
    table = csv_rows(out)
    require(table[0] == ["deg", "unp", "percent", "ete_band"], "heatmap header")
    rows = _rows(state)
    hist = Counter((r["deg"], r["unp"]) for r in rows)
    cells = {(int(d), int(u)): (float(pct), band) for d, u, pct, band in table[1:]}
    require(set(cells) == set(hist), "heatmap cells differ from the (deg, unp) histogram")
    require(close(sum(pct for pct, _ in cells.values()), 100.0), "heatmap percentages do not sum to 100")
    for (deg, unp), (pct, band) in cells.items():
        require(close(pct, 100.0 * hist[(deg, unp)] / len(rows)), f"heatmap cell {(deg, unp)}")
        require(band == ete_band(ete_nm(deg, max(0, deg + unp - 1))), f"heatmap band {(deg, unp)}")


# ---------------------------------------------------------------------------
# null model


def exterior_counts(text: str) -> tuple[int, int]:
    """(deg, unp) of a nested dot-bracket string by a depth-0 scan."""
    deg = unp = depth = 0
    for ch in text:
        if ch == "(":
            deg += depth == 0
            depth += 1
        elif ch == ")":
            depth -= 1
        else:
            unp += depth == 0
    return deg, unp


def _grammar_shaped(text: str, partner: list[int]) -> bool:
    """Every pair holds exactly one pair that fills it (F -> ( F )) or at
    least two items (F -> L S); the grammar emits nothing else."""
    for i, j in enumerate(partner):
        if j <= i:
            continue
        if partner[i + 1] == j - 1:
            continue
        items, k = 0, i + 1
        while k < j and items < 2:
            k = partner[k] + 1 if partner[k] > k else k + 1
            items += 1
        if items < 2:
            return False
    return True


def check_sample(out: str, model: str, length: int, count: int,
                 mean_deg: float | None, law: dict[tuple[int, int], float] | None) -> None:
    """count lines of the given length, balanced, of the model's shape; the
    sample mean of deg within 5 standard errors of the exact mean, and the
    sample's (deg, unp) histogram fitting the exact joint law (chi-square)."""
    lines = out.splitlines()
    require(len(lines) == count, f"{len(lines)} lines, expected {count}")
    cells = []
    for text in lines:
        require(len(text) == length, f"line of length {len(text)}, expected {length}")
        require(set(text) <= set("()."), "characters outside ().")
        depth = 0
        for ch in text:
            depth += (ch == "(") - (ch == ")")
            require(depth >= 0, "unbalanced brackets")
        require(depth == 0, "unbalanced brackets")
        if model == "dyck":
            require("." not in text, "dot in a Dyck structure")
        if model == "pfold":
            require(_grammar_shaped(text, partners(text)), "structure the grammar cannot emit")
        cells.append(exterior_counts(text))
    degs = [deg for deg, _ in cells]
    if mean_deg is not None:
        mu = sum(degs) / count
        se = math.sqrt(sum((d - mu) ** 2 for d in degs) / (count - 1) / count)
        require(abs(mu - mean_deg) <= 5 * se, f"deg mean {mu:.4f} vs exact {mean_deg:.4f} (se {se:.4f})")
    if law is not None:
        stat, crit = chi_square_fits(cells, law)
        require(stat <= crit, f"(deg, unp) histogram chi-square {stat:.1f} above {crit:.1f}")


def check_shuffle(out: str, records: list[tuple[str, str]]) -> None:
    lines = out.splitlines()
    require(len(lines) == 2 * len(records), "shuffle output has the wrong record count")
    for (rec_id, seq), head, shuffled in zip(records, lines[::2], lines[1::2]):
        require(head == f">{rec_id}_shuf1", f"shuffle id {head!r}")
        require(len(shuffled) == len(seq), f"{rec_id}: length")
        require(shuffled[0] == seq[0] and shuffled[-1] == seq[-1], f"{rec_id}: end letters")
        two_lets = Counter(seq[i : i + 2] for i in range(len(seq) - 1))
        require(Counter(shuffled[i : i + 2] for i in range(len(seq) - 1)) == two_lets, f"{rec_id}: 2-lets")


# ---------------------------------------------------------------------------
# tables


def _table(out: str, model: str, n: int, stat: str) -> dict[str, str]:
    table = csv_rows(out)
    require(table[0] == ["model", "n", "stat_name", "stat_value", "weight"], "table header")
    cells = {}
    for row_model, row_n, name, value, weight in table[1:]:
        require((row_model, int(row_n), name) == (model, n, stat), f"table row {row_model},{row_n},{name}")
        cells[value] = weight
    return cells


def check_dyck_deg(out: str, n: int) -> None:
    cells = {int(k): int(w) for k, w in _table(out, "dyck", n, "deg").items()}
    require(set(cells) == set(range(1, n + 1)), "Dyck deg values are not 1..n")
    for k, w in cells.items():
        require(w == ballot(n, k), f"Dyck deg {k}: {w} != ballot number")
    require(sum(cells.values()) == math.comb(2 * n, n) // (n + 1), "Dyck cells do not sum to Catalan(n)")


def check_motzkin_joint(out: str, n: int, expected: dict[tuple[int, int], int]) -> None:
    cells = {}
    for key, w in _table(out, "motzkin", n, "deg,unp").items():
        deg, unp = key.split(",")
        cells[(int(deg), int(unp))] = int(w)
    require(cells == expected, "Motzkin joint cells differ from C(k+l,k)[z^(n-k)](z^2 M)^l")


def check_motzkin_stm(out: str, n: int, motzkin_n: int) -> None:
    weights = [int(w) for w in _table(out, "motzkin", n, "stm").values()]
    require(all(w > 0 for w in weights), "non-positive Motzkin stm count")
    require(sum(weights) == motzkin_n, "Motzkin stm table does not sum to M_n")


def check_grammar_table(out: str, n: int, stat: str, mass: float) -> None:
    """Weights finite and non-negative, at least one positive (every length
    has positive mass), and summing to S(n) when S(n) is a normal double."""
    weights = [float(w) for w in _table(out, "pfold", n, stat).values()]
    require(bool(weights), f"empty grammar table at n={n}")
    require(all(math.isfinite(w) and w >= 0.0 for w in weights), "grammar weight not finite and non-negative")
    require(max(weights) > 0.0, f"no positive grammar weight at n={n}")
    if mass > np.finfo(float).tiny:
        require(close(math.fsum(weights), mass, rel=1e-9, abs_tol=0.0), f"grammar table sums to {math.fsum(weights)}, S(n)={mass}")


def check_limits_ete(out: str, model: str, dyck_mean: float) -> None:
    payload = json.loads(out)
    require(payload["model"] == model and payload["stat"] == "ete", "limits header")
    mean, var, err = payload["mean"], payload["variance"], payload["certified_error"]
    require(all(math.isfinite(v) for v in (mean, var, err)) and mean > 0 and var > 0, "limits moments")
    require(err <= LIMITS_TOL, f"certified_error {err} above tol")
    if model == "dyck":
        require(abs(mean - dyck_mean) <= LIMITS_TOL, f"Dyck ete mean {mean} vs direct sum {dyck_mean}")


def check_convergence(out: str) -> None:
    """Eight (model, stat) pairs on the sizes 250..2000; each TV in [0, 1]
    and shrinking about like 1/n, so at least 4x from 250 to 2000."""
    table = csv_rows(out)
    require(table[0] == ["model", "stat", "n", "tv"], "convergence header")
    tv: dict[tuple[str, str], dict[int, float]] = {}
    for model, stat, n, value in table[1:]:
        tv.setdefault((model, stat), {})[int(n)] = float(value)
    require(len(tv) == 8, f"{len(tv)} model/stat pairs, expected 8")
    for pair, by_n in tv.items():
        require(sorted(by_n) == [250, 500, 1000, 2000], f"{pair}: sizes")
        require(all(0.0 <= v <= 1.0 for v in by_n.values()), f"{pair}: tv outside [0, 1]")
        require(by_n[2000] < by_n[250] / 4, f"{pair}: tv does not shrink like 1/n")

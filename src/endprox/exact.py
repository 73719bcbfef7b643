"""Exact finite-size distributions of end-proximity statistics.

Three models over dot-bracket structures are supported: uniform balanced
bracketings (Dyck), uniform dot-bracket strings (Motzkin), and the
three-rule stochastic grammar

    S -> L S (p1) | L (q1)      L -> ( F ) (p2) | . (q2)
    F -> ( F ) (p3) | L S (q3)

with qi = 1 - pi.  In all three the exterior loop is one construction, a
sequence SEQ(dot | arch) of unpaired dots and arches "( ... )" (Flajolet &
Sedgewick, Analytic Combinatorics, I.2 and ch. III); one kernel over it gives
every (unp, deg) table.  Uniform-model tables hold arbitrary-precision
integers; grammar tables hold double-precision weights.  The small-n tables
double as brute-force oracles for the limit laws.  conditional_law evaluates
the same decompositions in scaled floating point; its deg and unp laws take
the same SEQ(dot | arch) parameters but go straight to each marginal by power
projection, so sizes in the thousands stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO, Iterator, Optional, Union

import numpy as np

from .structure import SecondaryStructure, parse_dot_bracket


class Model(str, Enum):
    DYCK = "dyck"
    MOTZKIN = "motzkin"
    PFOLD = "pfold"


class Stat(str, Enum):
    DEG = "deg"
    UNP = "unp"
    CHN = "chn"
    LEN = "len"
    ETE = "ete"
    HEL = "hel"
    STM = "stm"
    STEM_HELICES = "stem_helices"
    JOINT = "joint"


class UnsupportedCombination(ValueError):
    """Model/statistic pairing with no defined table or law."""


class ZeroMassLength(ValueError):
    """The grammar assigns zero probability to this output length."""


class SizeTooLarge(ValueError):
    """Exhaustive enumeration requested beyond the guard size."""


@dataclass(frozen=True)
class PfoldParams:
    """Grammar rule probabilities; the complements qi = 1 - pi are derived."""

    p1: float = 0.868534
    p2: float = 0.105397
    p3: float = 0.787640

    def __post_init__(self):
        for name in ("p1", "p2", "p3"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie strictly between 0 and 1")

    @property
    def q1(self) -> float:
        return 1 - self.p1

    @property
    def q2(self) -> float:
        return 1 - self.p2

    @property
    def q3(self) -> float:
        return 1 - self.p3


DEFAULT_PFOLD = PfoldParams()

TableKey = Union[int, tuple, None]


@dataclass(frozen=True)
class CountTable:
    """Exact distribution of one statistic (or statistic tuple) at one size.

    entries maps a statistic value to its weight: an integer count for the
    uniform models, a nonnegative real for the grammar.  None is the absent
    bucket (structures that do not carry the statistic, e.g. no pair at all).
    axes names the key components, e.g. ("deg", "unp"); a key of several
    axes is a tuple with one component per axis.
    """

    model: Model
    size: int
    axes: tuple[str, ...]
    entries: dict

    def total(self):
        return sum(self.entries.values())

    def ordered_keys(self) -> list:
        """Keys in output order: the absent bucket first, then ascending."""
        keys = sorted(key for key in self.entries if key is not None)
        return [None] + keys if None in self.entries else keys

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("model,n,stat_name,stat_value,weight\n")
        prefix = f"{self.model.value},{self.size},{_csv_field(','.join(self.axes))},"
        keys, entries = self.ordered_keys(), self.entries
        if keys and keys[0] is None:
            stream.write(f"{prefix}absent,{entries[None]!s}\n")
            keys = keys[1:]
        key_field = _csv_field(",".join(["%s"] * len(self.axes)))
        # chunked writes: one string per table would hold every line at once
        for start in range(0, len(keys), _CSV_CHUNK):
            chunk = keys[start : start + _CSV_CHUNK]
            stream.write("".join([f"{prefix}{key_field % key},{entries[key]!s}\n" for key in chunk]))


_CSV_CHUNK = 4096


def _csv_field(text: str) -> str:
    # csv's minimal quoting; axis names and keys never hold quotes or newlines
    return f'"{text}"' if "," in text else text


def _key_str(key: TableKey) -> str:
    if key is None:
        return "absent"
    if isinstance(key, tuple):
        return ",".join(map(str, key))
    return str(key)


# ---------------------------------------------------------------------------
# counting sequences


def catalan(n: int) -> int:
    if n < 0:
        return 0
    return math.comb(2 * n, n) // (n + 1)


_MOTZKIN: list[int] = [1, 1]


def motzkin_number(n: int) -> int:
    if n < 0:
        return 0
    while len(_MOTZKIN) <= n:
        m = len(_MOTZKIN)
        value = _MOTZKIN[m - 1] + sum(
            _MOTZKIN[j] * _MOTZKIN[m - 2 - j] for j in range(m - 1)
        )
        _MOTZKIN.append(value)
    return _MOTZKIN[n]


# ---------------------------------------------------------------------------
# the exterior sequence SEQ(dot | arch)


@dataclass(frozen=True, eq=False)
class _Exterior:
    """One model's exterior loop: a sequence of items, each a dot or an arch.

    At size n the weight of (unp = k, deg = l) is
    seq(k + l) * C(k + l, k) * dot**k * [z^(n - k)] arch**l, where
    seq(j) = head * step**(j - 1) (1 for the uniform models, p1^(j-1) q1 for
    the grammar) and arch[m] weighs one arch of size m >= amin.  An integer
    (object) arch makes every weight exact; it must be z^amin A with
    A = 1 / (1 - dot z - arch), as for the uniform models.
    """

    n: int
    dot: float
    amin: int
    arch: np.ndarray
    head: float = 1.0
    step: float = 1.0

    @property
    def exact(self) -> bool:
        return self.arch.dtype == object


def _arch_powers(ext: _Exterior) -> Iterator[np.ndarray]:
    """arch**l truncated at z^n, for l = 0, 1, ..., n // amin."""
    n, s = ext.n, ext.amin
    power = np.zeros(n + 1, dtype=ext.arch.dtype)
    power[0] = 1
    yield power
    if not ext.exact:
        # floats: convolution adds only nonnegative terms
        for l in range(1, n // s + 1):
            power = _truncated_product(power, s * (l - 1), ext.arch, s)
            yield power
        return
    # arch = z^s A and 1/A = 1 - dot z - arch give
    # arch^l = (1 - dot z) arch^(l-1) - z^s arch^(l-2): O(n^2) additions, but
    # the subtraction would cancel catastrophically in floats
    prev, power = power, ext.arch
    for l in range(1, n // s + 1):
        if l > 1:
            lo = s * l
            nxt = np.zeros(n + 1, dtype=object)
            nxt[lo:] = power[lo:] - ext.dot * power[lo - 1 : n] - prev[lo - s : n + 1 - s]
            prev, power = power, nxt
        yield power


def _truncated_product(a: np.ndarray, alo: int, b: np.ndarray, blo: int) -> np.ndarray:
    """a * b truncated like a, for float series that vanish below z^alo and
    z^blo: only the support is convolved, and only up to the last kept
    output."""
    n = len(a) - 1
    lo = alo + blo
    out = np.zeros(n + 1)
    if lo <= n:
        out[lo:] = np.convolve(a[alo : n + 1 - blo], b[blo : n + 1 - alo])[: n + 1 - lo]
    return out


def _over_one_minus(a: np.ndarray, x: float) -> np.ndarray:
    """a / (1 - x z) along the last axis, truncated like a: the recurrence
    out[m] = x out[m - 1] + a[m]."""
    out = np.array(a, dtype=float)
    if x:
        for m in range(1, out.shape[-1]):
            out[..., m] += x * out[..., m - 1]
    return out


def _power_projection(base: np.ndarray, blo: int, r: np.ndarray, top: int) -> np.ndarray:
    """<r, base**l> for l = 0 .. top, every power truncated at z^n (n + 1 =
    len(r)); base vanishes below z^blo, blo >= 1, and r and base are
    nonnegative.

    Baby steps base**j (j < J ~ sqrt(top + 1)), giant steps base**(J i), one
    transposed product r * base**(J i) each and one matrix product: about
    3 sqrt(top) truncated convolutions instead of top, all adding nonnegative
    terms (Shoup's power projection by the transposition principle).
    """
    n = len(r) - 1
    J = math.isqrt(top) + 1
    baby = np.zeros((J + 1, n + 1))
    baby[0, 0] = 1.0
    for j in range(1, J + 1):
        baby[j] = _truncated_product(baby[j - 1], blo * (j - 1), base, blo)
    # column i holds t[m] = sum_d r[m + d] giant[d], so <r, giant * baby_j> = baby_j . t
    steps = top // J + 1
    t = np.zeros((n + 1, steps))
    giant = baby[0]
    for i in range(steps):
        lo = blo * J * i
        if lo > n:
            break
        if i:
            giant = _truncated_product(giant, lo - blo * J, baby[J], blo * J)
        t[: n + 1 - lo, i] = np.convolve(r[lo:][::-1], giant[lo:])[: n + 1 - lo][::-1]
    return (baby[:J] @ t).T.reshape(-1)[: top + 1]


def _seq_coefs(ext: _Exterior, l: int) -> np.ndarray:
    """seq(k + l) * C(k + l, k) * dot**k for k = 0 .. n - amin*l (k = 0 only
    when there are no dots).  Past that bound the coefficients would only
    multiply structural zeros, and in floats they would overflow."""
    kmax = ext.n - ext.amin * l if ext.dot else 0
    if ext.exact:  # dot = 1 whenever kmax > 0
        coef = [1]
        for k in range(1, kmax + 1):
            coef.append(coef[-1] * (k + l) // k)
        return np.array(coef, dtype=object)
    # a running product keeps C(k + l, k) * dot**k inside the float range
    coef = np.empty(kmax + 1)
    coef[0] = ext.step ** (l - 1)
    ks = np.arange(1, kmax + 1)
    coef[1:] = coef[0] * np.cumprod(ext.step * ext.dot * (ks + l) / ks)
    return ext.head * coef


def _exterior_weights(ext: _Exterior) -> Iterator[tuple[int, np.ndarray]]:
    """(l, w) for l = 0, 1, ..., where w[k] is the weight of (unp = k,
    deg = l) at size n."""
    n = ext.n
    for l, power in enumerate(_arch_powers(ext)):
        coef = _seq_coefs(ext, l)
        yield l, coef * power[n + 1 - len(coef) : n + 1][::-1]


def _uniform_exterior(model: Model, n: int, exact: bool) -> tuple[_Exterior, float]:
    """Dyck by semilength (no dot, arch z C) or Motzkin by length (dot z,
    arch z^2 M), with the total weight at size n: integer counts, or floats
    with z = 1/4 or 1/3, which keeps the weights inside the float range."""
    dyck = model is Model.DYCK
    dot, amin, z = (0, 1, 0.25) if dyck else (1, 2, 1 / 3)
    if exact:
        count = catalan if dyck else motzkin_number
        counts, z = np.array([count(m) for m in range(n + 1)], dtype=object), 1
    else:
        counts = _scaled_catalan(n) if dyck else _scaled_motzkin(n)
    arch = np.zeros(n + 1, dtype=counts.dtype)
    arch[amin:] = z**amin * counts[: n + 1 - amin]
    return _Exterior(n, dot * z, amin, arch), counts[n]


# ---------------------------------------------------------------------------
# uniform-model tables


def dyck_deg_counts(n: int) -> CountTable:
    """Counts of semilength-n balanced bracketings by top-level pair count."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    weights = _exterior_weights(_uniform_exterior(Model.DYCK, n, exact=True)[0])
    return CountTable(Model.DYCK, n, ("deg",), {l: w[0] for l, w in weights if w[0]})


def motzkin_joint_counts(n: int) -> CountTable:
    """Counts of length-n dot-bracket strings keyed by (deg, unp)."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    weights = _exterior_weights(_uniform_exterior(Model.MOTZKIN, n, exact=True)[0])
    entries = {(l, k): c for l, w in weights for k, c in enumerate(w) if c}
    return CountTable(Model.MOTZKIN, n, ("deg", "unp"), entries)


@lru_cache(maxsize=None)
def _motzkin_deg_rows(n: int) -> tuple[dict, ...]:
    # single-variable DP, kept independent of the joint table on purpose
    rows: list[dict] = [{0: 1}]
    for m in range(1, n + 1):
        row = dict(rows[m - 1])
        for j in range(m - 1):
            c = motzkin_number(j)
            for l, w in rows[m - 2 - j].items():
                row[l + 1] = row.get(l + 1, 0) + c * w
        rows.append(row)
    return tuple(rows)


def motzkin_deg_counts(n: int) -> CountTable:
    """Deg marginal at length n via a DP that never tracks unp."""
    return CountTable(Model.MOTZKIN, n, ("deg",), dict(_motzkin_deg_rows(n)[n]))


# ---------------------------------------------------------------------------
# grammar inside weights


@dataclass(frozen=True)
class PfoldInside:
    """Inside weight arrays of the grammar up to length n.

    S[m], L[m], F[m] are the probabilities of each symbol producing a string
    of length exactly m; LS[m] is the length convolution of L and S; arch[m]
    is the weight of one exterior item "( F )" of total length m.
    """

    params: PfoldParams
    n: int
    S: np.ndarray
    L: np.ndarray
    F: np.ndarray
    LS: np.ndarray
    arch: np.ndarray


_INSIDE_CACHE: dict[PfoldParams, PfoldInside] = {}


def pfold_inside(p: PfoldParams, n: int) -> PfoldInside:
    cached = _INSIDE_CACHE.get(p)
    if cached is not None and cached.n >= n:
        return cached
    size = max(n, 256, 0 if cached is None else 2 * cached.n)
    S = np.zeros(size + 1)
    L = np.zeros(size + 1)
    F = np.zeros(size + 1)
    LS = np.zeros(size + 1)
    for m in range(1, size + 1):
        LS[m] = float(np.dot(L[1:m], S[m - 1:0:-1]))
        F[m] = (p.p3 * F[m - 2] if m >= 2 else 0.0) + p.q3 * LS[m]
        L[m] = (p.p2 * F[m - 2] if m >= 2 else 0.0) + (p.q2 if m == 1 else 0.0)
        S[m] = p.p1 * LS[m] + p.q1 * L[m]
    arch = np.zeros(size + 1)
    arch[2:] = p.p2 * F[: size - 1]
    inside = PfoldInside(p, size, S, L, F, LS, arch)
    _INSIDE_CACHE[p] = inside
    return inside


def _pfold_mass(p: PfoldParams, n: int) -> float:
    """S[n], the probability of a length-n output; positive at every n >= 1."""
    if n < 1:
        raise ZeroMassLength("grammar output has length at least 1")
    mass = pfold_inside(p, n).S[n]
    if not mass > 0.0:
        raise ZeroMassLength(f"the inside weight S[{n}] underflowed to {mass} at {p}")
    return mass


def _pfold_exterior(p: PfoldParams, n: int) -> _Exterior:
    """The grammar's exterior: dot q2, arch p2 ( F ) of length at least 4,
    seq(j) = p1^(j-1) q1."""
    return _Exterior(n, p.q2, 4, pfold_inside(p, n).arch[: n + 1], head=p.q1, step=p.p1)


def pfold_joint_table(n: int, p: PfoldParams = DEFAULT_PFOLD) -> CountTable:
    """Unconditional grammar weights keyed by (unp, deg); sums to S(n).

    The exterior is a sequence of items, each either a dot or an arch, so the
    weight of (k dots, l arches) factors into the item-order multinomial and
    the l-fold convolution of the arch weights.
    """
    _pfold_mass(p, n)
    entries = {
        (k, l): w
        for l, row in _exterior_weights(_pfold_exterior(p, n))
        for k, w in enumerate(row.tolist())
        if w > 0.0
    }
    return CountTable(Model.PFOLD, n, ("unp", "deg"), entries)


def pfold_joint_probs(n: int, p: PfoldParams = DEFAULT_PFOLD) -> dict[tuple[int, int], float]:
    """Conditional (unp, deg) distribution of the grammar at output length n."""
    mass = _pfold_mass(p, n)
    return {key: w / mass for key, w in pfold_joint_table(n, p).entries.items()}


def pfold_exterior_totals(p: PfoldParams, n: int) -> np.ndarray:
    """Sum of the exterior-tracking weights over (unp, deg) for every length
    up to n, computed from the item decomposition rather than the plain
    inside recursion; conservation demands it equal S elementwise.
    """
    ext = _pfold_exterior(p, n)
    totals = np.zeros(n + 1)
    for l, power in enumerate(_arch_powers(ext)):
        totals += np.convolve(_seq_coefs(ext, l), power)[: n + 1]
    totals[0] = 0.0  # seq(0) = 0: the grammar has no empty output
    return totals


def pfold_string_probability(
    structure: Union[str, SecondaryStructure], p: PfoldParams = DEFAULT_PFOLD
) -> float:
    """Probability that the grammar outputs exactly this dot-bracket string.

    The grammar is unambiguous, so the derivation (if any) is unique; strings
    it cannot produce get probability 0.  Used as an enumeration oracle for
    the length-indexed tables and the conditional sampler.
    """
    if isinstance(structure, SecondaryStructure):
        s = structure
    else:
        s = parse_dot_bracket(structure)
    if s.crossing:
        return 0.0
    match = s.partner

    def item_end(i: int) -> int:
        # end (exclusive, 0-based) of the first item of the span starting at i
        return i + 1 if match[i] == 0 else match[i]

    # The derivation is unique, so its probability is the product of the
    # rules it applies.  Walk it with an explicit stack of (symbol, i, j)
    # spans: recursion would nest as deep as the deepest helix.
    prob = 1.0
    work = [("S", 0, s.length)]
    while work:
        sym, i, j = work.pop()
        if sym == "S":
            if i >= j:
                return 0.0
            a = item_end(i)
            if a == j:
                prob *= p.q1
                work.append(("L", i, j))
            else:
                prob *= p.p1
                work.append(("L", i, a))
                work.append(("S", a, j))
        elif sym == "L":
            if j == i + 1 and match[i] == 0:
                prob *= p.q2
            elif match[i] == j:
                prob *= p.p2
                work.append(("F", i + 1, j - 1))
            else:
                return 0.0
        else:
            if j - i < 2:
                return 0.0
            if match[i] == j:
                prob *= p.p3
                work.append(("F", i + 1, j - 1))
            else:
                a = item_end(i)
                prob *= p.q3
                work.append(("L", i, a))
                work.append(("S", a, j))
    return prob


# ---------------------------------------------------------------------------
# first-helix / first-stem tables


@lru_cache(maxsize=None)
def _dyck_hel_rows(n: int) -> tuple[dict, ...]:
    # helper H assigns positive depth only to paths whose first and last
    # steps are matched; everything else sits in its 0 bucket
    hrows: list[dict] = [{0: 1}]
    for m in range(1, n + 1):
        row = {d + 1: w for d, w in hrows[m - 1].items()}
        notch = catalan(m) - catalan(m - 1)
        if notch:
            row[0] = row.get(0, 0) + notch
        hrows.append(row)
    rows: list[dict] = [{}]
    for m in range(1, n + 1):
        row: dict = {}
        for j in range(m):
            c = catalan(m - 1 - j)
            for d, w in hrows[j].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def _motzkin_hel_rows(n: int) -> tuple[dict, ...]:
    hrows: list[dict] = [{0: 1}]
    if n >= 1:
        hrows.append({0: motzkin_number(1)})
    for m in range(2, n + 1):
        row = {d + 1: w for d, w in hrows[m - 2].items()}
        notch = motzkin_number(m) - motzkin_number(m - 2)
        if notch:
            row[0] = row.get(0, 0) + notch
        hrows.append(row)
    rows: list[dict] = [{0: 1}]
    for m in range(1, n + 1):
        row = {d: w for d, w in rows[m - 1].items()}  # leading dot
        for j in range(m - 1):
            c = motzkin_number(m - 2 - j)
            for d, w in hrows[j].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return tuple(rows)


def _dots_squared_triple(n: int) -> list[int]:
    """Coefficients of z^4 * L^2 * M^3 with L the dot-run series."""
    mot = [motzkin_number(i) for i in range(n + 1)]
    m2 = [sum(mot[a] * mot[m - a] for a in range(m + 1)) for m in range(n + 1)]
    m3 = [sum(mot[a] * m2[m - a] for a in range(m + 1)) for m in range(n + 1)]
    out = [0] * (n + 1)
    for m in range(4, n + 1):
        out[m] = sum((a + 1) * m3[m - 4 - a] for a in range(m - 3))
    return out


@lru_cache(maxsize=None)
def _motzkin_stem_rows(n: int, by_helices: bool) -> tuple[dict, ...]:
    tail = _dots_squared_triple(n)
    star: list[dict] = []
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
    rows: list[dict] = [{0: 1}]
    for m in range(1, n + 1):
        row = dict(rows[m - 1])
        for a in range(m - 1):
            c = motzkin_number(m - 2 - a)
            for d, w in star[a].items():
                row[d + 1] = row.get(d + 1, 0) + c * w
        rows.append(row)
    return tuple(rows)


def _pfold_hel_weights(p: PfoldParams, n: int, hmax: Optional[int] = None) -> np.ndarray:
    """Weights of the length-n outputs by first-helix length h = 0 .. hmax;
    h = 0 is the no-pair bucket.

    Built from the helix-tracking rewrite of the grammar: the start symbol
    may emit leading dots, then the first "( F )" opens the helix and nested
    p3 productions extend it.  A helix of length h scales what follows it by
    p3^(h-1) and shifts it by its 2(h-1) inner brackets, so one series y
    serves every h: the weight is p3^(h-1) y[n - 2(h-1)].
    """
    inside = pfold_inside(p, n)
    S, LS = inside.S[: n + 1], inside.LS[: n + 1]
    if hmax is None:
        hmax = max(0, (n - 2) // 2)
    # row 0: dots only; row 1: the arch of a one-pair helix, closed by
    # F -> L S (q3), then the rest of the exterior (p1 S) or nothing (q1)
    rhs = np.zeros((2, n + 1))
    if n >= 1:
        rhs[0, 1] = p.q1 * p.q2
    ff = p.q3 * LS
    rhs[1, 2:] = p.p1 * p.p2 * np.convolve(ff, S)[: max(0, n - 1)]
    rhs[1, 2:] += p.q1 * p.p2 * ff[: n - 1]
    dots, y = _over_one_minus(rhs, p.p1 * p.q2)  # leading exterior dots
    h = np.arange(1, hmax + 1)
    return np.concatenate(([dots[n]], p.p3 ** (h - 1) * y[n - 2 * (h - 1)]))


def hel_stm_counts(
    model: Model, n: int, stat: Stat, p: Optional[PfoldParams] = None
) -> CountTable:
    """Finite-size table of a first-helix/first-stem statistic.

    Supported: Dyck x HEL, Motzkin x {HEL, STM, STEM_HELICES}, Pfold x HEL.
    The absent bucket (key None) collects structures with no pair.
    """
    if model is Model.DYCK and stat is Stat.HEL:
        row = _dyck_hel_rows(n)[n]
        entries = {(None if d == 0 else d): w for d, w in row.items() if w}
        if n == 0:
            entries = {None: 1}
        return CountTable(model, n, ("hel",), entries)
    if model is Model.MOTZKIN and stat is Stat.HEL:
        row = _motzkin_hel_rows(n)[n]
    elif model is Model.MOTZKIN and stat is Stat.STM:
        row = _motzkin_stem_rows(n, False)[n]
    elif model is Model.MOTZKIN and stat is Stat.STEM_HELICES:
        row = _motzkin_stem_rows(n, True)[n]
    elif model is Model.PFOLD and stat is Stat.HEL:
        _pfold_mass(p or DEFAULT_PFOLD, n)
        weights = _pfold_hel_weights(p or DEFAULT_PFOLD, n)
        entries = {(None if h == 0 else h): w for h, w in enumerate(weights) if w > 0.0}
        return CountTable(model, n, ("hel",), entries)
    else:
        raise UnsupportedCombination(f"no {stat.value} table for {model.value}")
    entries = {(None if d == 0 else d): w for d, w in row.items() if w}
    return CountTable(model, n, (stat.value,), entries)


# ---------------------------------------------------------------------------
# exhaustive enumeration (brute-force oracle)

ENUMERATION_GUARD = 16


def _dyck_strings(n: int) -> Iterator[str]:
    if n == 0:
        yield ""
        return
    for j in range(n):
        for inner in _dyck_strings(j):
            enclosed = "(" + inner + ")"
            for rest in _dyck_strings(n - 1 - j):
                yield enclosed + rest


def _motzkin_strings(n: int) -> Iterator[str]:
    if n == 0:
        yield ""
        return
    for rest in _motzkin_strings(n - 1):
        yield "." + rest
    for j in range(n - 1):
        for inner in _motzkin_strings(j):
            enclosed = "(" + inner + ")"
            for rest in _motzkin_strings(n - 2 - j):
                yield enclosed + rest


def enumerate_all(model: Model, n: int) -> Iterator[SecondaryStructure]:
    """Every structure of the given size exactly once.

    Dyck sizes are semilengths, Motzkin sizes are nucleotide counts.  Guarded
    at size 16 against exponential blowup.
    """
    if n > ENUMERATION_GUARD:
        raise SizeTooLarge(f"refusing to enumerate size {n} > {ENUMERATION_GUARD}")
    if model is Model.DYCK:
        strings = _dyck_strings(n)
    elif model is Model.MOTZKIN:
        strings = _motzkin_strings(n)
    else:
        raise UnsupportedCombination("enumeration covers the uniform models only")
    for text in strings:
        yield parse_dot_bracket(text)


# ---------------------------------------------------------------------------
# large-size conditional laws (floating point, scaled recurrences)


@lru_cache(maxsize=None)
def _scaled_motzkin(n: int) -> np.ndarray:
    """Motzkin counts scaled by 3^-length; same recurrence, float arrays."""
    x = 1.0 / 3.0
    mt = np.zeros(n + 1)
    mt[0] = 1.0
    for m in range(1, n + 1):
        arch = float(np.dot(mt[: m - 1], mt[m - 2 :: -1])) if m >= 2 else 0.0
        mt[m] = x * mt[m - 1] + x * x * arch
    return mt


@lru_cache(maxsize=None)
def _scaled_catalan(n: int) -> np.ndarray:
    x = 0.25
    ct = np.zeros(n + 1)
    ct[0] = 1.0
    for m in range(1, n + 1):
        ct[m] = ct[m - 1] * x * (4 * m - 2) / (m + 1)
    return ct


# largest value each law returns when no cap is given
_DEG_CAP = {Model.DYCK: 400, Model.MOTZKIN: 250, Model.PFOLD: 160}
_HEL_CAP = {Model.DYCK: 400, Model.MOTZKIN: 400, Model.PFOLD: 120}


def conditional_law(
    model: Model,
    stat: Stat,
    n: int,
    p: Optional[PfoldParams] = None,
    cap: Optional[int] = None,
) -> np.ndarray:
    """Conditional finite-size distribution of a statistic as a probability
    array indexed by value (index 0 doubles as the absent bucket for HEL).

    cap is the largest value of the statistic returned, in every branch; the
    defaults are 400 / 250 / 160 for DEG (Dyck / Motzkin / grammar), n for
    UNP and 400 / 400 / 120 for HEL, and no law runs past the largest value
    size n allows.  Mass beyond the cap (already below double precision at
    the defaults) is simply missing from the array.

    DEG and UNP come from the exterior sequence SEQ(dot | arch) by power
    projection: with x = step dot, the weight of deg = l is
    (head / step) <r, B^l> for B = step arch / (1 - x z), r[m] = x^(n - m),
    and the weight of unp = k is (head / step) <r, B^k> for B = x z D,
    r[m] = D[n - m], D = 1 / (1 - step arch), which sums over every deg.
    HEL evaluates the first-helix decompositions.  All of it runs in scaled
    floating point, so sizes up to a few thousand are cheap.
    """

    def top(default: int, largest: int) -> int:
        return min(default if cap is None else cap, largest)

    if stat is Stat.DEG or (stat is Stat.UNP and model is not Model.DYCK):
        if model is Model.PFOLD:
            params = p or DEFAULT_PFOLD
            ext, mass = _pfold_exterior(params, n), _pfold_mass(params, n)
        else:
            ext, mass = _uniform_exterior(model, n, exact=False)
        x = ext.step * ext.dot
        if stat is Stat.DEG:
            base = _over_one_minus(ext.step * ext.arch, x)
            law = _power_projection(
                base, ext.amin, x ** np.arange(n, -1, -1.0), top(_DEG_CAP[model], n // ext.amin)
            )
        else:
            runs = np.zeros(n + 1)  # D, by D[m] = sum_j step arch[j] D[m - j]
            runs[0] = 1.0
            item = ext.step * ext.arch
            for m in range(ext.amin, n + 1):
                runs[m] = np.dot(item[ext.amin : m + 1], runs[m - ext.amin :: -1])
            base = np.zeros(n + 1)
            base[1:] = x * runs[:n]
            law = _power_projection(base, 1, runs[::-1], top(n, n))
        return ext.head / ext.step * law / mass
    if model is Model.DYCK and stat is Stat.HEL:
        ct = _scaled_catalan(n)
        notch = ct.copy()
        notch[1:] -= ct[:-1] * 0.25
        w = np.convolve(notch, ct)[: n + 1]
        hcap = top(_HEL_CAP[model], n)
        out = np.zeros(hcap + 1)
        if n == 0:
            out[0] = 1.0
            return out
        for h in range(1, hcap + 1):
            out[h] = 0.25**h * w[n - h] / ct[n]
        return out
    if model is Model.MOTZKIN and stat is Stat.HEL:
        x = 1.0 / 3.0
        mt = _scaled_motzkin(n)
        notch = mt.copy()
        notch[2:] -= mt[:-2] * x * x
        w = np.convolve(notch, mt)[: n + 1]
        geo = x ** np.arange(n + 1)
        u = np.convolve(geo, w)[: n + 1]
        hcap = top(_HEL_CAP[model], max(1, n // 2))
        out = np.zeros(hcap + 1)
        out[0] = geo[n] / mt[n]
        for d in range(1, hcap + 1):
            if n - 2 * d >= 0:
                out[d] = x ** (2 * d) * u[n - 2 * d] / mt[n]
        return out
    if model is Model.PFOLD and stat is Stat.HEL:
        params = p or DEFAULT_PFOLD
        mass = _pfold_mass(params, n)
        return _pfold_hel_weights(params, n, top(_HEL_CAP[model], max(0, (n - 2) // 2))) / mass
    raise UnsupportedCombination(f"no conditional law for {model.value} x {stat.value}")

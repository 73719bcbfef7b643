"""Exact finite-size distributions of end-proximity statistics.

Three models over dot-bracket structures are supported: uniform balanced
bracketings (Dyck), uniform dot-bracket strings (Motzkin), and the
three-rule stochastic grammar

    S -> L S (p1) | L (q1)      L -> ( F ) (p2) | . (q2)
    F -> ( F ) (p3) | L S (q3)

with qi = 1 - pi.  In all three the exterior loop is one construction, a
sequence SEQ(dot | arch) of unpaired dots and arches "( ... )" (Flajolet &
Sedgewick, Analytic Combinatorics, I.2 and ch. III); one kernel over it gives
every (unp, deg) table.  The first-helix and first-stem statistics (hel, stm,
stem_helices; Hofacker, Schuster & Stadler 1998) belong to the first arch of
that sequence, and one first-arch split gives every table and law of them:
leading dots, the arch's pair, its contents, the rest of the exterior.  Each
statistic only supplies the continuation series cont by which the contents
extend it: a stacked pair for hel, a lone child pair between two dot runs for
stm, and for stem_helices a run of stacked pairs closed by a child pair with
a dot beside it.  A table (CountTable) holds the kernel's rows as they come,
each cut to the stretch from its first nonzero weight to its last:
arbitrary-precision integers (object arrays) for the uniform models, doubles
for the grammar.  Its CSV and JSON stream the nonzero cells in ascending key
order, straight from the runs where they are rows and through small dense
blocks where they are columns (the grammar's (unp, deg) table), and neither
a grid over the keys nor a {key: weight} dict is built unless asked for.
The small-n tables double as brute-force oracles for the limit laws.
conditional_law evaluates the same decompositions in scaled floating point;
its deg and unp laws take the same SEQ(dot | arch) parameters but go
straight to each marginal by power projection, so sizes in the thousands
stay cheap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import IO, Iterator, Optional, Union

import numpy as np

from .structure import SecondaryStructure, parse_dot_bracket, parse_dot_bracket_lines


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


@dataclass(frozen=True, eq=False)
class CountTable:
    """Exact distribution of one statistic (or statistic tuple) at one size.

    runs holds the weights as the kernels build them, in (start, w) pairs:
    w[j] weighs the key value start + j, and w runs from the first nonzero
    weight to the last (zeros inside a run are not keys).  A one-axis table
    has one run.  A two-axis table is keyed by deg and unp,
    in the order axes names them, e.g. ("deg", "unp"), and runs[l] is its
    unp run at deg l, one kernel row.  A weight is an integer count for the
    uniform models (Python ints in an object array, so they stay exact) and
    a finite nonnegative double for the grammar.  absent weighs the
    structures that do not carry the statistic (e.g. no pair at all); 0
    means the table has no absent bucket.  The table's keys are the cells of
    nonzero weight, and None for a nonzero absent bucket.

    The table keeps no grid over its keys: _cells, the one traversal in
    ascending key order, reads runs that are rows in place and fills dense
    blocks only for runs that are columns (unp first), at most _CSV_CHUNK
    cells at a time, so write_csv and write_json stream and sort nothing,
    and entries, the {key: weight} dict, is built only when asked for.
    """

    model: Model
    size: int
    axes: tuple[str, ...]
    runs: tuple[tuple[int, np.ndarray], ...]
    absent: Union[int, float] = 0

    def _cells(self) -> Iterator[tuple[Optional[int], list, list]]:
        """(head, tails, weights) of the nonzero cells in ascending key
        order, at most _CSV_CHUNK cells at a time.  A one-axis table gives
        head None and its keys as tails; a two-axis table gives the cells
        whose first key component is head, with the second components as
        tails."""
        if len(self.axes) == 1 or self.axes[0] == "deg":  # each run is a row
            heads = [None] if len(self.axes) == 1 else range(len(self.runs))
            for head, (start, w) in zip(heads, self.runs):
                for c in range(0, len(w), _CSV_CHUNK):
                    part = w[c : c + _CSV_CHUNK]
                    index = np.flatnonzero(part)
                    if len(index):
                        yield head, (index + (start + c)).tolist(), part[index].tolist()
            return
        # unp first: runs[l] is column l, so rows come from dense blocks
        height, width = max(s + len(w) for s, w in self.runs), len(self.runs)
        rows = max(1, _CSV_CHUNK // width)
        for top in range(0, height, rows):
            block = np.zeros((min(rows, height - top), width), dtype=self.runs[0][1].dtype)
            bottom = top + len(block)
            for l, (s, w) in enumerate(self.runs):
                lo, hi = max(s, top), min(s + len(w), bottom)
                if lo < hi:
                    block[lo - top : hi - top, l] = w[lo - s : hi - s]
            for head, row in enumerate(block, top):
                index = np.flatnonzero(row)
                if len(index):
                    yield head, index.tolist(), row[index].tolist()

    @cached_property
    def entries(self) -> dict:
        """{key: weight} of every key, in output order: the absent bucket
        first, then ascending."""
        entries = {None: self.absent} if self.absent else {}
        for head, tails, weights in self._cells():
            entries.update(zip(tails if head is None else [(head, t) for t in tails], weights))
        return entries

    def total(self):
        return self.absent + sum(sum(weights) for _, _, weights in self._cells())

    def marginal(self, axis: str) -> "CountTable":
        """The table of one axis, summing the weights over the others."""
        self.axes.index(axis)  # ValueError for an axis the table lacks
        if len(self.axes) == 1:
            return self
        dtype = self.runs[0][1].dtype
        if axis == "deg":  # a run's sum
            sums = np.array([w.sum() for _, w in self.runs], dtype=dtype)
        else:  # each run adds into its unp stretch
            sums = np.zeros(max(s + len(w) for s, w in self.runs), dtype=dtype)
            for s, w in self.runs:
                sums[s : s + len(w)] += w
        return CountTable(self.model, self.size, (axis,), (_run(sums),), self.absent)

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("model,n,stat_name,stat_value,weight\n")
        prefix = f"{self.model.value},{self.size},{_csv_field(','.join(self.axes))},"
        if self.absent:
            stream.write(f"{prefix}absent,{self.absent!s}\n")
        # one write per row of cells, whose key prefix is formatted once
        for head, tails, weights in self._cells():
            row, end = (prefix, ",") if head is None else (f'{prefix}"{head},', '",')
            stream.write("".join([f"{row}{t}{end}{w!s}\n" for t, w in zip(tails, weights)]))

    def write_json(self, stream: IO[str]) -> None:
        """The table as json.dump(..., indent=2) writes {"model", "n",
        "axes", "entries"}, entries keyed by the CSV's stat_value, then a
        newline.  Weights are finite, so their str is their JSON."""
        payload = {"model": self.model.value, "n": self.size, "axes": list(self.axes), "entries": {}}
        opening, closing = json.dumps(payload, indent=2).rsplit("{}", 1)
        stream.write(opening)
        sep = "{"  # before the next item: the opening brace, then commas
        if self.absent:
            stream.write(f'{sep}\n    "absent": {self.absent!s}')
            sep = ","
        for head, tails, weights in self._cells():
            row = '\n    "' if head is None else f'\n    "{head},'
            stream.write(sep + ",".join([f'{row}{t}": {w!s}' for t, w in zip(tails, weights)]))
            sep = ","
        stream.write(("{}" if sep == "{" else "\n  }") + closing + "\n")


# cells in one yield of _cells, a slice of a run or a dense block of an
# unp-first table: 64 KB of doubles, which the allocator hands back block
# after block, and few enough blocks that their per-run slicing stays cheap
_CSV_CHUNK = 1 << 13


def _run(w: np.ndarray, start: int = 0) -> tuple[int, np.ndarray]:
    """(first, weights) of w from its first nonzero entry to its last, with
    first counted from start; an all-zero w gives an empty run."""
    index = np.flatnonzero(w)
    if not len(index):
        return start, w[:0].copy()
    return start + int(index[0]), w[index[0] : index[-1] + 1].copy()


def _csv_field(text: str) -> str:
    # csv's minimal quoting; axis names and keys never hold quotes or newlines
    return f'"{text}"' if "," in text else text


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
    while len(_MOTZKIN) <= n:  # (m + 2) M(m) = (2m + 1) M(m - 1) + 3 (m - 1) M(m - 2)
        m = len(_MOTZKIN)
        _MOTZKIN.append(((2 * m + 1) * _MOTZKIN[m - 1] + 3 * (m - 1) * _MOTZKIN[m - 2]) // (m + 2))
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
    A = 1 / (1 - dot z - arch), as for the uniform models.  total[m] weighs
    every structure of size m: the counts A, or the grammar's S.  An arch is
    a pair of weight pair around its contents inner: arch = pair z^amin A
    (inner = A) for the uniform models, pair z^2 F (inner = F) for the
    grammar.  A stacked pair weighs stack and has size stack_size: one more
    arch (pair, amin) for the uniform models, F -> ( F ) (p3, 2) for the
    grammar.  head and step default to the integer 1, so exact weights stay
    integers.
    """

    n: int
    dot: float
    amin: int
    arch: np.ndarray
    inner: np.ndarray
    total: np.ndarray
    pair: float
    stack: float
    stack_size: int
    head: float = 1
    step: float = 1

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
    """a * b truncated like a, for series that vanish below z^alo and z^blo:
    only the support is convolved, and only up to the last kept output."""
    n = len(a) - 1
    lo = alo + blo
    out = np.zeros(n + 1, dtype=np.result_type(a, b))
    if lo <= n:
        out[lo:] = np.convolve(a[alo : n + 1 - blo], b[blo : n + 1 - alo])[: n + 1 - lo]
    return out


def _over_one_minus(a: np.ndarray, x: float, k: int = 1) -> np.ndarray:
    """a / (1 - x z^k), truncated like a: the recurrence
    out[m] = x out[m - k] + a[m], in a's dtype (exact for integers)."""
    out = np.array(a)
    if x:
        for m in range(k, len(out)):
            out[m] += x * out[m - k]
    return out


def _power_projection(base: np.ndarray, blo: int, r: np.ndarray, top: int) -> np.ndarray:
    """<r, base**l> for l = 0 .. top, every power truncated at z^n (n + 1 =
    len(r)); base vanishes below z^blo, blo >= 1, top <= n // blo, and r and
    base are nonnegative.

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
        if i:
            giant = _truncated_product(giant, lo - blo * J, baby[J], blo * J)
        t[: n + 1 - lo, i] = np.convolve(r[lo:][::-1], giant[lo:])[: n + 1 - lo][::-1]
    return (baby[:J] @ t).T.reshape(-1)[: top + 1]


def _seq_coefs(ext: _Exterior, l: int, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coef, power): coef[k] = seq(k + l) * C(k + l, k) * dot**k for
    k = 0 .. n - amin*l (k = 0 only when there are no dots), and the arch
    power arch**l that it multiplies.  Past that bound the coefficients
    would only multiply structural zeros.

    In floats a running product builds C(k + l, k) * (step dot)**k.  From
    n ~ 3250 at the default grammar it would pass 2**1024 while every weight
    coef[k] * power[m] stays below 1, so then coef comes back scaled by
    2**-shift, with its peak near 2**1000, and power by 2**shift.  Scaling
    by a power of two is exact in the normal float range, so the weights
    are the products they were.
    """
    kmax = ext.n - ext.amin * l if ext.dot else 0
    if ext.exact:  # dot = 1 whenever kmax > 0
        coef = [1]
        for k in range(1, kmax + 1):
            coef.append(coef[-1] * (k + l) // k)
        return np.array(coef, dtype=object), power
    coef = np.empty(kmax + 1)
    coef[0] = ext.step ** (l - 1)
    ks = np.arange(1, kmax + 1)
    ratios = ext.step * ext.dot * (ks + l) / ks
    shift = max(0, math.ceil(np.log2(ratios).cumsum().max(initial=0.0)) - 1000)
    ratios[:1] = np.ldexp(ratios[:1], -shift)
    coef[1:] = coef[0] * np.cumprod(ratios)
    coef[0] = np.ldexp(coef[0], -shift)
    return ext.head * coef, np.ldexp(power, shift)


def _exterior_weights(ext: _Exterior) -> Iterator[tuple[int, np.ndarray]]:
    """(l, w) for l = 0, 1, ..., where w[k] is the weight of (unp = k,
    deg = l) at size n."""
    n = ext.n
    for l, power in enumerate(_arch_powers(ext)):
        coef, power = _seq_coefs(ext, l, power)
        yield l, coef * power[n + 1 - len(coef) : n + 1][::-1]


def _exterior(model: Model, n: int, p: Optional[PfoldParams] = None, exact: bool = False) -> _Exterior:
    """The model's exterior at size n.  Dyck by semilength (no dot, arch
    z C) or Motzkin by length (dot z, arch z^2 M): integer counts if exact,
    else floats with z = 1/4 or 1/3, which keeps the weights inside the
    float range.  The grammar (p, default DEFAULT_PFOLD) by length: dot q2,
    arch p2 ( F ) of length at least 4, seq(j) = p1^(j-1) q1, in floats
    always, and its weight at n is checked positive."""
    if model is Model.PFOLD:
        p = p or DEFAULT_PFOLD
        _pfold_mass(p, n)
        inside = pfold_inside(p, n)
        arch, inner, total = inside.arch[: n + 1], inside.F[: n + 1], inside.S[: n + 1]
        return _Exterior(n, p.q2, 4, arch, inner, total, p.p2, p.p3, 2, head=p.q1, step=p.p1)
    dyck = model is Model.DYCK
    if n < 0:
        raise ValueError(f"{'semi' if dyck else ''}length must be nonnegative")
    dot, amin, z = (0, 1, 0.25) if dyck else (1, 2, 1 / 3)
    if exact:
        count = catalan if dyck else motzkin_number
        counts, z = np.array([count(m) for m in range(n + 1)], dtype=object), 1
    else:
        counts = _scaled_catalan(n) if dyck else _scaled_motzkin(n)
    arch = np.zeros(n + 1, dtype=counts.dtype)
    pair = z**amin
    arch[amin:] = pair * counts[: n + 1 - amin]
    return _Exterior(n, dot * z, amin, arch, counts, counts, pair, pair, amin)


# ---------------------------------------------------------------------------
# uniform-model tables


def dyck_deg_counts(n: int) -> CountTable:
    """Counts of semilength-n balanced bracketings by top-level pair count."""
    weights = _exterior_weights(_exterior(Model.DYCK, n, exact=True))
    return CountTable(Model.DYCK, n, ("deg",), (_run(np.array([w[0] for _, w in weights], dtype=object)),))


def motzkin_joint_counts(n: int) -> CountTable:
    """Counts of length-n dot-bracket strings keyed by (deg, unp)."""
    runs = tuple(_run(w) for _, w in _exterior_weights(_exterior(Model.MOTZKIN, n, exact=True)))
    return CountTable(Model.MOTZKIN, n, ("deg", "unp"), runs)


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
    """S[n], the probability of a length-n output; positive at every n >= 1.

    A subnormal S[n] counts as underflowed: the tables built from it have
    lost most of their bits."""
    if n < 1:
        raise ZeroMassLength("grammar output has length at least 1")
    mass = pfold_inside(p, n).S[n]
    if not mass >= np.finfo(float).tiny:
        raise ZeroMassLength(f"the inside weight S[{n}] underflowed to {mass} at {p}")
    return mass


def pfold_joint_table(n: int, p: PfoldParams = DEFAULT_PFOLD) -> CountTable:
    """Unconditional grammar weights keyed by (unp, deg); sums to S(n).

    The exterior is a sequence of items, each either a dot or an arch, so the
    weight of (k dots, l arches) factors into the item-order multinomial and
    the l-fold convolution of the arch weights.
    """
    runs = tuple(_run(w) for _, w in _exterior_weights(_exterior(Model.PFOLD, n, p)))
    return CountTable(Model.PFOLD, n, ("unp", "deg"), runs)


def pfold_joint_probs(n: int, p: PfoldParams = DEFAULT_PFOLD) -> dict[tuple[int, int], float]:
    """Conditional (unp, deg) distribution of the grammar at output length n."""
    mass = _pfold_mass(p, n)
    return {key: w / mass for key, w in pfold_joint_table(n, p).entries.items()}


def pfold_exterior_totals(p: PfoldParams, n: int) -> np.ndarray:
    """Sum of the exterior-tracking weights over (unp, deg) for every length
    up to n, computed from the item decomposition rather than the plain
    inside recursion; conservation demands it equal S elementwise.  Like
    the tables, it raises ZeroMassLength where S[n] is zero or underflowed.
    """
    ext = _exterior(Model.PFOLD, n, p)
    totals = np.zeros(n + 1)
    for l, power in enumerate(_arch_powers(ext)):
        coef, power = _seq_coefs(ext, l, power)
        totals += _truncated_product(np.pad(coef, (0, n + 1 - len(coef))), 0, power, ext.amin * l)
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
# first-arch statistics: first helix and first stem


def _first_arch_weights(
    model: Model,
    stat: Stat,
    n: int,
    p: Optional[PfoldParams] = None,
    exact: bool = False,
) -> tuple[np.ndarray, float]:
    """(w, total): w[d] is the weight at size n of the structures whose first
    arch has statistic value d, for d = 0 .. n // stack_size, past which no
    value fits in size n, and w[0] that of the dots-only structure; total
    weighs every structure of size n.

    A structure splits at its first arch: leading dots, the arch's pair, its
    contents, then the rest of the exterior.  The contents extend the
    statistic by one through a continuation series cont, or end it, so

        w[d] = [z^n] lead * pair * inner (1 - cont) * cont^(d - 1) * rest

    with lead = 1 / (1 - step dot z) and rest = head + step * (exterior
    total).  The arch pair * inner is z^amin A for a uniform model (rest = A
    too) and p2 z^2 F for the grammar (rest = q1 + p1 S).  cont = c z^s
    ratio(z) is, for
      HEL            pair z^amin (uniform) or p3 z^2 (grammar): a stacked pair;
      STM            pair z^2 L^2, L = 1 / (1 - dot z): the only child pair,
                     between two dot runs (Motzkin);
      STEM_HELICES   pair z^2 (L^2 - 1) / (1 - pair z^2): stacked pairs, then
                     a child pair with a dot beside it (Motzkin).
    Multiplying by ratio takes a few O(n) recurrences.  In exact integers
    the model's equation A = 1 + dot z A + z^s A^2 gives inner * rest = A^2
    without a product, so an exact table costs O(n^2) additions; floats
    take one truncated product.
    """
    if not (stat is Stat.HEL or model is Model.MOTZKIN and stat in (Stat.STM, Stat.STEM_HELICES)):
        raise UnsupportedCombination(f"no {stat.value} table or law for {model.value}")
    ext = _exterior(model, n, p, exact)
    c, s = ext.stack, ext.stack_size

    def runs(u):  # L^2 u
        return _over_one_minus(_over_one_minus(u, ext.dot), ext.dot)

    ratio = {
        Stat.HEL: lambda u: u,
        Stat.STM: runs,
        Stat.STEM_HELICES: lambda u: _over_one_minus(runs(u) - u, c, s),
    }[stat]

    # ratio(u) rest = ratio(u rest); in exact integers inner = rest = A, and
    # the model's equation gives A^2 = (A - 1 - dot z A) / z^s
    inner = ext.inner[s:] - ext.dot * ext.inner[s - 1 : n] if ext.exact else ext.inner
    ends = inner.copy()  # inner (1 - cont): contents that end the statistic
    ends[s:] -= c * ratio(inner[: max(0, len(inner) - s)])
    u = np.zeros_like(ext.inner)
    if ext.exact:
        u[s:] = ext.pair * ends
    else:
        rest = ext.step * ext.total
        rest[0] = ext.head
        u[s:] = ext.pair * _truncated_product(ends[: n + 1 - s], 0, rest[: n + 1 - s], 0)
    u = _over_one_minus(u, ext.step * ext.dot)
    top = n // s
    w = np.zeros(top + 1, dtype=u.dtype)
    # dots only; at n = 0 the empty structure (the grammar has no empty output)
    w[0] = ext.head * ext.dot * (ext.step * ext.dot) ** (n - 1) if n else 1
    for d in range(1, top + 1):
        m = n - s * (d - 1)  # [z^n] cont^(d - 1) u = c^(d - 1) [z^m] ratio^(d - 1) u
        if m < s:
            break
        w[d] = c ** (d - 1) * u[m]
        u = ratio(u[: m - s + 1])
    return w, ext.total[n]


def hel_stm_counts(
    model: Model, n: int, stat: Stat, p: Optional[PfoldParams] = None
) -> CountTable:
    """Finite-size table of a first-arch statistic: the first helix's pair
    count (HEL), the first stem's pair count (STM) or its helix count
    (STEM_HELICES).

    Supported: Dyck x HEL, Motzkin x {HEL, STM, STEM_HELICES}, Pfold x HEL.
    Uniform tables hold exact counts, the grammar's table unconditional
    weights that sum to S(n).  The absent bucket (key None) collects
    structures with no pair.

    Every table splits the structures at their first arch (leading dots, the
    arch's pair, its contents, the rest of the exterior), and the weight of
    value d is [z^n] lead * pair * inner (1 - cont) * cont^(d - 1) * rest
    (_first_arch_weights).  Each statistic supplies only cont, the series by
    which the contents extend it: a stacked pair for HEL; for STM the only
    child pair between two dot runs, pair z^2 L^2 with L = 1 / (1 - dot z);
    for STEM_HELICES stacked pairs closed by a child pair with a dot beside
    it, pair z^2 (L^2 - 1) / (1 - pair z^2).
    """
    weights, _ = _first_arch_weights(model, stat, n, p, exact=True)
    return CountTable(model, n, (stat.value,), (_run(weights[1:], 1),), weights[0])


# ---------------------------------------------------------------------------
# exhaustive enumeration (brute-force oracle)

ENUMERATION_GUARD = 16


def _exterior_strings(n: int, dots: bool, pair: int) -> Iterator[str]:
    """Every sequence of items of total size n, each a dot (size 1, only if
    dots) or an arch "( ... )" (pair plus its contents' size): those led by
    a dot first, then by the size of the first arch's contents."""
    if n == 0:
        yield ""
    if n < 1:
        return
    if dots:
        for rest in _exterior_strings(n - 1, dots, pair):
            yield "." + rest
    for j in range(n - pair + 1):
        for inner in _exterior_strings(j, dots, pair):
            enclosed = "(" + inner + ")"
            for rest in _exterior_strings(n - pair - j, dots, pair):
                yield enclosed + rest


def enumerate_all(model: Model, n: int) -> Iterator[SecondaryStructure]:
    """Every structure of the given size exactly once.

    Dyck sizes are semilengths, Motzkin sizes are nucleotide counts.  Guarded
    at size 16 against exponential blowup.
    """
    if n > ENUMERATION_GUARD:
        raise SizeTooLarge(f"refusing to enumerate size {n} > {ENUMERATION_GUARD}")
    if model is Model.PFOLD:
        raise UnsupportedCombination("enumeration covers the uniform models only")
    dots, pair = (False, 1) if model is Model.DYCK else (True, 2)
    yield from parse_dot_bracket_lines(_exterior_strings(n, dots, pair))


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


# largest deg each law returns, where n // amin does not end it first.  The
# mass past these values stayed below 5e-15 at 400 random grammar points,
# while running the projection to n // amin makes the convergence report
# about 1.6 times slower, and one shared value of 160 moves the last digits
# of four Dyck and Motzkin deg distances in it.
_DEG_CAP = {Model.DYCK: 400, Model.MOTZKIN: 250, Model.PFOLD: 160}


def conditional_law(model: Model, stat: Stat, n: int, p: Optional[PfoldParams] = None) -> np.ndarray:
    """Conditional finite-size distribution of a statistic as a probability
    array indexed by value (index 0 doubles as the absent bucket for HEL).

    UNP and HEL run to the largest value size n allows (n, and n // stack_size
    for HEL), so they sum to 1 up to rounding.  DEG stops at _DEG_CAP or at
    n // amin, whichever comes first.

    DEG and UNP come from the exterior sequence SEQ(dot | arch) by power
    projection: with x = step dot, the weight of deg = l is
    (head / step) <r, B^l> for B = step arch / (1 - x z), r[m] = x^(n - m),
    and the weight of unp = k is (head / step) <r, B^k> for B = x z D,
    r[m] = D[n - m], D = 1 / (1 - step arch), which sums over every deg.
    HEL splits each structure at its first arch: the weight of hel = d is
    [z^n] lead * pair * inner (1 - cont) * cont^(d - 1) * rest with cont a
    stacked pair (pair z^amin for the uniform models, p3 z^2 for the
    grammar), read off one series per d; it is the code of the exact HEL
    tables (_first_arch_weights).  All of it runs in scaled floating point,
    so sizes up to a few thousand are cheap.
    """
    if stat is Stat.DEG or (stat is Stat.UNP and model is not Model.DYCK):
        ext = _exterior(model, n, p)
        x = ext.step * ext.dot
        if stat is Stat.DEG:
            base = _over_one_minus(ext.step * ext.arch, x)
            top = min(_DEG_CAP[model], n // ext.amin)
            law = _power_projection(base, ext.amin, x ** np.arange(n, -1, -1.0), top)
        else:
            runs = np.zeros(n + 1)  # D, by D[m] = sum_j step arch[j] D[m - j]
            runs[0] = 1.0
            item = ext.step * ext.arch
            for m in range(ext.amin, n + 1):
                runs[m] = np.dot(item[ext.amin : m + 1], runs[m - ext.amin :: -1])
            base = np.zeros(n + 1)
            base[1:] = x * runs[:n]
            law = _power_projection(base, 1, runs[::-1], n)
        return ext.head / ext.step * law / ext.total[n]
    if stat is Stat.HEL:
        weights, total = _first_arch_weights(model, stat, n, p)
        return weights / total
    raise UnsupportedCombination(f"no conditional law for {model.value} x {stat.value}")

"""Limiting laws of the end-proximity statistics and their moments.

Each model has one limiting law of its exterior loop: the joint (unp, deg)
law with generating function c*v / (1 - a*u - b*v)^2.  The laws of deg,
unp, chn and the exterior nucleotide count are its projections, the
substitutions u -> 1, v -> 1, u = v and u -> (u, u^2) of that generating
function (Flajolet & Sedgewick, Analytic Combinatorics, ch. IX); Dyck
structures have no unpaired positions (a = 0), so only deg is projected
there.  The end-to-end distance is a function of (unp, deg), and its
certified moments are one sum over the same joint law for every model.
The first-arch statistics (hel, stm, stem helices) converge to offset
geometric laws.  The grammar model enters only through the root of its
singularity polynomial.

Rational model constants stay exact Fractions end to end; grammar-derived
quantities are floats.  Laws describe themselves (describe()); moments is
one rule, and pmf_values, listed by pmf_expand, is the one expansion of a
scalar law to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice
from typing import Iterator, Optional, Union

from .exact import (
    DEFAULT_PFOLD,
    Model,
    PfoldParams,
    Stat,
    UnsupportedCombination,
)
from .structure import DEFAULT_ETE, EteModel

Number = Union[Fraction, float]


class NoRootInRange(ValueError):
    """The singularity polynomial has no sign change in the search interval."""


class TolNotAchievable(ValueError):
    """Requested certified tolerance needs more terms than the hard cap."""


TERM_CAP = 10**6


@dataclass(frozen=True)
class NegBinomial:
    """offset + NB(r, p): failures before r successes, shifted by offset."""

    offset: int
    r: int
    p: Number

    def pmf(self, k: int) -> Number:
        t = k - self.offset
        if t < 0:
            return 0 * self.p
        return math.comb(t + self.r - 1, t) * self.p**self.r * (1 - self.p) ** t

    @property
    def mean(self) -> Number:
        return self.offset + self.r * (1 - self.p) / self.p

    @property
    def variance(self) -> Number:
        return self.r * (1 - self.p) / self.p**2

    def describe(self) -> dict:
        return {"kind": "neg_binomial", "offset": self.offset, "r": self.r, "p": float(self.p)}


@dataclass(frozen=True)
class JointNB:
    """Joint (unp, deg) law with PGF c*v / (1 - a*u - b*v)^2, c = (1-a-b)^2."""

    a: Number
    b: Number

    @property
    def c(self) -> Number:
        return (1 - self.a - self.b) ** 2

    def pmf(self, i: int, j: int) -> Number:
        if j < 1 or i < 0:
            return 0 * self.a
        return self._term(i, j, math.comb(i + j - 1, i))

    def _term(self, i: int, j: int, count: int) -> Number:
        """pmf(i, j) for i >= 0, j >= 1, given count = C(i + j - 1, i).  With
        float parameters a count past the float range is taken in logs."""
        try:
            value = self.c * count * (i + j) * self.a**i * self.b ** (j - 1)
            if value < math.inf:
                return value
        except OverflowError:
            pass
        logs = math.log(count) + math.log(self.c * (i + j)) + i * math.log(self.a) + (j - 1) * math.log(self.b)
        return math.exp(logs)

    def diagonal_pmf(self, n: int) -> Number:
        """P(unp + deg = n) = c * n * (a+b)^(n-1)."""
        if n < 1:
            return 0 * self.a
        return self.c * n * (self.a + self.b) ** (n - 1)

    def deg_marginal(self) -> NegBinomial:
        return NegBinomial(1, 2, (1 - self.a - self.b) / (1 - self.a))

    def unp_marginal(self) -> NegBinomial:
        return NegBinomial(0, 2, (1 - self.a - self.b) / (1 - self.b))

    def chn_law(self) -> NegBinomial:
        return NegBinomial(0, 2, 1 - self.a - self.b)

    def factorial_moments(self) -> dict[str, Number]:
        """First and second factorial moments of (unp, deg) at u = v = 1."""
        s0 = 1 - self.a - self.b
        a, b = self.a, self.b
        return {
            "eu": 2 * a / s0,
            "ev": 1 + 2 * b / s0,
            "euu": 6 * a**2 / s0**2,
            "evv": 4 * b / s0 + 6 * b**2 / s0**2,
            "euv": 2 * a / s0 + 6 * a * b / s0**2,
        }

    def describe(self) -> dict:
        return {"kind": "joint_nb", "a": float(self.a), "b": float(self.b), "c": float(self.c)}


@dataclass(frozen=True)
class LenDist:
    """Exterior nucleotide count 2*deg + unp under a joint law (the u -> (u, u^2)
    substitution of the joint PGF)."""

    joint: JointNB

    def pmf(self, m: int) -> Number:
        """The sum of joint.pmf(m - 2j, j) over j >= 1, its binomial
        C(m - j - 1, m - 2j) stepped from one j to the next."""
        js = range(1, m // 2 + 1)
        counts = accumulate(
            js[1:], lambda c, j: c * (m - 2 * j + 2) * (m - 2 * j + 1) // ((m - j) * (j - 1)), initial=1
        )
        return sum(map(self.joint._term, (m - 2 * j for j in js), js, counts), start=0 * self.joint.a)

    @property
    def mean(self) -> Number:
        fm = self.joint.factorial_moments()
        return fm["eu"] + 2 * fm["ev"]

    @property
    def variance(self) -> Number:
        fm = self.joint.factorial_moments()
        mean = fm["eu"] + 2 * fm["ev"]
        # chain rule for the substituted PGF: L''(1) then L'' + L' - L'^2
        second = fm["euu"] + 4 * fm["euv"] + 4 * fm["evv"] + 2 * fm["ev"]
        return second + mean - mean**2

    def describe(self) -> dict:
        return {**self.joint.describe(), "kind": "substituted_len"}


LimitDist = Union[NegBinomial, JointNB, LenDist]


@dataclass(frozen=True)
class PfoldDerived:
    """Smallest positive root of the singularity polynomial and the derived
    scale delta = p1*q2*rho that parametrizes every grammar limit law."""

    rho: float
    delta: float
    residual: float


@dataclass(frozen=True)
class MomentSummary:
    mean: Number
    variance: Number
    certified_error: Number


def singularity_polynomial_coeffs(p: PfoldParams) -> tuple[float, float, float, float, float]:
    """Expanded coefficients (degree 0..4) of
    (1 - p1*q2*z)^2 * (1 - p3*z^2) - 4*p2*q1*q2*q3*z^3."""
    alpha = p.p1 * p.q2
    return (
        1.0,
        -2 * alpha,
        alpha**2 - p.p3,
        2 * alpha * p.p3 - 4 * p.p2 * p.q1 * p.q2 * p.q3,
        -(alpha**2) * p.p3,
    )


def pfold_rho_delta(p: PfoldParams = DEFAULT_PFOLD, tol: float = 1e-12) -> PfoldDerived:
    """Locate the smallest positive root by a scan-bracketed bisection, then
    polish with Newton steps on the expanded quartic."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    coeffs = singularity_polynomial_coeffs(p)

    def val(z: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    def deriv(z: float) -> float:
        acc = 0.0
        for k in range(4, 0, -1):
            acc = acc * z + k * coeffs[k]
        return acc

    upper = 1.0 / math.sqrt(p.p3)
    steps = 4096
    lo, hi = None, None
    prev_z, prev_v = 0.0, val(0.0)
    for i in range(1, steps + 1):
        z = upper * i / steps
        v = val(z)
        if prev_v > 0 >= v:
            lo, hi = prev_z, z
            break
        prev_z, prev_v = z, v
    if lo is None:
        raise NoRootInRange(f"no sign change in (0, {upper:.6g})")

    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if val(mid) > 0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    for _ in range(100):
        d = deriv(rho)
        if d == 0:
            break
        step = val(rho) / d
        rho -= step
        if abs(step) < tol:
            break

    if not rho < upper:
        raise NoRootInRange("root does not satisfy rho < 1/sqrt(p3)")
    delta = p.p1 * p.q2 * rho
    if not 0 < delta < 1:
        raise NoRootInRange(f"derived delta {delta} outside (0, 1)")
    return PfoldDerived(rho=rho, delta=delta, residual=abs(val(rho)))


def _exterior_law(model: Model, p: PfoldParams) -> JointNB:
    """The joint (unp, deg) law of a model's exterior loop; the grammar's
    is parametrized by its scale delta alone."""
    if model is Model.DYCK:
        return JointNB(Fraction(0), Fraction(1, 2))
    if model is Model.MOTZKIN:
        return JointNB(Fraction(1, 3), Fraction(1, 3))
    delta = pfold_rho_delta(p).delta
    return JointNB(delta, delta * (1 - delta) / (1 + delta))


# the projections of the joint exterior law
_PROJECTIONS = {
    Stat.DEG: JointNB.deg_marginal,
    Stat.UNP: JointNB.unp_marginal,
    Stat.CHN: JointNB.chn_law,
    Stat.JOINT: lambda joint: joint,
    Stat.LEN: LenDist,
}

# success probabilities of the uniform models' first-arch laws 1 + NB(1, p)
_FIRST_ARCH: dict[tuple[Model, Stat], Fraction] = {
    (Model.DYCK, Stat.HEL): Fraction(3, 4),
    (Model.MOTZKIN, Stat.HEL): Fraction(8, 9),
    (Model.MOTZKIN, Stat.STM): Fraction(3, 4),
    (Model.MOTZKIN, Stat.STEM_HELICES): Fraction(27, 32),
}


def limit_of(model: Model, stat: Stat, p: Optional[PfoldParams] = None) -> LimitDist:
    """The limiting law of a statistic under a model.

    deg, unp, chn, joint and len are projections of the model's one joint
    exterior law; hel, stm and stem helices have offset geometric laws, the
    grammar's hel with success probability 1 - rho^2 * p3.  Uniform-model
    laws carry exact rational parameters.  Unpaired positions do not exist
    in the Dyck model, so only DEG and HEL are defined there.
    """
    if (model, stat) in _FIRST_ARCH:
        return NegBinomial(1, 1, _FIRST_ARCH[model, stat])
    params = p or DEFAULT_PFOLD
    if model is Model.PFOLD and stat is Stat.HEL:
        return NegBinomial(1, 1, 1 - pfold_rho_delta(params).rho ** 2 * params.p3)
    if stat not in _PROJECTIONS or (model is Model.DYCK and stat is not Stat.DEG):
        raise UnsupportedCombination(f"no limit law for {model.value} x {stat.value}")
    return _PROJECTIONS[stat](_exterior_law(model, params))


def _scalar(d: LimitDist) -> LimitDist:
    if isinstance(d, JointNB):
        raise UnsupportedCombination("the joint law is bivariate: use one of its projections")
    return d


def moments(d: LimitDist) -> MomentSummary:
    """Closed-form mean and variance; exact when the law is rational."""
    d = _scalar(d)
    return MomentSummary(d.mean, d.variance, 0 * d.mean)


def pmf_values(d: LimitDist) -> Iterator[float]:
    """float(d.pmf(k)) for k = 0, 1, ... of a scalar law, as far as it is read."""
    return map(float, map(_scalar(d).pmf, count()))


def pmf_expand(d: LimitDist, kmax: int) -> list[float]:
    """pmf values at 0..kmax for a scalar law."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    return list(islice(pmf_values(d), kmax + 1))


# ---------------------------------------------------------------------------
# certified distance moments


def _tail_n2(k: int, s: float) -> float:
    """Exact sum of n^2 * s^n over n >= k."""
    q = 1 - s
    return s**k * (k**2 / q + 2 * k * s / q**2 + s * (1 + s) / q**3)


def _tail_n3(k: int, s: float) -> float:
    """Exact sum of n^3 * s^n over n >= k."""
    q = 1 - s
    return s**k * (
        k**3 / q
        + 3 * k**2 * s / q**2
        + 3 * k * s * (1 + s) / q**3
        + s * (1 + 4 * s + s**2) / q**4
    )


def dyck_ete_truncations(m: EteModel, tol: float) -> tuple[int, int]:
    """Truncation points for the mean and second-moment sums of the Dyck
    distance law, from the geometric-series tail bounds (the integrand is
    dominated by sqrt(b^2+c^2) * n^(e/2) with e/2 <= 1)."""
    c1 = math.sqrt(m.b_nm**2 + m.c_nm**2)
    c2 = m.b_nm**2 + m.c_nm**2

    def first_k(const: float, power: int, kmin: int) -> int:
        k = kmin
        while const * 3 * k**power / 2**k > tol:
            k += 1
            if k == 1024:  # 2**k would pass the float range
                raise TolNotAchievable("tail bound does not reach tol")
        return k

    return first_k(c1 / 2, 2, 6), first_k(c2 / 2, 3, 9)


def _joint_diag_cap(joint: JointNB, m: EteModel, tol: float, power: int) -> int:
    """First diagonal unp + deg left out of the sum of the distance to the
    power - 1 (power 2: the mean, 3: the second moment), by the closed-form
    tail of the diagonal law.  Dyck's deg law (a = 0) keeps the bounds of
    dyck_ete_truncations, whose cuts the acceptance suite pins."""
    if joint.a == 0:
        return dyck_ete_truncations(m, tol)[power - 2]
    s = float(joint.a + joint.b)
    c = float(joint.c)
    c2 = m.b_nm**2 + m.c_nm**2
    const = c / s * (math.sqrt(c2) if power == 2 else c2)
    tail = _tail_n2 if power == 2 else _tail_n3
    k = 3
    while const * tail(k, s) > tol:
        k += 1
        if k * (k + 1) // 2 > TERM_CAP:
            raise TolNotAchievable("term cap exceeded before the tail bound reached tol")
    return k


def _joint_sums(joint: JointNB, m: EteModel, k_mean: int, k_sec: int) -> tuple[float, float]:
    a, b, c = float(joint.a), float(joint.b), float(joint.c)
    e = m.exponent
    b2, c2 = m.b_nm**2, m.c_nm**2
    mean = second = 0.0
    for d in range(1, max(k_mean, k_sec)):
        # pmf(d - j, j) from j = j0 up; with a = 0 only j = d weighs, and
        # the step to the next j, which divides by a, is never taken
        j0 = 1 if a else d
        term = c * d * a ** (d - j0) * b ** (j0 - 1)
        for j in range(j0, d + 1):
            if term > 0:
                sq = b2 * j**e + c2 * (d - 1) ** e
                if d < k_mean:
                    mean += term * math.sqrt(sq)
                if d < k_sec:
                    second += term * sq
            if j < d:
                term *= (d - j) * b / (j * a)
    return mean, second


def ete_limit_moments(
    model: Model,
    m: EteModel = DEFAULT_ETE,
    tol: float = 1e-3,
    p: Optional[PfoldParams] = None,
) -> MomentSummary:
    """Mean and variance of the two-scale distance under a model's limiting
    exterior law, summed to a truncation certified below tol.

    The distance is a function of (unp, deg), so both moments are one sum
    over the diagonals unp + deg of the model's joint law, whose diagonal
    law c*n*(a+b)^(n-1) has closed-form tails; Dyck's law is its a = 0
    case, cut by dyck_ete_truncations.  The variance comes from the
    shortcut formula with the mean recomputed at a tighter internal
    tolerance so the propagated error stays below tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    joint = _exterior_law(model, p or DEFAULT_PFOLD)
    mean, _ = _joint_sums(joint, m, _joint_diag_cap(joint, m, tol, 2), 0)
    tol_m = tol / (8 * (mean + tol + 1))
    mean_fine, second = _joint_sums(
        joint, m, _joint_diag_cap(joint, m, tol_m, 2), _joint_diag_cap(joint, m, tol / 2, 3)
    )
    variance = second - mean_fine**2
    return MomentSummary(mean=mean, variance=variance, certified_error=tol)

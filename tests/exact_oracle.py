"""Independent oracles for the exact tables and the limit laws.

The package computes every (unp, deg) table from one exterior-sequence
kernel and every root from the expanded singularity quartic; these are the
direct versions the tests check them against: a deg-only dynamic program
that never tracks unp, and the quartic in factored form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from endprox.exact import CountTable, Model, PfoldParams, motzkin_number


def table_from_entries(model: Model, size: int, axes: tuple[str, ...], entries: dict) -> CountTable:
    """The table of a {key: weight} dict keyed like entries; integer
    weights stay exact.  A two-axis table is keyed by deg and unp, and each
    deg's run spans its unp keys from the least to the greatest, so a gap
    between keys is a zero inside a run."""
    exact = all(isinstance(w, int) for w in entries.values())
    rows: dict[int, dict] = {}
    for key, w in entries.items():
        if key is None:
            continue
        if len(axes) == 1:
            rows.setdefault(0, {})[key] = w
        else:
            deg = axes.index("deg")
            rows.setdefault(key[deg], {})[key[1 - deg]] = w
    runs = []
    for l in range(max(rows, default=0) + 1):
        row = rows.get(l, {})
        start = min(row, default=0)
        w = np.zeros(max(row, default=start - 1) + 1 - start, dtype=object if exact else float)
        for k, v in row.items():
            w[k - start] = v
        runs.append((start, w))
    return CountTable(model, size, tuple(axes), tuple(runs), entries.get(None, 0))


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
    """Deg marginal at length n via a DP that never tracks unp; cubic in n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return table_from_entries(Model.MOTZKIN, n, ("deg",), _motzkin_deg_rows(n)[n])


def singularity_polynomial_factored(p: PfoldParams, z: float) -> float:
    """Direct factored-form evaluation; guards the expanded coefficients."""
    alpha = p.p1 * p.q2
    return (1 - alpha * z) ** 2 * (1 - p.p3 * z**2) - 4 * p.p2 * p.q1 * p.q2 * p.q3 * z**3


def motzkin_numbers_by_convolution(n: int) -> list[int]:
    """M(0), ..., M(n) by the first-return decomposition M(m) = M(m - 1) +
    sum_j M(j) M(m - 2 - j): quadratic in n, kept to check the package's
    three-term recurrence."""
    numbers = [1, 1][: n + 1]
    for m in range(2, n + 1):
        numbers.append(numbers[m - 1] + sum(numbers[j] * numbers[m - 2 - j] for j in range(m - 1)))
    return numbers

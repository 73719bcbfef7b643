"""Dataset pipeline: per-record statistics, summaries, heatmap grids, and
comparisons of empirical histograms against the limit laws."""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import IO, Iterable, Mapping, Optional, Sequence

from .exact import Model, PfoldParams, Stat
from .limits import LenDist, LimitDist, NegBinomial, limit_of, moments
from .structure import DEFAULT_ETE, EteModel, ParsedRecord, ete_distance, stats_columns


class NoRecords(ValueError):
    """The input produced no usable records."""


class EmptyHistogram(ValueError):
    """A histogram with no mass cannot be compared."""


@dataclass(frozen=True)
class StatsRow:
    id: str
    length: int
    deg: int
    unp: int
    chn: int
    len_ext: int
    ete_nm: float
    rms_nm: float
    hel: Optional[int]
    stm: Optional[int]
    stem_helices: Optional[int]
    pseudoknotted: bool
    group: str


@dataclass(frozen=True)
class SummaryBlock:
    group: str
    n_structures: int
    means: dict[str, float]
    variances: dict[str, float]


ROW_FIELDS = [f.name for f in fields(StatsRow)]

_SUMMARY_STATS = ["deg", "unp", "chn", "len_ext", "ete_nm", "rms_nm", "hel", "stm", "stem_helices"]


def run_stats(
    records: Sequence[ParsedRecord], m: EteModel = DEFAULT_ETE, *, summary: bool = True
) -> tuple[list[StatsRow], list[SummaryBlock], list[tuple[str, str]]]:
    """Rows in input order, per-group summaries (an empty list when summary
    is False, for a caller that summarizes a stream of blocks itself), and
    (id, message) parse failures.  Nested records go through the exterior
    walk; crossing records through the shortest path.  Raises NoRecords
    when nothing parses."""
    if not records:
        raise NoRecords("no records in input")
    good = [rec for rec in records if rec.has_structure]
    if not good:
        raise NoRecords("every record failed to parse")
    columns = stats_columns(good, m)
    columns["id"] = [rec.id for rec in good]
    columns["group"] = [rec.group or "default" for rec in good]
    columns["pseudoknotted"] = columns.pop("crossing")
    rows = [StatsRow(*values) for values in zip(*(columns[name] for name in ROW_FIELDS))]
    return rows, summarize(rows) if summary else [], skipped(records)


def skipped(records: Iterable[ParsedRecord]) -> list[tuple[str, str]]:
    """(id, message) of each record that holds no structure."""
    return [(rec.id, rec.error or "parse error") for rec in records if not rec.has_structure]


def summarize(rows: Iterable[StatsRow]) -> list[SummaryBlock]:
    """Population mean/variance per group; optional statistics average over
    the rows where they are present.

    rows are read once, so they may be a stream.  A group keeps its row
    count and one array per statistic, 4 bytes an integer value and 8 a
    distance, and both passes sum its values in input order."""
    values = attrgetter(*_SUMMARY_STATS)
    groups: dict[str, list] = {}  # group -> [row count, one array per statistic]
    for row in rows:
        group = groups.get(row.group)
        if group is None:
            group = groups[row.group] = [0, *(array("d" if n.endswith("_nm") else "I") for n in _SUMMARY_STATS)]
        group[0] += 1
        for column, v in zip(group[1:], values(row)):
            if v is not None:
                column.append(v)
    blocks = []
    for label, (count, *columns) in groups.items():
        means: dict[str, float] = {}
        variances: dict[str, float] = {}
        for name, column in zip(_SUMMARY_STATS, columns):
            if not column:
                continue
            mu = sum(column) / len(column)
            means[name] = mu
            variances[name] = sum((v - mu) ** 2 for v in column) / len(column)
        blocks.append(SummaryBlock(label, count, means, variances))
    return blocks


# ---------------------------------------------------------------------------
# heatmap

ETE_BAND_EDGES = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]


def ete_band(x: float) -> str:
    """Heatmap color-band label for a distance value; values outside the six
    1-nm bands map to "other"."""
    for lo, hi in zip(ETE_BAND_EDGES, ETE_BAND_EDGES[1:]):
        if lo <= x < hi:
            return f"{lo:g}-{hi:g}"
    return "other"


@dataclass(frozen=True)
class HeatmapCell:
    deg: int
    unp: int
    percent: float
    band: str


def heatmap(rows: Iterable[StatsRow], m: EteModel = DEFAULT_ETE) -> list[HeatmapCell]:
    """Percentage of structures per (deg, unp) cell, with the distance band
    of the cell's coordinates.  rows are read once and only counted."""
    counts = Counter((row.deg, row.unp) for row in rows)
    total = sum(counts.values())
    if not total:
        raise NoRecords("heatmap needs at least one row")
    cells = []
    for (deg, unp), cnt in sorted(counts.items()):
        dist = ete_distance(deg, max(0, deg + unp - 1), m)
        cells.append(HeatmapCell(deg, unp, 100.0 * cnt / total, ete_band(dist)))
    return cells


# ---------------------------------------------------------------------------
# comparison against limit laws


def law_quantile_cap(d: LimitDist, tail: float = 1e-6) -> int:
    """Smallest k whose cdf reaches 1 - tail."""
    if not isinstance(d, (NegBinomial, LenDist)):
        raise EmptyHistogram("quantile cap is defined for scalar laws")
    acc = 0.0
    for k in range(100_000):
        acc += float(d.pmf(k))
        if acc >= 1 - tail:
            return k
    raise ValueError("law cdf does not reach the requested quantile")


def total_variation(h: Mapping[int, float], d: LimitDist, cap: int) -> float:
    """Half L1 distance between the normalized histogram and the law's pmf on
    0..cap, plus half the difference of the two tail masses beyond cap."""
    if not h:
        raise EmptyHistogram("empty histogram")
    total = float(sum(h.values()))
    if total <= 0 or any(v < 0 for v in h.values()):
        raise EmptyHistogram("histogram must have nonnegative mass")
    body = 0.0
    law_body = 0.0
    for k in range(cap + 1):
        pk = float(d.pmf(k))
        law_body += pk
        body += abs(h.get(k, 0.0) / total - pk)
    emp_tail = sum(v for k, v in h.items() if k > cap) / total
    law_tail = max(0.0, 1.0 - law_body)
    return 0.5 * body + 0.5 * abs(emp_tail - law_tail)


_STAT_ATTR = {
    Stat.DEG: "deg",
    Stat.UNP: "unp",
    Stat.CHN: "chn",
    Stat.LEN: "len_ext",
    Stat.HEL: "hel",
    Stat.STM: "stm",
    Stat.STEM_HELICES: "stem_helices",
}


@dataclass(frozen=True)
class CompareReport:
    model: str
    stat: str
    n_values: int
    n_skipped: int
    empirical_mean: float
    empirical_variance: float
    law_mean: float
    law_variance: float
    tv: float
    bins: list[tuple[int, float, float]]  # value, empirical prob, law pmf


def _stat_values(rows: Iterable[StatsRow], stat: Stat) -> list[Optional[int]]:
    """What compare reads of each row: the statistic, or None where the row
    lacks it or compare does not support the statistic.  rows are read
    once."""
    attr = _STAT_ATTR.get(stat)
    return [None if attr is None else getattr(row, attr) for row in rows]


def compare(
    values: Sequence[Optional[int]],
    model: Model,
    stat: Stat,
    p: Optional[PfoldParams] = None,
) -> CompareReport:
    """Empirical distribution of one statistic against its limit law.

    values holds the statistic of each row, None where the row lacks it
    (e.g. unpaired structures for hel); those rows are skipped and counted."""
    if stat not in _STAT_ATTR:
        from .exact import UnsupportedCombination

        raise UnsupportedCombination(f"compare does not support {stat.value}")
    law = limit_of(model, stat, p)
    kept = [v for v in values if v is not None]
    if not kept:
        raise EmptyHistogram("no rows carry this statistic")
    hist = Counter(kept)
    cap = law_quantile_cap(law)
    mu = sum(kept) / len(kept)
    var = sum((v - mu) ** 2 for v in kept) / len(kept)
    summary = moments(law)
    tv = total_variation(hist, law, cap)
    bins = [
        (k, hist.get(k, 0) / len(kept), float(law.pmf(k)))
        for k in range(0, min(cap, max(hist) if hist else 0) + 1)
    ]
    return CompareReport(
        model=model.value,
        stat=stat.value,
        n_values=len(kept),
        n_skipped=len(values) - len(kept),
        empirical_mean=mu,
        empirical_variance=var,
        law_mean=float(summary.mean),
        law_variance=float(summary.variance),
        tv=tv,
        bins=bins,
    )


# ---------------------------------------------------------------------------
# serialization


def write_rows_csv(rows: Sequence[StatsRow], stream: IO[str]) -> None:
    """Absent statistics are empty fields; pseudoknotted is true or false."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    flag = ROW_FIELDS.index("pseudoknotted")
    for row in rows:
        cells = [getattr(row, f) for f in ROW_FIELDS]
        cells[flag] = "true" if cells[flag] else "false"
        writer.writerow(cells)


def rows_to_json(rows: Sequence[StatsRow]) -> list[dict]:
    return [asdict(row) for row in rows]


def write_summary_csv(blocks: Sequence[SummaryBlock], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["group", "n_structures", "stat", "mean", "variance"])
    for block in blocks:
        for name in _SUMMARY_STATS:
            if name in block.means:
                writer.writerow(
                    [block.group, block.n_structures, name, block.means[name], block.variances[name]]
                )


def summary_to_json(blocks: Sequence[SummaryBlock]) -> list[dict]:
    return [asdict(block) for block in blocks]


def write_heatmap_csv(cells: Sequence[HeatmapCell], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["deg", "unp", "percent", "ete_band"])
    for cell in cells:
        writer.writerow([cell.deg, cell.unp, cell.percent, cell.band])


def write_compare_csv(report: CompareReport, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [
            "model",
            "stat",
            "n_values",
            "n_skipped",
            "empirical_mean",
            "empirical_variance",
            "law_mean",
            "law_variance",
            "tv",
        ]
    )
    writer.writerow(
        [
            report.model,
            report.stat,
            report.n_values,
            report.n_skipped,
            report.empirical_mean,
            report.empirical_variance,
            report.law_mean,
            report.law_variance,
            report.tv,
        ]
    )
    writer.writerow([])
    writer.writerow(["value", "empirical_prob", "law_pmf"])
    for k, emp, pk in report.bins:
        writer.writerow([k, emp, pk])

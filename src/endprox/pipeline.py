"""Dataset pipeline: per-record statistics as blocks of columns (dicts of
lists keyed by ROW_FIELDS), group summaries, heatmap grids, and comparisons
of empirical histograms against the limit laws.  Summaries and comparisons
keep histograms, with correctly rounded means and variances."""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import IO, Iterable, Mapping, Optional, Sequence

from .exact import Model, PfoldParams, Stat, UnsupportedCombination
from .limits import LimitDist, limit_of, moments, pmf_expand, pmf_values
from .structure import _STAT_FIELDS, DEFAULT_ETE, EteModel, ParsedRecord, ete_distance, stats_columns


class NoRecords(ValueError):
    """The input produced no usable records."""


class EmptyHistogram(ValueError):
    """A histogram with no mass cannot be compared."""


@dataclass(frozen=True)
class SummaryBlock:
    group: str
    n_structures: int
    means: dict[str, float]
    variances: dict[str, float]


# the columns of a block; hel, stm and stem_helices are None where absent
ROW_FIELDS = ["id", "length", *_STAT_FIELDS, "pseudoknotted", "group"]


def run_stats(
    records: Sequence[ParsedRecord], m: EteModel = DEFAULT_ETE, *, summary: bool = True
) -> tuple[dict[str, list], list[SummaryBlock], list[tuple[str, str]]]:
    """The block of the records that hold a structure, in input order,
    per-group summaries (an empty list when summary is False, for a caller
    that summarizes a stream of blocks itself), and (id, message) parse
    failures.  Nested records go through the exterior walk; crossing records
    through the shortest path.  Raises NoRecords when nothing parses."""
    if not records:
        raise NoRecords("no records in input")
    good = [rec for rec in records if rec.has_structure]
    if not good:
        raise NoRecords("every record failed to parse")
    columns = stats_columns(good, m)
    columns["id"] = [rec.id for rec in good]
    columns["group"] = [rec.group or "default" for rec in good]
    columns["pseudoknotted"] = columns.pop("crossing")
    return columns, summarize([columns]) if summary else [], skipped(records)


def skipped(records: Iterable[ParsedRecord]) -> list[tuple[str, str]]:
    """(id, message) of each record that holds no structure."""
    return [(rec.id, rec.error or "parse error") for rec in records if not rec.has_structure]


def _moments(hist: Mapping) -> tuple[int, float, float]:
    """Count, mean and population variance of a histogram {value: count},
    each correctly rounded from its exact value: the values, as Fractions,
    go over one common denominator d, so that the sums are exact integers
    and each moment is one int / int division."""
    exact = [(Fraction(v), count) for v, count in hist.items()]
    d = math.lcm(*(x.denominator for x, _ in exact))
    n = s1 = s2 = 0
    for x, count in exact:
        k = x.numerator * (d // x.denominator)
        n += count
        s1 += count * k
        s2 += count * k * k
    return n, s1 / (n * d), (n * s2 - s1 * s1) / (n * d) ** 2


def summarize(blocks: Iterable[dict[str, list]]) -> list[SummaryBlock]:
    """Population mean/variance per group; optional statistics average over
    the records where they are present.

    blocks are read once, so they may be a stream.  A group keeps its record
    count and one histogram per statistic."""
    sizes: Counter = Counter()  # group -> records, in order of first appearance
    hists: defaultdict = defaultdict(Counter)  # (group, statistic) -> value counts
    for block in blocks:
        sizes.update(block["group"])
        for name in _STAT_FIELDS:
            for (label, v), count in Counter(zip(block["group"], block[name])).items():
                if v is not None:
                    hists[label, name][v] += count
    out = []
    for label, size in sizes.items():
        means: dict[str, float] = {}
        variances: dict[str, float] = {}
        for name in _STAT_FIELDS:
            if (label, name) in hists:
                _, means[name], variances[name] = _moments(hists[label, name])
        out.append(SummaryBlock(label, size, means, variances))
    return out


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


def heatmap(blocks: Iterable[dict[str, list]], m: EteModel = DEFAULT_ETE) -> list[HeatmapCell]:
    """Percentage of structures per (deg, unp) cell, with the distance band
    of the cell's coordinates.  blocks are read once and only counted."""
    counts: Counter = Counter()
    for block in blocks:
        counts.update(zip(block["deg"], block["unp"]))
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


def law_head(d: LimitDist, stop: int) -> list[float]:
    """The law's pmf at 0..k, for the smallest k whose cdf reaches 1 - 1e-6
    or k = stop: past the largest value of a histogram the pmf only adds to
    the tail that tail_tv counts, so stop = max(hist) bounds the scan."""
    head, acc = [], 0.0
    for pk in pmf_values(d):
        head.append(pk)
        acc += pk
        if acc >= 1 - 1e-6 or len(head) > stop:
            return head


def tail_tv(probs: Iterable[float], tail: float, pmf: Iterable[float]) -> float:
    """Half the L1 distance between probs and pmf, value by value, plus half
    the difference of the two tail masses: probs' own tail, which each
    caller counts as it normalizes, and the mass pmf leaves out."""
    body = law_body = 0.0
    for q, pk in zip(probs, pmf):
        law_body += pk
        body += abs(q - pk)
    return 0.5 * body + 0.5 * abs(tail - max(0.0, 1.0 - law_body))


def total_variation(h: Mapping[int, float], d: LimitDist, cap: int) -> float:
    """tail_tv of the normalized histogram, whose tail is its mass beyond
    cap, against the law's pmf on 0..cap."""
    if not h:
        raise EmptyHistogram("empty histogram")
    total = float(sum(h.values()))
    if total <= 0 or any(v < 0 for v in h.values()):
        raise EmptyHistogram("histogram must have nonnegative mass")
    tail = sum(v for k, v in h.items() if k > cap) / total
    return tail_tv((h.get(k, 0.0) / total for k in range(cap + 1)), tail, pmf_expand(d, cap))


_STAT_COLUMN = {
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


def compare(
    values: Iterable[Optional[int]],
    model: Model,
    stat: Stat,
    p: Optional[PfoldParams] = None,
) -> CompareReport:
    """Empirical distribution of one statistic against its limit law.

    values holds the statistic of each row, None where the row lacks it
    (e.g. unpaired structures for hel); those rows are skipped and counted.
    values are read once, into a histogram, and only after the law is
    found, so an unsupported combination reads none of them."""
    if stat not in _STAT_COLUMN:
        raise UnsupportedCombination(f"compare does not support {stat.value}")
    law = limit_of(model, stat, p)
    hist = Counter(values)
    n_skipped = hist.pop(None, 0)
    if not hist:
        raise EmptyHistogram("no rows carry this statistic")
    n, mu, var = _moments(hist)
    head = law_head(law, max(hist))
    summary = moments(law)
    bins = [(k, hist[k] / n, pk) for k, pk in enumerate(head)]
    tail = sum(v for k, v in hist.items() if k >= len(head)) / n
    return CompareReport(
        model=model.value,
        stat=stat.value,
        n_values=n,
        n_skipped=n_skipped,
        empirical_mean=mu,
        empirical_variance=var,
        law_mean=float(summary.mean),
        law_variance=float(summary.variance),
        tv=tail_tv((q for _, q, _ in bins), tail, head),
        bins=bins,
    )


# ---------------------------------------------------------------------------
# serialization


def write_rows_csv(blocks: Iterable[dict[str, list]], stream: IO[str]) -> None:
    """One line per record; absent statistics are empty fields, and
    pseudoknotted is true or false."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    flag = ROW_FIELDS.index("pseudoknotted")
    for block in blocks:
        columns = [block[name] for name in ROW_FIELDS]
        columns[flag] = ["true" if x else "false" for x in columns[flag]]
        writer.writerows(zip(*columns))


def rows_to_json(blocks: Iterable[dict[str, list]]) -> list[dict]:
    """One dict per record, keyed by ROW_FIELDS."""
    return [
        dict(zip(ROW_FIELDS, values))
        for block in blocks
        for values in zip(*(block[name] for name in ROW_FIELDS))
    ]


def write_summary_csv(blocks: Sequence[SummaryBlock], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["group", "n_structures", "stat", "mean", "variance"])
    for block in blocks:
        for name in _STAT_FIELDS:
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
    names = [f.name for f in fields(CompareReport) if f.name != "bins"]
    writer.writerow(names)
    writer.writerow([getattr(report, name) for name in names])
    writer.writerow([])
    writer.writerow(["value", "empirical_prob", "law_pmf"])
    writer.writerows(report.bins)

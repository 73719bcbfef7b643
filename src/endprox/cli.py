"""Command-line interface.

Subcommands: stats, limits, exact, sample, shuffle, compare, heatmap.
Global flags (before the subcommand) configure the distance model, grammar
parameters, seed and output format.  Exit codes: 0 success,
1 input error, 2 unsupported model/statistic combination.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional

from . import exact, limits, pipeline, sampling, shuffling, structure
from .exact import Model, PfoldParams, Stat, UnsupportedCombination
from .structure import EteModel, StructureError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for
        # unsupported combinations only, so usage problems are input errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_STAT_CHOICES = {s.value.replace("_", "-"): s for s in Stat}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="endprox", description=__doc__)
    parser.add_argument("--ete-b", type=float, default=1.5, help="bridge step length (nm)")
    parser.add_argument("--ete-c", type=float, default=0.62, help="covalent step length (nm)")
    parser.add_argument("--ete-exp", type=float, default=1.2, help="distance exponent")
    parser.add_argument("--ete-a", type=float, default=0.75, help="rms average step (nm)")
    parser.add_argument(
        "--pfold-params",
        type=str,
        default=None,
        help="file with grammar probabilities: JSON {p1,p2,p3} or three whitespace-separated numbers",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampler seed")
    parser.add_argument(
        "--format",
        choices=["csv", "json"],
        default="csv",
        help="output of stats, exact, compare and heatmap; limits always writes JSON, "
        "sample and shuffle plain text",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="per-structure statistics and group summaries")
    p_stats.add_argument("files", nargs="*", help="structure files (dot-bracket or bpseq); stdin if none")
    p_stats.add_argument(
        "--summary", action="store_true",
        help="emit the per-group summary table (population variance) instead of rows",
    )

    p_limits = sub.add_parser("limits", help="limiting law and moments of one statistic")
    p_limits.add_argument("--model", choices=[m.value for m in Model], required=True)
    p_limits.add_argument("--stat", choices=list(_STAT_CHOICES), required=True)
    p_limits.add_argument("--tol", type=float, default=1e-3, help="certified tolerance for ete moments")

    p_exact = sub.add_parser("exact", help="exact finite-size table of one statistic")
    p_exact.add_argument("--model", choices=[m.value for m in Model], required=True)
    p_exact.add_argument("--n", type=int, required=True)
    p_exact.add_argument(
        "--stat", choices=["deg", "joint", "hel", "stm", "stem-helices"], default="joint"
    )

    p_sample = sub.add_parser("sample", help="random structures as dot-bracket lines")
    p_sample.add_argument("--model", choices=[m.value for m in Model], required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1)

    p_shuffle = sub.add_parser("shuffle", help="k-let-preserving shuffles of FASTA records")
    p_shuffle.add_argument("files", nargs="*", help="FASTA files; stdin if none")
    p_shuffle.add_argument("--k", type=int, default=2)
    p_shuffle.add_argument("--count", type=int, default=1, help="shuffles per record")

    p_compare = sub.add_parser("compare", help="empirical histogram against a limit law")
    p_compare.add_argument("files", nargs="*", help="structure files; stdin if none")
    p_compare.add_argument("--model", choices=[m.value for m in Model], required=True)
    p_compare.add_argument(
        "--stat", choices=[k for k, s in _STAT_CHOICES.items() if s in pipeline._STAT_COLUMN], required=True
    )

    p_heatmap = sub.add_parser("heatmap", help="(deg, unp) percentage grid with distance bands")
    p_heatmap.add_argument("files", nargs="*", help="structure files; stdin if none")

    return parser


def _ete_model(args) -> EteModel:
    return EteModel(b_nm=args.ete_b, c_nm=args.ete_c, exponent=args.ete_exp, a_nm=args.ete_a)


def _pfold_params(args) -> PfoldParams:
    if not args.pfold_params:
        return exact.DEFAULT_PFOLD
    text = Path(args.pfold_params).read_text()
    stripped = text.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
        try:
            values = [float(data[name]) for name in ("p1", "p2", "p3")]
        except (KeyError, TypeError):
            raise StructureError("pfold params JSON must give p1, p2 and p3 as numbers") from None
        return PfoldParams(*values)
    values = [float(tok) for tok in stripped.split()]
    if len(values) != 3:
        raise StructureError("pfold params file must hold exactly p1 p2 p3")
    return PfoldParams(*values)


def _read_structure_files(paths: list[str]) -> Iterator[list[structure.ParsedRecord]]:
    """The records of the structure files, or of stdin if there are none,
    one list per block.  Every input is opened and decoded once, one at a
    time, before this returns, so one that cannot be read fails before
    anything is written; the files are then reopened one at a time as their
    records are read."""
    if not paths:
        return _file_records(None, _decoded(_stdin()))
    for path in paths:
        with open(path) as fh:
            _decoded(fh)
    return chain.from_iterable(_file_records(path, open(path)) for path in paths)


def _stdin() -> IO[str]:
    """stdin as a text stream that can be read twice: bytes are first copied
    to a temporary file."""
    if not hasattr(sys.stdin, "buffer"):
        return sys.stdin
    import shutil
    import tempfile

    spool = tempfile.TemporaryFile()
    shutil.copyfileobj(sys.stdin.buffer, spool)
    spool.seek(0)
    return io.TextIOWrapper(spool, encoding=sys.stdin.encoding, newline="\n")


def _decoded(fh: IO[str]) -> IO[str]:
    """fh rewound, after one pass that decodes all of it; a decoding error is
    raised as a whole read raises it."""
    try:
        while fh.read(1 << 13):
            pass
    except UnicodeDecodeError:
        fh.seek(0)
        fh.read()
        raise
    fh.seek(0)
    return fh


def _lines(fh: IO[str]) -> Iterator[str]:
    """The lines of fh as str.splitlines() cuts its whole text."""
    for line in fh:
        yield from line.splitlines()


def _file_records(path: Optional[str], fh: IO[str]) -> Iterator[list[structure.ParsedRecord]]:
    with fh:
        if path is None:
            yield from structure.read_dot_bracket_blocks(_lines(fh), "stdin")
            return
        stem = Path(path).stem
        bpseq = _looks_like_bpseq(path, _lines(fh))
        fh.seek(0)
        if bpseq:
            yield structure.read_bpseq_records(fh.read(), rec_id=stem, group=stem)
        else:
            yield from structure.read_dot_bracket_blocks(_lines(fh), stem)


def _looks_like_bpseq(path: str, lines: Iterable[str]) -> bool:
    if path.endswith(".bpseq"):
        return True
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        return len(fields) == 3 and fields[0].isdigit() and fields[2].lstrip("-").isdigit()
    return False


def _rows(args) -> Iterator[dict[str, list]]:
    """The stats rows of the input as column blocks, one per block that has any.

    A block's skipped records go to stderr as it is measured, after the rows
    already written to stdout are flushed, except that those before the
    first row are held back with their records: input in which nothing
    parses fails with its error alone, as run_stats raises it.
    """
    blocks = _read_structure_files(args.files)
    m = _ete_model(args)
    held: Optional[list[structure.ParsedRecord]] = []
    for records in blocks:
        good = any(rec.has_structure for rec in records)
        if held is not None:
            held += records
            if not good:
                continue
            records, held = held, None
        block, _, errors = pipeline.run_stats(records, m, summary=False) if good else (None, None, pipeline.skipped(records))
        if errors:
            sys.stdout.flush()  # rows of earlier blocks first, when both streams go to one file
        for rec_id, message in errors:
            sys.stderr.write(f"skipped {rec_id}: {message}\n")
        if block:
            yield block
    if held is not None:
        pipeline.run_stats(held, m)  # raises NoRecords


def _emit(args, csv_writer, json_payload) -> None:
    """Write CSV, or the JSON payload that json_payload() builds on demand."""
    if args.format == "json":
        json.dump(json_payload(), sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
    else:
        csv_writer(sys.stdout)


class _Stream(list):
    """A list, to json.dump, whose items come from an iterator read once."""

    def __init__(self, items: Iterable):
        super().__init__()
        self.items = items

    def __iter__(self):
        return iter(self.items)

    def __bool__(self) -> bool:
        return True


def _cmd_stats(args) -> int:
    blocks = _rows(args)
    if args.summary:
        summary = pipeline.summarize(blocks)
        _emit(args, lambda out: pipeline.write_summary_csv(summary, out), lambda: pipeline.summary_to_json(summary))
        return 0
    blocks = chain([next(blocks)], blocks)  # the first rows, before any output
    _emit(
        args,
        lambda out: pipeline.write_rows_csv(blocks, out),
        lambda: _Stream(chain.from_iterable(pipeline.rows_to_json([block]) for block in blocks)),
    )
    return 0


def _cmd_limits(args) -> int:
    model = Model(args.model)
    stat = _STAT_CHOICES[args.stat]
    params = _pfold_params(args)
    if stat is Stat.ETE:
        law = {"kind": "two_scale_distance"}
        summary = asdict(limits.ete_limit_moments(model, _ete_model(args), tol=args.tol, p=params))
    else:
        dist = limits.limit_of(model, stat, params)
        law = dist.describe()
        try:
            summary = asdict(limits.moments(dist))
        except UnsupportedCombination:  # the joint law has no scalar moments
            summary = {"mean": None, "variance": None, "certified_error": 0.0}
    payload = {"model": model.value, "stat": stat.value, "law": law, **summary}
    json.dump(payload, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")
    return 0


# the deg and joint tables of each model; builders are looked up in exact
# as they run, so that one rebound there (bench/tracer.py) is the one called
_EXACT_TABLES = {
    ("deg", Model.DYCK): lambda n, p: exact.dyck_deg_counts(n),
    ("deg", Model.MOTZKIN): lambda n, p: exact.motzkin_joint_counts(n).marginal("deg"),
    ("joint", Model.DYCK): lambda n, p: exact.dyck_deg_counts(n),
    ("joint", Model.MOTZKIN): lambda n, p: exact.motzkin_joint_counts(n),
    ("joint", Model.PFOLD): lambda n, p: exact.pfold_joint_table(n, p),
}


def _cmd_exact(args) -> int:
    model = Model(args.model)
    params = _pfold_params(args)
    if args.stat == "deg" and model is Model.PFOLD:
        raise UnsupportedCombination("use --stat joint for the grammar model")
    if (args.stat, model) in _EXACT_TABLES:
        table = _EXACT_TABLES[args.stat, model](args.n, params)
    else:  # a first-arch statistic, whose support exact decides
        table = exact.hel_stm_counts(model, args.n, _STAT_CHOICES[args.stat], params)
    (table.write_json if args.format == "json" else table.write_csv)(sys.stdout)
    return 0


def _cmd_sample(args) -> int:
    rng = sampling.RngHandle(args.seed)
    for steps in sampling._sampled_blocks(Model(args.model), args.n, args.count, _pfold_params(args), rng):
        sys.stdout.write(sampling.step_rows_text(steps))
    return 0


def _cmd_shuffle(args) -> int:
    sampling._check_count(args.count)
    rng = sampling.RngHandle(args.seed)
    if args.files:
        texts = [Path(path).read_text() for path in args.files]
    else:
        with _stdin() as fh:
            texts = [fh.read()]
    out = []
    for text in texts:
        for rec_id, seq in shuffling.read_fasta(text):
            for i in range(1, args.count + 1):
                out.append((f"{rec_id}_shuf{i}", shuffling.klet_shuffle(seq, args.k, rng)))
    sys.stdout.write(shuffling.write_fasta(out))
    return 0


def _cmd_compare(args) -> int:
    stat = _STAT_CHOICES[args.stat]
    values = chain.from_iterable(block[pipeline._STAT_COLUMN[stat]] for block in _rows(args))
    report = pipeline.compare(values, Model(args.model), stat, _pfold_params(args))
    _emit(args, lambda out: pipeline.write_compare_csv(report, out), lambda: asdict(report))
    return 0


def _cmd_heatmap(args) -> int:
    cells = pipeline.heatmap(_rows(args), _ete_model(args))
    _emit(args, lambda out: pipeline.write_heatmap_csv(cells, out), lambda: [asdict(c) for c in cells])
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "limits": _cmd_limits,
    "exact": _cmd_exact,
    "sample": _cmd_sample,
    "shuffle": _cmd_shuffle,
    "compare": _cmd_compare,
    "heatmap": _cmd_heatmap,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except UnsupportedCombination as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (StructureError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: stats, limits, exact, sample, shuffle, compare, heatmap.
Global flags (before the subcommand) configure the distance model, grammar
parameters, seed and output format.  Exit codes: 0 success,
1 input error, 2 unsupported model/statistic combination.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import exact, limits, pipeline, sampling, shuffling, structure
from .exact import Model, PfoldParams, Stat, UnsupportedCombination
from .structure import EteModel, StructureError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for
        # unsupported combinations only, so usage problems are input errors
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_STAT_CHOICES = {
    "deg": Stat.DEG,
    "unp": Stat.UNP,
    "chn": Stat.CHN,
    "len": Stat.LEN,
    "ete": Stat.ETE,
    "hel": Stat.HEL,
    "stm": Stat.STM,
    "stem-helices": Stat.STEM_HELICES,
    "joint": Stat.JOINT,
}


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
    parser.add_argument("--format", choices=["csv", "json"], default="csv")

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
    p_compare.add_argument("--stat", choices=list(_STAT_CHOICES), required=True)

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
        return PfoldParams(p1=float(data["p1"]), p2=float(data["p2"]), p3=float(data["p3"]))
    values = [float(tok) for tok in stripped.split()]
    if len(values) != 3:
        raise StructureError("pfold params file must hold exactly p1 p2 p3")
    return PfoldParams(*values)


def _read_structure_files(paths: list[str]) -> list[structure.ParsedRecord]:
    records: list[structure.ParsedRecord] = []
    if not paths:
        records.extend(structure.read_dot_bracket_records(sys.stdin.read(), "stdin"))
        return records
    for path in paths:
        text = Path(path).read_text()
        stem = Path(path).stem
        if _looks_like_bpseq(path, text):
            records.extend(structure.read_bpseq_records(text, rec_id=stem, group=stem))
        else:
            records.extend(structure.read_dot_bracket_records(text, default_group=stem))
    return records


def _looks_like_bpseq(path: str, text: str) -> bool:
    if path.endswith(".bpseq"):
        return True
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        return len(fields) == 3 and fields[0].isdigit() and fields[2].lstrip("-").isdigit()
    return False


def _emit(args, csv_writer, json_payload) -> None:
    """Write CSV, or the JSON payload that json_payload() builds on demand."""
    if args.format == "json":
        json.dump(json_payload(), sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
    else:
        csv_writer(sys.stdout)


def _cmd_stats(args) -> int:
    rows, blocks, errors = pipeline.run_stats(_read_structure_files(args.files), _ete_model(args))
    for rec_id, message in errors:
        sys.stderr.write(f"skipped {rec_id}: {message}\n")
    if args.summary:
        _emit(args, lambda out: pipeline.write_summary_csv(blocks, out), lambda: pipeline.summary_to_json(blocks))
    else:
        _emit(args, lambda out: pipeline.write_rows_csv(rows, out), lambda: pipeline.rows_to_json(rows))
    return 0


def _law_payload(law) -> dict:
    if isinstance(law, limits.NegBinomial):
        return {"kind": "neg_binomial", "offset": law.offset, "r": law.r, "p": float(law.p)}
    if isinstance(law, limits.JointNB):
        return {"kind": "joint_nb", "a": float(law.a), "b": float(law.b), "c": float(law.c)}
    if isinstance(law, limits.LenDist):
        joint = law.joint
        return {
            "kind": "substituted_len",
            "a": float(joint.a),
            "b": float(joint.b),
            "c": float(joint.c),
        }
    raise UnsupportedCombination("unknown law kind")


def _cmd_limits(args) -> int:
    model = Model(args.model)
    stat = _STAT_CHOICES[args.stat]
    params = _pfold_params(args)
    if stat is Stat.ETE:
        summary = limits.ete_limit_moments(model, _ete_model(args), tol=args.tol, p=params)
        payload = {
            "model": model.value,
            "stat": stat.value,
            "law": {"kind": "two_scale_distance"},
            "mean": float(summary.mean),
            "variance": float(summary.variance),
            "certified_error": float(summary.certified_error),
        }
    else:
        law = limits.limit_of(model, stat, params)
        payload = {"model": model.value, "stat": stat.value, "law": _law_payload(law)}
        if isinstance(law, limits.JointNB):
            payload.update({"mean": None, "variance": None, "certified_error": 0.0})
        else:
            summary = limits.moments(law)
            payload.update(
                {
                    "mean": float(summary.mean),
                    "variance": float(summary.variance),
                    "certified_error": float(summary.certified_error),
                }
            )
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_exact(args) -> int:
    model = Model(args.model)
    params = _pfold_params(args)
    if args.stat == "deg":
        if model is Model.DYCK:
            table = exact.dyck_deg_counts(args.n)
        elif model is Model.MOTZKIN:
            table = exact.motzkin_deg_counts(args.n)
        else:
            raise UnsupportedCombination("use --stat joint for the grammar model")
    elif args.stat == "joint":
        if model is Model.MOTZKIN:
            table = exact.motzkin_joint_counts(args.n)
        elif model is Model.PFOLD:
            table = exact.pfold_joint_table(args.n, params)
        elif model is Model.DYCK:
            table = exact.dyck_deg_counts(args.n)
        else:  # pragma: no cover
            raise UnsupportedCombination(args.model)
    else:
        stat = _STAT_CHOICES[args.stat]
        table = exact.hel_stm_counts(model, args.n, stat, params)
    if args.format == "json":
        payload = {
            "model": table.model.value,
            "n": table.size,
            "axes": list(table.axes),
            "entries": {exact._key_str(k): table.entries[k] for k in table.ordered_keys()},
        }
        json.dump(payload, sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
    else:
        table.write_csv(sys.stdout)
    return 0


def _cmd_sample(args) -> int:
    model = Model(args.model)
    rng = sampling.RngHandle(args.seed)
    params = _pfold_params(args)
    if model is Model.DYCK:
        steps = sampling.sample_dyck_steps(args.n, args.count, rng)
        structures = (sampling._steps_to_structure(row) for row in steps)
    elif model is Model.MOTZKIN:
        steps = sampling.sample_motzkin_steps(args.n, args.count, rng)
        structures = (sampling._steps_to_structure(row) for row in steps)
    else:
        structures = iter(sampling.sample_pfold_many(args.n, args.count, params, rng))
    for s in structures:
        sys.stdout.write(structure.to_dot_bracket(s) + "\n")
    return 0


def _cmd_shuffle(args) -> int:
    rng = sampling.RngHandle(args.seed)
    if args.files:
        texts = [Path(path).read_text() for path in args.files]
    else:
        texts = [sys.stdin.read()]
    out = []
    for text in texts:
        for rec_id, seq in shuffling.read_fasta(text):
            for i in range(1, args.count + 1):
                out.append((f"{rec_id}_shuf{i}", shuffling.klet_shuffle(seq, args.k, rng)))
    sys.stdout.write(shuffling.write_fasta(out))
    return 0


def _cmd_compare(args) -> int:
    rows, _, errors = pipeline.run_stats(_read_structure_files(args.files), _ete_model(args))
    for rec_id, message in errors:
        sys.stderr.write(f"skipped {rec_id}: {message}\n")
    report = pipeline.compare(rows, Model(args.model), _STAT_CHOICES[args.stat], _pfold_params(args))
    _emit(args, lambda out: pipeline.write_compare_csv(report, out), lambda: asdict(report))
    return 0


def _cmd_heatmap(args) -> int:
    rows, _, errors = pipeline.run_stats(_read_structure_files(args.files), _ete_model(args))
    for rec_id, message in errors:
        sys.stderr.write(f"skipped {rec_id}: {message}\n")
    cells = pipeline.heatmap(rows, _ete_model(args))
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

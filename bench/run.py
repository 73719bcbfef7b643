#!/usr/bin/env python3
"""End-to-end benchmark of the endprox CLI on three workloads.

One run:

    python3 bench/run.py --workload dataset --seed 1 --seconds 30 --trace 0

builds the workload's inputs from the seed, times `endprox --help` in fresh
interpreters (set-up), then runs the workload's commands one at a time as
subprocesses, in whole rounds, until the run length is used.  Every output
is checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(each command run in-process under bench/tracer.py).  Lines before it list
the per-command times.

All workloads, repeated, saved to a result file; and two such files
compared:

    python3 bench/run.py --workload all --repeat 5 --out bench/results/a.json
    python3 bench/run.py --compare bench/results/a.json bench/results/b.json

Run from the root of a checkout: the program is taken from `src/` there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRIPT = ROOT / "scripts" / "convergence_report.py"
WORK = BENCH / ".work"

WORKLOADS = ("dataset", "null_model", "tables")
SETUP_REPEATS = 7
MIN_ROUNDS = 2
COMMAND_TIMEOUT_S = 150

# Grammar parameters whose root rho ~ 1.369 makes the inside weights
# underflow past length ~2321; the two operations that use them fail.
HIGH_RHO = {"p1": 0.2, "p2": 0.9, "p3": 0.2}
DEFAULT_PFOLD = (0.868534, 0.105397, 0.787640)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = {
    "dataset": ["stats_s", "summary_s", "compare_s"],
    "null_model": ["sample_pfold_s", "sample_motzkin_s", "sample_dyck_s", "shuffle_s"],
    "tables": ["exact_motzkin_s", "exact_dyck_s", "exact_pfold_s", "convergence_s", "limits_s"],
}
PER_LAYER = {
    "cli.main.self_s": "s",
    "structure.read_dot_bracket_records.s": "s",
    "structure.parse_dot_bracket.calls": "count",
    "structure.exterior_stats.s": "s",
    "structure.shortest_path_stats.s": "s",
    "structure.pseudoknotted": "count",
    "structure.to_dot_bracket.s": "s",
    "structure.to_dot_bracket.calls": "count",
    "pipeline.run_stats.s": "s",
    "pipeline.summarize.s": "s",
    "pipeline.compare.s": "s",
    "pipeline.heatmap.s": "s",
    "pipeline.write_rows_csv.s": "s",
    "pipeline.rows_to_json.s": "s",
    "pipeline.records_skipped": "count",
    "sampling.sample_pfold_many.n200.s": "s",
    "sampling.sample_pfold_many.n2000.s": "s",
    "sampling.sample_motzkin_steps.n200.s": "s",
    "sampling.sample_motzkin_steps.n1000.s": "s",
    "sampling.sample_dyck_steps.s": "s",
    "sampling.structures": "count",
    "exact.pfold_inside.s": "s",
    "exact.pfold_inside.calls": "count",
    "exact.motzkin_joint_counts.s": "s",
    "exact.hel_stm_counts.s": "s",
    "exact.dyck_deg_counts.s": "s",
    "exact.pfold_joint_table.s": "s",
    "exact.conditional_law.s": "s",
    "exact.CountTable.write_csv.s": "s",
    "exact.table_rows": "count",
    "limits.limit_of.s": "s",
    "limits.ete_limit_moments.s": "s",
    "shuffling.klet_shuffle.s": "s",
    "shuffling.klet_shuffle.calls": "count",
    "shuffling.read_fasta.s": "s",
}


@dataclass
class Op:
    """One command of a workload round."""

    args: list[str]  # endprox CLI arguments, or a script path and its arguments
    metric: Optional[str]  # per-command metric its time adds to; None: wall_s only
    check: Callable[[str, str], None]  # (stdout, stderr) -> raises CheckFailed
    known_fault: bool = False  # fails today because of a named program fault
    script: bool = False


# ---------------------------------------------------------------------------
# workloads: inputs, expected values and commands, built once per run


def dataset_ops(seed: int, work: Path) -> list[Op]:
    records = inputs.dataset(np.random.default_rng(seed))
    path = work / "dataset.dbn"
    path.write_text(inputs.dataset_text(records))
    state = checks.DatasetState(checks.expected_records(records))
    f = str(path)
    return [
        Op(["stats", f], "stats_s", lambda out, err: checks.check_stats(state, out, err)),
        Op(["--format", "json", "stats", "--summary", f], "summary_s",
           lambda out, err: checks.check_summary(state, out, err)),
        Op(["compare", "--model", "pfold", "--stat", "deg", f], "compare_s",
           lambda out, err: checks.check_compare(state, out, err)),
        Op(["heatmap", f], "compare_s", lambda out, err: checks.check_heatmap(state, out, err)),
    ]


def _grammar_joint_law(n: int) -> dict[tuple[int, int], float]:
    from endprox.exact import pfold_joint_probs

    return {(deg, unp): p for (unp, deg), p in pfold_joint_probs(n).items()}


def _sample_op(model: str, n: int, count: int, seed: int, metric: Optional[str],
               law: Optional[dict] = None, mean_deg: Optional[float] = None,
               params: Optional[str] = None) -> Op:
    length = 2 * n if model == "dyck" else n
    head = ["--pfold-params", params] if params else []
    if law is not None and mean_deg is None:
        mean_deg = sum(deg * p for (deg, _), p in law.items())
    return Op(
        head + ["--seed", str(seed), "sample", "--model", model, "--n", str(n), "--count", str(count)],
        metric,
        lambda out, err: checks.check_sample(out, model, length, count, mean_deg, law),
        known_fault=params is not None,
    )


def null_model_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    sampler_seed = int(rng.integers(2**31))
    records = inputs.fasta(rng)
    fasta = work / "seqs.fa"
    fasta.write_text(inputs.fasta_text(records))
    params = work / "high_rho.json"
    params.write_text(json.dumps(HIGH_RHO))
    return [
        _sample_op("pfold", 200, 2000, sampler_seed, "sample_pfold_s", _grammar_joint_law(200)),
        _sample_op("pfold", 2000, 100, sampler_seed, "sample_pfold_s", _grammar_joint_law(2000)),
        _sample_op("motzkin", 200, 1000, sampler_seed, "sample_motzkin_s",
                   checks.motzkin_joint_law(200), checks.motzkin_mean_deg(200)),
        _sample_op("motzkin", 1000, 200, sampler_seed, "sample_motzkin_s",
                   checks.motzkin_joint_law(1000), checks.motzkin_mean_deg(1000)),
        _sample_op("dyck", 300, 300, sampler_seed, "sample_dyck_s",
                   checks.dyck_joint_law(300), checks.dyck_mean_deg(300)),
        Op(["--seed", str(sampler_seed), "shuffle", "--k", "2", str(fasta)], "shuffle_s",
           lambda out, err: checks.check_shuffle(out, records)),
        _sample_op("pfold", 2500, 2, sampler_seed, None, params=str(params)),
    ]


def tables_ops(seed: int, work: Path) -> list[Op]:
    # the tables take no random input; the seed changes nothing here
    params = work / "high_rho.json"
    params.write_text(json.dumps(HIGH_RHO))
    joint = checks.motzkin_joint_expected(120)
    motzkin_150 = checks.motzkin_numbers(150)[150]
    dyck_ete = checks.dyck_ete_mean()
    high = tuple(HIGH_RHO.values())

    def exact_op(model, n, stat, metric, check, head=()):
        return Op([*head, "exact", "--model", model, "--n", str(n), "--stat", stat], metric, check,
                  known_fault=bool(head))

    def limits_op(model):
        return Op(["limits", "--model", model, "--stat", "ete"], "limits_s",
                  lambda out, err: checks.check_limits_ete(out, model, dyck_ete))

    def grammar_check(n, stat, p):
        mass = checks.grammar_mass(*p, n)
        return lambda out, err: checks.check_grammar_table(out, n, stat, mass)

    return [
        exact_op("motzkin", 120, "joint", "exact_motzkin_s",
                 lambda out, err: checks.check_motzkin_joint(out, 120, joint)),
        exact_op("motzkin", 150, "stm", "exact_motzkin_s",
                 lambda out, err: checks.check_motzkin_stm(out, 150, motzkin_150)),
        exact_op("dyck", 300, "deg", "exact_dyck_s", lambda out, err: checks.check_dyck_deg(out, 300)),
        exact_op("pfold", 2000, "joint", "exact_pfold_s", grammar_check(2000, "unp,deg", DEFAULT_PFOLD)),
        exact_op("pfold", 1000, "hel", "exact_pfold_s", grammar_check(1000, "hel", DEFAULT_PFOLD)),
        limits_op("dyck"),
        limits_op("motzkin"),
        limits_op("pfold"),
        Op([str(SCRIPT)], "convergence_s", lambda out, err: checks.check_convergence(out), script=True),
        exact_op("pfold", 2500, "hel", None, grammar_check(2500, "hel", high),
                 head=("--pfold-params", str(params))),
    ]


BUILDERS = {"dataset": dataset_ops, "null_model": null_model_ops, "tables": tables_ops}


# ---------------------------------------------------------------------------
# running commands


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Launcher:
    """The small process that forks every measured command (launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env(),
        )

    def run(self, argv: list[str], out_path: Path, err_path: Path) -> tuple[int, float, float]:
        """Run argv to completion; (exit code, wall seconds, max RSS in MB)."""
        request = [argv, str(out_path), str(err_path), COMMAND_TIMEOUT_S]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        code, elapsed, rss = json.loads(self.proc.stdout.readline())
        return code, elapsed, rss

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def command_line(op: Op, trace: bool, spans: Path) -> list[str]:
    if trace:
        kind = ["script"] if op.script else ["cli"]
        return [sys.executable, str(BENCH / "tracer.py"), str(spans), *kind, *op.args]
    if op.script:
        return [sys.executable, *op.args]
    return [sys.executable, "-m", "endprox.cli", *op.args]


def measure_setup(launcher: Launcher, work: Path) -> float:
    """Median wall time of a fresh interpreter importing endprox and
    building its parser (`endprox --help`), after one untimed warm-up."""
    argv = [sys.executable, "-m", "endprox.cli", "--help"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        code, elapsed, _ = launcher.run(argv, work / "help.out", work / "help.err")
        if code != 0:
            raise SystemExit(f"endprox --help exited {code}")
        times.append(elapsed)
    return statistics.median(times[1:])


@dataclass
class Round:
    times: dict  # metric -> seconds in this round
    wall: float
    peak_rss_mb: float
    layers: dict  # per-layer metric -> value (traced rounds)
    failed: int
    wrong: list


def run_round(launcher: Launcher, ops: list[Op], work: Path, trace: bool) -> Round:
    times: dict = {}
    layers: dict = {}
    wall = peak = 0.0
    failed = 0
    wrong = []
    for i, op in enumerate(ops):
        out_path, err_path, spans = work / f"op{i}.out", work / f"op{i}.err", work / f"op{i}.spans"
        code, elapsed, rss = launcher.run(command_line(op, trace, spans), out_path, err_path)
        wall += elapsed
        peak = max(peak, rss)
        if op.metric:
            times[op.metric] = times.get(op.metric, 0.0) + elapsed
        if trace and spans.exists():
            summary = json.loads(spans.read_text())
            spans.unlink()
            for label, seconds in summary["seconds"].items():
                name = label + (".self_s" if label == "cli.main" else ".s")
                layers[name] = layers.get(name, 0.0) + seconds
            for name, count in summary["counts"].items():
                layers[name] = layers.get(name, 0) + count
        err = err_path.read_text()
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.strip()[-200:]}"
        else:
            try:
                op.check(out_path.read_text(), err)
            except (checks.CheckFailed, ValueError, TypeError, KeyError, IndexError) as exc:
                problem = f"wrong output: {exc!r}"[:300]
        if problem is not None:
            # a crash, or the named fault of a known-fault operation, is a
            # failed operation; any other wrong output makes the run incorrect
            if op.known_fault or code != 0:
                failed += 1
                print(f"failed: {' '.join(op.args)}: {problem}", file=sys.stderr)
            else:
                wrong.append(problem)
                print(f"WRONG: {' '.join(op.args)}: {problem}", file=sys.stderr)
    return Round(times, wall, peak, layers, failed, wrong)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result (see `driver_line`)."""
    started = perf_counter()
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        ops = BUILDERS[workload](seed, work)
        setup = None if trace else measure_setup(launcher, work)
        rounds: list[Round] = []
        measured = 0.0
        while len(rounds) < MIN_ROUNDS or measured + rounds[-1].wall <= seconds:
            rounds.append(run_round(launcher, ops, work, trace))
            measured += rounds[-1].wall
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    median = statistics.median
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "correct": not any(r.wrong for r in rounds),
        "attempted": len(rounds) * len(ops),
        "failed": sum(r.failed for r in rounds),
        "wall_s": median([r.wall for r in rounds]),
        "run_s": perf_counter() - started,
    }
    if trace:
        result["metrics"] = {
            name: {"value": median([r.layers.get(name, 0) for r in rounds]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        values = {
            "setup_s": setup,
            "wall_s": result["wall_s"],
            "peak_rss_mb": median([r.peak_rss_mb for r in rounds]),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        result["commands"] = {
            name: {"value": median([r.times[name] for r in rounds]), "unit": "s"}
            for name in COMMAND_METRICS[workload]
        }
    return result


def driver_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def describe(result: dict) -> None:
    kind = "traced" if result["trace"] else "untraced"
    print(f"# {result['workload']} seed={result['seed']} {kind}: {result['rounds']} rounds, "
          f"{result['attempted']} attempted, {result['failed']} failed, correct={result['correct']}, "
          f"wall_s={result['wall_s']:.4f} s, run took {result['run_s']:.1f} s")
    for name, metric in {**result.get("commands", {}), **result["metrics"]}.items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")


# ---------------------------------------------------------------------------
# comparing two result files


def _spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(results: list[dict]) -> None:
    """Median and spread of every metric over the runs of each workload."""
    for workload in WORKLOADS:
        runs = [r for r in results if r["workload"] == workload]
        if not runs:
            continue
        print(f"# {workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} attempted, "
              f"{sum(r['failed'] for r in runs)} failed")
        for group in ("metrics", "commands"):
            for name, metric in runs[0].get(group, {}).items():
                values = [r[group][name]["value"] for r in runs]
                spread = _spread(values) if statistics.median(values) else 0.0
                print(f"#   {name:<40} median {statistics.median(values):.6g} {metric['unit']}  spread {spread:.3f}")


def compare(base_path: str, new_path: str) -> None:
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    command_bound = bounds["wall_s"]
    base_runs = json.loads(Path(base_path).read_text())["runs"]
    new_runs = json.loads(Path(new_path).read_text())["runs"]
    for workload in WORKLOADS:
        base = [r for r in base_runs if r["workload"] == workload and not r["trace"]]
        new = [r for r in new_runs if r["workload"] == workload and not r["trace"]]
        if not base or not new:
            continue
        print(f"{workload}: base {len(base)} runs, {sum(r['attempted'] for r in base)} attempted, "
              f"{sum(r['failed'] for r in base)} failed; new {len(new)} runs, "
              f"{sum(r['attempted'] for r in new)} attempted, {sum(r['failed'] for r in new)} failed")
        for name in [*END_TO_END, *COMMAND_METRICS[workload]]:
            group = "metrics" if name in END_TO_END else "commands"
            b = [r[group][name]["value"] for r in base]
            n = [r[group][name]["value"] for r in new]
            unit = base[0][group][name]["unit"]
            bound = bounds.get(name, command_bound)
            ratio = statistics.median(n) / statistics.median(b)
            spread = max(_spread(b), _spread(n))
            if spread > bound:
                verdict = "unresolved"
            elif ratio > 1 + bound:
                verdict = "worse"
            elif ratio < 1 - bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:<18} base {statistics.median(b):.4f} {unit}  new {statistics.median(n):.4f} {unit}  "
                  f"ratio {ratio:.3f} of base  spread {spread:.3f} (bound {bound})  {verdict}")


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--out", help="write every run's full result to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    missing = [p for p in (SRC / "endprox" / "cli.py", SCRIPT) if not p.is_file()]
    if missing:
        print(f"error: not an endprox checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        for i in range(args.repeat):
            result = run(workload, args.seed + i, args.seconds, bool(args.trace))
            results.append(result)
            describe(result)
            print(driver_line(result), flush=True)
    if len(results) > 1:
        summarize(results)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

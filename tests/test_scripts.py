"""The scripts under scripts/, and the benchmark's tracer, run end to end
against the package in src/."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_limit_table():
    lines = run_script("scripts/limit_table.py").splitlines()
    assert lines[0].split() == ["model", "stat", "law", "mean", "variance"]
    assert set(lines[1]) == {"-"}
    rows = []
    for line in lines[2:]:
        fields = line.split()
        mean, variance = float(fields[-2]), float(fields[-1])
        assert mean > 0 and variance >= 0
        rows.append(" ".join(fields[:2]))
    # every supported pair: one dropped by mistake would vanish from the table
    assert rows == [
        "dyck deg", "dyck hel", "dyck ete",
        "motzkin deg", "motzkin unp", "motzkin chn", "motzkin len", "motzkin hel", "motzkin stm",
        "motzkin stem_helices", "motzkin ete",
        "pfold deg", "pfold unp", "pfold chn", "pfold len", "pfold hel", "pfold ete",
    ]


def test_convergence_report():
    rows = list(csv.DictReader(io.StringIO(run_script("scripts/convergence_report.py", "--sizes", "250", "500"))))
    tvs = defaultdict(dict)
    for row in rows:
        tvs[(row["model"], row["stat"])][int(row["n"])] = float(row["tv"])
    assert len(rows) == 16 and len(tvs) == 8
    for pair, by_n in tvs.items():
        assert set(by_n) == {250, 500}
        assert 0.0 <= by_n[500] < by_n[250] <= 1.0, pair


def test_tracer_finds_its_spans(tmp_path):
    # the benchmark's per-layer instrument patches package functions by
    # module and name, so a deleted or renamed one must show here
    spans = tmp_path / "spans.json"
    sample = ["--seed", "3", "sample", "--model", "motzkin", "--n", "60", "--count", "5"]
    run_script("bench/tracer.py", str(spans), "cli", *sample)
    assert "sampling.sample_motzkin_steps.n60" in json.loads(spans.read_text())["seconds"]
    run_script("bench/tracer.py", str(spans), "cli", "exact", "--model", "dyck", "--n", "20", "--stat", "deg")
    summary = json.loads(spans.read_text())
    assert {"exact.dyck_deg_counts", "exact.CountTable.write_csv"} <= set(summary["seconds"])
    assert summary["counts"]["exact.table_rows"] == 20
    # exact finds its builders in the exact module as it runs, so the
    # rebound ones are the ones called
    for model, n, own in (("motzkin", "20", "exact.motzkin_joint_counts"), ("pfold", "50", "exact.pfold_joint_table")):
        run_script("bench/tracer.py", str(spans), "cli", "exact", "--model", model, "--n", n, "--stat", "joint")
        assert {own, "exact.CountTable.write_csv"} <= set(json.loads(spans.read_text())["seconds"]), model
    records = tmp_path / "three.dbn"
    records.write_text(">a\n((..))..\n>bad\n((.)\n>c\n.([..)].\n")
    # each dataset command also records its own pipeline span, so that its
    # per-layer metric cannot silently read 0
    for command, own in (
        (["stats"], "pipeline.write_rows_csv"),
        (["--format", "json", "stats"], "pipeline.rows_to_json"),
        (["stats", "--summary"], "pipeline.summarize"),
        (["compare", "--model", "pfold", "--stat", "deg"], "pipeline.compare"),
        (["heatmap"], "pipeline.heatmap"),
    ):
        run_script("bench/tracer.py", str(spans), "cli", *command, str(records))
        summary = json.loads(spans.read_text())
        assert {"structure.read_dot_bracket_records", "pipeline.run_stats", own} <= set(summary["seconds"]), command
        assert summary["counts"]["pipeline.records_skipped"] == 1, command
    # shuffle feeds the null_model workload's shuffling metrics: one
    # read_fasta per file, and one klet_shuffle per record and shuffle
    fasta = tmp_path / "three.fa"
    fasta.write_text(">a\nACGUACGU\n>b\nGGCAUUAC\nCAU\n>c\nUUAGCA\n")
    run_script("bench/tracer.py", str(spans), "cli", "shuffle", "--k", "2", "--count", "4", str(fasta))
    summary = json.loads(spans.read_text())
    assert {"shuffling.read_fasta", "shuffling.klet_shuffle"} <= set(summary["seconds"])
    assert summary["counts"]["shuffling.klet_shuffle.calls"] == 3 * 4
    assert summary["counts"]["shuffling.read_fasta.calls"] == 1

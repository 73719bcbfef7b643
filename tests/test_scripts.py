"""The scripts under scripts/ run end to end against the installed package."""

import csv
import io
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_limit_table():
    lines = run_script("limit_table.py").splitlines()
    assert lines[0].split() == ["model", "stat", "law", "mean", "variance"]
    assert set(lines[1]) == {"-"}
    stats = defaultdict(set)
    for line in lines[2:]:
        fields = line.split()
        mean, variance = float(fields[-2]), float(fields[-1])
        assert mean > 0 and variance >= 0
        stats[fields[0]].add(fields[1])
    assert set(stats) == {"dyck", "motzkin", "pfold"}
    assert all({"deg", "ete"} <= found for found in stats.values())


def test_convergence_report():
    rows = list(csv.DictReader(io.StringIO(run_script("convergence_report.py", "--sizes", "250", "500"))))
    tvs = defaultdict(dict)
    for row in rows:
        tvs[(row["model"], row["stat"])][int(row["n"])] = float(row["tv"])
    assert len(rows) == 16 and len(tvs) == 8
    for pair, by_n in tvs.items():
        assert set(by_n) == {250, 500}
        assert 0.0 <= by_n[500] < by_n[250] <= 1.0, pair

"""Run one endprox command in-process with spans around each layer's public
functions, then write the layers' self times and counts as JSON.

    python bench/tracer.py SPANS_OUT cli [endprox arguments...]
    python bench/tracer.py SPANS_OUT script PATH [script arguments...]

`cli` calls `endprox.cli.main(argv)`; `script` runs a script through
`runpy`.  Every function below is replaced at its module attribute and at
every name in an endprox module that was bound to it by import, so calls
made through either route are recorded.  Spans stay in memory until the
command ends.  A span's self time is its duration minus the time its child
spans cover.  Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
from collections import Counter
from time import perf_counter

import endprox
from endprox import cli, exact

# (module, attribute) -> span label; "{n}" takes the size argument.  The
# label plus ".s" (cli.main: ".self_s") or ".calls" names the metric.
SPANNED = {
    ("endprox.cli", "main"): "cli.main",
    ("endprox.structure", "read_dot_bracket_records"): "structure.read_dot_bracket_records",
    ("endprox.structure", "exterior_stats"): "structure.exterior_stats",
    ("endprox.structure", "shortest_path_stats"): "structure.shortest_path_stats",
    ("endprox.structure", "to_dot_bracket"): "structure.to_dot_bracket",
    ("endprox.pipeline", "run_stats"): "pipeline.run_stats",
    ("endprox.pipeline", "summarize"): "pipeline.summarize",
    ("endprox.pipeline", "compare"): "pipeline.compare",
    ("endprox.pipeline", "heatmap"): "pipeline.heatmap",
    ("endprox.pipeline", "write_rows_csv"): "pipeline.write_rows_csv",
    ("endprox.pipeline", "rows_to_json"): "pipeline.rows_to_json",
    ("endprox.sampling", "sample_pfold_many"): "sampling.sample_pfold_many.n{n}",
    ("endprox.sampling", "sample_motzkin_steps"): "sampling.sample_motzkin_steps.n{n}",
    ("endprox.sampling", "sample_dyck_steps"): "sampling.sample_dyck_steps",
    ("endprox.exact", "pfold_inside"): "exact.pfold_inside",
    ("endprox.exact", "motzkin_joint_counts"): "exact.motzkin_joint_counts",
    ("endprox.exact", "hel_stm_counts"): "exact.hel_stm_counts",
    ("endprox.exact", "dyck_deg_counts"): "exact.dyck_deg_counts",
    ("endprox.exact", "pfold_joint_table"): "exact.pfold_joint_table",
    ("endprox.exact", "conditional_law"): "exact.conditional_law",
    ("endprox.limits", "limit_of"): "limits.limit_of",
    ("endprox.limits", "ete_limit_moments"): "limits.ete_limit_moments",
    ("endprox.shuffling", "klet_shuffle"): "shuffling.klet_shuffle",
    ("endprox.shuffling", "read_fasta"): "shuffling.read_fasta",
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [label, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, fn, label: str, after=None):
        """Wrap fn in a span.  A sampler called from inside another
        sampler's span (the Motzkin composition draw calls the Dyck
        sampler) records nothing, so each sampler metric covers the calls
        the CLI made."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if label.startswith("sampling.") and any(
                self.spans[i][0].startswith("sampling.") for i in self.stack
            ):
                return fn(*args, **kwargs)
            name = label.format(n=args[0]) if "{n}" in label else label
            index = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter(), None])
            self.stack.append(index)
            self.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][3] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        self_s = Counter()
        for label, _, start, end in self.spans:
            self_s[label] += end - start
        for _, parent, start, end in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {"seconds": dict(self_s), "counts": dict(self.counts)}


def _count_skipped(counts, args, result):
    counts["pipeline.records_skipped"] += len(result[2])


def _count_structures(counts, args, result):
    counts["sampling.structures"] += len(result)


def _count_table_rows(counts, args, result):
    counts["exact.table_rows"] += len(args[0].entries)


AFTER = {
    "pipeline.run_stats": _count_skipped,
    "sampling.sample_pfold_many.n{n}": _count_structures,
    "sampling.sample_motzkin_steps.n{n}": _count_structures,
    "sampling.sample_dyck_steps": _count_structures,
}


def _counted(fn, recorder: Recorder):
    # parse_dot_bracket runs once per record: counted, not timed, so its
    # time stays in read_dot_bracket_records' self time
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.counts["structure.parse_dot_bracket.calls"] += 1
        recorder.counts["structure.pseudoknotted"] += result.crossing
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every endprox module attribute bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "endprox" or name.startswith("endprox."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    for (module_name, attr), label in SPANNED.items():
        original = getattr(sys.modules[module_name], attr)
        _rebind(original, recorder.span(original, label, AFTER.get(label)))
    parse = endprox.structure.parse_dot_bracket
    _rebind(parse, _counted(parse, recorder))
    write_csv = exact.CountTable.write_csv
    exact.CountTable.write_csv = recorder.span(write_csv, "exact.CountTable.write_csv", _count_table_rows)


def main() -> int:
    out_path, kind, *rest = sys.argv[1:]
    recorder = Recorder()
    install(recorder)
    try:
        if kind == "cli":
            return cli.main(rest)
        sys.argv = rest
        runpy.run_path(rest[0], run_name="__main__")
        return 0
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(recorder.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())

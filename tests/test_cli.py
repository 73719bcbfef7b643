import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from endprox import pipeline, sampling
from endprox.cli import _STAT_CHOICES, main
from endprox.exact import Model, PfoldParams, Stat
from endprox.limits import limit_of
from endprox.sampling import step_rows_text
from exact_oracle import motzkin_deg_counts
from test_scan import _traced_peak

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def run(capsys, monkeypatch):
    def _run(argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestStats:
    def test_rows_csv(self, run, tmp_path):
        path = tmp_path / "toy.dbn"
        path.write_text("> r1 group=fam\n.(...)..(...).\n>r2\n((...))\n")
        code, out, err = run(["stats", str(path)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["id"] == "r1" and rows[0]["group"] == "fam"
        assert rows[0]["deg"] == "2"
        assert float(rows[0]["ete_nm"]) == pytest.approx(2.80, abs=0.005)
        assert rows[1]["hel"] == "2"

    def test_summary_and_json(self, run, tmp_path):
        path = tmp_path / "toy.dbn"
        path.write_text(".(...)..(...).\n" * 3)
        code, out, _ = run(["--format", "json", "stats", "--summary", str(path)])
        assert code == 0
        blocks = json.loads(out)
        assert blocks[0]["n_structures"] == 3
        assert blocks[0]["means"]["deg"] == 2.0
        # three equal records of length 14: every variance is exactly 0 (float
        # sums in record order leave 2e-31 in rms_nm's)
        assert set(blocks[0]["variances"].values()) == {0.0}

    def test_stdin(self, run):
        code, out, _ = run(["stats"], stdin="(...)\n")
        assert code == 0 and "rec1" in out

    def test_bpseq_file(self, run, tmp_path):
        path = tmp_path / "toy.bpseq"
        path.write_text("1 A 5\n2 C 0\n3 G 0\n4 U 0\n5 A 1\n")
        code, out, _ = run(["stats", str(path)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["deg"] == "1" and rows[0]["id"] == "toy"

    @pytest.mark.parametrize("text", ["", "# c\n"])
    def test_bpseq_without_positions_is_skipped(self, run, tmp_path, text):
        empty = tmp_path / "e.bpseq"
        empty.write_text(text)
        assert run(["stats", str(empty)]) == (1, "", "error: every record failed to parse\n")
        good = tmp_path / "g.dbn"
        good.write_text("((..))\n")
        code, out, err = run(["stats", str(empty), str(good)])
        assert code == 0 and err == "skipped e: bpseq text has no position lines\n"
        assert [row["id"] for row in csv.DictReader(io.StringIO(out))] == ["rec1"]

    def test_csv_builds_no_json_payload(self, run, tmp_path, monkeypatch):
        def unused(*args):
            raise AssertionError("JSON payload built for CSV output")

        for name in ("rows_to_json", "summary_to_json"):
            monkeypatch.setattr(f"endprox.pipeline.{name}", unused)
        monkeypatch.setattr("endprox.cli.asdict", unused)
        path = tmp_path / "toy.dbn"
        path.write_text(".(...)..(...).\n((...))\n")
        for argv in (
            ["stats", str(path)],
            ["stats", "--summary", str(path)],
            ["compare", str(path), "--model", "motzkin", "--stat", "deg"],
            ["heatmap", str(path)],
        ):
            code, out, _ = run(argv)
            assert code == 0 and out

    def test_bad_file_exit_code(self, run):
        code, _, err = run(["stats", "/nonexistent/input.dbn"])
        assert code == 1

    def test_all_bad_records(self, run):
        code, _, err = run(["stats"], stdin="(((\n")
        assert code == 1


class TestLimits:
    def test_nb_payload(self, run):
        code, out, _ = run(["limits", "--model", "motzkin", "--stat", "chn"])
        assert code == 0
        payload = json.loads(out)
        assert payload["law"]["kind"] == "neg_binomial"
        assert payload["law"]["r"] == 2
        assert payload["mean"] == 4.0 and payload["variance"] == 12.0

    def test_ete(self, run):
        code, out, _ = run(["limits", "--model", "dyck", "--stat", "ete"])
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(2.893, abs=0.0025)

    def test_unsupported_exit_2(self, run):
        code, _, err = run(["limits", "--model", "pfold", "--stat", "stm"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["limits", "--model", "dyck", "--stat", "ete", "--tol", "1e-300"], "tail bound does not reach tol"),
            (["limits", "--model", "dyck", "--stat", "ete", "--tol", "1e-320"], "tail bound does not reach tol"),
            (["limits", "--model", "motzkin", "--stat", "ete", "--tol", "nan"], "tol must be finite and positive"),
            (["limits", "--model", "pfold", "--stat", "ete", "--tol", "inf"], "tol must be finite and positive"),
            (["--ete-b", "nan", "limits", "--model", "dyck", "--stat", "ete"], "step lengths must be finite and positive"),
            (["--ete-c", "inf", "stats"], "step lengths must be finite and positive"),
        ],
    )
    def test_distance_inputs_out_of_range_are_errors(self, run, argv, message):
        code, out, err = run(argv, stdin=">a\n((..))\n")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    def test_pfold_params_file(self, run, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("0.868534 0.105397 0.787640\n")
        code, out, _ = run(
            ["--pfold-params", str(path), "limits", "--model", "pfold", "--stat", "deg"]
        )
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(2.554, abs=0.001)

    def test_pfold_params_json_file(self, run, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"p1": 0.868534, "p2": 0.105397, "p3": 0.787640}')
        code, out, _ = run(
            ["--pfold-params", str(path), "limits", "--model", "pfold", "--stat", "hel"]
        )
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(4.715, abs=0.005)

    @pytest.mark.parametrize("text", ['{"p1": 0.5, "p2": 0.5}', '{"p1": null, "p2": 0.5, "p3": 0.5}'])
    def test_pfold_params_json_missing_or_null(self, run, tmp_path, text):
        path = tmp_path / "params.json"
        path.write_text(text)
        code, out, err = run(
            ["--pfold-params", str(path), "limits", "--model", "pfold", "--stat", "deg"]
        )
        assert (code, out) == (1, "")
        assert err == "error: pfold params JSON must give p1, p2 and p3 as numbers\n"

    def test_pfold_params_file_of_two_numbers(self, run, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("0.5 0.5\n")
        code, out, err = run(["--pfold-params", str(path), "limits", "--model", "pfold", "--stat", "deg"])
        assert (code, out) == (1, "")
        assert err == "error: pfold params file must hold exactly p1 p2 p3\n"

    def test_joint_law_payload(self, run):
        code, out, _ = run(["limits", "--model", "motzkin", "--stat", "joint"])
        assert code == 0
        payload = json.loads(out)
        assert payload["law"]["kind"] == "joint_nb"
        assert payload["law"]["a"] == pytest.approx(1 / 3)
        assert payload["law"]["c"] == pytest.approx(1 / 9)
        assert payload["mean"] is None

    def test_ete_model_overrides(self, run):
        # doubling the covalent step changes the distance of an unpaired gap
        code, out, _ = run(["--ete-c", "1.24", "stats"], stdin="....\n")
        import csv as _csv
        import io as _io

        row = next(_csv.DictReader(_io.StringIO(out)))
        assert float(row["ete_nm"]) == pytest.approx(2 * 0.62 * 3**0.6, abs=1e-9)


class TestExact:
    def test_dyck_table(self, run):
        code, out, _ = run(["exact", "--model", "dyck", "--n", "3", "--stat", "deg"])
        rows = list(csv.DictReader(io.StringIO(out)))
        values = {r["stat_value"]: r["weight"] for r in rows}
        assert values == {"1": "2", "2": "2", "3": "1"}

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40, 60])
    def test_motzkin_deg_matches_oracle(self, run, n):
        # the CLI reads the deg marginal off the joint table; the cubic DP
        # is the independent oracle
        code, out, _ = run(["exact", "--model", "motzkin", "--n", str(n), "--stat", "deg"])
        expected = io.StringIO()
        motzkin_deg_counts(n).write_csv(expected)
        assert code == 0 and out == expected.getvalue()

    def test_motzkin_joint_json(self, run):
        code, out, _ = run(
            ["--format", "json", "exact", "--model", "motzkin", "--n", "3", "--stat", "joint"]
        )
        payload = json.loads(out)
        assert payload["entries"]["0,3"] == 1

    def test_hel_table(self, run):
        code, out, _ = run(["exact", "--model", "motzkin", "--n", "3", "--stat", "hel"])
        assert "absent" in out

    @pytest.mark.parametrize("stat", ["joint", "hel"])
    def test_json_and_csv_share_key_order(self, run, stat):
        argv = ["exact", "--model", "motzkin", "--n", "9", "--stat", stat]
        _, out_csv, _ = run(argv)
        _, out_json, _ = run(["--format", "json"] + argv)
        csv_keys = [row["stat_value"] for row in csv.DictReader(io.StringIO(out_csv))]
        assert list(json.loads(out_json)["entries"]) == csv_keys
        assert (csv_keys[0] == "absent") == (stat == "hel")
        assert len(csv_keys) >= 5

    @pytest.mark.parametrize(
        "model, stat",
        [
            ("dyck", "hel"),
            ("motzkin", "hel"),
            ("motzkin", "stm"),
            ("motzkin", "stem-helices"),
            ("pfold", "hel"),
        ],
    )
    def test_negative_size_is_an_error(self, run, model, stat):
        code, out, err = run(["exact", "--model", model, "--n", "-1", "--stat", stat])
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "model, stat, reason",
        [("pfold", "deg", "use --stat joint for the grammar model"), ("dyck", "stm", "no stm table or law for dyck")],
    )
    def test_unsupported_pair_says_why(self, run, model, stat, reason):
        code, out, err = run(["exact", "--model", model, "--n", "5", "--stat", stat])
        assert code == 2 and out == "" and err == f"error: {reason}\n"

    def test_underflowed_grammar_length_is_an_error(self, run, tmp_path):
        params = tmp_path / "high_rho.json"
        params.write_text('{"p1": 0.2, "p2": 0.9, "p3": 0.2}')
        for stat in ("joint", "hel"):
            code, out, err = run(
                ["--pfold-params", str(params), "exact", "--model", "pfold", "--n", "2500", "--stat", stat]
            )
            assert code == 1 and out == "" and "underflowed" in err


class TestSample:
    def test_dyck_lines(self, run):
        code, out, _ = run(["--seed", "5", "sample", "--model", "dyck", "--n", "4", "--count", "3"])
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line) == 8 and line.count("(") == 4 for line in lines)

    def test_seed_reproducible(self, run):
        _, out1, _ = run(["--seed", "9", "sample", "--model", "pfold", "--n", "20", "--count", "2"])
        _, out2, _ = run(["--seed", "9", "sample", "--model", "pfold", "--n", "20", "--count", "2"])
        assert out1 == out2

    def test_motzkin(self, run):
        code, out, _ = run(["sample", "--model", "motzkin", "--n", "6", "--count", "2"])
        assert code == 0
        assert all(len(line) == 6 for line in out.strip().splitlines())

    def test_dyck_stream_pinned(self, run):
        # the seeded Dyck stream is stable across releases
        code, out, _ = run(["--seed", "11", "sample", "--model", "dyck", "--n", "6", "--count", "5"])
        assert code == 0
        assert out == "()((()()))()\n(((()))()())\n()(())((()))\n(((())()))()\n()(()())()()\n"

    @pytest.mark.parametrize("model, size", [("dyck", "semilength"), ("motzkin", "length")])
    def test_negative_size(self, run, model, size):
        code, out, err = run(["sample", "--model", model, "--n", "-1"])
        assert (code, out, err) == (1, "", f"error: {size} must be nonnegative\n")

    @pytest.mark.parametrize("model", ["dyck", "motzkin", "pfold"])
    def test_negative_count(self, run, model):
        code, out, err = run(["sample", "--model", model, "--n", "5", "--count", "-1"])
        assert code == 1 and out == "" and err == "error: count must be nonnegative\n"

    @pytest.mark.parametrize("model, n", [("dyck", 25), ("motzkin", 50), ("pfold", 50)])
    def test_blocks_stream_the_array_rows(self, run, monkeypatch, model, n):
        # blocks of 20 Dyck or Motzkin rows and of one grammar row: 65 rows
        # are written in several blocks, and read the stream of one call
        monkeypatch.setattr(sampling, "_BLOCK_STEPS", 1000)
        written = []

        def text(steps):
            written.append(len(steps))
            return step_rows_text(steps)

        monkeypatch.setattr(sampling, "step_rows_text", text)
        draw = {"dyck": sampling.sample_dyck_steps, "motzkin": sampling.sample_motzkin_steps}.get(
            model, lambda n, count, rng: sampling.sample_pfold_many(n, count, rng=rng)
        )
        code, out, err = run(["--seed", "8", "sample", "--model", model, "--n", str(n), "--count", "65"])
        assert (code, err) == (0, "") and out == step_rows_text(draw(n, 65, sampling.RngHandle(8)))
        assert written == ([20, 20, 20, 5] if model != "pfold" else [1] * 65)
        code, out, err = run(["sample", "--model", model, "--n", str(n), "--count", "0"])
        assert (code, out, err) == (0, "", "")

    def test_underflowed_grammar_length_writes_nothing(self, run, tmp_path):
        params = tmp_path / "high_rho.json"
        params.write_text('{"p1": 0.2, "p2": 0.9, "p3": 0.2}')
        for count in ("2", "0"):
            code, out, err = run(
                ["--pfold-params", str(params), "sample", "--model", "pfold", "--n", "2500", "--count", count]
            )
            assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert "underflowed" in err


class TestSampleMemory:
    @pytest.mark.parametrize("model, rows", [("motzkin", 5242), ("pfold", 327)])
    def test_peak_does_not_grow_with_the_count(self, model, rows):
        # rows fill one block at n = 200: 2**20 steps of Motzkin rows, 2**16
        # of grammar rows (1 MB of uniforms).  Traced peaks after a warm-up
        # run; keeping every row and its text grows with the count.
        argv = ["sample", "--model", model, "--n", "200", "--count"]
        peaks = [_traced_peak(argv + [str(count)]) for count in (rows, rows, 10 * rows)]
        assert peaks[2] <= 1.25 * peaks[1], peaks


class TestShuffle:
    def test_negative_count(self, run):
        code, out, err = run(["shuffle", "--count", "-1"], stdin=">a\nACGT\n")
        assert code == 1 and out == "" and "count must be nonnegative" in err

    def test_fasta_round(self, run, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">s1\nAACGTT\n")
        code, out, _ = run(["--seed", "3", "shuffle", str(path), "--k", "2", "--count", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ">s1_shuf1" and lines[2] == ">s1_shuf2"
        assert sorted(lines[1]) == sorted("AACGTT")

    def test_k_too_large(self, run):
        code, _, err = run(["shuffle", "--k", "9"], stdin=">a\nACG\n")
        assert code == 1

    def test_peak_does_not_grow_with_the_count(self, tmp_path):
        # each shuffle is written as it is drawn, so ten times the shuffles
        # of 40 records of 300 nt keep the traced peak (after a warm-up run)
        # of reading the file and drawing one shuffle
        rnd = random.Random(5)
        path = tmp_path / "seqs.fa"
        path.write_text("".join(f">s{i}\n{''.join(rnd.choices('ACGU', k=300))}\n" for i in range(40)))
        argv = ["shuffle", "--k", "2", str(path), "--count"]
        peaks = [_traced_peak(argv + [str(count)]) for count in (5, 5, 50)]
        assert peaks[2] <= 1.25 * peaks[1], peaks

    def test_unreadable_second_file_writes_nothing(self, run, tmp_path):
        first, bad = tmp_path / "a.fa", tmp_path / "b.fa"
        first.write_text(">a\nACGUACGU\n")
        code, out, err = run(["shuffle", str(first), str(tmp_path / "missing.fa")])
        assert (code, out) == (1, "") and err.startswith("error: [Errno 2]")
        bad.write_bytes(b">b\nAC\xffGU\n")
        done = _endprox(["shuffle", str(first), str(bad)], b"", "-X", "utf8")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")

    def test_short_record_ends_after_the_shuffles_before_it(self, run):
        # records are shuffled as they come: the first record's shuffles are
        # written before the second, shorter than k, ends the command
        code, out, err = run(["shuffle", "--k", "3", "--count", "2"], stdin=">a\nACGUACGU\n>b\nAC\n>c\nACGUU\n")
        assert code == 1
        assert out.splitlines()[::2] == [">a_shuf1", ">a_shuf2"]
        assert all(sorted(seq) == sorted("ACGUACGU") for seq in out.splitlines()[1::2])
        assert err == "error: k=3 exceeds sequence length 2\n"


class TestCompareHeatmap:
    def test_compare_json(self, run, tmp_path):
        path = tmp_path / "toy.dbn"
        path.write_text("(...)\n.(...)\n..(...)\n")
        code, out, _ = run(
            ["--format", "json", "compare", str(path), "--model", "motzkin", "--stat", "deg"]
        )
        payload = json.loads(out)
        assert payload["n_values"] == 3
        assert 0 <= payload["tv"] <= 1

    def test_compare_hel_near_the_stacking_limit(self, run, tmp_path):
        # at p3 = 0.9999 the grammar's hel law has mean about 10^4; the scan
        # for the law's quantile stops at the largest value in the data
        p = PfoldParams(0.868534, 0.105397, 0.9999)
        (tmp_path / "p.txt").write_text(f"{p.p1} {p.p2} {p.p3}\n")
        path = tmp_path / "toy.dbn"
        path.write_text("((((...))))..\n.((...))\n(((((....)))))\n")
        argv = ["--pfold-params", str(tmp_path / "p.txt"), "--format", "json", "compare", str(path)]
        code, out, _ = run([*argv, "--model", "pfold", "--stat", "hel"])
        assert code == 0
        payload = json.loads(out)
        assert 0 <= payload["tv"] <= 1
        assert payload["law_mean"] == float(limit_of(Model.PFOLD, Stat.HEL, p).mean)

    def test_compare_without_the_statistic(self, run, tmp_path):
        # unpaired-only records have no first arch, so no hel
        path = tmp_path / "open.dbn"
        path.write_text("...\n.....\n")
        code, out, err = run(["compare", str(path), "--model", "motzkin", "--stat", "hel"])
        assert (code, out, err) == (1, "", "error: no rows carry this statistic\n")

    def test_compare_unsupported(self, run, tmp_path, monkeypatch, capsys):
        path = tmp_path / "toy.dbn"
        path.write_text("(...)\n")
        code, _, _ = run(["compare", str(path), "--model", "dyck", "--stat", "unp"])
        assert code == 2
        # the law is looked up before any input is read: stdin is not
        # touched, and a missing file is never opened

        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"stdin.{name} used")

        monkeypatch.setattr("sys.stdin", Unread())
        argv = ["--model", "dyck", "--stat", "unp"]
        assert main(["compare", *argv]) == 2
        assert main(["compare", str(tmp_path / "missing.dbn"), *argv]) == 2
        dyck = "error: no limit law for dyck x unp"
        assert capsys.readouterr().err.splitlines() == [dyck, dyck]

    @pytest.mark.parametrize("stat", ["ete", "joint"])
    def test_compare_offers_only_stats_with_a_column(self, stat, capsys):
        # a statistic without a stats column is a usage error, not an
        # unsupported combination after the fact
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", "pfold", "--stat", stat])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"invalid choice: '{stat}'" in err
        offered = err.split("choose from ")[1].split(")")[0].replace("'", "").split(", ")
        assert {_STAT_CHOICES[k] for k in offered} == set(pipeline._STAT_COLUMN)

    def test_heatmap_csv(self, run, tmp_path):
        path = tmp_path / "toy.dbn"
        path.write_text(".(...)..(...).\n")
        code, out, _ = run(["heatmap", str(path)])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["deg"] == "2" and rows[0]["unp"] == "4"
        assert rows[0]["ete_band"] == "2.5-3.5"
        assert float(rows[0]["percent"]) == 100.0

    def test_usage_error_is_input_error(self, run):
        with pytest.raises(SystemExit) as exc:
            main(["limits", "--model", "nosuch", "--stat", "deg"])
        assert exc.value.code == 1


def _endprox(argv, stdin: bytes, *flags, **env) -> subprocess.CompletedProcess:
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""), **env)
    return subprocess.run(
        [sys.executable, *flags, "-m", "endprox.cli", *argv], input=stdin, capture_output=True, env=environ, timeout=60
    )


class TestPipedStdin:
    """A child process reads real stdin bytes, which the CLI spools to a
    temporary file; the in-process runs above swap in a StringIO instead."""

    def test_crlf_rows_match_the_file(self, tmp_path):
        data = b">x1\r\n.((..[[..))..]].\r\n>x2\r\n((.)\r\n>x3\r\n(((...)))..\r\n"
        path = tmp_path / "crlf.dbn"
        path.write_bytes(data)
        piped = _endprox(["stats"], data)
        read = _endprox(["stats", str(path)], b"")
        assert piped.returncode == read.returncode == 0
        skipped = b"skipped x2: unmatched '(' at position 1 (end of string reached)\n"
        assert piped.stderr == read.stderr == skipped
        piped_rows = list(csv.DictReader(io.StringIO(piped.stdout.decode())))
        read_rows = list(csv.DictReader(io.StringIO(read.stdout.decode())))
        assert [row.pop("group") for row in piped_rows] == ["stdin", "stdin"]
        assert [row.pop("group") for row in read_rows] == ["crlf", "crlf"]
        assert piped_rows == read_rows
        assert [row["pseudoknotted"] for row in piped_rows] == ["true", "false"]

    def test_invalid_byte_fails_with_empty_stdout(self):
        done = _endprox(["stats"], b">a\n((..))\n\xff\n", PYTHONIOENCODING="utf-8:strict")
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "argv, data, position",
        [(["stats"], b">a\n((..))\n\xff\n", 10), (["shuffle"], b">a\nAC\xffGU\n", 5)],
    )
    def test_invalid_byte_fails_in_utf8_mode(self, tmp_path, argv, data, position):
        """In UTF-8 mode stdin's own error handler is surrogateescape, which
        would carry the byte through; the spool decodes strictly, as a file
        is read."""
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        piped = _endprox(argv, data, "-X", "utf8", PYTHONIOENCODING="")
        read = _endprox([*argv, str(path)], b"", "-X", "utf8", PYTHONIOENCODING="")
        assert (piped.returncode, piped.stdout) == (read.returncode, read.stdout) == (1, b"")
        message = f"error: 'utf-8' codec can't decode byte 0xff in position {position}".encode()
        assert piped.stderr.startswith(message) and read.stderr.startswith(message)

    def test_shuffle_reads_stdin_as_a_file(self, tmp_path):
        data = b">a\r\nACGUUGCAAC\r\n>b\r\nGGGCCCAUAU\r\n"
        path = tmp_path / "seqs.fa"
        path.write_bytes(data)
        piped = _endprox(["--seed", "4", "shuffle", "--count", "2"], data)
        read = _endprox(["--seed", "4", "shuffle", "--count", "2", str(path)], b"")
        assert piped.returncode == read.returncode == 0
        assert piped.stdout == read.stdout and piped.stdout.count(b">") == 4

import csv
import io
import json

import pytest

from endprox.cli import main


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


class TestShuffle:
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

    def test_compare_unsupported(self, run, tmp_path):
        path = tmp_path / "toy.dbn"
        path.write_text("(...)\n")
        code, _, _ = run(["compare", str(path), "--model", "dyck", "--stat", "unp"])
        assert code == 2

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

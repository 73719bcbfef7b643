"""The block scan and the column statistics against the scalar structure
layer they replaced (structure_oracle): partner tables, crossing flags,
errors, ExteriorStats, breadth-first distances, and whole CLI runs byte for
byte against the whole-file reader, with records on both sides of block
boundaries; and the streamed commands' memory against the file size and
the length of the records."""

import contextlib
import functools
import io
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structure_oracle as oracle
from endprox import cli, pipeline, structure
from endprox.structure import (
    CLOSERS,
    OPENERS,
    EteModel,
    exterior_stats,
    first_helix_length,
    first_stem,
    parse_dot_bracket,
    read_dot_bracket_records,
    shortest_path_stats,
)

# letters, a space and non-ASCII characters, one of them outside the BMP
NOISE = ["a", "Z", " ", "é", " ", "\U0001d11e"]


@st.composite
def family_balanced(draw, max_items=50):
    """Dot-bracket text in which each bracket family is balanced on its own,
    so families may cross one another; mostly the first family."""
    depth = [0] * len(OPENERS)
    chars = []
    items = draw(st.lists(st.tuples(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 4]), st.booleans()), max_size=max_items))
    for fam, close in items:
        if fam == len(OPENERS):
            chars.append(".")
        elif close and depth[fam]:
            chars.append(CLOSERS[fam])
            depth[fam] -= 1
        else:
            chars.append(OPENERS[fam])
            depth[fam] += 1
    for fam in draw(st.permutations(range(len(OPENERS)))):
        chars.append(CLOSERS[fam] * depth[fam])
    return "".join(chars)


@st.composite
def damaged(draw):
    """Balanced text with a few characters replaced, dropped or inserted."""
    chars = list(draw(family_balanced()))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        what = draw(st.sampled_from(list(OPENERS + CLOSERS + ".") + NOISE))
        action = draw(st.integers(0, 2))
        if action == 0 and at < len(chars):
            chars[at] = what
        elif action == 1 and at < len(chars):
            del chars[at]
        else:
            chars.insert(at, what)
    return "".join(chars)


dot_bracket_texts = st.one_of(
    family_balanced(),
    damaged(),
    st.text(alphabet=st.sampled_from(list(OPENERS + CLOSERS + ".") + NOISE), max_size=40),
    st.text(max_size=20),
)


def _outcome(parse, text):
    try:
        s = parse(text)
    except structure.StructureError as exc:
        return type(exc), str(exc)
    return s.partner, s.crossing, s.length


def _stats_outcome(fn, s):
    try:
        return fn(s)
    except structure.StructureError as exc:
        return type(exc), str(exc)


class TestScanAgainstScalarParser:
    @given(dot_bracket_texts)
    @settings(max_examples=400)
    def test_same_partners_crossing_and_errors(self, text):
        assert _outcome(parse_dot_bracket, text) == _outcome(oracle.parse_dot_bracket, text)

    @given(st.lists(dot_bracket_texts, max_size=12))
    @settings(max_examples=120)
    def test_many_lines_in_one_block(self, texts):
        # one scan over many records gives each record what a scan of it alone gives
        lines = [t.strip() for t in texts]
        block = structure._scan(lines)
        for r, line in enumerate(lines):
            expected = _outcome(oracle.parse_dot_bracket, line)
            if r in block.errors:
                got = type(block.errors[r]), str(block.errors[r])
            else:
                s = block.structure(r)
                got = s.partner, s.crossing, s.length
            assert got == expected

    @given(family_balanced())
    @settings(max_examples=200)
    def test_crossing_of_a_partner_table(self, text):
        s = oracle.parse_dot_bracket(text)
        assert structure._crosses(s.partner) == oracle.has_crossing(s.partner) == s.crossing


class TestColumnsAgainstScalarStats:
    @given(family_balanced(max_items=70))
    @settings(max_examples=400)
    def test_exterior_helix_stem_and_path(self, text):
        s = parse_dot_bracket(text)
        assert first_helix_length(s) == oracle.first_helix_length(s)
        assert _stats_outcome(first_stem, s) == _stats_outcome(oracle.first_stem, s)
        assert _stats_outcome(exterior_stats, s) == _stats_outcome(oracle.exterior_stats, s)
        assert _stats_outcome(shortest_path_stats, s) == _stats_outcome(oracle.shortest_path_stats, s)

    @given(family_balanced(max_items=40))
    @settings(max_examples=100)
    def test_other_distance_model(self, text):
        m = EteModel(b_nm=2.0, c_nm=0.4, exponent=1.7, a_nm=1.1)
        s = parse_dot_bracket(text)
        if not s.crossing:
            assert exterior_stats(s, m) == oracle.exterior_stats(s, m)
        if s.length:
            assert shortest_path_stats(s, m) == oracle.shortest_path_stats(s, m)

    @given(st.lists(family_balanced(max_items=60).filter(bool), min_size=1, max_size=8))
    @settings(max_examples=120)
    def test_batched_breadth_first_search(self, texts):
        block = structure._scan(texts)
        rows = np.arange(len(texts))
        offsets, mate, from5, from3 = structure._distances(block, rows)
        for r, text in enumerate(texts):
            s = oracle.parse_dot_bracket(text)
            a, b = offsets[r], offsets[r + 1]
            assert from5[a:b].tolist() == oracle.bfs(s, 1)[1:]
            assert from3[a:b].tolist() == oracle.bfs(s, s.length)[1:]
            assert mate[a:b].tolist() == [j - 1 for j in s.partner]

    def test_single_node_and_adjacent_pair(self):
        for text in [".", "()", ".().", "[(])"]:
            s = parse_dot_bracket(text)
            assert shortest_path_stats(s) == oracle.shortest_path_stats(s)


# ---------------------------------------------------------------------------
# whole files: block boundaries, and the CLI byte for byte


def _records_text(texts, seed):
    """Headers, optional sequence lines and bare lines around the texts, with
    bare and repeated-group headers, orphan headers with and without a
    sequence, sequences of the wrong length, bare letter lines and blank
    lines inside records."""
    rnd = random.Random(seed)
    out = []
    for i, text in enumerate(texts):
        sequence = "".join(rnd.choice("ACGU") for _ in text) or "A"
        kind = rnd.randrange(10)
        if kind == 0:
            out.append(text)
        elif kind == 1:
            out += [f">r{i} group=g{i % 3}", text]
        elif kind == 2:
            out += [f">r{i}", sequence, text]
        elif kind == 3:
            out += [f">r{i} x=1", text, f">orphan{i}"]
        elif kind == 4:
            out += [">", text]
        elif kind == 5:
            out += [f">r{i} group=g", sequence, f">s{i}", text]
        elif kind == 6:
            out += [f">r{i}", sequence + "A", text]
        elif kind == 7:
            out += [sequence, text]
        elif kind == 8:
            out += [f">r{i} group=a group=b{i % 2}", text]
        else:
            out += [f">r{i} group=g{i % 2}", "", "   ", sequence, " ", text]
    return "\n".join(out) + "\n"


def _fields(records):
    return [(r.id, r.group, r.error, r.structure) for r in records]


def _compare_records(text):
    got = read_dot_bracket_records(text, "file")
    want = oracle.read_dot_bracket_records(text, "file")
    assert [(r.id, r.group, r.error, r.has_structure) for r in got] == [
        (r.id, r.group, r.error, r.structure is not None) for r in want
    ]
    assert [r.structure for r in got] == [r.structure for r in want]
    if any(r.structure is not None for r in want):
        assert pipeline.run_stats(got) == oracle.run_stats(want)
    # the streamed reader's blocks, concatenated, number ids across blocks
    blocks = structure.read_dot_bracket_blocks(text.splitlines(), "file")
    assert _fields(rec for block in blocks for rec in block) == _fields(got)


class TestReaderBlocks:
    @given(st.lists(dot_bracket_texts, max_size=15), st.integers(1, 40), st.integers(0, 8), st.integers(0, 9))
    @settings(max_examples=150)
    def test_records_and_rows_at_any_block_cap(self, texts, cap, charge, seed):
        # a small per-record charge, so that small caps still hold several records
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structure, "_BLOCK_CHARS", cap)
            mp.setattr(structure, "_RECORD_CHARS", charge)
            _compare_records(_records_text(texts, seed))

    def test_structure_is_built_when_first_read(self, monkeypatch):
        built = []
        make = structure._Block.structure
        monkeypatch.setattr(structure._Block, "structure", lambda block, *row: built.append(row) or make(block, *row))
        recs = read_dot_bracket_records("(.)\n((\n")
        assert recs[0].has_structure and not recs[1].has_structure
        assert built == []  # built only when read
        assert recs[0].structure.partner == (3, 0, 1)
        assert recs[0].structure is recs[0].structure and len(built) == 1  # and then kept

    def test_interleaved_blocks_measure_in_input_order(self, monkeypatch):
        # records of two dot-bracket reads and two bpseq files, interleaved,
        # through one run_stats: each run of consecutive records of one block
        # is measured where it sits, so the rows come out in input order
        texts = ["(.)\n([)]\n((..))..\n.(\n..\n", ">x group=h\n..((..))\n<.[.>.]\n"]
        bpseq = ["1 G 4\n2 C 6\n3 A 0\n4 C 1\n5 U 0\n6 G 2\n7 A 0\n", "1 A 3\n2 C 0\n3 U 1\n"]

        def interleaved(read):
            (a0, a1, *rest), (b0, b1) = [read(text, "g") for text in texts]
            c0, c1 = [structure.read_bpseq_records(text, f"c{i}", "c")[0] for i, text in enumerate(bpseq)]
            return [a0, b0, c0, a1, c1, b1, *rest]

        got, want = interleaved(read_dot_bracket_records), interleaved(oracle.read_dot_bracket_records)
        assert pipeline.run_stats(got) == oracle.run_stats(want)
        assert pipeline.run_stats(got)[0]["id"] == ["rec1", "x", "c0", "rec2", "c1", "rec2", "rec3", "rec5"]
        runs = []
        measure = structure._columns
        monkeypatch.setattr(
            structure, "_columns", lambda block, rows, *rest: runs.append(rows.tolist()) or measure(block, rows, *rest)
        )
        pipeline.run_stats(got)
        assert runs == [[0], [0], [0], [1], [0], [1], [2, 4]]  # one call per run, rec3 and rec5 together


def _nested(rnd, n):
    """A random nested dot-bracket string of length n."""
    out = []
    while n > 0:
        if n >= 5 and rnd.random() < 0.15:
            inner = rnd.randrange(3, n - 1)
            out.append("(" + _nested(rnd, inner) + ")")
            n -= inner + 2
        else:
            out.append(".")
            n -= 1
    return "".join(out)


def _crossed(rnd, text):
    """text with one [ ] pair on two dots, crossing whatever lies between."""
    dots = [i for i, ch in enumerate(text) if ch == "."]
    a, b = sorted(rnd.sample(dots, 2))
    return text[:a] + "[" + text[a + 1 : b] + "]" + text[b + 1 :]


def _mixed_file(rnd, records):
    lines = []
    for i in range(records):
        text = _nested(rnd, rnd.choice([60, 250, 400]))
        kind = i % 10
        if kind == 3:
            text = _crossed(rnd, text)
        elif kind == 5:
            text = text[:-1] + ")"  # mostly an unmatched closer
        elif kind == 7:
            text = text[:9] + "x" + text[10:]
        if kind == 8:
            lines += [f">s{i} group=three", "".join(rnd.choice("ACGU") for _ in text), text]
        else:
            lines += [f">s{i} group=g{i % 2}", text]
    lines += [">dots", "." * 30, ">one", ".", ">tail"]
    return "\n".join(lines) + "\n"


COMMANDS = [
    ["stats"],
    ["--format", "json", "stats"],
    ["stats", "--summary"],
    ["--format", "json", "stats", "--summary"],
    ["compare", "--model", "pfold", "--stat", "deg"],
    ["heatmap"],
]


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_cli_matches_oracle(files, stdin="", skipped=True):
    """Each command gives the same exit code, stdout and stderr as with every
    input read whole the old way and measured record by record."""
    for command in COMMANDS:
        argv = command + [str(f) for f in files]
        got = _run(argv, stdin)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_read_structure_files", oracle.read_structure_files)
            mp.setattr(pipeline, "run_stats", oracle.run_stats)
            mp.setattr(pipeline, "summarize", oracle.summarize)
            want = _run(argv, stdin)
        assert got == want, command
        assert ("skipped" in got[2]) == skipped


class TestCliByteIdentity:
    @pytest.fixture
    def files(self, tmp_path):
        def make(records, seed):
            path = tmp_path / f"mixed{seed}.dbn"
            path.write_text(_mixed_file(random.Random(seed), records))
            bpseq = tmp_path / "knot.bpseq"
            bpseq.write_text("1 G 4\n2 C 6\n3 A 0\n4 C 1\n5 U 0\n6 G 2\n7 A 0\n")
            return path, bpseq

        return make

    def test_mixed_file_and_bpseq(self, files):
        _assert_cli_matches_oracle(files(60, 1))

    def test_small_block_cap(self, files, monkeypatch):
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 700)
        _assert_cli_matches_oracle(files(60, 2))

    def test_oracle_catches_input_order_sums(self, files, monkeypatch):
        # the oracle's exact moments have teeth: two passes of float sums in
        # record order are off in the last digits and fail the comparison
        monkeypatch.setattr(pipeline, "summarize", functools.partial(oracle.summarize, number=float))
        with pytest.raises(AssertionError, match="--summary"):
            _assert_cli_matches_oracle(files(60, 1))

    def test_records_straddle_the_block_cap(self, files):
        path, bpseq = files(1600, 3)
        text = path.read_text()
        structure_chars = sum(len(line) for line in text.splitlines() if not line.startswith(">"))
        assert structure_chars > 1.2 * structure._BLOCK_CHARS
        _assert_cli_matches_oracle([path, bpseq])


class TestCliEdgeCases:
    """Streamed input against the whole-file reader where streaming could
    go wrong: stdin, several files, blocks of bad records, failing inputs,
    unusual line breaks and records across block boundaries."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 700)

    def test_stdin(self):
        _assert_cli_matches_oracle([], stdin=_mixed_file(random.Random(4), 40))

    def test_several_files(self, tmp_path):
        paths = [tmp_path / "a.dbn", tmp_path / "b.txt", tmp_path / "c.bpseq", tmp_path / "d.dat"]
        paths[0].write_text(_mixed_file(random.Random(5), 30))
        paths[1].write_text(_mixed_file(random.Random(6), 20))
        paths[2].write_text("1 G 4\n2 C 6\n3 A 0\n4 C 1\n5 U 0\n6 G 2\n")
        paths[3].write_text("# sniffed as bpseq\n\n1 A 2\n2 U 1\n")
        _assert_cli_matches_oracle(paths)

    def test_many_files_one_open_at_a_time(self, tmp_path, monkeypatch):
        # more one-record bpseq files than a budget of one open handle at a
        # time allows at once: each input is checked and closed, then
        # reopened when its records are read
        paths = [tmp_path / f"r{i:03d}.bpseq" for i in range(300)]
        for i, path in enumerate(paths):
            mate = {1: 3 + i % 4, 3 + i % 4: 1} if i % 7 != 3 else {1: 2}  # one-sided: skipped
            path.write_text("".join(f"{k} A {mate.get(k, 0)}\n" for k in range(1, 7)))
        handles = []

        def budgeted_open(path, *args, **kwargs):
            if handles and not handles[-1].closed:
                raise OSError(24, "Too many open files")
            handles.append(open(path, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(cli, "open", budgeted_open, raising=False)
        _assert_cli_matches_oracle(paths)
        assert len(handles) == 2 * len(paths) * len(COMMANDS)

    def test_merged_streams_follow_block_order(self, tmp_path):
        # stdout to a pipe is block-buffered; the rows of the first block
        # still reach the merged stream before the second block's skipped
        # line (at the default cap two of these records fill a block)
        path = tmp_path / "two_blocks.dbn"
        path.write_text("".join(f">ok{i}\n(({'.' * 29996}))\n" for i in range(3)) + ">bad\n((\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run(
            [sys.executable, "-m", "endprox.cli", "stats", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env, timeout=60,
        )
        lines = [line.split(",")[0] for line in done.stdout.splitlines()]
        assert lines[:3] + lines[4:] == ["id", "ok0", "ok1", "ok2"], done.stdout
        assert lines[3].startswith("skipped bad:")

    def test_first_blocks_only_bad(self, tmp_path):
        path = tmp_path / "late.dbn"
        bad = "".join(f">bad{i} group=g{i % 2}\n{'(' * 90}\n" for i in range(25))
        path.write_text(bad + _mixed_file(random.Random(7), 20) + bad)
        _assert_cli_matches_oracle([path])

    def test_all_records_bad(self, tmp_path):
        path = tmp_path / "bad.dbn"
        path.write_text("".join(f">bad{i}\n((x{'.' * 80}\n" for i in range(40)) + ">orphan\n")
        _assert_cli_matches_oracle([path], skipped=False)
        assert _run(["stats", str(path)]) == (1, "", "error: every record failed to parse\n")
        empty = tmp_path / "empty.dbn"
        empty.write_text("\n\n")
        assert _run(["heatmap", str(empty)]) == (1, "", "error: no records in input\n")

    def test_missing_second_path(self, tmp_path):
        path = tmp_path / "good.dbn"
        path.write_text(_mixed_file(random.Random(8), 30))
        missing = tmp_path / "missing.dbn"
        _assert_cli_matches_oracle([path, missing], skipped=False)
        code, out, err = _run(["stats", str(path), str(missing)])
        assert (code, out) == (1, "") and err.startswith("error: [Errno 2]") and err.count("\n") == 1

    def test_invalid_utf8_in_a_late_block(self, tmp_path):
        path = tmp_path / "late.dbn"
        text = _mixed_file(random.Random(9), 60).encode()
        cut = text.index(b"\n", len(text) * 3 // 4) + 1
        path.write_bytes(text[:cut] + b">x\n(.\xff.)\n" + text[cut:])
        _assert_cli_matches_oracle([path], skipped=False)
        code, out, err = _run(["stats", str(path)])
        assert (code, out) == (1, "") and "can't decode byte 0xff in position" in err

    def test_line_breaks(self, tmp_path):
        text = (
            ">a group=crlf\r\n((..))..\r\n>b\r\nACGUA\r\n(...)\r\n"
            ">c\x0c.(.).\x0c>d group=fs\x1c((...))\u2028>e\u2029..\x85>f\x0b(\x1d)\x1e"
            "..(((...)))\r...\n>tail\r\n"
        ) * 20
        path = tmp_path / "breaks.dbn"
        path.write_bytes(text.encode())
        _assert_cli_matches_oracle([path])
        _assert_cli_matches_oracle([], stdin=text)

    def test_records_across_block_boundaries(self, tmp_path):
        rnd = random.Random(10)
        lines = []
        for i in range(30):
            text = _nested(rnd, rnd.choice([150, 340, 360, 900]))  # some longer than a block
            lines += [f">r{i}", "".join(rnd.choice("ACGU") for _ in text), text] if i % 3 else [text]
        path = tmp_path / "across.dbn"
        path.write_text("\n".join(lines) + "\n((\n")
        _assert_cli_matches_oracle([path])


def _traced_peak(argv):
    """The tracemalloc peak of one CLI run, output dropped."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _length_200_mix() -> str:
    """120 records of length 200 in three groups; one in ten crossing and one
    in ten with an illegal character."""
    rnd = random.Random(11)
    lines = []
    for i in range(120):
        text = _nested(rnd, 200)
        if i % 10 == 3:
            text = _crossed(rnd, text)
        elif i % 10 == 7:
            text = text[:9] + "x" + text[10:]
        lines += [f">s{i} group=g{i % 3}", text]
    return "\n".join(lines) + "\n"


class TestMemoryBound:
    def test_peak_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # traced peak of each streamed command on a file and on the same
        # file eight times over, after a warm-up run fills the caches.  The
        # records all have one length, so that every block holds 33 of them
        # (each weighs its 200 characters and the 48 charged per record) and
        # both files have blocks of the same size: what grows is what is
        # kept per record.
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 8192)
        one, eight = tmp_path / "one.dbn", tmp_path / "eight.dbn"
        one.write_text(_length_200_mix())
        eight.write_text(_length_200_mix() * 8)
        for command in COMMANDS[::2] + [COMMANDS[-1]]:
            peaks = [_traced_peak(command + [str(path)]) for path in (one, one, eight)]
            assert peaks[2] <= 1.25 * peaks[1], (command, peaks)

    def test_summaries_keep_only_counts(self, tmp_path, monkeypatch):
        # stats --summary keeps one histogram per group and statistic, and
        # compare one histogram, so on the file 32 times over their peaks
        # stay within a few percent of the larger of the two peaks on the
        # file once: at most 1.09 and 1.05 times it, where keeping an array
        # entry per record and statistic, or a list of the values, reaches
        # 1.5 and 1.15 times
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 8192)
        one, many = tmp_path / "one.dbn", tmp_path / "many.dbn"
        one.write_text(_length_200_mix())
        many.write_text(_length_200_mix() * 32)
        for command, bound in (
            (["stats", "--summary"], 1.25),
            (["compare", "--model", "pfold", "--stat", "deg"], 1.1),
        ):
            peaks = [_traced_peak(command + [str(path)]) for path in (one, one, many)]
            assert peaks[2] <= bound * max(peaks[:2]), (command, peaks)

    def test_late_blocks_keep_nothing(self, tmp_path, monkeypatch):
        # what tracemalloc holds as the 111th block of the file 32 times
        # over is scanned, less what it held at the 11th.  np.cumsum kept
        # small allocations of each call: 8.9-18.0 KB over those 100 blocks
        # in 29 of 30 runs of these commands.  np.add.accumulate keeps none,
        # and the at most 6.3 KB left is allocator noise.  JSON stats is left
        # out: while a block is scanned, its encoder still holds the row
        # dicts of the block before, and those differ by more than the bound
        # between the two blocks measured.
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 8192)
        many = tmp_path / "many.dbn"
        many.write_text(_length_200_mix() * 32)
        scan, held = structure._scan, []

        def scan_and_note(lines):
            held.append(tracemalloc.get_traced_memory()[0])
            return scan(lines)

        monkeypatch.setattr(structure, "_scan", scan_and_note)
        for command in COMMANDS[:1] + COMMANDS[2:]:
            held.clear()
            _traced_peak(command + [str(many)])
            assert len(held) == 117 and held[110] - held[10] <= 8 << 10, (command, held[110] - held[10])

    def test_short_records_do_not_crowd_a_block(self, tmp_path, monkeypatch):
        # a block of one-character records holds far more records than a
        # block of long ones; each record's charge keeps their objects
        # within the block's bound.  Peaks after a warm-up run, as above.
        monkeypatch.setattr(structure, "_BLOCK_CHARS", 8192)
        rnd = random.Random(12)
        short, long = tmp_path / "short.dbn", tmp_path / "long.dbn"
        short.write_text("".join(f">s{i} group=g{i % 3}\n.\n" for i in range(1 << 13)))
        long.write_text("".join(f">s{i} group=g{i % 3}\n{_nested(rnd, 200)}\n" for i in range(160)))
        for command in (["stats"], ["heatmap"]):
            peaks = [_traced_peak(command + [str(path)]) for path in (long, long, short)]
            assert peaks[2] <= 2 * peaks[1], (command, peaks)

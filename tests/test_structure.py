import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from endprox.pipeline import run_stats
from endprox.shuffling import read_fasta
from endprox.structure import (
    CLOSERS,
    OPENERS,
    CrossingStructure,
    DEFAULT_ETE,
    EmptyStructure,
    EteModel,
    IllegalCharacter,
    NonContiguousIndices,
    AsymmetricPair,
    SecondaryStructure,
    StructureError,
    UnbalancedBracket,
    ete_distance,
    exterior_stats,
    first_helix_length,
    first_stem,
    parse_bpseq,
    parse_dot_bracket,
    read_dot_bracket_records,
    rms_distance,
    shortest_path_stats,
    to_dot_bracket,
)


# recursive nested dot-bracket strings
nested_strings = st.recursive(
    st.just(""),
    lambda inner: st.one_of(
        inner.map(lambda s: "." + s),
        st.tuples(inner, inner).map(lambda ab: "(" + ab[0] + ")" + ab[1]),
    ),
    max_leaves=60,
)


@st.composite
def random_pairings(draw, max_n=40):
    """Any partial matching of 1..n, crossing pairs included."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    partner = [0] * n
    for a in range(k):
        i, j = order[2 * a], order[2 * a + 1]
        partner[i - 1], partner[j - 1] = j, i
    crossing = _crossing_oracle(partner)
    return SecondaryStructure(n, tuple(partner), crossing)


@st.composite
def four_family_strings(draw):
    """Dot-bracket strings in which each of the four families is balanced on
    its own, so families may cross one another."""
    depth = [0] * len(OPENERS)
    chars = []
    for fam, close in draw(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=40)):
        if fam == len(OPENERS):
            chars.append(".")
        elif close and depth[fam]:
            chars.append(CLOSERS[fam])
            depth[fam] -= 1
        else:
            chars.append(OPENERS[fam])
            depth[fam] += 1
    for fam, d in enumerate(depth):
        chars.append(CLOSERS[fam] * d)
    return "".join(chars)


def _crossing_oracle(partner):
    pairs = [(i, j) for i, j in enumerate(partner, start=1) if j > i]
    return any(i < k < j < l for i, j in pairs for k, l in pairs)


def _greedy_render_oracle(s):
    """The quadratic first-fit family assignment: each pair, in order of its
    opening position, is compared with every pair already placed."""
    chars = ["."] * s.length
    placed_by_family = [[] for _ in OPENERS]
    for i, j in s.pairs():
        for fam, placed in enumerate(placed_by_family):
            if all(not (k < i < l < j) and not (i < k < j < l) for k, l in placed):
                placed.append((i, j))
                chars[i - 1] = OPENERS[fam]
                chars[j - 1] = CLOSERS[fam]
                break
        else:
            raise StructureError("structure needs more than four bracket families")
    return "".join(chars)


def _render_or_error(render, s):
    try:
        return render(s)
    except StructureError as exc:
        return StructureError, str(exc)


def _dyck_text(pairs: int, seed: int) -> str:
    rnd = random.Random(seed)
    chars, depth, opened = [], 0, 0
    while opened < pairs or depth:
        if opened < pairs and (depth == 0 or rnd.random() < 0.5):
            chars.append("(")
            depth += 1
            opened += 1
        else:
            chars.append(")")
            depth -= 1
    return "".join(chars)


class TestParseDotBracket:
    def test_simple_nested(self):
        s = parse_dot_bracket("((..))")
        assert s.pairs() == [(1, 6), (2, 5)]
        assert not s.crossing

    def test_empty(self):
        s = parse_dot_bracket("")
        assert s.length == 0 and s.pairs() == []

    def test_crossing_families(self):
        s = parse_dot_bracket("([)]")
        assert s.pairs() == [(1, 3), (2, 4)]
        assert s.crossing

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedBracket):
            parse_dot_bracket("((.)")

    def test_unbalanced_close_position(self):
        with pytest.raises(UnbalancedBracket, match="position 3"):
            parse_dot_bracket("())")

    def test_illegal_character(self):
        with pytest.raises(IllegalCharacter):
            parse_dot_bracket("(.x.)")

    def test_validate_round(self):
        parse_dot_bracket(".((..[[.))..]].").validate()

    @given(nested_strings)
    @settings(max_examples=150)
    def test_render_round_trip(self, text):
        s = parse_dot_bracket(text)
        assert to_dot_bracket(s) == text
        assert not s.crossing


class TestLinearStructureLayer:
    @given(random_pairings())
    @settings(max_examples=400)
    def test_crossing_check_matches_pairwise_oracle(self, s):
        s.validate()  # validate() recomputes the flag with the stack scan
        with pytest.raises(StructureError, match="crossing flag"):
            SecondaryStructure(s.length, s.partner, not s.crossing).validate()

    @given(random_pairings())
    @settings(max_examples=400)
    def test_render_matches_quadratic_greedy(self, s):
        assert _render_or_error(to_dot_bracket, s) == _render_or_error(_greedy_render_oracle, s)

    @given(random_pairings())
    @settings(max_examples=200)
    def test_parsers_flag_crossing_like_the_oracle(self, s):
        bpseq = "".join(f"{i} N {j}\n" for i, j in enumerate(s.partner, start=1))
        assert parse_bpseq(bpseq).crossing == s.crossing
        rendered = _render_or_error(to_dot_bracket, s)
        if isinstance(rendered, str):
            assert parse_dot_bracket(rendered).crossing == s.crossing

    @given(four_family_strings())
    @settings(max_examples=300)
    def test_four_family_round_trip(self, text):
        s = parse_dot_bracket(text)
        assert s.crossing == _crossing_oracle(s.partner)
        rendered = _render_or_error(to_dot_bracket, s)
        assume(isinstance(rendered, str))
        assert parse_dot_bracket(rendered).partner == s.partner

    def test_ten_thousand_pair_dyck_round_trip(self):
        text = _dyck_text(10_000, seed=3)
        s = parse_dot_bracket(text)
        assert len(s.pairs()) == 10_000 and not s.crossing
        assert to_dot_bracket(s) == text

    def test_ten_thousand_pair_dyck_with_crossing_pair(self):
        # "[(" ... "])": the [ ] pair crosses the outer ( ) pair
        text = "[(" + _dyck_text(10_000, seed=4) + "])"
        s = parse_dot_bracket(text)
        assert len(s.pairs()) == 10_002 and s.crossing
        s.validate()
        rendered = to_dot_bracket(s)
        assert rendered == "([" + text[2:-2] + ")]"
        assert parse_dot_bracket(rendered).partner == s.partner


class TestParseBpseq:
    def test_basic(self):
        s = parse_bpseq("1 A 3\n2 C 0\n3 G 1\n")
        assert s.pairs() == [(1, 3)]
        assert s.sequence == "ACG"

    def test_adjacent_pair(self):
        s = parse_bpseq("1 A 2\n2 C 1\n3 G 0\n")
        assert s.pairs() == [(1, 2)]

    def test_asymmetric(self):
        with pytest.raises(AsymmetricPair):
            parse_bpseq("1 A 2\n2 C 3\n3 G 2\n")

    def test_self_pair(self):
        with pytest.raises(Exception):
            parse_bpseq("1 A 1\n")

    def test_non_contiguous(self):
        with pytest.raises(NonContiguousIndices):
            parse_bpseq("1 A 0\n3 C 0\n")

    def test_comments_ignored(self):
        s = parse_bpseq("# header\n1 A 0\n")
        assert s.length == 1


class TestExteriorStats:
    def test_two_arch_example(self):
        st_ = exterior_stats(parse_dot_bracket(".(...)..(...)."))
        assert (st_.deg, st_.unp, st_.chn, st_.len_ext) == (2, 4, 5, 8)
        assert st_.ete_nm == pytest.approx(2.80, abs=0.005)

    def test_single_pair(self):
        st_ = exterior_stats(parse_dot_bracket("()"))
        assert (st_.deg, st_.unp, st_.chn, st_.len_ext, st_.ete_nm) == (1, 0, 0, 2, 1.5)

    def test_all_unpaired(self):
        st_ = exterior_stats(parse_dot_bracket("...."))
        assert (st_.deg, st_.unp, st_.chn, st_.len_ext) == (0, 4, 3, 4)
        assert st_.ete_nm == pytest.approx(0.62 * 3**0.6, abs=1e-12)
        assert st_.hel is None and st_.stm is None

    def test_crossing_rejected(self):
        with pytest.raises(CrossingStructure):
            exterior_stats(parse_dot_bracket("([)]"))

    def test_len_ext_bounded(self):
        for text in ["", ".", "(((...)))", ".(.)(.)." ]:
            s = parse_dot_bracket(text)
            assert exterior_stats(s).len_ext <= s.length


class TestHelixStem:
    def test_pure_run(self):
        assert first_helix_length(parse_dot_bracket("(((...)))")) == 3

    def test_interrupted_run(self):
        assert first_helix_length(parse_dot_bracket("((.(...)))")) == 2

    def test_no_pair(self):
        assert first_helix_length(parse_dot_bracket("...")) is None

    def test_bulged_stem(self):
        assert first_stem(parse_dot_bracket("((.(...)))")) == (3, 2)

    def test_tight_stem(self):
        assert first_stem(parse_dot_bracket("(((...)))")) == (3, 1)

    def test_multiloop_stops_stem(self):
        assert first_stem(parse_dot_bracket("((...)(...))")) == (1, 1)

    def test_hel_defined_for_crossing(self):
        assert first_helix_length(parse_dot_bracket("(([.))..]")) == 2

    @given(nested_strings)
    @settings(max_examples=150)
    def test_hel_le_stm(self, text):
        s = parse_dot_bracket(text)
        hel = first_helix_length(s)
        stem = first_stem(s)
        assert (hel is None) == (stem is None)
        if stem is not None:
            assert 1 <= hel <= stem[0]
            assert stem[1] <= stem[0]


class TestDistances:
    def test_fig_value(self):
        assert ete_distance(2, 5) == pytest.approx(2.80, abs=0.005)

    def test_single_bridge(self):
        assert ete_distance(1, 0) == 1.5

    def test_rms(self):
        assert rms_distance(17) == 3.0
        assert rms_distance(1) == 0.0
        assert rms_distance(0) == 0.0

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 4), st.integers(1, 4))
    def test_monotone(self, deg, chn, dd, dc):
        base = ete_distance(deg, chn)
        assert ete_distance(deg + dd, chn) >= base
        assert ete_distance(deg, chn + dc) >= base

    def test_custom_model(self):
        m = EteModel(b_nm=2.0, c_nm=1.0, exponent=1.5, a_nm=1.0)
        assert ete_distance(1, 1, m) == pytest.approx(math.sqrt(5.0))
        with pytest.raises(ValueError):
            EteModel(exponent=2.5)
        with pytest.raises(ValueError):
            EteModel(b_nm=0.0)


class TestShortestPath:
    def test_matches_exterior_on_nested(self):
        s = parse_dot_bracket(".(...)..(...).")
        a, b = exterior_stats(s), shortest_path_stats(s)
        assert (a.deg, a.unp, a.chn, a.ete_nm) == (b.deg, b.unp, b.chn, b.ete_nm)

    def test_crossing_example(self):
        st_ = shortest_path_stats(parse_dot_bracket("([)]"))
        assert (st_.deg, st_.chn, st_.unp) == (1, 1, 0)
        assert st_.stm is None and st_.stem_helices is None

    def test_single_node(self):
        # exterior agreement wins over treating the endpoints specially:
        # the lone unpaired position is on the path and counts
        st_ = shortest_path_stats(parse_dot_bracket("."))
        assert (st_.deg, st_.chn, st_.unp) == (0, 0, 1)

    def test_empty_errors(self):
        with pytest.raises(EmptyStructure):
            shortest_path_stats(parse_dot_bracket(""))

    def test_adjacent_exterior_pair_counts_as_pair(self):
        s = parse_dot_bracket(".().")
        a, b = exterior_stats(s), shortest_path_stats(s)
        assert (a.deg, a.unp, a.chn) == (b.deg, b.unp, b.chn) == (1, 2, 2)

    def test_hel_reported_for_crossing(self):
        st_ = shortest_path_stats(parse_dot_bracket("(([.))..]"))
        assert st_.hel == 2

    @given(nested_strings)
    @settings(max_examples=120)
    def test_nested_agreement_property(self, text):
        s = parse_dot_bracket(text)
        if s.length == 0:
            return
        a, b = exterior_stats(s), shortest_path_stats(s)
        assert (a.deg, a.unp, a.chn, a.ete_nm) == (b.deg, b.unp, b.chn, b.ete_nm)


class TestRecords:
    def test_headers_and_bare_lines(self):
        text = "> t1 group=tRNA\n.(...)\n(((...)))\n>t2\n..\n"
        recs = read_dot_bracket_records(text, default_group="file")
        assert [r.id for r in recs] == ["t1", "rec2", "t2"]
        assert [r.group for r in recs] == ["tRNA", "file", "file"]
        assert all(r.structure is not None for r in recs)

    def test_bad_record_captured(self):
        recs = read_dot_bracket_records("((..\n()\n")
        assert recs[0].error is not None
        assert recs[1].structure is not None

    def test_three_line_record_attaches_sequence(self):
        recs = read_dot_bracket_records(">x group=g\nACGUACGU\n((....))\n>y\n()\n", "file")
        assert [(r.id, r.group, r.error) for r in recs] == [("x", "g", None), ("y", "file", None)]
        assert recs[0].structure.sequence == "ACGUACGU"
        assert recs[0].structure.partner == parse_dot_bracket("((....))").partner
        assert recs[1].structure.sequence is None

    def test_three_line_record_length_mismatch(self):
        recs = read_dot_bracket_records(">x\nACGUACG\n((....))\n..\n")
        assert [r.id for r in recs] == ["x", "rec2"]
        assert recs[0].structure is None
        assert "sequence length 7 differs from structure length 8" in recs[0].error
        assert recs[1].structure is not None and recs[1].structure.sequence is None

    @pytest.mark.parametrize(
        "text, expected",
        [
            (">a\n>b\n()\n", [("a", False), ("b", True)]),
            (">a\n()\n>tail\n", [("a", True), ("tail", False)]),
        ],
    )
    def test_header_with_no_structure_is_a_record_error(self, text, expected):
        recs = read_dot_bracket_records(text)
        assert [(r.id, r.structure is not None) for r in recs] == expected
        for rec in recs:
            assert (rec.error == "header with no structure line") == (rec.structure is None)
        _rows, _summary, errors = run_stats(recs)
        assert [rec_id for rec_id, _ in errors] == [i for i, ok in expected if not ok]

    def test_letters_without_header_stay_an_error(self):
        recs = read_dot_bracket_records("ACGU\n(..)\n")
        assert [r.id for r in recs] == ["rec1", "rec2"]
        assert "illegal character" in recs[0].error
        assert recs[1].structure.sequence is None


reader_text = st.one_of(
    st.text(max_size=200),
    st.text(alphabet=">#()[]{}<>.ACGUN 0123456789-=\n\t", max_size=200),
)


class TestReaderFuzz:
    """Any text yields records or a StructureError, never another exception."""

    @given(reader_text)
    @settings(max_examples=300)
    def test_dot_bracket_records(self, text):
        for rec in read_dot_bracket_records(text, "file"):
            assert (rec.structure is None) != (rec.error is None)
            if rec.structure is not None:
                rec.structure.validate()

    @given(st.one_of(reader_text, st.lists(
        st.tuples(st.integers(-2, 12), st.sampled_from("ACGU"), st.integers(-2, 12)),
        max_size=12,
    ).map(lambda rows: "".join(f"{i} {b} {j}\n" for i, b, j in rows))))
    @settings(max_examples=300)
    def test_bpseq(self, text):
        try:
            s = parse_bpseq(text)
        except StructureError:
            return
        s.validate()

    @given(reader_text)
    @settings(max_examples=300)
    def test_fasta(self, text):
        for rec_id, seq in read_fasta(text):
            assert isinstance(rec_id, str) and isinstance(seq, str)

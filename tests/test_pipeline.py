import io
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endprox.exact import Model, Stat, UnsupportedCombination
from endprox.limits import NegBinomial, limit_of, pmf_expand
from endprox.pipeline import (
    EmptyHistogram,
    NoRecords,
    SummaryBlock,
    compare,
    ete_band,
    heatmap,
    law_head,
    run_stats,
    summarize,
    total_variation,
    write_compare_csv,
    write_heatmap_csv,
    write_rows_csv,
    write_summary_csv,
)
from endprox.structure import ParsedRecord, parse_dot_bracket, read_dot_bracket_records


def records_from(text: str, group="g"):
    return read_dot_bracket_records(text, default_group=group)


class TestRunStats:
    def test_triplicate_example(self):
        text = "\n".join([".(...)..(...)."] * 3)
        columns, blocks, errors = run_stats(records_from(text))
        assert not errors
        assert columns["deg"] == [2, 2, 2]
        block = blocks[0]
        assert block.n_structures == 3
        assert block.means["deg"] == 2.0
        assert block.variances["deg"] == 0.0
        assert block.means["ete_nm"] == pytest.approx(2.80, abs=0.005)

    def test_single_structure_stems(self):
        columns, _, _ = run_stats(records_from("((...))"))
        assert columns["hel"] == [2] and columns["stm"] == [2]

    def test_crossing_goes_through_path(self):
        columns, _, _ = run_stats(records_from("([)]"))
        assert columns["pseudoknotted"] == [True]
        assert columns["stm"] == [None] and columns["stem_helices"] == [None]
        assert (columns["deg"], columns["chn"]) == ([1], [1])

    def test_empty_input(self):
        with pytest.raises(NoRecords):
            run_stats([])

    def test_record_built_around_a_structure(self):
        built = ParsedRecord("x", "g", parse_dot_bracket("(.)"))
        read = records_from(">x\n(.)\n")
        assert built.has_structure and built.structure == read[0].structure
        assert run_stats([built]) == run_stats(read)

    def test_all_failed(self):
        with pytest.raises(NoRecords):
            run_stats(records_from("((((\n"))

    def test_partial_failure_reported(self):
        columns, _, errors = run_stats(records_from("((((\n()\n"))
        assert columns["id"] == ["rec2"] and len(errors) == 1

    def test_summary_recompute(self):
        text = ".(...)\n((..))\n...\n"
        columns, blocks, _ = run_stats(records_from(text))
        manual = summarize([columns])
        assert manual == blocks
        assert run_stats(records_from(text), summary=False) == (columns, [], [])
        degs = columns["deg"]
        mu = sum(degs) / len(degs)
        assert blocks[0].means["deg"] == pytest.approx(mu, abs=1e-9)
        assert blocks[0].variances["deg"] == pytest.approx(
            sum((d - mu) ** 2 for d in degs) / len(degs), abs=1e-9
        )


_INTEGER_STATS = ["deg", "unp", "chn", "len_ext", "hel", "stm", "stem_helices"]
_OPTIONAL = {"hel", "stm", "stem_helices"}


def _exact(values):
    """Mean and population variance of values, exact, each rounded once."""
    values = [Fraction(v) for v in values]
    mu = sum(values) / len(values)
    return float(mu), float(sum((v - mu) ** 2 for v in values) / len(values))


@st.composite
def shuffled_blocks(draw):
    """Records with random groups, integer statistics (some absent) and
    distances drawn from a small pool, so that values repeat; the records in
    a random order, cut into blocks at random points."""
    pool = draw(st.lists(st.floats(0, 1e3, allow_nan=False), min_size=1, max_size=6))
    integers = st.lists(st.one_of(st.integers(0, 40), st.integers(0, 2000)), min_size=7, max_size=7)
    distances = st.lists(st.sampled_from(pool), min_size=2, max_size=2)
    absent = st.sets(st.sampled_from(sorted(_OPTIONAL)))
    rows = draw(st.lists(st.tuples(st.sampled_from("abc"), integers, distances, absent), min_size=1, max_size=40))
    records = [
        {"group": group, **dict(zip(_INTEGER_STATS, ints)), "ete_nm": ete, "rms_nm": rms, **dict.fromkeys(gone)}
        for group, ints, (ete, rms), gone in rows
    ]
    n = len(records)
    records = [records[k] for k in draw(st.permutations(range(n)))]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    blocks = [
        {name: [rec[name] for rec in records[a:b]] for name in records[0]}
        for a, b in zip([0] + cuts, cuts + [n])
    ]
    return records, blocks


class TestExactMoments:
    @given(shuffled_blocks())
    @settings(max_examples=100, deadline=None)
    def test_summarize_and_compare_are_correctly_rounded(self, drawn):
        records, blocks = drawn
        want = []
        for label in dict.fromkeys(rec["group"] for rec in records):
            members = [rec for rec in records if rec["group"] == label]
            moments = {}
            for name in ["deg", "unp", "chn", "len_ext", "ete_nm", "rms_nm", "hel", "stm", "stem_helices"]:
                values = [rec[name] for rec in members if rec[name] is not None]
                if values:
                    moments[name] = _exact(values)
            means = {name: mu for name, (mu, _) in moments.items()}
            variances = {name: var for name, (_, var) in moments.items()}
            want.append(SummaryBlock(label, len(members), means, variances))
        assert summarize(iter(blocks)) == want
        for name, stat in (("deg", Stat.DEG), ("hel", Stat.HEL)):
            values = [rec[name] for rec in records if rec[name] is not None]
            if not values:
                continue
            report = compare(chain.from_iterable(block[name] for block in blocks), Model.MOTZKIN, stat)
            assert (report.empirical_mean, report.empirical_variance) == _exact(values)
            assert (report.n_values, report.n_skipped) == (len(values), len(records) - len(values))


class TestHeatmap:
    def test_single_cell(self):
        columns, _, _ = run_stats(records_from(".(...)....\n.(...)....\n"))
        cells = heatmap([columns])
        assert len(cells) == 1
        assert cells[0].percent == 100.0

    def test_band_of_fig_cell(self):
        assert ete_band(2.80) == "2.5-3.5"
        assert ete_band(1.5) == "1.5-2.5"
        assert ete_band(8.3) == "other"
        assert ete_band(1.2) == "other"

    def test_percent_sums(self):
        text = "\n".join(["." * k + "(...)" for k in range(1, 30)])
        columns, _, _ = run_stats(records_from(text))
        cells = heatmap([columns])
        assert sum(c.percent for c in cells) == pytest.approx(100.0, abs=1e-6)

    def test_no_rows(self):
        with pytest.raises(NoRecords, match="heatmap needs at least one row"):
            heatmap([])


class TestTotalVariation:
    def test_identical(self):
        law = NegBinomial(1, 2, 0.5)
        hist = {k: float(law.pmf(k)) for k in range(0, 60)}
        assert total_variation(hist, law, 60) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint(self):
        law = NegBinomial(1, 2, 0.5)  # no mass at 0
        assert total_variation({0: 1.0}, law, 80) == pytest.approx(1.0, abs=1e-9)

    def test_half_overlap(self):
        law = NegBinomial(0, 1, 0.5)

        class TwoPoint:
            def pmf(self, k):
                return {0: 0.5, 1: 0.5}.get(k, 0.0)

        assert total_variation({0: 1.0}, TwoPoint(), 5) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(EmptyHistogram):
            total_variation({}, NegBinomial(0, 1, 0.5), 5)

    def test_negative_mass_is_empty(self):
        with pytest.raises(EmptyHistogram, match="histogram must have nonnegative mass"):
            total_variation({0: -1.0, 1: 2.0}, NegBinomial(0, 1, 0.5), 5)

    def test_quantile_cap(self):
        law = limit_of(Model.MOTZKIN, Stat.DEG)
        head = law_head(law, 1000)
        cap = len(head) - 1
        assert cap < 1000 and head == pmf_expand(law, cap)
        assert sum(float(law.pmf(k)) for k in range(cap + 1)) >= 1 - 1e-6
        assert sum(float(law.pmf(k)) for k in range(cap)) < 1 - 1e-6

    def test_quantile_cap_rejects_joint_law(self):
        # as moments and pmf_expand do
        with pytest.raises(UnsupportedCombination):
            law_head(limit_of(Model.MOTZKIN, Stat.JOINT), 0)

    def test_quantile_cap_stops_at_the_data(self):
        # NB(2, 1e-6) keeps almost all its mass past 10^6: the scan stops at
        # stop after stop + 1 pmf values
        law = NegBinomial(0, 2, 1e-6)

        class Counted:
            calls = 0

            def pmf(self, k):
                self.calls += 1
                return law.pmf(k)

        counted = Counted()
        assert len(law_head(counted, 5)) == 6
        assert counted.calls == 6


class TestCompare:
    def test_distance_is_not_compared(self):
        with pytest.raises(UnsupportedCombination, match="compare does not support ete"):
            compare([1, 2], Model.MOTZKIN, Stat.ETE)

    def test_exact_histogram_gives_zero_tv(self):
        law = limit_of(Model.MOTZKIN, Stat.DEG)
        # rows whose deg histogram equals the pmf cannot be built exactly;
        # instead feed the law's own pmf into total_variation via compare's
        # internals by checking a concentrated dataset end to end
        columns, _, _ = run_stats(records_from("(...)\n(...)\n"))
        report = compare(columns["deg"], Model.MOTZKIN, Stat.DEG)
        assert report.n_values == 2
        assert report.empirical_mean == 1.0
        assert report.law_mean == 3.0
        assert 0.0 < report.tv < 1.0

    def test_tv_is_total_variation_on_the_bins(self):
        # compare expands its law once, for the bins and the distance alike;
        # the distance is total_variation's to the last bit
        values = [0, 1, 1, 2, 3, 3, 3, 7, 12]
        for model, stat in ((Model.MOTZKIN, Stat.DEG), (Model.PFOLD, Stat.UNP), (Model.DYCK, Stat.HEL)):
            report = compare(values, model, stat)
            cap = len(report.bins) - 1
            assert report.tv == total_variation(Counter(values), limit_of(model, stat), cap), (model, stat)
            assert [pk for _, _, pk in report.bins] == pmf_expand(limit_of(model, stat), cap)

    def test_absent_rows_skipped(self):
        columns, _, _ = run_stats(records_from("...\n(...)\n"))
        report = compare(columns["hel"], Model.MOTZKIN, Stat.HEL)
        assert report.n_skipped == 1 and report.n_values == 1

    def test_unsupported(self):
        columns, _, _ = run_stats(records_from("(...)\n"))
        with pytest.raises(UnsupportedCombination):
            compare(columns["unp"], Model.DYCK, Stat.UNP)

    def test_sampled_deg_tv_at_2000(self):
        # 1e5 uniform draws at length 2000: the empirical deg histogram sits
        # within TV 0.03 of the limit law (deg read off the step rows in
        # chunks; building 1e5 full structure objects would be pure overhead)
        from collections import Counter

        from endprox.sampling import RngHandle, sample_motzkin_steps
        from structure_oracle import unp_deg_of_steps

        n, count = 2000, 100_000
        law = limit_of(Model.MOTZKIN, Stat.DEG)
        rng = RngHandle(51)
        hist: Counter = Counter()
        for _ in range(10):
            _, degs = unp_deg_of_steps(sample_motzkin_steps(n, count // 10, rng))
            hist.update(degs.tolist())
        cap = len(law_head(law, max(hist))) - 1
        tv = total_variation(hist, law, cap)
        assert tv < 0.03


class TestWriters:
    def test_rows_csv_header(self):
        columns, blocks, _ = run_stats(records_from("(...)\n"))
        buf = io.StringIO()
        write_rows_csv([columns], buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "id,length,deg,unp,chn,len_ext,ete_nm,rms_nm,hel,stm,stem_helices,pseudoknotted,group"
        buf2 = io.StringIO()
        write_summary_csv(blocks, buf2)
        assert buf2.getvalue().splitlines()[0] == "group,n_structures,stat,mean,variance"

    def test_rows_csv_cells(self):
        # absent statistics are empty cells, the crossing flag is true or
        # false, an id with a comma is quoted, and a bad record has no row
        text = ">nested\n.(...)..(...).\n>pk group=b\n((..[[..))..]]\n>dots\n.....\n>bad\n((.\n>a,b\n(())\n"
        columns, _, errors = run_stats(records_from(text))
        buf = io.StringIO()
        write_rows_csv([columns], buf)
        assert [e[0] for e in errors] == ["bad"]
        assert buf.getvalue() == (
            "id,length,deg,unp,chn,len_ext,ete_nm,rms_nm,hel,stm,stem_helices,pseudoknotted,group\n"
            "nested,14,2,4,5,8,2.796602046558486,2.7041634565979917,1,1,1,false,g\n"
            "pk,14,1,2,4,4,2.06854426193988,2.7041634565979917,2,,,true,b\n"
            "dots,5,0,5,4,5,1.4243859601963234,1.5,,,,false,g\n"
            '"a,b",4,1,0,0,2,1.5,1.299038105676658,2,2,1,false,g\n'
        )

    def test_heatmap_csv(self):
        columns, _, _ = run_stats(records_from("(...)\n"))
        buf = io.StringIO()
        write_heatmap_csv(heatmap([columns]), buf)
        assert buf.getvalue().splitlines()[0] == "deg,unp,percent,ete_band"

    def test_compare_csv(self):
        columns, _, _ = run_stats(records_from("(...)\n(...)\n"))
        report = compare(columns["deg"], Model.MOTZKIN, Stat.DEG)
        buf = io.StringIO()
        write_compare_csv(report, buf)
        text = buf.getvalue()
        assert "empirical_mean" in text and "law_pmf" in text

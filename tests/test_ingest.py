import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from bibshift.ingest import (
    MalformedRecord,
    link_records,
    normalize_title,
    parse_citation_index_export,
    parse_medline_export,
)
from bibshift.records import Source
from conftest import mkrec
from oracles import brute_parse_citation_index_export, brute_parse_medline_export


def parse_index_text(text):
    return parse_citation_index_export(io.StringIO(text))


def parse_medline_text(text):
    return parse_medline_export(io.StringIO(text))


class TestCitationIndexParser:
    def test_fixture_record_count_and_ref_sizes(self, data_dir):
        with open(data_dir / "citation_index_3records.txt", encoding="utf-8") as fh:
            result = parse_citation_index_export(fh)
        assert [r.record_id for r in result.records] == ["IDX:0001", "IDX:0002", "IDX:0003"]
        assert [len(r.cited_refs) for r in result.records] == [2, 0, 5]
        assert result.missing == [] and result.renamed == []

    def test_fixture_years_and_sources(self, data_dir):
        with open(data_dir / "citation_index_3records.txt", encoding="utf-8") as fh:
            result = parse_citation_index_export(fh)
        assert [r.pub_year for r in result.records] == [1970, 1971, 1971]
        assert all(r.source is Source.CITATION_INDEX for r in result.records)

    def test_title_continuation_joined_with_single_space(self, data_dir):
        with open(data_dir / "citation_index_3records.txt", encoding="utf-8") as fh:
            result = parse_citation_index_export(fh)
        assert result.records[1].title == "EDITORIAL ON THE STATE OF VIROLOGY RESEARCH"

    def test_multi_entry_ref_line_and_trailing_separator(self, data_dir):
        with open(data_dir / "citation_index_3records.txt", encoding="utf-8") as fh:
            result = parse_citation_index_export(fh)
        assert result.records[2].cited_refs == {
            "SMITH A, 1960, J VIROL, V1, P10", "JONES B, 1961, NATURE, V2, P20",
            "BROWN C, 1962, SCIENCE, V3, P30", "TEMIN HM, 1970, NATURE, V226, P1211",
            "BALTIMORE D, 1970, NATURE, V226, P1209"}

    def test_empty_stream(self):
        result = parse_index_text("")
        assert result.records == []
        assert result.missing == [] and result.renamed == []

    def test_duplicate_ref_strings_collapse(self):
        result = parse_index_text(
            "UT X\nTI T\nPY 1970\n"
            "CR SMITH A, 1960, J, V1, P1;\n"
            "   SMITH A,  1960,  J, V1, P1\n"
            "ER\n"
        )
        assert len(result.records[0].cited_refs) == 1

    def test_missing_id_gets_placeholder_and_report(self):
        result = parse_index_text("TI SOME TITLE\nPY 1970\nER\n")
        assert result.records[0].record_id == "anon:1"
        assert any(m.field == "UT" for m in result.missing)

    def test_missing_title_and_year_reported_not_dropped(self):
        result = parse_index_text("UT X\nER\n")
        assert len(result.records) == 1
        assert result.records[0].pub_year is None
        fields = {m.field for m in result.missing}
        assert {"TI", "PY"} <= fields

    def test_unterminated_block_raises_with_line_number(self):
        with pytest.raises(MalformedRecord) as err:
            parse_index_text("UT X\nTI TITLE\nPY 1970\n")
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)

    def test_stray_line_raises(self):
        with pytest.raises(MalformedRecord):
            parse_index_text("UT X\nnot a tagged line\nER\n")

    def test_continuation_before_any_field_raises(self):
        with pytest.raises(MalformedRecord) as err:
            parse_index_text("   orphan continuation\n")
        assert err.value.line_number == 1

    def test_header_and_trailer_tags_ignored(self):
        result = parse_index_text("FN Export\nVR 1.0\nUT X\nTI T\nPY 1970\nER\nEF\n")
        assert len(result.records) == 1
        assert result.missing == [] and result.renamed == []

    def test_parse_is_deterministic(self, data_dir):
        text = (data_dir / "citation_index_3records.txt").read_text(encoding="utf-8")
        first = parse_index_text(text)
        second = parse_index_text(text)
        assert first.records == second.records
        assert first.missing == second.missing


class TestMedlineParser:
    def test_fixture_records(self, data_dir):
        with open(data_dir / "medline_2records.txt", encoding="utf-8") as fh:
            result = parse_medline_export(fh)
        assert [r.record_id for r in result.records] == ["4194680", "4196450"]
        assert result.records[0].title == "RNA tumour virus genome structure"
        assert [r.pub_year for r in result.records] == [1970, 1971]
        assert all(r.source is Source.MEDLINE for r in result.records)
        assert all(r.cited_refs == frozenset() for r in result.records)

    def test_year_from_leading_four_digits(self):
        result = parse_medline_text("PMID- 1\nTI  - T\nDP  - 1970 Jun\n")
        assert result.records[0].pub_year == 1970

    def test_blank_stream(self):
        result = parse_medline_text("\n\n")
        assert result.records == []

    def test_duplicate_ids_renamed_with_warning(self):
        result = parse_medline_text(
            "PMID- 7\nTI  - A\nDP  - 1970\n\nPMID- 7\nTI  - B\nDP  - 1971\n"
        )
        assert [r.record_id for r in result.records] == ["7", "7#2"]
        assert result.renamed == [("7", "7#2")]

    def test_unrecognized_line_raises(self):
        with pytest.raises(MalformedRecord):
            parse_medline_text("PMID- 1\n;;; nonsense ;;;\n")

    def test_continuation_before_any_field_raises(self):
        with pytest.raises(MalformedRecord):
            parse_medline_text("      orphan\n")

    def test_missing_year_reported(self):
        result = parse_medline_text("PMID- 1\nTI  - T\n")
        assert result.records[0].pub_year is None
        assert any(m.field == "DP" for m in result.missing)


class TestDuplicateRecords:
    def test_an_exact_copy_is_dropped_with_its_notes(self):
        block = "PMID- 7\nTI  - A\n\n"
        result = parse_medline_text(block + block)
        assert [r.record_id for r in result.records] == ["7"]
        assert [(m.record_id, m.field) for m in result.missing] == [("7", "DP")]
        assert result.dropped == 1 and result.renamed == []

    def test_a_record_differing_only_in_its_references_is_renamed(self):
        result = parse_index_text("UT X\nPY 1970\nCR A, 1960\nER\n"
                                  "UT X\nPY 1970\nCR B, 1961\nER\n")
        assert [r.record_id for r in result.records] == ["X", "X#2"]
        assert result.dropped == 0
        assert result.renamed == [("X", "X#2")]

    def test_a_copy_of_a_renamed_record_is_dropped_too(self):
        a, b, c = ("UT X\nTI A\nPY 1970\nER\n", "UT X\nTI B\nPY 1970\nER\n",
                   "UT X\nTI C\nPY 1970\nER\n")
        result = parse_index_text(a + b + a + b + c)
        assert [(r.record_id, r.title) for r in result.records] == [
            ("X", "A"), ("X#2", "B"), ("X#3", "C")]
        assert result.dropped == 2
        assert result.renamed == [("X", "X#2"), ("X", "X#3")]

    def test_an_anonymous_id_numbers_the_block_in_its_file(self):
        result = parse_index_text("UT X\nER\nUT X\nER\nTI A\nER\n")
        assert [r.record_id for r in result.records] == ["X", "anon:3"]

    @pytest.mark.parametrize("parse,block,id_tag", [
        (parse_index_text, "TI A\nPY 1970\nCR X, 1960, J\nER\n", "UT"),
        (parse_medline_text, "TI  - A\nDP  - 1970\n\n", "PMID"),
    ], ids=["index", "medline"])
    def test_a_copy_of_an_id_less_record_is_dropped(self, parse, block, id_tag):
        result = parse(block + block)
        assert [r.record_id for r in result.records] == ["anon:1"]
        assert [(m.record_id, m.field) for m in result.missing] == [("anon:1", id_tag)]
        assert result.dropped == 1 and result.renamed == []

    def test_id_less_records_are_compared_with_id_less_ones_only(self):
        # anon:N still numbers the blocks, dropped ones included; a differing
        # id-less record is kept, not renamed, and a record with an id is
        # never a copy of an id-less one.
        a, b = "TI A\nPY 1970\nER\n", "TI B\nPY 1970\nER\n"
        result = parse_index_text(a + b + a + "UT anon:1\nTI C\nPY 1970\nER\n" + b + a)
        assert [(r.record_id, r.title) for r in result.records] == [
            ("anon:1", "A"), ("anon:2", "B"), ("anon:1#2", "C")]
        assert result.dropped == 3
        assert result.renamed == [("anon:1", "anon:1#2")]

    def test_a_doubled_export_parses_as_the_single_one(self, data_dir):
        text = (data_dir / "citation_index_3records.txt").read_text(encoding="utf-8")
        single, doubled = parse_index_text(text), parse_index_text(text + text)
        assert doubled.records == single.records and doubled.missing == single.missing
        assert doubled.dropped == len(single.records)
        assert doubled.renamed == single.renamed


# ── parsers against the regex-per-line oracles ──────────────────────────────

_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "", " \n", "\t\r\n"])
_VALUE = st.text(alphabet="AZaz09 ,;\t\r\xa0\u00e9\u0661\u0669\n", max_size=12)
_REFS = st.lists(
    st.sampled_from(["SMITH A, 1960, J, V1, P1", "smith a,1960,j,v1,p1", " X, 1970",
                     "X,,1970", "  ", "", "A\xa0B, 1971"]),
    max_size=4,
).flatmap(lambda refs: st.sampled_from([";", "; ", " ;"]).map(lambda sep: sep.join(refs)))
_BLANK = st.sampled_from(["", " ", "   ", "      ", "\t", "\xa0", " \r"])


def _index_line():
    tag = st.sampled_from(["UT", "TI", "PY", "CR", "PT", "ER", "ER", "FN", "VR", "EF",
                           "Z9", "ut", "\u00dc1", "T", "E"])
    gap = st.sampled_from([" ", " ", "  ", "\t", "", " \t"])
    value = st.one_of(_VALUE, _REFS, st.sampled_from(["1970", " 1971 ", "19x0", ""]))
    tagged = st.tuples(tag, gap, value).map("".join)
    indent = st.sampled_from(["   ", "   ", "    ", "  ", " ", "\t"])
    continued = st.tuples(indent, st.one_of(_REFS, _VALUE)).map("".join)
    return st.tuples(st.one_of(tagged, tagged, continued, _BLANK), _ENDINGS).map("".join)


def _medline_line():
    tag = st.sampled_from(["PMID", "TI", "DP", "AB", "T", "pmid", "T\u00cd", "TIXYZ"])
    pad = st.sampled_from(["", " ", "  ", "   ", "\t"])
    dash = st.sampled_from(["- ", "- ", "-", "-  "])
    value = st.one_of(_VALUE, st.sampled_from(["1970 Jun", "197", "\u0661\u0669\u0667\u0660",
                                               " 1970", "x1970"]))
    tagged = st.tuples(tag, pad, dash, value).map("".join)
    indent = st.sampled_from(["      ", "      ", " ", "\t", "  "])
    continued = st.tuples(indent, _VALUE).map("".join)
    return st.tuples(st.one_of(tagged, tagged, continued, _BLANK), _ENDINGS).map("".join)


def _streams(lines):
    r"""The same lines as a file opened by the CLI would give them (universal
    newlines), as a stream that splits on "\n" only, and as a plain list
    (whose items may hold a "\r" or "\n" before their end)."""
    text = "".join(lines)
    return [lambda: io.StringIO(text, newline=None), lambda: io.StringIO(text),
            lambda: list(lines)]


def _outcome(parse, stream):
    try:
        result = parse(stream)
    except MalformedRecord as exc:
        return ("error", str(exc), exc.line_number)
    return ("ok", result)


class TestParsersMatchOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_index_line(), max_size=24))
    @example(["UT X\n", "CR A, 1970;  B, 1971; \n", "   A, 1970 ;\n", "ER \n"])
    @example(["UT X\n", "TI A\nB\n", "ER\n"])
    @example(["UT X\r", "ER\r\n", "   \n"])
    @example(["UT \nX\n", "ER\n"])
    @example(["UT X\n \n", "ER\n"])
    @example(["UT X\n\n", "ER\n\n"])
    @example(["UT X\n\r", "PY 1970\t\n\n", "ER\n"])
    @example(["UT X\n", "ER\n", "TI A\n", "ER\n", "UT X\n", "ER\n", "UT X\n", "TI A\n",
              "ER\n", "TI A\n", "ER\n", "UT X\n", "ER\n"])
    def test_citation_index(self, lines):
        for stream in _streams(lines):
            assert _outcome(parse_citation_index_export, stream()) == _outcome(
                brute_parse_citation_index_export, stream())

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_medline_line(), max_size=24))
    @example(["PMID- 1\n", "TI  - A\n", "      B\n", "DP  - 1970\n", "\n"])
    @example(["TI -x\n", "PMID-\n", "T   - y\n", "TI  - A\nB\n"])
    @example(["PMID- 1\n", "TI  - \nA\n"])
    @example(["PMID- 1\n", "TI- - A\n", "TI\t - B\n"])
    @example(["PMID- 1\n", "\n", "TI  - A\n", "\n", "PMID- 1\n", "\n", "PMID- 1\n",
              "TI  - A\n", "\n", "TI  - A\n", "\n", "PMID- 1\n"])
    def test_medline(self, lines):
        for stream in _streams(lines):
            assert _outcome(parse_medline_export, stream()) == _outcome(
                brute_parse_medline_export, stream())


class TestNormalizeTitle:
    def test_strips_punctuation_and_case(self):
        assert normalize_title("Viral genome replication, in vitro!") == (
            "viral genome replication in vitro"
        )

    def test_collapses_whitespace(self):
        assert normalize_title("  A   B\tC  ") == "a b c"

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="aZ09 _-.,;!?'()\t\xa0\u017f\u212a\u0130\u00df\u00e9\u03a3",
                   max_size=20))
    @example("\u017ftra\u00dfe \u212a")
    @example("_\u0130_")
    def test_matches_the_punctuation_regex(self, title):
        assert normalize_title(title) == re.sub(r"[\W_]+", " ", title.casefold()).strip()


class TestLinkage:
    def load(self, data_dir):
        with open(data_dir / "linkage_index.txt", encoding="utf-8") as fh:
            index = parse_citation_index_export(fh).records
        with open(data_dir / "linkage_medline.txt", encoding="utf-8") as fh:
            medline = parse_medline_export(fh).records
        return medline, index

    def test_fixture_three_of_four_match(self, data_dir):
        medline, index = self.load(data_dir)
        assert link_records(medline, index) == pytest.approx(0.75)

    def test_year_disambiguates_identical_titles(self, data_dir):
        # IDX:C (1971) and IDX:D (1972) share a normalized title; the 1971
        # record must match C alone rather than be ambiguous
        medline, index = self.load(data_dir)
        [record] = [r for r in medline if r.record_id == "2003"]
        assert link_records([record], index) == 1.0

    def test_empty_inputs_have_undefined_coverage(self, data_dir):
        _, index = self.load(data_dir)
        assert link_records([], []) is None
        assert link_records([], index) is None

    def test_same_title_and_year_twice_is_ambiguous(self):
        med = [mkrec("m", title="Shared title", year=1970, source=Source.MEDLINE)]
        idx = [
            mkrec("i1", title="SHARED TITLE", year=1970),
            mkrec("i2", title="Shared, title.", year=1970),
        ]
        assert link_records(med, idx) == 0.0

    @pytest.mark.parametrize("copies", [1, 2])
    def test_unrelated_index_record_never_changes_status(self, copies):
        med = [mkrec("m", title="Shared title", year=1970, source=Source.MEDLINE)]
        idx = [mkrec(f"i{n}", title="Shared title", year=1970) for n in range(copies)]
        before = link_records(med, idx)
        idx.append(mkrec("other", title="Something else entirely", year=1970))
        assert link_records(med, idx) == before == (1.0 if copies == 1 else 0.0)

    @pytest.mark.parametrize("medline_title", ["", "!!!"])
    def test_a_title_empty_once_normalized_never_matches(self, medline_title):
        med = [mkrec("m", title=medline_title, year=1970, source=Source.MEDLINE)]
        idx = [mkrec("i1", title="", year=1970), mkrec("i2", title="A title", year=1970)]
        assert link_records(med, idx) == 0.0

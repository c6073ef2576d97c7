from fractions import Fraction

from bibshift.cocitation import ThresholdPair, core_sets
from bibshift.records import Source, build_corpus
from bibshift.reports import (
    core_membership_table,
    core_size_matrix,
    cosine_text,
    cowords_table,
    fraction_text,
    percent_text,
    phrase_series,
    phrase_table,
    render_table,
    rsi_long_table,
    rsi_matrix,
    summary_table,
    words_table,
    write_report,
)
from bibshift.stability import GrooveReport, groove_detect
from bibshift.textmetrics import CoWordPair, DocShare
from conftest import corpus_series, mkrec

T = ThresholdPair(3, 2)
CFG = [("command", "test"), ("thresholds", "3/2")]


def pool_corpus(pools, year_range=None, papers_per_year=3):
    """Corpus where every paper in a year cites that year's whole ref pool."""
    records = [
        mkrec(f"p{year}-{i}", refs=tuple(pool), year=year)
        for year, pool in pools.items()
        for i in range(papers_per_year)
    ]
    return build_corpus(records, year_range)


class TestTextHelpers:
    def test_fraction_text(self):
        assert fraction_text(Fraction(2, 9)) == "2/9"
        assert fraction_text(Fraction(0)) == "0/1"
        assert fraction_text(None) == "-/-"

    def test_percent_text(self):
        assert percent_text(66.66666) == "66.67"
        assert percent_text(0.0) == "0.00"

    def test_cosine_text(self):
        assert cosine_text(0.5) == "0.5000"


class TestRenderTable:
    def test_shape(self):
        text = render_table([("a", "1"), ("b", "x/y")], ["col1", "col2"],
                            [[1, "two"], [3, 4]])
        assert text == "# a=1\n# b=x/y\ncol1\tcol2\n1\ttwo\n3\t4\n"

    def test_no_config_lines(self):
        text = render_table([], ["only"], [["row"]])
        assert text == "only\nrow\n"

    def test_write_report_uses_lf_and_utf8(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_report(path, render_table([("note", "é")], ["c"], [["v"]]))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == "# note=é\nc\nv\n"


class TestSummaryTable:
    def test_counts_and_total_row(self):
        records = [
            mkrec("i1", refs=("A, 1960", "B, 1961"), year=1970),
            mkrec("i2", refs=("A, 1960",), year=1971),
            mkrec("m1", year=1971, source=Source.MEDLINE),
        ]
        corpus = build_corpus(records)
        text = summary_table(corpus, {1970: 2, 1971: 1}, 2, CFG)
        lines = text.splitlines()
        assert lines[2] == ("year\tcitation_index_records\tmedline_records"
                            "\ttotal_records\tdistinct_cited_refs")
        assert lines[3] == "1970\t1\t0\t1\t2"
        assert lines[4] == "1971\t1\t1\t2\t1"
        assert lines[5] == "TOTAL\t2\t1\t3\t2"


class TestCitationTables:
    def test_core_membership_sorted(self):
        corpus = pool_corpus({1970: ["B, 1960", "A, 1950"]})
        text = core_membership_table(core_sets(corpus, [T]), CFG)
        lines = text.splitlines()
        assert lines[3] == "1970\t3/2\tA, 1950"
        assert lines[4] == "1970\t3/2\tB, 1960"

    def test_core_size_matrix_fills_missing_years_with_zero(self):
        corpus = pool_corpus({1970: ["A, 1950", "B, 1960"]}, (1970, 1971))
        cores = core_sets(corpus, [T])
        text = core_size_matrix(cores, CFG)
        lines = text.splitlines()
        assert lines[2] == "thresholds\t1970\t1971"
        assert lines[3] == "3/2\t2\t0"


def stability_corpus():
    return pool_corpus(
        {1970: ["A, 1950", "B, 1951"],
         1971: ["A, 1950", "B, 1951"],
         1972: ["C, 1952", "D, 1953"]},
        (1970, 1973),
    )


class TestRsiTables:
    def test_long_table_rows(self):
        series = corpus_series(stability_corpus(), T, gap=1)
        text = rsi_long_table(T, 1, series, CFG)
        lines = text.splitlines()
        assert lines[2] == ("thresholds\tgap\tformer_year\tlater_year"
                            "\tn_former\tn_later\tshared\trsi_full\trsi_2dp")
        assert lines[3] == "3/2\t1\t1970\t1971\t2\t2\t2\t1/1\t1.00"
        assert lines[4] == "3/2\t1\t1971\t1972\t2\t2\t0\t0/1\t0.00"
        assert lines[5] == "3/2\t1\t1972\t1973\t2\t0\t0\t-/-\t-/-"

    def test_matrix_cells_and_groove(self):
        corpus = stability_corpus()
        series = {t: corpus_series(corpus, t, gap=1) for t in (T, ThresholdPair(2, 2))}
        text = rsi_matrix(series, groove_detect(series), CFG)
        lines = text.splitlines()
        assert lines[2] == "thresholds\t1970/1971\t1971/1972\t1972/1973"
        assert lines[3] == "3/2\t2/1.00\t0/0.00\t-/-"
        assert lines[4] == "2/2\t2/1.00\t0/0.00\t-/-"
        assert lines[5] == "# groove: minimal defined RSI per series"
        assert lines[6] == "thresholds\tmin_rsi_full\tmin_rsi_2dp\tintervals"
        assert lines[7] == "3/2\t0/1\t0.00\t1971/1972"
        assert lines[8] == "2/2\t0/1\t0.00\t1971/1972"
        assert lines[9] == "CONSENSUS\t-\t-\t1971/1972"
        assert len(lines) == 10

    def test_single_series_omits_consensus(self):
        series = {T: corpus_series(stability_corpus(), T, gap=1)}
        text = rsi_matrix(series, groove_detect(series), CFG)
        assert "CONSENSUS" not in text

    def test_empty_consensus_rendered_as_dash(self):
        corpus = stability_corpus()
        series = {t: corpus_series(corpus, t, gap=1) for t in (T, ThresholdPair(2, 2))}
        groove = GrooveReport(
            minima={
                T: (Fraction(0), ((1970, 1971),)),
                ThresholdPair(2, 2): (Fraction(0), ((1971, 1972),)),
            },
            consensus=(),
        )
        text = rsi_matrix(series, groove, CFG)
        assert text.splitlines()[-1] == "CONSENSUS\t-\t-\t-"

    def test_table_is_deterministic(self):
        series = corpus_series(stability_corpus(), T, gap=1)
        once = rsi_long_table(T, 1, series, CFG)
        again = rsi_long_table(T, 1, corpus_series(stability_corpus(), T, gap=1), CFG)
        assert once == again


class TestWordTables:
    def test_words_merge_with_dash_for_missing_source(self):
        per_source = {
            Source.CITATION_INDEX: {
                "transcription": DocShare(2, 40.0),
                "mice": DocShare(1, 20.0),
            },
            Source.MEDLINE: {"transcription": DocShare(3, 60.0)},
        }
        text = words_table(per_source, CFG)
        lines = text.splitlines()
        assert lines[2] == ("term\tcitation_index_doc_freq\tcitation_index_percent"
                            "\tmedline_doc_freq\tmedline_percent")
        assert lines[3] == "transcription\t2\t40.00\t3\t60.00"
        assert lines[4] == "mice\t1\t20.00\t-\t-"

    def test_words_ordered_by_best_percent_then_term(self):
        per_source = {
            Source.CITATION_INDEX: {
                "beta": DocShare(1, 50.0),
                "alpha": DocShare(1, 50.0),
            },
        }
        text = words_table(per_source, CFG)
        assert [line.split("\t")[0] for line in text.splitlines()[3:]] == [
            "alpha", "beta",
        ]

    def test_cowords_columns(self):
        per_source = {
            Source.MEDLINE: {
                ("reverse", "transcription"): CoWordPair(2, 0.707107, 40.0),
            },
        }
        text = cowords_table(per_source, CFG)
        lines = text.splitlines()
        assert lines[2] == ("term_a\tterm_b\tmedline_co_doc_freq"
                            "\tmedline_cosine\tmedline_percent")
        assert lines[3] == "reverse\ttranscription\t2\t0.7071\t40.00"

    def test_phrase_table_per_source(self):
        per_source = {
            Source.CITATION_INDEX: {1970: DocShare(0, 0.0), 1971: DocShare(2, 50.0)},
            Source.MEDLINE: {1970: DocShare(1, 25.0), 1971: DocShare(0, 0.0)},
        }
        text = phrase_table(per_source, CFG)
        lines = text.splitlines()
        assert lines[2] == ("year\tcitation_index_doc_freq\tcitation_index_percent"
                            "\tmedline_doc_freq\tmedline_percent")
        assert lines[3] == "1970\t0\t0.00\t1\t25.00"
        assert lines[4] == "1971\t2\t50.00\t0\t0.00"

    def test_phrase_series(self):
        text = phrase_series({1970: DocShare(0, 0.0), 1971: DocShare(2, 66.7)}, CFG)
        assert text.splitlines()[2:] == ["year\tpercent", "1970\t0.00", "1971\t66.70"]

    def test_phrase_table_of_no_source_is_its_header(self):
        assert phrase_table({}, CFG) == "# command=test\n# thresholds=3/2\nyear\n"

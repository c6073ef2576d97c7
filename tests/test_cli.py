import argparse
import codecs
import contextlib
import errno
import io
import itertools
import json
import os
import shutil
import string
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

import bibshift
from bibshift import cli, records, reports, textmetrics
from bibshift.cli import (
    CliError,
    build_parser,
    parse_gaps,
    parse_thresholds,
    parse_years,
    run,
)
from bibshift.cocitation import ThresholdPair
from bibshift.records import (
    CACHE_HEADER,
    Source,
    build_corpus,
    read_cache,
)
from bibshift.textmetrics import default_stopwords
from conftest import (
    index_export_text,
    medline_export_text,
    mkrec,
    save_cache,
    write_index_export,
    write_medline_export,
)
from oracles import (
    brute_core_refs,
    brute_link_counts,
    brute_new_coword_pairs,
    brute_new_terms,
    brute_parse_citation_index_export,
    brute_parse_cited_ref,
    brute_parse_medline_export,
    brute_phrase_points,
    brute_rsi_2dp,
)

POOLS = {
    1970: ["KAPLAN A, 1950, J ONE, V1, P1", "LODGE B, 1951, J TWO, V2, P2"],
    1971: ["KAPLAN A, 1950, J ONE, V1, P1", "LODGE B, 1951, J TWO, V2, P2"],
    1972: ["NOVAK C, 1952, J SIX, V3, P3", "OKADA D, 1953, J TEN, V4, P4"],
}

DROPPED = ("dropped {} duplicate record(s), each equal in every field to an earlier "
           "record of its id, or id-less and equal to an earlier id-less record but "
           "for its anon id")

TITLES = {
    1970: ["virus growth study", "tumor virus assay", "virus culture notes"],
    1971: ["virus growth review", "avian tumor work", "enzyme assay note"],
    1972: ["reverse transcription found", "reverse transcriptase assay",
           "polymerase in virions"],
}


def seed_exports(tmp_path):
    """Three years, three records per year, pool-cited refs per year."""
    index_rows = [
        (f"IDX:{year}{i}", year, TITLES[year][i], POOLS[year])
        for year in POOLS
        for i in range(3)
    ]
    medline_rows = [
        (f"9{year}{i}", year, TITLES[year][i]) for year in POOLS for i in range(3)
    ]
    index_path = tmp_path / "index.txt"
    medline_path = tmp_path / "medline.txt"
    write_index_export(index_path, index_rows)
    write_medline_export(medline_path, medline_rows)
    return index_path, medline_path


def ingest(tmp_path, *extra):
    index_path, medline_path = seed_exports(tmp_path)
    argv = [
        "ingest",
        "--index", str(index_path),
        "--medline", str(medline_path),
        "--cache", str(tmp_path / "cache.tsv"),
        "--out-dir", str(tmp_path / "out"),
        *extra,
    ]
    assert run(argv) == 0
    return tmp_path / "cache.tsv"


def base_args(tmp_path, cache):
    return ["--cache", str(cache), "--out-dir", str(tmp_path / "out")]


@contextlib.contextmanager
def _chdir(path):
    """The working directory set to ``path`` for the block (Python 3.10 has
    no ``contextlib.chdir``)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of a run, argparse exits included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


class TestIngest:
    def test_writes_cache_and_report(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        out = capsys.readouterr().out
        assert f"wrote {cache}" in out
        assert "ingest_report.tsv" in out
        assert cache.read_text(encoding="utf-8").startswith(CACHE_HEADER)

    def test_a_cache_name_of_250_bytes_is_written(self, tmp_path):
        # The temp file's name must not grow with the target's: 255 bytes
        # is the longest name most file systems allow.
        short = ingest(tmp_path)
        long_cache = tmp_path / "long" / ("a" * 250)
        index_path, medline_path = seed_exports(tmp_path)
        assert run(["ingest", "--index", str(index_path), "--medline", str(medline_path),
                    "--cache", str(long_cache), "--out-dir", str(tmp_path / "long")]) == 0
        assert long_cache.read_bytes() == short.read_bytes()
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_excluded_records_counted_by_reason(self, tmp_path):
        rows = [(f"r{i}", 1966 + i, f"title {i}", []) for i in range(10)]
        write_index_export(tmp_path / "index.txt", rows + [("undated", None, "t", [])])
        assert run(["ingest", "--index", str(tmp_path / "index.txt"), "--years", "1969:1975",
                    *base_args(tmp_path, tmp_path / "cache.tsv")]) == 0
        text = (tmp_path / "out" / "ingest_report.tsv").read_text(encoding="utf-8")
        assert ("# total_input=11\n# kept=7\n# excluded_missing_year=1\n"
                "# excluded_out_of_range=3\n") in text

    def test_report_counts_and_linkage(self, tmp_path):
        ingest(tmp_path)
        text = (tmp_path / "out" / "ingest_report.tsv").read_text(encoding="utf-8")
        assert "# linkage_coverage=1.0000" in text
        assert "# total_input=18" in text
        assert "# kept=18" in text
        assert "TOTAL\t9\t9\t18\t4" in text

    def test_index_only_linkage_not_applicable(self, tmp_path):
        index_path, _ = seed_exports(tmp_path)
        argv = ["ingest", "--index", str(index_path),
                "--cache", str(tmp_path / "cache.tsv"),
                "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 0
        text = (tmp_path / "out" / "ingest_report.tsv").read_text(encoding="utf-8")
        assert "# linkage_coverage=not applicable" in text

    def test_year_filter_recorded(self, tmp_path):
        ingest(tmp_path, "--years", "1970:1971")
        text = (tmp_path / "out" / "ingest_report.tsv").read_text(encoding="utf-8")
        assert "# years=1970:1971" in text
        assert "# excluded_out_of_range=6" in text

    def test_no_inputs_is_an_error(self, tmp_path, capsys):
        assert run(["ingest", "--cache", str(tmp_path / "c.tsv")]) == 1
        assert "error: ingest needs at least one input file" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["ingest", "--index", str(tmp_path / "nope.txt")]) == 1
        assert "error: input file not found" in capsys.readouterr().err

    def test_malformed_input_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("PT J\nTI X\nPY 1970\nUT A\n", encoding="utf-8")
        assert run(["ingest", "--index", str(bad),
                    "--cache", str(tmp_path / "c.tsv")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "line 4" in err

    @pytest.mark.parametrize("flag,data", [
        ("--medline", b"PMID- 1\nTI  - caf\xe9\nDP  - 1970\n"),
        ("--index", b"PT J\nTI caf\xe9\nPY 1970\nUT A\nER\n"),
    ])
    def test_non_utf8_export_is_an_error(self, tmp_path, capsys, flag, data):
        path = tmp_path / "export.txt"
        path.write_bytes(data)
        cache = tmp_path / "c.tsv"
        assert run(["ingest", flag, str(path), "--cache", str(cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in err
        assert not cache.exists()

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        index_path, medline_path = seed_exports(tmp_path)
        exports = {path: path.read_bytes() for path in (index_path, medline_path)}
        outcomes = []
        for bom in (b"", codecs.BOM_UTF8):
            for path, data in exports.items():
                path.write_bytes(bom + data)
            out = tmp_path / f"out{len(bom)}"
            argv = ["ingest", "--index", str(index_path), "--medline", str(medline_path),
                    "--cache", str(out / "cache.tsv"), "--out-dir", str(out)]
            assert _run_quietly(argv) == (0, "")
            outcomes.append(_reports(out))
        assert outcomes[0] == outcomes[1]
        assert set(outcomes[0]) == {"cache.tsv", "ingest_report.tsv"}

    def test_failed_report_write_leaves_the_cache_alone(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        before = cache.read_bytes()
        fresh = tmp_path / "fresh.tsv"
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        index_path, _ = seed_exports(tmp_path)
        capsys.readouterr()
        for target in (cache, fresh):
            assert run(["ingest", "--index", str(index_path), "--years", "1970:1971",
                        "--cache", str(target), "--out-dir", str(afile)]) == 1
            assert capsys.readouterr().err.startswith("error: cannot write report ")
        assert cache.read_bytes() == before
        assert not fresh.exists()

    def test_a_concatenated_export_counts_each_record_once(self, tmp_path):
        index_path, medline_path = seed_exports(tmp_path)
        outs = {}
        for copies in (1, 2):
            for path in (index_path, medline_path):
                doubled = tmp_path / f"{copies}{path.name}"
                # A blank line ends the last MEDLINE record of each copy.
                doubled.write_text("\n".join([path.read_text(encoding="utf-8")] * copies),
                                   encoding="utf-8")
            out = outs[copies] = tmp_path / f"out{copies}"
            cache = out / "cache.tsv"
            code, err = _run_quietly([
                "ingest", "--index", str(tmp_path / f"{copies}index.txt"),
                "--medline", str(tmp_path / f"{copies}medline.txt"), *base_args(out, cache)])
            assert code == 0
            assert _run_quietly(["summary", *base_args(out, cache)]) == (0, "")
        dropped = DROPPED.format(9)
        assert err == f"warning: {dropped}\n" * 2
        single, doubled = _reports(outs[1] / "out"), _reports(outs[2] / "out")
        assert doubled["summary.tsv"] == single["summary.tsv"]
        assert (outs[2] / "cache.tsv").read_bytes() == (outs[1] / "cache.tsv").read_bytes()
        assert doubled["ingest_report.tsv"].decode("utf-8").replace(
            f"# warning={dropped}\n", "") == single["ingest_report.tsv"].decode("utf-8")

    def test_title_less_records_never_link(self, tmp_path, capsys):
        index_path, medline_path = tmp_path / "index.txt", tmp_path / "medline.txt"
        index_path.write_text("PT J\nPY 1970\nUT IDX:1\nER\n"
                              "PT J\nTI A TITLE\nPY 1970\nUT IDX:2\nER\n", encoding="utf-8")
        medline_path.write_text("PMID- 1\nDP  - 1970\n", encoding="utf-8")
        assert run(["ingest", "--index", str(index_path), "--medline", str(medline_path),
                    "--cache", str(tmp_path / "c.tsv"), "--out-dir", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "ingest_report.tsv").read_text(encoding="utf-8")
        assert "# linkage_coverage=0.0000" in text
        assert capsys.readouterr().err.count("missing field TI") == 2

    def test_missing_field_warnings_reported(self, tmp_path, capsys):
        path = tmp_path / "index.txt"
        path.write_text("TI ONLY A TITLE\nPY 1970\nER\n", encoding="utf-8")
        assert run(["ingest", "--index", str(path),
                    "--cache", str(tmp_path / "c.tsv"),
                    "--out-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "warning: record anon:1 missing field UT" in err


    def test_a_reference_digit_run_int_refuses_reads_everywhere(self, tmp_path):
        long_ref = "SMITH J, 1960, NATURE, V" + "9" * 5000 + ", P1"
        index_path = tmp_path / "index.txt"
        write_index_export(index_path, [
            (f"IDX:{year}{i}", year, TITLES[year][i], POOLS[year] + [long_ref])
            for year in POOLS for i in range(3)])
        cache = tmp_path / "cache.tsv"
        assert _run_quietly(["ingest", "--index", str(index_path),
                             *base_args(tmp_path, cache)]) == (0, "")
        # the cache holds the key's spelling, which drops the volume int() refuses
        cached = cache.read_text(encoding="utf-8")
        assert "9" * 5000 not in cached and "|SMITH J, 1960, NATURE, P1" in cached
        for command in (["summary"], ["rsi", "--thresholds", "3/3", "--gaps", "1"],
                        ["core-refs", "--thresholds", "3/3"]):
            assert _run_quietly([*command, *base_args(tmp_path, cache)]) == (0, "")
        core_refs = _table_rows(tmp_path / "out" / "core_refs.tsv")
        assert [[str(year), "3/3", "SMITH J, 1960, NATURE, P1"] in core_refs
                for year in POOLS] == [True] * len(POOLS)


class TestSummary:
    def test_summary_rows(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["summary", *base_args(tmp_path, cache)]) == 0
        text = (tmp_path / "out" / "summary.tsv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert "# years=1970:1972" in lines
        assert "1970\t3\t3\t6\t2" in lines
        assert "TOTAL\t9\t9\t18\t4" in lines

    def test_missing_cache_message(self, tmp_path, capsys):
        assert run(["summary", "--cache", str(tmp_path / "absent.tsv")]) == 1
        err = capsys.readouterr().err
        assert "cache file not found" in err
        assert "run the ingest command first" in err

    def test_years_restricts_summary(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["summary", *base_args(tmp_path, cache),
                    "--years", "1971:1972"]) == 0
        text = (tmp_path / "out" / "summary.tsv").read_text(encoding="utf-8")
        assert "1970" not in text.replace("# years=1971:1972", "")


class TestRsi:
    def test_writes_series_and_matrix(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["rsi", *base_args(tmp_path, cache),
                    "--thresholds", "3/2,2/2", "--gaps", "1"]) == 0
        out = tmp_path / "out"
        assert (out / "rsi_3-2_gap1.tsv").exists()
        assert (out / "rsi_2-2_gap1.tsv").exists()
        matrix = (out / "rsi_matrix_gap1.tsv").read_text(encoding="utf-8")
        assert "thresholds\t1970/1971\t1971/1972" in matrix
        assert "3/2\t2/1.00\t0/0.00" in matrix
        assert "CONSENSUS\t-\t-\t1971/1972" in matrix

    def test_gap_too_large(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["rsi", *base_args(tmp_path, cache),
                    "--thresholds", "3/2", "--gaps", "9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_a_failing_gap_writes_no_report(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        out = tmp_path / "empty"
        out.mkdir()
        capsys.readouterr()
        assert run(["rsi", "--cache", str(cache), "--out-dir", str(out),
                    "--thresholds", "3/2", "--gaps", "1,9"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: gap 9 leaves no interval")
        assert "wrote" not in captured.out
        assert list(out.iterdir()) == []

    def test_invalid_gap_rejected(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["rsi", *base_args(tmp_path, cache), "--gaps", "0"]) == 1
        assert "gaps must be >= 1" in capsys.readouterr().err


class TestCoreRefs:
    def test_membership_and_sizes(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["core-refs", *base_args(tmp_path, cache),
                    "--thresholds", "3/2"]) == 0
        refs = (tmp_path / "out" / "core_refs.tsv").read_text(encoding="utf-8")
        assert "1970\t3/2\tKAPLAN A, 1950, J ONE, V1, P1" in refs
        sizes = (tmp_path / "out" / "core_sizes.tsv").read_text(encoding="utf-8")
        assert "thresholds\t1970\t1971\t1972" in sizes
        # only the three index records per year carry refs, so each yearly
        # pool of two refs qualifies at 3/2
        assert "3/2\t2\t2\t2" in sizes


class TestRepeatedValues:
    def outcome(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        assert run([*argv, *base_args(tmp_path, tmp_path / "cache.tsv")]) == 0
        return capsys.readouterr(), _reports(out)

    @pytest.mark.parametrize("repeated,once", [
        (["rsi", "--thresholds", "3/2,3/2", "--gaps", "1,1"],
         ["rsi", "--thresholds", "3/2", "--gaps", "1"]),
        (["rsi", "--thresholds", "3/2,2/2,3/2", "--gaps", "1,2,1"],
         ["rsi", "--thresholds", "3/2,2/2", "--gaps", "1,2"]),
        (["core-refs", "--thresholds", "3/2,3/2"], ["core-refs", "--thresholds", "3/2"]),
    ])
    def test_a_repeated_value_counts_once(self, tmp_path, capsys, repeated, once):
        ingest(tmp_path)
        assert self.outcome(tmp_path, capsys, repeated) == self.outcome(tmp_path, capsys,
                                                                          once)


class TestWords:
    def test_new_terms_for_pair(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache),
                    "--years", "1971:1972", "--min-percent", "1.0"]) == 0
        text = (tmp_path / "out" / "words_1971-1972.tsv").read_text(encoding="utf-8")
        assert "# stopwords=<builtin:en>\n" in text
        assert "reverse\t" in text
        assert "virus\t" not in text  # seen in 1971 via citation-index titles

    def test_year_pair_must_exist(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache),
                    "--years", "1960:1972"]) == 1
        err = capsys.readouterr().err
        assert "year pair 1960:1972 not covered by the corpus" in err
        assert "available years: 1970, 1971, 1972" in err

    def test_year_pair_required(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache)]) == 1
        assert "needs --years FORMER:LATER" in capsys.readouterr().err

    def test_same_year_rejected(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache),
                    "--years", "1971:1971"]) == 1
        assert "compares a year with itself" in capsys.readouterr().err

    def test_custom_stopwords(self, tmp_path):
        cache = ingest(tmp_path)
        stop = tmp_path / "stop.txt"
        stop.write_text("reverse\n", encoding="utf-8")
        assert run(["words", *base_args(tmp_path, cache),
                    "--years", "1971:1972", "--stopwords", str(stop)]) == 0
        text = (tmp_path / "out" / "words_1971-1972.tsv").read_text(encoding="utf-8")
        assert f"# stopwords={stop}\n" in text
        assert "reverse" not in text.replace(f"# stopwords={stop}", "")

    @pytest.mark.parametrize("command", ["words", "cowords"])
    @pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["LF", "CR"])
    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_a_line_break_in_the_stopword_path_is_an_error(self, tmp_path, command,
                                                          line_break, given_by):
        # The path is written into the report header, where a line break
        # would end the header line early.
        cache = ingest(tmp_path)
        stop = tmp_path / f"stop{line_break}words.txt"
        stop.write_text("reverse\n", encoding="utf-8")
        argv = [command, *base_args(tmp_path, cache), "--years", "1971:1972"]
        if given_by == "flag":
            argv += ["--stopwords", str(stop)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"stopwords": str(stop)}), encoding="utf-8")
            argv += ["--config", str(config)]
        reports_before = _reports(tmp_path / "out")
        assert _run_quietly(argv) == (
            1, f"error: stopwords {str(stop)!r} must not hold a line break "
               "(it is written into the report header)\n")
        assert _reports(tmp_path / "out") == reports_before

    def test_a_byte_order_mark_in_the_stopword_file_is_ignored(self, tmp_path):
        cache = ingest(tmp_path)
        stop = tmp_path / "stop.txt"
        outcomes = []
        for bom in (b"", codecs.BOM_UTF8):
            # The first word is the one a kept mark would hide.
            stop.write_bytes(bom + b"reverse\nassay\n")
            out = tmp_path / f"out{len(bom)}"
            assert _run_quietly(["words", "--cache", str(cache), "--out-dir", str(out),
                                 "--years", "1971:1972", "--stopwords", str(stop)]) == (0, "")
            outcomes.append(_reports(out))
        assert outcomes[0] == outcomes[1]
        assert b"reverse" not in outcomes[0]["words_1971-1972.tsv"]

    def test_missing_stopword_file(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache),
                    "--years", "1971:1972", "--stopwords",
                    str(tmp_path / "nope.txt")]) == 1
        assert "stop-word file not found" in capsys.readouterr().err


class TestCowords:
    def test_new_pairs_for_pair(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["cowords", *base_args(tmp_path, cache),
                    "--years", "1971:1972",
                    "--min-cosine", "0.25", "--min-percent", "1.0"]) == 0
        text = (tmp_path / "out" / "cowords_1971-1972.tsv").read_text(encoding="utf-8")
        assert "reverse\ttranscription\t" in text


class TestPhrase:
    def test_trend_files(self, tmp_path):
        cache = ingest(tmp_path)
        assert run(["phrase", *base_args(tmp_path, cache),
                    "--head", "reverse", "--stem", "transcr"]) == 0
        table = (tmp_path / "out" / "phrase_reverse_transcr.tsv").read_text(encoding="utf-8")
        series = (tmp_path / "out" / "phrase_series_reverse_transcr.tsv").read_text(encoding="utf-8")
        assert "1970\t0\t0.00\t0\t0.00" in table
        assert "1972\t2\t66.67\t2\t66.67" in table
        assert "1970\t0.00" in series
        assert "1972\t66.67" in series

    def test_head_and_stem_required(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["phrase", *base_args(tmp_path, cache)]) == 1
        assert "phrase needs --head and --stem" in capsys.readouterr().err


def count_calls(monkeypatch, name):
    """Count the calls to ``textmetrics.<name>`` made by any command."""
    calls = []
    original = getattr(textmetrics, name)

    def counted(title, *rest):
        calls.append(title)
        return original(title, *rest)

    monkeypatch.setattr(textmetrics, name, counted)
    return calls


class TestTitlesReadOnce:
    @pytest.mark.parametrize("command", ["words", "cowords"])
    def test_each_title_of_the_two_years_is_split_once(self, tmp_path, monkeypatch, command):
        cache = ingest(tmp_path)
        calls = count_calls(monkeypatch, "title_token_sequence")
        assert run([command, *base_args(tmp_path, cache), "--years", "1971:1972"]) == 0
        titles = [r.title for r in read_cache(cache) if r.pub_year in (1971, 1972)]
        assert sorted(calls) == sorted(titles)

    def test_phrase_reads_each_title_at_most_once(self, tmp_path, monkeypatch):
        cache = ingest(tmp_path)
        calls = count_calls(monkeypatch, "title_token_sequence")
        assert run(["phrase", *base_args(tmp_path, cache),
                    "--head", "reverse", "--stem", "transcr"]) == 0
        # only the four titles holding "reverse" (two per source) are tokenised
        assert sorted(calls) == sorted(
            r.title for r in read_cache(cache) if "reverse" in r.title)


TITLE_COMMANDS = {
    "words": ["words", "--years", "1971:1972"],
    "cowords": ["cowords", "--years", "1971:1972"],
    "phrase": ["phrase", "--head", "reverse", "--stem", "transcr"],
}
REFERENCE_COMMANDS = {
    "summary": ["summary"],
    "rsi": ["rsi", "--thresholds", "3/2,2/2", "--gaps", "1,2"],
    "core-refs": ["core-refs", "--thresholds", "3/2,2/2"],
}


def _reports(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestTitleCommandsSkipReferences:
    @pytest.mark.parametrize("command", [*TITLE_COMMANDS, *REFERENCE_COMMANDS])
    def test_only_the_reference_commands_parse_references(self, tmp_path, monkeypatch,
                                                          command):
        cache = ingest(tmp_path)
        parsed = []
        original = records.parse_cited_ref

        def spy(raw):
            parsed.append(raw)
            return original(raw)

        monkeypatch.setattr(records, "parse_cited_ref", spy)
        argv = {**TITLE_COMMANDS, **REFERENCE_COMMANDS}[command]
        assert run([*argv, *base_args(tmp_path, cache)]) == 0
        if command in TITLE_COMMANDS:
            assert parsed == []
        else:
            assert len(parsed) == len(set(POOLS[1970] + POOLS[1972]))

    @pytest.mark.parametrize("command", list(TITLE_COMMANDS))
    def test_reports_match_a_run_that_parses_references(self, tmp_path, monkeypatch,
                                                         command):
        cache = ingest(tmp_path)
        assert any(record.cited_refs for record in read_cache(cache))
        argv = [*TITLE_COMMANDS[command], "--cache", str(cache)]
        assert run([*argv, "--out-dir", str(tmp_path / "skipped")]) == 0
        monkeypatch.setattr(cli, "read_cache", lambda path, refs=True: read_cache(path))
        assert run([*argv, "--out-dir", str(tmp_path / "parsed")]) == 0
        assert _reports(tmp_path / "skipped") == _reports(tmp_path / "parsed")


# Code points whose case folds differ from their lower-case forms, or that
# the tokeniser treats specially, mixed with ASCII.
_TRICKY = list("İßﬁ\u212a_²") + list("aeiknrstIKRST2 -.")


def _table_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines if not line.startswith("#")][1:]


def _never_in_word(text: str) -> bool:
    """Whether ``text`` holds a character the CLI rejects in --head / --stem."""
    return any(ch.isspace() or ch in string.punctuation for ch in text)


_word = st.text(st.sampled_from(_TRICKY), min_size=1, max_size=4)
_query = st.text(st.sampled_from([ch for ch in _TRICKY if not _never_in_word(ch)]),
                 min_size=1, max_size=4)


@st.composite
def phrase_cases(draw, query=_query):
    """Head and stem drawn from ``query``, and dated, sourced titles built
    from pieces that often put the head (in any case) right before a
    stem-prefixed word."""
    head, stem = draw(query), draw(query)
    piece = st.one_of(_word, st.sampled_from([head, head.upper(), head.lower(), stem]),
                      st.builds(lambda w: stem + w, _word))
    title = st.lists(piece, max_size=6).map(" ".join)
    rows = draw(st.lists(
        st.tuples(title, st.integers(1970, 1972), st.sampled_from(list(Source))),
        min_size=1, max_size=12))
    return head, stem, rows


class TestPhraseMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(phrase_cases())
    @example(("i", "s", [("İSTANBUL", 1970, Source.MEDLINE),
                         ("i stanbul", 1971, Source.CITATION_INDEX)]))
    def test_series_match_brute_force(self, case):
        head, stem, rows = case
        records = [mkrec(f"r{i}", title=t, year=y, source=s)
                   for i, (t, y, s) in enumerate(rows)]
        corpus = build_corpus(records)
        years = list(corpus)
        with tempfile.TemporaryDirectory() as tmp:
            cache, out = Path(tmp) / "c.tsv", Path(tmp) / "out"
            save_cache(corpus, cache)
            assert run(["phrase", "--cache", str(cache), "--out-dir", str(out),
                        f"--head={head}", f"--stem={stem}"]) == 0
            table = _table_rows(out / f"phrase_{head}_{stem}.tsv")
            series = _table_rows(out / f"phrase_series_{head}_{stem}.tsv")

        def cells(points):
            return [[str(hits), f"{percent:.2f}"] for _, hits, percent in points]

        expected = [[str(y)] for y in years]
        for source in Source:
            mine = [r for r in records if r.source is source]
            if mine:
                for row, cell in zip(expected, cells(brute_phrase_points(
                        mine, years, head, stem))):
                    row += cell
        assert table == expected
        everything = brute_phrase_points(records, years, head, stem)
        assert series == [[str(y), cell[1]] for y, cell in zip(years, cells(everything))]


# Reference spellings: each base in several spellings of one key, and the
# unequal keys "X, 1970" (year 1970) and "X,,1970" (source 1970).
_REF_BASES = ["BALTIMORE D, 1970, NATURE, V226, P1209", "TEMIN HM, 1970, NATURE, V226",
              "WATSON JD, 1953, NATURE, V171, P737", "GROSS L, 1957, CANCER RES",
              "X, 1970", "X,,1970"]
_REF_SPELLINGS = [spelling for base in _REF_BASES
                  for spelling in dict.fromkeys((base, base.lower(), base.replace(", ", ","),
                                                 base.replace(" ", "  ")))]


@st.composite
def reference_cases(draw):
    """Records in years with a gap (1972 has none): three to eight index
    records a year citing two or more spellings, and up to three records of
    either source citing nothing; threshold pairs, and gaps up to 5 (which
    fits no interval in 1970:1974), either of which may repeat."""
    citing = st.lists(st.sampled_from(_REF_SPELLINGS), min_size=2, max_size=6)
    rows = []
    for year in (1970, 1971, 1973, 1974):
        rows += [(year, Source.CITATION_INDEX, refs)
                 for refs in draw(st.lists(citing, min_size=3, max_size=8))]
        rows += [(year, source, ()) for source in draw(st.lists(st.sampled_from(list(Source)),
                                                               max_size=3))]
    records = [mkrec(f"r{i}", refs=refs, title="virus", year=year, source=source)
               for i, (year, source, refs) in enumerate(rows)]
    thresholds = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3))
        .map(lambda pair: ThresholdPair(pair[0], min(pair))),
        min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    return build_corpus(records), thresholds, gaps


def _pool_case(pools: dict, thresholds: list, gaps: list, extra=()):
    """Three index records per year citing that year's pool, plus ``extra``
    (year, refs) records."""
    rows = [(year, refs) for year, refs in pools.items() for _ in range(3)] + list(extra)
    records = [mkrec(f"r{i}", refs=[f"{name}, 1960, J" for name in refs], year=year)
               for i, (year, refs) in enumerate(rows)]
    return build_corpus(records), [ThresholdPair.parse(t) for t in thresholds], gaps


class OraclePoint(NamedTuple):
    """One brute-force RSI cell, with the years it compares."""
    former_year: int
    later_year: int
    n_former: int
    n_later: int
    shared: int
    rsi: Optional[Fraction]  # None when either core set is empty


class TestReferenceReportsMatchOracle:
    GROOVE = "# groove: minimal defined RSI per series"

    @settings(max_examples=100, deadline=None)
    @given(reference_cases())
    # 3/2 dips at 1972/1973 and 2/2 (which takes in U and V) at 1970/1971:
    # no shared interval, so CONSENSUS reads "-"
    @example(_pool_case({1970: "AB", 1971: "AB", 1972: "AB", 1973: "BC"}, ["3/2", "2/2"], [1],
                        extra=[(y, "UV") for y in (1971, 1972, 1973) for _ in range(2)]))
    # both intervals tie at 1/8, which rounds half up to 0.13
    @example(_pool_case({1970: "ABCD", 1971: "AEFGH", 1972: "ABCD"}, ["3/3", "2/2"], [1]))
    def test_core_refs_and_rsi_match_brute_force(self, case):
        corpus, thresholds, gaps = case
        threshold_text, gap_text = ",".join(map(str, thresholds)), ",".join(map(str, gaps))
        # A repeated threshold pair or gap counts once.
        thresholds, gaps = list(dict.fromkeys(thresholds)), list(dict.fromkeys(gaps))
        years = list(corpus)
        brute = {(t, y): brute_core_refs(corpus[y], t) for t in thresholds for y in years}
        with tempfile.TemporaryDirectory() as tmp:
            cache, out = Path(tmp) / "c.tsv", Path(tmp) / "out"
            save_cache(corpus, cache)
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["core-refs", "--cache", str(cache), "--out-dir", str(out),
                            "--thresholds", threshold_text]) == 0
            assert _table_rows(out / "core_refs.tsv") == [
                [str(y), str(t), ref]
                for t in thresholds for y in years
                for ref in sorted(brute[t, y])
            ]
            assert _table_rows(out / "core_sizes.tsv") == [
                [str(t)] + [str(len(brute[t, y])) for y in years]
                for t in thresholds
            ]

            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(["rsi", "--cache", str(cache), "--out-dir", str(out),
                            "--thresholds", threshold_text,
                            "--gaps", gap_text])
            points = {gap: {t: [self.point(brute[t, y], brute[t, y + gap], y, y + gap)
                                for y in years if y + gap <= years[-1]] for t in thresholds}
                      for gap in gaps}
            if not all(by_t[thresholds[0]] and all(any(p.rsi is not None for p in series)
                                                   for series in by_t.values())
                       for by_t in points.values()):
                # some gap fits no interval, or leaves a series with no defined
                # point: no rsi report is written
                assert code == 1 and err.getvalue().startswith("error: ")
                assert not list(out.glob("rsi_*"))
                return
            assert code == 0
            for gap, by_t in points.items():
                for t in thresholds:
                    assert _table_rows(out / f"rsi_{t.cite_min}-{t.cocite_min}_gap{gap}.tsv") == [
                        [str(t), str(gap), str(p.former_year), str(p.later_year),
                         str(p.n_former), str(p.n_later), str(p.shared),
                         *((f"{p.rsi.numerator}/{p.rsi.denominator}", brute_rsi_2dp(p.rsi))
                           if p.rsi is not None else ("-/-", "-/-"))]
                        for p in by_t[t]]
                lines = (out / f"rsi_matrix_gap{gap}.tsv").read_text(
                    encoding="utf-8").splitlines()
                rows = [line.split("\t") for line in lines if not line.startswith("#")]
                assert rows[0] == ["thresholds"] + [f"{p.former_year}/{p.later_year}"
                                                    for p in by_t[thresholds[0]]]
                assert rows[1:1 + len(thresholds)] == [
                    [str(t)] + [f"{p.shared}/{brute_rsi_2dp(p.rsi)}"
                                if p.rsi is not None else "-/-" for p in by_t[t]]
                    for t in thresholds]
                assert lines[lines.index(self.GROOVE):] == self.groove_block(
                    [by_t[t] for t in thresholds], thresholds)

    @staticmethod
    def groove_block(series: list, thresholds: list) -> list[str]:
        """Per series, the least defined RSI and every interval reaching it;
        with more than one series, a CONSENSUS row of the intervals they all
        reach (``-`` when none)."""
        rows, tied = [], []
        for t, points in zip(thresholds, series):
            low = min(p.rsi for p in points if p.rsi is not None)
            tied.append([f"{p.former_year}/{p.later_year}"
                         for p in points if p.rsi == low])
            rows.append(f"{t}\t{low.numerator}/{low.denominator}\t{brute_rsi_2dp(low)}"
                        f"\t{','.join(tied[-1])}")
        if len(series) > 1:
            shared = [interval for interval in tied[0]
                      if all(interval in others for others in tied[1:])]
            rows.append(f"CONSENSUS\t-\t-\t{','.join(shared) or '-'}")
        return [TestReferenceReportsMatchOracle.GROOVE, "thresholds\tmin_rsi_full\tmin_rsi_2dp\tintervals", *rows]

    @staticmethod
    def point(former: frozenset, later: frozenset, former_year: int,
              later_year: int) -> OraclePoint:
        shared = len(former & later)
        union = len(former) + len(later) - shared
        rsi = Fraction(shared, union) if former and later else None
        return OraclePoint(former_year, later_year, len(former), len(later), shared, rsi)


class TestRsiErrorLines:
    """``rsi``'s two errors, byte for byte, on the generator's default-seed
    exports at 24 papers a year (years 1966:1975)."""

    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("synthetic")
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parents[1] / "scripts"
                                 / "make_synthetic_corpus.py"),
             "--out-dir", str(tmp), "--papers-per-year", "24"],
            check=True, capture_output=True, timeout=120,
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["ingest", "--index", str(tmp / "citation_index.txt"),
                        "--medline", str(tmp / "medline.txt"),
                        "--cache", str(tmp / "cache.tsv"),
                        "--out-dir", str(tmp / "ingest")]) == 0
        return tmp / "cache.tsv"

    @pytest.mark.parametrize("flags, line", [
        (["--thresholds", "500/500"],
         "error: series 500/500 gap 1 has no defined RSI points\n"),
        (["--gaps", "30"],
         "error: gap 30 leaves no interval inside year range 1966:1975\n"),
    ])
    def test_error_line(self, cache, tmp_path, flags, line):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["rsi", *base_args(tmp_path, cache), *flags])
        assert (code, out.getvalue(), err.getvalue()) == (1, "", line)
        assert not (tmp_path / "out").exists()


# Title words: stop words, digits, one-letter words, case and case-fold
# variants, NBSP, and the words of the reverse transcriptase story.
_TITLE_WORDS = ["virus", "Virus", "tumor", "avian", "reverse", "transcriptase",
                "transcription", "RNA", "rna", "of", "the", "in", "1970", "2", "x",
                "İstanbul", "straße", "STRASSE", "dna\u00a0polymerase", "enzyme-assay"]
_COMPARED_PAIRS = {"both sources": (1970, 1972), "one source": (1971, 1973)}


@st.composite
def title_cases(draw):
    """Records in 1970-1975 (1974 empty): one source in every year, the other
    only in 1970 and 1972, so it is absent from the 1971:1973 pair. Index
    records cite respelled and repeated references; MEDLINE records cite
    nothing. Also the two floors."""
    everywhere = draw(st.sampled_from(list(Source)))
    elsewhere = next(source for source in Source if source is not everywhere)
    row = st.tuples(st.lists(st.sampled_from(_TITLE_WORDS), max_size=5).map(" ".join),
                    st.lists(st.sampled_from(_REF_SPELLINGS), max_size=4))
    rows = []
    for source, year, min_size in [*((everywhere, y, 1) for y in (1970, 1971, 1972, 1973, 1975)),
                                   (elsewhere, 1970, 1), (elsewhere, 1972, 0)]:
        rows += [(year, source, title, refs) for title, refs in
                 draw(st.lists(row, min_size=min_size, max_size=5))]
    min_percent = draw(st.sampled_from([0.0, 1.0, 25.0, 50.0]))
    min_cosine = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return rows, min_percent, min_cosine


class TestTitleAndSummaryReportsMatchOracle:
    @settings(max_examples=100, deadline=None)
    @given(title_cases())
    def test_summary_words_and_cowords_match_brute_force(self, case):
        rows, min_percent, min_cosine = case
        records = [mkrec(f"r{i}", refs=refs if source is Source.CITATION_INDEX else (),
                         title=title, year=year, source=source)
                   for i, (year, source, title, refs) in enumerate(rows)]
        raw_refs = {i: refs if source is Source.CITATION_INDEX else []
                    for i, (_, source, _, refs) in enumerate(rows)}
        stop = set(default_stopwords())
        with tempfile.TemporaryDirectory() as tmp:
            cache, out = Path(tmp) / "c.tsv", Path(tmp) / "out"
            save_cache(build_corpus(records), cache)
            base = ["--cache", str(cache), "--out-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["summary", *base]) == 0
                for former, later in _COMPARED_PAIRS.values():
                    years = ["--years", f"{former}:{later}"]
                    assert run(["words", *base, *years, "--min-percent", str(min_percent)]) == 0
                    assert run(["cowords", *base, *years, "--min-percent", str(min_percent),
                                "--min-cosine", str(min_cosine)]) == 0
            summary = self.table(out / "summary.tsv")
            words = {pair: self.table(out / f"words_{pair[0]}-{pair[1]}.tsv")
                     for pair in _COMPARED_PAIRS.values()}
            cowords = {pair: self.table(out / f"cowords_{pair[0]}-{pair[1]}.tsv")
                       for pair in _COMPARED_PAIRS.values()}

        years = range(1970, 1976)
        distinct = {y: {brute_parse_cited_ref(raw) for i, (year, *_) in enumerate(rows)
                        if year == y for raw in raw_refs[i]} for y in years}
        count = {(y, s): sum(1 for year, source, *_ in rows if (year, source) == (y, s))
                 for y in years for s in Source}
        assert summary == [
            ["year", "citation_index_records", "medline_records", "total_records",
             "distinct_cited_refs"],
            *([str(y), str(count[y, Source.CITATION_INDEX]), str(count[y, Source.MEDLINE]),
               str(count[y, Source.CITATION_INDEX] + count[y, Source.MEDLINE]),
               str(len(distinct[y]))] for y in years),
            ["TOTAL", *(str(sum(count[y, s] for y in years)) for s in Source),
             str(len(rows)), str(len(set().union(*distinct.values())))],
        ]

        def part(year: int, source: Source) -> list:
            return [r for r in records if r.pub_year == year and r.source is source]

        for former, later in _COMPARED_PAIRS.values():
            terms = {s: brute_new_terms(part(former, s), part(later, s), stop, min_percent)
                     for s in Source}
            assert words[former, later] == self.merged(
                ["term"], ["doc_freq", "percent"], terms,
                lambda found: [str(found[0]), f"{found[1]:.2f}"])
            pairs = {s: brute_new_coword_pairs(part(former, s), part(later, s), stop,
                                               min_cosine, min_percent) for s in Source}
            assert cowords[former, later] == self.merged(
                ["term_a", "term_b"], ["co_doc_freq", "cosine", "percent"], pairs,
                lambda found: [str(found[0]), f"{found[1]:.4f}", f"{found[2]:.2f}"])
        # The source absent from the 1971:1973 pair keeps its columns, all "-".
        elsewhere = next(s for s in Source if not any(
            year == 1971 and source is s for year, source, *_ in rows))
        for table, width in ((words, 2), (cowords, 3)):
            header, *body = table[_COMPARED_PAIRS["one source"]]
            columns = [i for i, name in enumerate(header)
                       if name.startswith(f"{elsewhere.value}_")]
            assert len(columns) == width
            assert all(row[i] == "-" for row in body for i in columns)

    @staticmethod
    def table(path: Path) -> list[list[str]]:
        lines = path.read_text(encoding="utf-8").splitlines()
        return [line.split("\t") for line in lines if not line.startswith("#")]

    @staticmethod
    def merged(key_columns, value_columns, per_source: dict, cells) -> list[list[str]]:
        """Header and rows: one row per key, best percent (the last value)
        over the sources first, then key order; ``-`` where a key is absent."""
        keys = {key for found in per_source.values() for key in found}

        def order(key):
            best = max(found[key][-1] for found in per_source.values() if key in found)
            return (-best, key)

        header = [*key_columns, *(f"{s.value}_{name}" for s in Source for name in value_columns)]
        rows = []
        for key in sorted(keys, key=order):
            row = [key] if isinstance(key, str) else list(key)
            for source in Source:
                found = per_source[source].get(key)
                row += ["-"] * len(value_columns) if found is None else cells(found)
            rows.append(row)
        return [header, *rows]


# Export rows: ids that repeat, a missing (None) or empty title or year,
# years on both sides of the --years bounds, and titles that normalise alike.
_EXPORT_TITLES = [None, "", "Virus growth", "virus  GROWTH!", "Tumor assay", "tumor-assay",
                  "Enzyme"]
_EXPORT_YEARS = [None, 1969, 1970, 1971, 1972]


@st.composite
def ingest_cases(draw):
    """Index rows with their references, MEDLINE rows (``None``: no MEDLINE
    file) and a ``--years`` value (``None``: not given)."""
    row = st.tuples(st.sampled_from(["1", "2", "3"]), st.sampled_from(_EXPORT_YEARS),
                    st.sampled_from(_EXPORT_TITLES))
    index = draw(st.lists(st.tuples(row, st.lists(st.sampled_from(_REF_SPELLINGS), max_size=3)),
                          max_size=8))
    medline = draw(st.lists(row, max_size=8)) if draw(st.integers(0, 3)) else None
    years = draw(st.sampled_from([None, "1970:1971", "1969:1972"]))
    return index, medline, years


def _export_text(rows, first_tag: str, tags: tuple[str, str], year_suffix: str, end: str):
    """An export in either format, one block per row; a ``None`` title or
    year leaves its line out."""
    blocks = []
    for (record_id, year, title), refs in rows:
        lines = [f"{first_tag}{record_id}"]
        if title is not None:
            lines.append(f"{tags[0]}{title}")
        if year is not None:
            lines.append(f"{tags[1]}{year}{year_suffix}")
        lines += [f"CR {ref};" for ref in refs] + [end]
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


class TestIngestReportMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(ingest_cases())
    # one MEDLINE title matching one index record, one matching two, one none
    @example(([(("1", 1970, "Virus growth"), []), (("2", 1970, "Tumor assay"), []),
               (("3", 1970, "tumor-assay"), [])],
              [("7", 1970, "VIRUS growth."), ("8", 1970, "Tumor  assay"), ("9", 1971, "Enzyme")],
              None))
    # each file with a rename, a dropped copy and a missing field
    @example(([(("1", 1970, "Virus growth"), []), (("1", 1970, "Virus growth"), []),
               (("1", 1970, "Tumor assay"), []), (("2", None, "Enzyme"), [])],
              [("7", 1970, "Enzyme"), ("7", 1970, "Enzyme"), ("7", 1971, "Enzyme"),
               ("8", 1970, None)],
              None))
    def test_ingest_report_matches_brute_force(self, case):
        index_rows, medline_rows, years = case
        index_text = _export_text(index_rows, "UT ", ("TI ", "PY "), "", "ER")
        medline_text = _export_text([(row, []) for row in medline_rows or []],
                                    "PMID- ", ("TI  - ", "DP  - "), " Jan", "")
        index = brute_parse_citation_index_export(io.StringIO(index_text))
        medline = brute_parse_medline_export(io.StringIO(medline_text))
        dated = [r for r in index.records + medline.records if r.pub_year is not None]
        if years:
            lo, hi = map(int, years.split(":"))
        else:
            lo = min((r.pub_year for r in dated), default=0)
            hi = max((r.pub_year for r in dated), default=-1)
        kept = [r for r in dated if lo <= r.pub_year <= hi]
        # Per file its renames, then its drop count; then every missing field.
        warnings = []
        for result in (index, medline):
            warnings += [f"duplicate record id {old!r} renamed to {new!r}"
                         for old, new in result.renamed]
            if result.dropped:
                warnings.append(DROPPED.format(result.dropped))
        warnings += [f"record {m.record_id} missing field {m.field}"
                     for m in index.missing + medline.missing]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "index.txt").write_text(index_text, encoding="utf-8")
            (root / "medline.txt").write_text(medline_text, encoding="utf-8")
            argv = ["ingest", "--index", str(root / "index.txt"), "--cache",
                    str(root / "c.tsv"), "--out-dir", str(root / "out")]
            if medline_rows is not None:
                argv += ["--medline", str(root / "medline.txt")]
            if years:
                argv += ["--years", years]
            code, err = _run_quietly(argv)
            *printed, last = err.splitlines() or [""]
            if not kept:  # the warnings come first, as they are found
                assert code == 1 and last.startswith("error: cannot build corpus")
                assert printed == [f"warning: {w}" for w in warnings]
                return
            assert code == 0
            lines = (root / "out" / "ingest_report.tsv").read_text(
                encoding="utf-8").splitlines()

        assert err.splitlines() == [f"warning: {w}" for w in warnings]
        if medline_rows is None:
            coverage = "not applicable"
        else:
            in_range = [r for r in kept if r.source is Source.MEDLINE]
            matched, _, _ = brute_link_counts(
                in_range, [r for r in kept if r.source is Source.CITATION_INDEX])
            coverage = f"{matched / len(in_range):.4f}" if in_range else "-"
        assert [line for line in lines if line.startswith("#")] == [
            "# command=ingest", f"# years={lo}:{hi}",
            f"# total_input={len(index.records) + len(medline.records)}",
            f"# kept={len(kept)}",
            f"# excluded_missing_year={len(index.records) + len(medline.records) - len(dated)}",
            f"# excluded_out_of_range={len(dated) - len(kept)}",
            f"# linkage_coverage={coverage}",
            *(f"# warning={w}" for w in warnings)]

        count = {(y, s): sum(1 for r in kept if (r.pub_year, r.source) == (y, s))
                 for y in range(lo, hi + 1) for s in Source}
        refs = {y: {ref for r in kept if r.pub_year == y for ref in r.cited_refs}
                for y in range(lo, hi + 1)}
        assert [line.split("\t") for line in lines if not line.startswith("#")] == [
            ["year", "citation_index_records", "medline_records", "total_records",
             "distinct_cited_refs"],
            *([str(y), str(count[y, Source.CITATION_INDEX]), str(count[y, Source.MEDLINE]),
               str(count[y, Source.CITATION_INDEX] + count[y, Source.MEDLINE]),
               str(len(refs[y]))] for y in range(lo, hi + 1)),
            ["TOTAL", *(str(sum(1 for r in kept if r.source is s)) for s in Source),
             str(len(kept)), str(len(set().union(*refs.values())))],
        ]


class TestBadFloats:
    @pytest.mark.parametrize("key", ["min_percent", "min_cosine"])
    @pytest.mark.parametrize("value", ["abc", None, [1]])
    def test_unparseable_config_value_is_an_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert run(["cowords", "--config", str(config),
                    "--cache", str(tmp_path / "c.tsv"), "--years", "1971:1972"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {key}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--min-cosine", "nan", "min_cosine must be a finite number"),
        ("--min-cosine", "1.5", "min_cosine must be in [0, 1]"),
        ("--min-cosine", "-0.1", "min_cosine must be in [0, 1]"),
        ("--min-percent", "inf", "min_percent must be a finite number"),
        ("--min-percent", "-1", "min_percent must be >= 0"),
    ])
    def test_out_of_range_cowords_floor_is_an_error(self, tmp_path, capsys, flag, value,
                                                    message):
        cache = ingest(tmp_path)
        assert run(["cowords", *base_args(tmp_path, cache), "--years", "1971:1972",
                    flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out" / "cowords_1971-1972.tsv").exists()

    def test_nan_min_percent_writes_no_words_table(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        assert run(["words", *base_args(tmp_path, cache), "--years", "1971:1972",
                    "--min-percent", "nan"]) == 1
        assert capsys.readouterr().err.startswith("error: min_percent must be a finite number")
        assert not (tmp_path / "out" / "words_1971-1972.tsv").exists()


class TestPhraseNames:
    @pytest.mark.parametrize("flag,value", [
        ("--head", "../../x"), ("--head", "a/b"), ("--stem", "a\\b"), ("--stem", "x\0y"),
    ])
    def test_path_characters_rejected_before_the_corpus_loads(self, tmp_path, capsys,
                                                              flag, value):
        other = {"--head": "--stem", "--stem": "--head"}[flag]
        assert run(["phrase", "--cache", str(tmp_path / "absent.tsv"),
                    "--out-dir", str(tmp_path / "out"), flag, value, other, "ok"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} {value!r} must not hold a path separator")
        assert list(tmp_path.iterdir()) == []

    def test_non_string_head_in_config_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"head": 5, "stem": "x"}), encoding="utf-8")
        assert run(["phrase", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: head must be a string")


class TestPhraseValuesThatCanNeverMatch:
    @pytest.mark.parametrize("flag,value", [
        ("--head", "reverse transcriptase"), ("--stem", "tran-"), ("--head", "x\ty"),
        ("--stem", "tr."), ("--head", "\u3000reverse"), ("--stem", "trans*"),
    ])
    def test_rejected_before_the_corpus_loads(self, tmp_path, capsys, flag, value):
        other = {"--head": "--stem", "--stem": "--head"}[flag]
        assert run(["phrase", "--cache", str(tmp_path / "absent.tsv"),
                    "--out-dir", str(tmp_path / "out"), f"{flag}={value}", other, "ok"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} {value!r} must not hold whitespace")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=100, deadline=None)
    @given(phrase_cases(query=_word).filter(lambda case: _never_in_word(case[0] + case[1])))
    def test_oracle_never_matches_a_rejected_value(self, case):
        head, stem, rows = case
        records = [mkrec(f"r{i}", title=t, year=y, source=s)
                   for i, (t, y, s) in enumerate(rows)]
        corpus = build_corpus(records)
        points = brute_phrase_points(records, list(corpus), head, stem)
        assert all(hits == 0 for _, hits, _ in points)
        with tempfile.TemporaryDirectory() as tmp:
            cache, out = Path(tmp) / "c.tsv", Path(tmp) / "out"
            save_cache(corpus, cache)
            assert run(["phrase", "--cache", str(cache), "--out-dir", str(out),
                        f"--head={head}", f"--stem={stem}"]) == 1
            assert not out.exists()

    def test_no_title_word_can_hold_a_rejected_character(self):
        # The rule rejects nothing that could match: a rejected character
        # keeps one after case folding, and no case-folded character of any
        # title word (a run of the tokenizer's pattern) holds one.
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert all(_never_in_word(ch.casefold()) for ch in everything if _never_in_word(ch))
        word_chars = "".join(textmetrics._TOKEN_RE.findall(everything))
        assert len(word_chars) > 100_000
        assert [ch for ch in word_chars if _never_in_word(ch.casefold())] == []


class TestTextThatCannotBeEncoded:
    """A path that cannot be a file name, or a header value or report-name
    part that is not UTF-8 text, ends in one ``error:`` line before anything
    is made. An undecodable argument byte arrives as a surrogate in
    ``\\udc80``-``\\udcff``; a JSON ``\\ud800`` is a lone surrogate."""

    @pytest.mark.parametrize("argv,config,error", [
        (["phrase", "--head", "rev\udcff", "--stem", "x"], None,
         "head 'rev\\udcff' is not UTF-8 text"),
        (["words", "--years", "1971:1972", "--stopwords", "sw\udcff.txt"], None,
         "stopwords 'sw\\udcff.txt' is not UTF-8 text"),
        (["summary"], {"out_dir": "\ud800"},
         "out_dir '\\ud800' cannot be encoded as a file name"),
        (["ingest", "--medline", "medline.txt"], {"cache": "\ud800"},
         "cache '\\ud800' cannot be encoded as a file name"),
        (["phrase"], {"head": "\ud800", "stem": "x"},
         "head '\\ud800' is not UTF-8 text"),
    ], ids=["head-argv", "stopwords-argv", "out_dir-config", "cache-config", "head-config"])
    def test_refused_before_anything_is_made(self, tmp_path, capsys, monkeypatch,
                                             argv, config, error):
        ingest(tmp_path).rename(tmp_path / "corpus_cache.tsv")
        shutil.rmtree(tmp_path / "out")
        (tmp_path / "sw\udcff.txt").write_text("of\n", encoding="utf-8")
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", "run.json"]
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        before = _tree(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {error}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert _tree(tmp_path) == before


class TestEmptyPath:
    """An empty path, which ``Path`` reads as the working directory, ends in
    one ``error:`` line naming its setting before anything is made."""

    @pytest.mark.parametrize("argv, config, name", [
        (["summary", "--cache="], None, "cache"),
        (["summary", "--out-dir="], None, "out_dir"),
        (["words", "--years", "1971:1972", "--stopwords="], None, "stopwords"),
        (["ingest", "--index=", "--medline", "medline.txt"], None, "index"),
        (["ingest", "--index", "index.txt", "--medline="], None, "medline"),
        (["summary", "--config="], None, "config"),
        (["summary"], {"cache": ""}, "cache"),
        (["summary"], {"out_dir": ""}, "out_dir"),
        (["cowords", "--years", "1971:1972"], {"stopwords": ""}, "stopwords"),
        (["ingest", "--medline", "medline.txt"], {"index": ""}, "index"),
        (["ingest", "--index", "index.txt"], {"medline": ""}, "medline"),
    ], ids=["cache", "out-dir", "stopwords", "index", "medline", "config",
            "cache-config", "out_dir-config", "stopwords-config", "index-config",
            "medline-config"])
    def test_refused_before_anything_is_made(self, tmp_path, capsys, monkeypatch,
                                             argv, config, name):
        ingest(tmp_path).rename(tmp_path / "corpus_cache.tsv")
        shutil.rmtree(tmp_path / "out")
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", "run.json"]
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        before = _tree(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {name} must not be empty\n"
        assert captured.out == ""
        assert _tree(tmp_path) == before


class TestBadCache:
    def write(self, tmp_path, edit):
        corpus = build_corpus([mkrec("a", title="virus", year=1970, source=Source.MEDLINE)])
        cache = tmp_path / "c.tsv"
        save_cache(corpus, cache)
        cache.write_text(edit(cache.read_text(encoding="utf-8")), encoding="utf-8")
        return cache

    def test_unknown_source_is_an_error(self, tmp_path, capsys):
        cache = self.write(tmp_path, lambda text: text.replace("\tMEDLINE\t", "\tBOGUS\t"))
        assert run(["summary", *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{cache}:2: unknown source 'BOGUS'" in err
        assert not (tmp_path / "out").exists()

    def test_cache_cut_mid_line_is_an_error(self, tmp_path, capsys):
        cache = self.write(tmp_path, lambda text: text[:-len("virus\t\n")])
        assert run(["summary", *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot build corpus from {cache}: "
                              f"{cache}:2: truncated cache line")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("year, line", [
        *(pytest.param(year, 2, id=year)
          for year in ["+2000000", "1_970", "10000", "-5", "", " 197", "١٩٧٠"]),
        # after a clean line whose year cell 1970 already passed the check
        pytest.param("1_970", 3, id="1_970-line3"),
    ])
    def test_year_outside_0_to_9999_is_an_error(self, tmp_path, capsys, year, line):
        if line == 2:
            cache = self.write(tmp_path, lambda text: text.replace("\t1970\t", f"\t{year}\t"))
        else:
            cache = self.write(tmp_path, lambda text: text + f"b\tMEDLINE\t{year}\tvirus\t\n")
        assert run(["summary", *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot build corpus from {cache}: {cache}:{line}: "
                              f"year {year!r} is not a whole number in 0-9999")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["summary"], ["words", "--years", "1970:1971"]],
                             ids=["summary", "words"])
    @pytest.mark.parametrize("edit, line", [
        pytest.param(lambda text: text.replace("\tvirus\t", "\tvir\\qus\t"), 2, id="title-q"),
        pytest.param(lambda text: text.replace("\tvirus\t", "\tvirus\\\t"), 2, id="title-lone"),
        pytest.param(lambda text: text.replace("J\n", "J\\q\n"), 2, id="refs-q"),
        pytest.param(lambda text: text.replace("J\n", "J\\\n"), 2, id="refs-lone"),
        pytest.param(lambda text: text.replace("\na\t", "\n\\a\t"), 2, id="id-a"),
        # after a clean line with the same year, 1970
        pytest.param(lambda text: text.replace("\t1971\ttumor\t", "\t1970\ttu\\qmor\t"), 3,
                     id="title-q-line3"),
    ])
    def test_an_escape_the_cache_never_writes_is_an_error(self, tmp_path, capsys, command,
                                                         edit, line):
        # The refs column is checked too where it is never parsed (words).
        corpus = build_corpus([mkrec("a", refs=["X, 1960, J"], title="virus", year=1970),
                               mkrec("b", title="tumor", year=1971)])
        cache = tmp_path / "c.tsv"
        save_cache(corpus, cache)
        text = cache.read_text(encoding="utf-8")
        cache.write_text(edit(text), encoding="utf-8")
        assert cache.read_text(encoding="utf-8") != text
        assert run([*command, *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot build corpus from {cache}: {cache}:{line}: "
                              "bad escape ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_years_0_and_9999_load(self, tmp_path):
        cache = tmp_path / "c.tsv"
        cache.write_text(f"{CACHE_HEADER}\na\tMEDLINE\t0\tvirus\t\n"
                         "b\tMEDLINE\t9999\tvirus\t\n", encoding="utf-8")
        assert [r.pub_year for r in read_cache(cache)] == [0, 9999]

    @pytest.mark.parametrize("command", [["summary"], ["words", "--years", "1970:1971"]])
    def test_a_raw_carriage_return_is_an_error(self, tmp_path, capsys, command):
        # Read as a reference, the "\r" cell of a CRLF line end would be one
        # more distinct reference; words reads no reference and rejects it too.
        cache = tmp_path / "c.tsv"
        cache.write_bytes(f"{CACHE_HEADER}\nA\tMEDLINE\t1970\tT one\t\r\n".encode())
        assert run([*command, *base_args(tmp_path, cache)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot build corpus from {cache}: {cache}:2: raw carriage return in a "
            "cache line (a cache file has LF line ends, not CRLF)\n")
        assert not (tmp_path / "out").exists()

    def test_headerless_cache_is_an_error(self, tmp_path, capsys):
        cache = self.write(tmp_path, lambda text: text.split("\n", 1)[1])
        assert run(["summary", *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{cache}:1: not a bibshift cache" in err
        assert not (tmp_path / "out").exists()


class TestUnreadableFiles:
    def assert_error(self, capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        for fragment in fragments:
            assert fragment in err

    def test_non_utf8_stopword_file(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        capsys.readouterr()
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\n\xe9t\xe9\n")
        assert run(["words", *base_args(tmp_path, cache), "--years", "1971:1972",
                    "--stopwords", str(stop)]) == 1
        self.assert_error(capsys, f"error: {stop}: not UTF-8 text")

    def test_non_utf8_config_file(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"years": "\xe9"}')
        assert run(["summary", "--config", str(config)]) == 1
        self.assert_error(capsys, f"error: {config}: not UTF-8 text")

    def test_cache_that_is_a_directory(self, tmp_path, capsys):
        assert run(["summary", "--cache", str(tmp_path)]) == 1
        self.assert_error(capsys, f"error: cannot read cache {tmp_path}")

    def test_ingest_cache_that_is_a_directory(self, tmp_path, capsys):
        index_path, _ = seed_exports(tmp_path)
        assert run(["ingest", "--index", str(index_path), "--cache", str(tmp_path),
                    "--out-dir", str(tmp_path / "out")]) == 1
        self.assert_error(capsys, f"error: cannot write cache {tmp_path}")

    def test_out_dir_that_is_a_file(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        capsys.readouterr()
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        assert run(["summary", "--cache", str(cache), "--out-dir", str(afile)]) == 1
        self.assert_error(capsys, f"error: cannot write report {afile / 'summary.tsv'} "
                                  f"({afile}: Not a directory)\n")

    def test_out_dir_below_a_file(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        capsys.readouterr()
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out_dir = afile / "sub"
        assert run(["summary", "--cache", str(cache), "--out-dir", str(out_dir)]) == 1
        self.assert_error(capsys, f"error: cannot write report {out_dir / 'summary.tsv'} "
                                  f"({afile}: Not a directory)\n")

    def test_cache_below_a_dangling_link_makes_no_directory(self, tmp_path, capsys):
        index_path, medline_path = seed_exports(tmp_path)
        dangling = tmp_path / "dangling"
        dangling.symlink_to(tmp_path / "nowhere")
        cache = dangling / "c.tsv"
        assert run(["ingest", "--index", str(index_path), "--medline", str(medline_path),
                    "--cache", str(cache), "--out-dir", str(tmp_path / "newout")]) == 1
        self.assert_error(capsys, f"error: cannot write cache {cache} "
                                  f"({dangling}: Not a directory)\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "dangling", "index.txt", "medline.txt"]

    @pytest.mark.parametrize("flag,what", [
        ("--stopwords", "stop-word file"), ("--config", "config file")])
    def test_input_file_that_is_a_directory(self, tmp_path, capsys, flag, what):
        cache = ingest(tmp_path)
        capsys.readouterr()
        assert run(["words", *base_args(tmp_path, cache), "--years", "1971:1972",
                    flag, str(tmp_path)]) == 1
        self.assert_error(capsys, f"error: cannot read {what} {tmp_path}")

    def test_export_that_is_a_directory(self, tmp_path, capsys):
        assert run(["ingest", "--index", str(tmp_path),
                    "--cache", str(tmp_path / "c.tsv")]) == 1
        self.assert_error(capsys, f"error: cannot read input file {tmp_path}")

    @pytest.mark.parametrize("argv,what", [
        (["summary", "--cache"], "cache"),
        (["ingest", "--medline"], "input file"),
        (["ingest", "--index"], "input file"),
        (["words", "--years", "1971:1972", "--stopwords"], "stop-word file"),
        (["summary", "--config"], "config file"),
    ], ids=["cache", "medline", "index", "stopwords", "config"])
    def test_a_file_name_too_long_is_an_error(self, tmp_path, capsys, argv, what):
        cache = ingest(tmp_path)
        capsys.readouterr()
        name = tmp_path / ("a" * 300)  # longer than a file system allows a name
        assert run([argv[0], *base_args(tmp_path, cache), *argv[1:], str(name)]) == 1
        self.assert_error(capsys, f"error: cannot read {what} {name}", "File name too long")


def _tree(root: Path) -> dict[str, bytes | str]:
    """Every file under ``root`` with its bytes, and every link with its target."""
    tree: dict[str, bytes | str] = {}
    for folder, dirs, files in os.walk(root):
        for name in dirs + files:
            path = Path(folder, name)
            key = str(path.relative_to(root))
            if path.is_symlink():
                tree[key] = os.readlink(path)
            elif path.is_file():
                tree[key] = path.read_bytes()
            else:
                tree[key] = "dir"
    return tree


class TestNoWriteOverOwnFiles:
    """A run never writes over a file it reads or has already written: it
    ends in ``error:`` with exit 1 before it writes anything."""

    def assert_refused(self, tmp_path, capsys, argv, before):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "would overwrite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert _tree(tmp_path) == before

    def test_summary_report_over_its_cache(self, tmp_path, capsys):
        cache = ingest(tmp_path).rename(tmp_path / "out" / "summary.tsv")
        capsys.readouterr()
        before = _tree(tmp_path)
        self.assert_refused(tmp_path, capsys, ["summary", "--cache", str(cache),
                                               "--out-dir", str(tmp_path / "out")], before)
        # the cache still loads
        assert run(["summary", "--cache", str(cache), "--out-dir", str(tmp_path / "s")]) == 0

    def test_ingest_cache_over_its_export(self, tmp_path, capsys):
        _, medline_path = seed_exports(tmp_path)
        before = _tree(tmp_path)
        self.assert_refused(tmp_path, capsys, [
            "ingest", "--medline", str(medline_path), "--cache", str(medline_path),
            "--out-dir", str(tmp_path / "out")], before)

    def test_ingest_cache_over_its_report(self, tmp_path, capsys):
        index_path, _ = seed_exports(tmp_path)
        before = _tree(tmp_path)
        out = tmp_path / "o3"
        self.assert_refused(tmp_path, capsys, [
            "ingest", "--index", str(index_path), "--cache", str(out / "ingest_report.tsv"),
            "--out-dir", str(out)], before)
        assert not out.exists()

    def test_symlinked_cache(self, tmp_path, capsys):
        cache = ingest(tmp_path).rename(tmp_path / "out" / "summary.tsv")
        link = tmp_path / "link.tsv"
        try:
            link.symlink_to(cache)
        except OSError:
            pytest.skip("symbolic links unsupported here")
        capsys.readouterr()
        before = _tree(tmp_path)
        self.assert_refused(tmp_path, capsys, ["summary", "--cache", str(link),
                                               "--out-dir", str(tmp_path / "out")], before)

    def test_a_clash_on_a_later_report_writes_no_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        cache = ingest(tmp_path)
        cache = cache.rename(out / "rsi_matrix_gap2.tsv")
        (out / "ingest_report.tsv").unlink()
        capsys.readouterr()
        before = _tree(tmp_path)
        self.assert_refused(tmp_path, capsys, [
            "rsi", "--cache", str(cache), "--out-dir", str(out),
            "--thresholds", "2/2", "--gaps", "1,2"], before)
        assert [p.name for p in out.iterdir()] == ["rsi_matrix_gap2.tsv"]

    def test_an_output_through_a_symlink_loop_fails_only_on_writing(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        loop = tmp_path / "loop"
        try:
            loop.symlink_to(loop)
        except OSError:
            pytest.skip("symbolic links unsupported here")
        capsys.readouterr()
        assert run(["summary", "--cache", str(cache), "--out-dir", str(loop)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {loop / 'summary.tsv'}")
        assert "Traceback" not in err

    def test_an_ingest_warning_comes_before_the_error(self, tmp_path, capsys):
        medline = tmp_path / "m.txt"
        write_medline_export(medline, [("7", 1970, "virus growth"), ("8", None, "tumor assay")])
        before = _tree(tmp_path)
        target = tmp_path / "o" / "ingest_report.tsv"
        assert run(["ingest", "--medline", str(medline), "--cache", str(target),
                    "--out-dir", str(target.parent)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: record 8 missing field DP",
            f"error: the cache {target} would overwrite the report {target}"]
        assert captured.out == ""
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("argv,name", [
        (["summary", "--config"], "summary.tsv"),
        (["words", "--years", "1971:1972", "--stopwords"], "words_1971-1972.tsv"),
    ], ids=["config", "stopwords"])
    def test_report_over_another_input(self, tmp_path, capsys, argv, name):
        cache = ingest(tmp_path)
        capsys.readouterr()
        target = tmp_path / "out" / name
        target.write_text("{}\n", encoding="utf-8")  # a config and a stop-word list
        before = _tree(tmp_path)
        self.assert_refused(tmp_path, capsys,
                            [argv[0], *base_args(tmp_path, cache), *argv[1:], str(target)],
                            before)


COMMANDS = ["ingest", *REFERENCE_COMMANDS, *TITLE_COMMANDS]
CACHE = Path("cache", "cache.tsv")


def _commit_argv(root: Path, command: str) -> list[str]:
    """The argv of ``command`` over the exports, cache and reports under
    ``root``. The cache has a directory of its own, so each of ingest's two
    outputs has a parent of its own."""
    paths = ["--cache", str(root / CACHE), "--out-dir", str(root / "out")]
    if command == "ingest":
        return ["ingest", "--index", str(root / "index.txt"),
                "--medline", str(root / "medline.txt"), *paths]
    return [*{**REFERENCE_COMMANDS, **TITLE_COMMANDS}[command], *paths]


def _older_run(seed: Path, capsys, command: str) -> dict[Path, bytes]:
    """Each target of ``command`` under ``seed``, relative and in output
    order, with the bytes a run writes there. Every target then holds
    other bytes, ``# an older run``, so a rewrite shows."""
    seed.mkdir()
    seed_exports(seed)
    assert run(_commit_argv(seed, "ingest")) == 0
    capsys.readouterr()
    assert run(_commit_argv(seed, command)) == 0
    new = {}
    for line in capsys.readouterr().out.splitlines():
        target = Path(line[len("wrote "):])
        new[target.relative_to(seed)] = target.read_bytes()
        target.write_bytes(b"# an older run\n")
    return new


class TestNoWriteBeforeEveryTargetIsChecked:
    """An output target that is a directory, or that lies below a file, ends
    the run in ``error:`` before any output is written or any directory is
    made, whichever of the run's outputs it is. Each earlier output holds
    other bytes than the run would write, as after an older run, so a
    rewrite shows; in a second run the directories of the other outputs
    are gone, so one made and left behind shows."""

    @pytest.mark.parametrize("case", ["target-is-a-directory", "parent-is-a-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_output_is_written(self, tmp_path, capsys, command, case):
        seed = tmp_path / "seed"
        targets = list(_older_run(seed, capsys, command))

        for (k, target), new_dirs in itertools.product(enumerate(targets), (False, True)):
            root = tmp_path / f"k{k}-{new_dirs}"
            shutil.copytree(seed, root)
            path = root / target
            if case == "target-is-a-directory":
                path.unlink()
                path.mkdir()
            else:
                shutil.rmtree(path.parent)
                path.parent.write_text("", encoding="utf-8")
            if new_dirs:
                for folder in {(root / other).parent for other in targets} - {path.parent}:
                    shutil.rmtree(folder)
            before = _tree(root)
            assert run(_commit_argv(root, command)) == 1, target
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot write "), captured.err
            if case == "target-is-a-directory":
                assert f" {path} ({path}: Is a directory)\n" in captured.err
            else:  # the first output below that file is refused
                assert f" ({path.parent}: Not a directory)\n" in captured.err
            assert "Traceback" not in captured.err
            assert "wrote" not in captured.out
            assert _tree(root) == before, target

    def test_a_cache_named_dotdot_below_a_new_directory(self, tmp_path, capsys):
        # ``new/..`` names the cache's directory once ``new`` is made, so the
        # stat that finds a directory target cannot see it beforehand.
        root = tmp_path / "root"
        _older_run(root, capsys, "ingest")
        argv = _commit_argv(root, "ingest")
        path = root / CACHE.parent / "new" / ".."
        argv[argv.index("--cache") + 1] = str(path)
        before = _tree(root)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write cache {path} ({path}: Is a directory)\n"
        assert "wrote" not in captured.out
        assert _tree(root) == before


def _fail_writer_call(monkeypatch, k: int, error: BaseException) -> None:
    """Make the k-th call of a writer that ``cli`` calls raise ``error``."""
    calls = itertools.count()

    def failing(writer):
        def write(*args):
            if next(calls) == k:
                raise error
            return writer(*args)
        return write

    monkeypatch.setattr(reports, "write_report", failing(reports.write_report))
    monkeypatch.setattr(cli, "write_cache", failing(cli.write_cache))


class TestAFailedWriteChangesNoTarget:
    """A run writes every output before it replaces any target. So an
    output whose write fails, or is interrupted, leaves every target as an
    older run left it and no temp file; only a failed replace leaves the
    targets before it replaced. Every target and output directory exists
    before the run, as after an older run."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_full_device_at_output_k_changes_no_file(self, tmp_path, capsys, monkeypatch,
                                                        command):
        # For ingest, k = 1 is the cache: its report must not describe a
        # cache that was never written.
        seed = tmp_path / "seed"
        targets = list(_older_run(seed, capsys, command))
        for k, target in enumerate(targets):
            root = tmp_path / f"k{k}"
            shutil.copytree(seed, root)
            before = _tree(root)
            error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            with monkeypatch.context() as patch:
                _fail_writer_call(patch, k, error)
                assert run(_commit_argv(root, command)) == 1, target
            captured = capsys.readouterr()
            what = "cache" if target == CACHE else "report"
            assert captured.err == f"error: cannot write {what} {root / target} ({error})\n"
            assert "wrote" not in captured.out
            assert _tree(root) == before, target

    def test_a_cache_write_that_fails_part_way_changes_no_file(self, tmp_path, capsys,
                                                              monkeypatch):
        # The cache goes out a year at a time; its second write fails.
        root = tmp_path / "root"
        _older_run(root, capsys, "ingest")
        before = _tree(root)
        error = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        writes = itertools.count()

        class FullAfterOneWrite:
            def __init__(self, out):
                self.out = out

            def write(self, data):
                if next(writes) == 1:
                    raise error
                return self.out.write(data)

        write_cache = cli.write_cache
        monkeypatch.setattr(cli, "write_cache",
                            lambda corpus, out: write_cache(corpus, FullAfterOneWrite(out)))
        assert run(_commit_argv(root, "ingest")) == 1
        assert next(writes) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write cache {root / CACHE} ({error})\n"
        assert "wrote" not in captured.out
        assert _tree(root) == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_an_interrupt_changes_no_file(self, tmp_path, capsys, monkeypatch, command):
        seed = tmp_path / "seed"
        targets = list(_older_run(seed, capsys, command))
        for k, target in enumerate(targets):
            root = tmp_path / f"k{k}"
            shutil.copytree(seed, root)
            before = _tree(root)
            with monkeypatch.context() as patch:
                _fail_writer_call(patch, k, KeyboardInterrupt())
                with pytest.raises(KeyboardInterrupt):
                    run(_commit_argv(root, command))
            assert "wrote" not in capsys.readouterr().out
            assert _tree(root) == before, target

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_failed_replace_leaves_only_the_earlier_targets_replaced(
            self, tmp_path, capsys, monkeypatch, command):
        seed = tmp_path / "seed"
        new = _older_run(seed, capsys, command)
        targets = list(new)
        replace = os.replace
        for k, target in enumerate(targets):
            root = tmp_path / f"k{k}"
            shutil.copytree(seed, root)
            expected = {**_tree(root), **{str(t): new[t] for t in targets[:k]}}
            calls = itertools.count()

            def replace_fails_at_k(src, dst):
                # Every output is written before the first target is replaced.
                assert len(list(root.rglob(".bibshift-*.tmp"))) == len(targets) - next(calls)
                if Path(dst) == root / target:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(src), None,
                                  str(dst))
                replace(src, dst)

            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", replace_fails_at_k)
                assert run(_commit_argv(root, command)) == 1, target
            captured = capsys.readouterr()
            what = "cache" if target == CACHE else "report"
            path = root / target
            assert captured.err == (f"error: cannot write {what} {path} "
                                    f"({path}: No space left on device)\n")
            assert "wrote" not in captured.out
            assert _tree(root) == expected, target


@pytest.mark.parametrize("command", COMMANDS)
def test_a_temp_file_swapped_for_a_link_is_not_written_through(tmp_path, capsys, monkeypatch,
                                                               command):
    """A writer writes the handle that created its temp file, so a temp file
    swapped for a symlink before the writer runs never sends an output to
    the link's target."""
    root = tmp_path / "root"
    _older_run(root, capsys, command)
    victim = root / "victim"
    victim.write_bytes(b"# not an output\n")

    def swapping(writer):
        def write(*args):
            for temp in root.rglob(".bibshift-*.tmp"):
                temp.unlink()
                temp.symlink_to(victim)
            return writer(*args)
        return write

    monkeypatch.setattr(reports, "write_report", swapping(reports.write_report))
    monkeypatch.setattr(cli, "write_cache", swapping(cli.write_cache))
    run(_commit_argv(root, command))
    capsys.readouterr()
    assert victim.read_bytes() == b"# not an output\n"


def test_module_runs_the_cli(tmp_path):
    src = Path(bibshift.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "bibshift.cli", "summary", "--cache", str(tmp_path / "absent")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cache file not found")


class _FullStream(io.StringIO):
    """A standard stream on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFailedStandardStream:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device_ends_in_error(self, tmp_path):
        cache = ingest(tmp_path)
        src = Path(bibshift.__file__).resolve().parents[1]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bibshift.cli", "summary", *base_args(tmp_path, cache)],
                env={**os.environ, "PYTHONPATH": str(src)}, stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write output")
        assert "No space left on device" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_stdout_that_raises_ends_in_error(self, tmp_path, capsys, monkeypatch):
        cache = ingest(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", _FullStream())
        assert run(["summary", *base_args(tmp_path, cache)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot write output ([Errno {errno.ENOSPC}] "
                       f"{os.strerror(errno.ENOSPC)})\n")

    def test_a_stderr_that_raises_still_exits_1(self, tmp_path, capsys, monkeypatch):
        cache = ingest(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(sys, "stderr", _FullStream())
        # the threshold warning is the first write to stderr
        assert run(["rsi", "--thresholds", "2/3", *base_args(tmp_path, cache)]) == 1
        assert capsys.readouterr().out == ""

    def test_an_ingest_whose_warning_cannot_be_printed_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        medline = tmp_path / "m.txt"
        write_medline_export(medline, [("7", 1970, "virus growth"), ("8", None, "tumor assay")])
        before = _tree(tmp_path)
        monkeypatch.setattr(sys, "stderr", _FullStream())
        assert run(["ingest", "--medline", str(medline), "--cache", str(tmp_path / "c.tsv"),
                    "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().out == ""
        assert _tree(tmp_path) == before

    def test_a_path_stdout_cannot_encode_ends_in_error(self, tmp_path, capsys):
        # capsys' stdout is strict UTF-8, and the lone surrogate stands for
        # the undecodable byte 0xff of the directory name.
        cache = ingest(tmp_path)
        capsys.readouterr()
        assert run(["summary", "--cache", str(cache), "--out-dir", str(tmp_path / "o\udcff")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output (")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestConfigFile:
    def test_flags_from_file(self, tmp_path):
        cache = ingest(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "cache": str(cache),
            "out_dir": str(tmp_path / "cfg_out"),
            "thresholds": "3/2",
            "gaps": "1",
        }), encoding="utf-8")
        assert run(["rsi", "--config", str(config)]) == 0
        assert (tmp_path / "cfg_out" / "rsi_matrix_gap1.tsv").exists()

    def test_cli_flag_overrides_file(self, tmp_path):
        cache = ingest(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "cache": str(cache),
            "out_dir": str(tmp_path / "cfg_out"),
            "thresholds": "3/2",
            "gaps": "2",
        }), encoding="utf-8")
        assert run(["rsi", "--config", str(config), "--gaps", "1"]) == 0
        out = tmp_path / "cfg_out"
        assert (out / "rsi_matrix_gap1.tsv").exists()
        assert not (out / "rsi_matrix_gap2.tsv").exists()

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        cache = ingest(tmp_path)
        config = tmp_path / "run.json"
        outcomes = []
        for bom in (b"", codecs.BOM_UTF8):
            config.write_bytes(bom + json.dumps({"thresholds": "2/2"}).encode("utf-8"))
            out = tmp_path / f"out{len(bom)}"
            argv = ["core-refs", "--config", str(config), *base_args(tmp_path, cache)[:2],
                    "--out-dir", str(out)]
            assert _run_quietly(argv) == (0, "")
            outcomes.append(_reports(out))
        assert outcomes[0] == outcomes[1]
        assert b"# thresholds=2/2\n" in outcomes[0]["core_refs.tsv"]

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"treshold": "3/2"}), encoding="utf-8")
        assert run(["summary", "--config", str(config)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["summary", "--config", str(tmp_path / "absent.json")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_a_nest_too_deep_to_parse_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        depth = 100_000
        config.write_text('{"years": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        assert run(["summary", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config file {config}: ")
        assert "Traceback" not in err

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert run(["summary", "--config", str(config)]) == 1
        assert "must hold a JSON object" in capsys.readouterr().err


def _command_flags() -> dict[str, list[str]]:
    """Each command's long flags, ``--help`` included, as ``build_parser``
    declares them."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: [flag for action in sub._actions for flag in action.option_strings
                      if flag.startswith("--")]
            for command, sub in subparsers.choices.items()}


def test_readme_names_every_flag_and_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {flag for flags in _command_flags().values() for flag in flags
             if flag != "--help"}
    assert "--min-cosine" in flags and "--config" in flags
    assert sorted(flag for flag in flags if f"`{flag}" not in section) == []
    assert sorted(key for key in cli._SETTINGS if f"`{key}`" not in section) == []


class TestDeterminism:
    @pytest.mark.parametrize("command", [
        ["rsi", "--thresholds", "3/2,2/2", "--gaps", "1,2"],
        ["words", "--years", "1971:1972"],
        ["cowords", "--years", "1971:1972"],
        ["core-refs", "--thresholds", "3/2,2/2"],
    ])
    def test_worker_count_never_changes_bytes(self, tmp_path, command):
        cache = ingest(tmp_path)
        outputs = {}
        for workers in (1, 3):
            out_dir = tmp_path / f"w{workers}"
            argv = [*command, "--cache", str(cache),
                    "--out-dir", str(out_dir), "--workers", str(workers)]
            assert run(argv) == 0
            outputs[workers] = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        assert outputs[1] == outputs[3]

    def test_reference_reports_alike_under_any_hash_seed(self, tmp_path):
        # Equal keys spelled three ways, and the unequal keys "X, 1970" and
        # "X,,1970": which spelling's key stands for a member may follow set
        # order, the report bytes may not
        spellings = ["BALTIMORE D, 1970, NATURE, V226, P1209",
                     "baltimore  d,1970, Nature, v226,p1209",
                     "Baltimore D ,1970 ,NATURE ,V226 ,P1209"]
        records = [
            mkrec(f"p{year}{i}", refs=[spellings[(year + i) % 3], "X, 1970", "X,,1970",
                                       "W, 1950" if i else "w,1950"], year=year)
            for year in range(1970, 1974) for i in range(3)
        ]
        cache = tmp_path / "cache.tsv"
        save_cache(build_corpus(records), cache)
        src = str(Path(bibshift.__file__).resolve().parents[1])
        outcomes = []
        for seed in range(1, 5):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"seed{seed}"
            for command in (["core-refs"], ["rsi", "--gaps", "1,2"]):
                subprocess.run([sys.executable, "-m", "bibshift.cli", *command,
                                "--cache", str(cache), "--out-dir", str(out),
                                "--thresholds", "3/3,2/2,1/1"],
                               env=env, check=True, capture_output=True, timeout=120)
            outcomes.append(_reports(out))
        assert all(outcome == outcomes[0] for outcome in outcomes)
        members = outcomes[0]["core_refs.tsv"].decode("utf-8")
        # each key in every year and pair, under its own spelling
        assert members.count("\tX, 1970\n") == members.count("\tX, , 1970\n") == 4 * 3
        assert "\tBALTIMORE D, 1970, NATURE, V226, P1209\n" in members
        lines = [line for line in members.splitlines() if not line.startswith("#")]
        assert len(lines) == len(set(lines))  # no member line repeats in a (year, pair)


class TestArgHelpers:
    def test_parse_years(self):
        assert parse_years("1966:1975") == (1966, 1975)
        with pytest.raises(CliError):
            parse_years("1975:1966")
        with pytest.raises(CliError):
            parse_years("1966")
        with pytest.raises(CliError):
            parse_years("a:b")

    def test_parse_thresholds(self):
        pairs = parse_thresholds("15/11,10/8")
        assert [(p.cite_min, p.cocite_min) for p in pairs] == [(15, 11), (10, 8)]
        with pytest.raises(CliError):
            parse_thresholds("15-11")
        assert parse_thresholds("15/11,10/8,15/11") == parse_thresholds("15/11,10/8")

    @pytest.mark.parametrize("text", ["0/1", "3/0", "-1/2"])
    def test_a_threshold_below_one_names_the_bound(self, tmp_path, capsys, text):
        cache = ingest(tmp_path)
        capsys.readouterr()
        assert run(["rsi", *base_args(tmp_path, cache), "--thresholds", f"15/11,{text}"]) == 1
        assert capsys.readouterr().err == f"error: thresholds must be >= 1, got {text}\n"

    def test_parse_gaps(self):
        assert parse_gaps("1,2") == (1, 2)
        assert parse_gaps("2,1,2,1") == (2, 1)
        with pytest.raises(CliError):
            parse_gaps("x")
        with pytest.raises(CliError):
            parse_gaps("0")

    @pytest.mark.parametrize("text", ["-1:1970", "1970:10000", "1:300000", "1_970:+2000000"])
    def test_parse_years_rejects_a_bound_outside_0_to_9999(self, text):
        with pytest.raises(CliError, match="must lie in 0:9999"):
            parse_years(text)

    def test_parse_years_accepts_0_to_9999(self):
        assert parse_years("0:9999") == (0, 9999)

    def test_a_wide_year_span_is_an_error_before_the_corpus_loads(self, tmp_path, capsys):
        assert run(["summary", "--cache", str(tmp_path / "missing.tsv"),
                    "--out-dir", str(tmp_path / "out"), "--years", "1:300000"]) == 1
        assert capsys.readouterr().err == (
            "error: years '1:300000' must lie in 0:9999\n")
        assert not (tmp_path / "out").exists()

    def test_workers_must_be_positive(self, tmp_path, capsys):
        assert run(["summary", "--cache", str(tmp_path / "c.tsv"),
                    "--workers", "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err


class TestArgparseErrors:
    @pytest.mark.parametrize("argv", [
        pytest.param(["summary", "--workers", "abc"], id="bad-value"),
        pytest.param(["summary", "--bogus"], id="unknown-flag"),
        pytest.param([], id="no-subcommand"),
        # a flag is spelled in full, as a config key is: no prefix stands for it
        pytest.param(["words", "--years", "1970:1972", "--min", "5"], id="flag-prefix"),
        pytest.param(["words", "--years", "1970:1972", "--min=5"], id="flag-prefix-equals"),
        pytest.param(["summary", "--conf", "run.json"], id="config-prefix"),
    ])
    def test_bad_flag_ends_in_error_and_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: bibshift")
        assert lines[-1].startswith("error: ")
        assert "Traceback" not in "\n".join(lines)


_VALID_RUNS = {
    "ingest": ["--index", "index.txt", "--medline", "medline.txt"],
    "summary": [],
    "rsi": ["--thresholds", "2/2", "--gaps", "1"],
    "core-refs": ["--thresholds", "2/2"],
    "words": ["--years", "1970:1972"],
    "cowords": ["--years", "1970:1972"],
    "phrase": ["--head", "reverse", "--stem", "transcr"],
}


class TestDoubleDashValue:
    def test_every_command_has_a_valid_run(self):
        assert list(_VALID_RUNS) == list(_command_flags())

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in _command_flags().items() for flag in flags])
    def test_a_flag_given_the_text_double_dash_is_checked_like_any_value(
            self, tmp_path, command, flag):
        # Python before 3.13 drops the ``--`` and hands the setting ``[]``,
        # which no check expected.
        ingest(tmp_path)
        with _chdir(tmp_path):
            argv = [command, *_VALID_RUNS[command], "--cache", "cache.tsv",
                    "--out-dir", "out", f"{flag}=--"]
            code, err = _run_quietly(argv)
        assert "Traceback" not in err
        assert code in (0, 1)
        if code == 1:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1


class TestThresholdWarning:
    def test_cocite_above_cite_is_a_warning_line(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        capsys.readouterr()
        assert run(["rsi", *base_args(tmp_path, cache),
                    "--thresholds", "2/3", "--gaps", "1"]) == 0
        assert capsys.readouterr().err == (
            "warning: cocite_min 3 exceeds cite_min 2; the co-citation threshold "
            "can never bind above the citation count\n")

    @pytest.mark.parametrize("command", [
        ["summary"], ["words", "--years", "1970:1972"], ["cowords", "--years", "1970:1972"],
        ["phrase", "--head", "reverse", "--stem", "transcr"],
    ])
    def test_commands_without_thresholds_never_warn(self, tmp_path, capsys, command):
        cache = ingest(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"thresholds": "2/3"}), encoding="utf-8")
        capsys.readouterr()
        assert run([*command, "--config", str(config), *base_args(tmp_path, cache)]) == 0
        assert capsys.readouterr().err == ""

    def test_a_repeated_pair_warns_once(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        capsys.readouterr()
        assert run(["core-refs", *base_args(tmp_path, cache),
                    "--thresholds", "2/3,2/3,3/4"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: cocite_min 3 exceeds cite_min 2; the co-citation threshold "
            "can never bind above the citation count",
            "warning: cocite_min 4 exceeds cite_min 3; the co-citation threshold "
            "can never bind above the citation count",
        ]

    def test_an_unparseable_value_is_rejected_by_every_command(self, tmp_path, capsys):
        cache = ingest(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"thresholds": "5-8"}), encoding="utf-8")
        capsys.readouterr()
        assert run(["words", "--years", "1970:1972", "--config", str(config),
                    *base_args(tmp_path, cache)]) == 1
        assert capsys.readouterr().err == (
            "error: cannot parse threshold pair '5-8' (want N/M)\n")


class TestConfigWorkers:
    @pytest.mark.parametrize("value", ["abc", None, [2]])
    def test_unparseable_workers_is_an_error_not_a_traceback(self, tmp_path, capsys, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"workers": value}), encoding="utf-8")
        assert run(["summary", "--config", str(config),
                    "--cache", str(tmp_path / "c.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse workers")
        assert "Traceback" not in err


# ── any input: exit 0 or 1, never a traceback ────────────────────────────────

# File names below stand for files each example writes into its directory.
_FILES = ["index.txt", "medline.txt", "cache.tsv", "cut.tsv", "garbage.txt", "latin1.txt",
          "config.json", "stop.txt", "missing.txt", "a_dir", "nul\0name"]
_FLAG_VALUES = {
    "--years": ["1970:1972", "1972:1970", "1970", "a:b", "1971:1971", "1900:1901", "",
                "0:9999", "-1:1970", "1970:10000", "1:100000000", "1_970:+2000000"],
    "--thresholds": ["2/2", "2/3", "2/3,2/3", "x", "0/1", "", "1/1,"],
    "--gaps": ["1", "1,2", "0", "x", "99", ""],
    "--min-percent": ["1", "-1", "nan", "inf", "x", "0"],
    "--min-cosine": ["0.5", "2", "nan", "x"],
    "--workers": ["1", "2", "0", "x", "-3"],
    "--head": ["reverse", "a/b", "a b", "", "ü"],
    "--stem": ["transcr", "x.y", ""],
}
_PATH_FLAGS = ("--index", "--medline", "--cache", "--config", "--stopwords", "--out-dir")
_CONFIG_VALUES = st.one_of(
    st.sampled_from([v for values in _FLAG_VALUES.values() for v in values] + _FILES),
    st.integers(-3, 3), st.none(), st.booleans(), st.just([1]), st.just({}),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def run_cases(draw):
    """An argv, and the text of the config file it may name."""
    argv = draw(st.lists(st.sampled_from(
        ["ingest", "summary", "rsi", "core-refs", "words", "cowords", "phrase", "bogus"]),
        max_size=1))
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from([*_FLAG_VALUES, *_PATH_FLAGS, "--bogus"]))
        if flag in _FLAG_VALUES:
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
        elif flag in _PATH_FLAGS:
            argv += [flag, draw(st.sampled_from(_FILES))]
        else:
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--config", "config.json"]
    config = draw(st.one_of(
        st.dictionaries(st.sampled_from(sorted(cli._SETTINGS) + ["bogus"]), _CONFIG_VALUES,
                        max_size=4).map(json.dumps),
        st.sampled_from(["[]", "{", "", "null"]),
    ))
    return argv, config


def _write_run_files(root: Path, config: str) -> None:
    index_path, medline_path = seed_exports(root)
    index_path.rename(root / "index.txt")
    medline_path.rename(root / "medline.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ingest", "--index", str(root / "index.txt"), "--medline",
                    str(root / "medline.txt"), "--cache", str(root / "cache.tsv"),
                    "--out-dir", str(root / "ingest_out")]) == 0
    cache = (root / "cache.tsv").read_bytes()
    (root / "cut.tsv").write_bytes(cache[:len(cache) // 2])
    (root / "garbage.txt").write_text("PMID 1\n;;;\n", encoding="utf-8")
    (root / "latin1.txt").write_bytes("TI  - caf\xe9\n".encode("latin-1"))
    (root / "config.json").write_text(config, encoding="utf-8")
    (root / "stop.txt").write_text("of\nthe\n", encoding="utf-8")
    (root / "a_dir").mkdir()


# Each command with flags that let it run on the files above, and its reports.
_CLASH_RUNS = {
    "ingest": (["--index", "index.txt", "--medline", "medline.txt", "--cache", "new.tsv"],
               ["ingest_report.tsv"]),
    "summary": (["--cache", "cache.tsv"], ["summary.tsv"]),
    "rsi": (["--cache", "cache.tsv", "--thresholds", "2/2", "--gaps", "1,2"],
            ["rsi_2-2_gap1.tsv", "rsi_matrix_gap1.tsv", "rsi_2-2_gap2.tsv",
             "rsi_matrix_gap2.tsv"]),
    "core-refs": (["--cache", "cache.tsv", "--thresholds", "2/2"],
                  ["core_refs.tsv", "core_sizes.tsv"]),
    "words": (["--cache", "cache.tsv", "--years", "1970:1972", "--stopwords", "stop.txt"],
              ["words_1970-1972.tsv"]),
    "cowords": (["--cache", "cache.tsv", "--years", "1970:1972", "--stopwords", "stop.txt"],
                ["cowords_1970-1972.tsv"]),
    "phrase": (["--cache", "cache.tsv", "--head", "virus", "--stem", "gr"],
               ["phrase_virus_gr.tsv", "phrase_series_virus_gr.tsv"]),
}
# The file each input flag names; ingest's --cache is an output.
_CLASH_SOURCES = {"--index": "index.txt", "--medline": "medline.txt",
                  "--cache": "cache.tsv", "--stopwords": "stop.txt", "--config": "config.json"}


@st.composite
def clash_cases(draw):
    """A run whose one path flag names a file that the run also writes:
    ``(command, flag, target, spelling, out_dir)``. The target is one of the
    run's reports, or for ingest's --cache an export too; the flag spells it
    as is, through a detour into a folder and back out, or through a link."""
    command = draw(st.sampled_from(sorted(_CLASH_RUNS)))
    flags, names = _CLASH_RUNS[command]
    flag = draw(st.sampled_from([f for f in _CLASH_SOURCES if f in flags] + ["--config"]))
    out_dir = draw(st.sampled_from([".", "out"]))
    targets = [str(Path(out_dir, name)) for name in names]
    if command == "ingest" and flag == "--cache":
        targets += ["index.txt", "medline.txt"]
    return (command, flag, draw(st.sampled_from(targets)),
            draw(st.sampled_from(["as is", "detour", "link"])), out_dir)


class TestRunOnGeneratedInput:
    @settings(max_examples=200, deadline=None)
    @given(run_cases())
    @example((["summary", "--config", "config.json"], '{"cache": 5}'))
    @example((["summary", "--config", "config.json"], '{"cache": null}'))
    @example((["ingest", "--index", "index.txt", "--cache", "nul\0name"], "{}"))
    def test_exit_code_is_0_or_1_and_an_error_is_named(self, case):
        argv, config = case
        with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
            _write_run_files(Path(tmp), config)
            code, err = _run_quietly(argv)
        assert code in (0, 1)
        assert "Traceback" not in err
        if code == 1:
            assert any(line.startswith("error: ") for line in err.splitlines())

    @settings(max_examples=60, deadline=None)
    @given(clash_cases())
    @example(("ingest", "--cache", "out/ingest_report.tsv", "detour", "out"))
    @example(("ingest", "--cache", "out/ingest_report.tsv", "link", "out"))
    @example(("rsi", "--cache", "rsi_matrix_gap2.tsv", "link", "."))
    def test_a_run_never_writes_over_its_own_file(self, case):
        command, flag, target, spelling, out_dir = case
        with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
            root = Path(tmp)
            _write_run_files(root, "{}")
            if not (command == "ingest" and flag == "--cache"):  # an input: give it its file
                Path(target).parent.mkdir(exist_ok=True)
                shutil.copyfile(_CLASH_SOURCES[flag], target)
            path = {"as is": target, "detour": f"a_dir/../{target}",
                    "link": "link"}[spelling]
            if spelling == "link":
                os.symlink(target, "link")
            flags, _ = _CLASH_RUNS[command]
            argv = [command, *flags, "--out-dir", out_dir, flag, path]
            before = _tree(root)
            code, err = _run_quietly(argv)
            assert code == 1
            assert err.startswith("error: ") and "would overwrite" in err
            assert _tree(root) == before


# ── any export content: exit 0 or 1, never a traceback ───────────────────────

_INDEX_ROWS = [(f"IDX:{year}{i}", year, TITLES[year][i], POOLS[year])
               for year in POOLS for i in range(3)]
_MEDLINE_ROWS = [(f"9{year}{i}", year, TITLES[year][i]) for year in POOLS for i in range(3)]
_EXPORT_INSERTS = ["\ufeff", "\0", "\x01", "\x1c\x7f", "\x0b\x0c", "\r", "#", "|", "\\",
                   "ER\n", "PY ", "CR ", "TI  - ", "PMID- ", "   ", "9" * 5000]
_COMMANDS_AFTER_INGEST = [
    ["summary"], ["rsi", "--thresholds", "3/2,2/2", "--gaps", "1"],
    ["core-refs", "--thresholds", "3/2"], ["words", "--years", "1970:1972"],
    ["phrase", "--head", "virus", "--stem", "gr"],
]


def _record_slice(rows: int):
    return st.integers(0, rows - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, rows)))


@st.composite
def export_edits(draw):
    """A whole-record slice of each seed export, then 1-3 edits, each
    ``(file, line, edit)``: the line number is taken modulo the file's line
    count, and an edit deletes the line, duplicates it, or inserts a text at
    a column (cut to the line's length)."""
    edit = st.one_of(st.sampled_from(["delete", "duplicate"]),
                     st.tuples(st.integers(0, 40), st.sampled_from(_EXPORT_INSERTS)))
    edits = draw(st.lists(st.tuples(st.sampled_from(["index", "medline"]),
                                    st.integers(0, 80), edit), min_size=1, max_size=3))
    return draw(_record_slice(len(_INDEX_ROWS))), draw(_record_slice(len(_MEDLINE_ROWS))), edits


def _edited_exports(case) -> dict[str, str]:
    (index_lo, index_hi), (medline_lo, medline_hi), edits = case
    lines = {
        "index": index_export_text(_INDEX_ROWS[index_lo:index_hi]).splitlines(keepends=True),
        "medline": medline_export_text(_MEDLINE_ROWS[medline_lo:medline_hi])
        .splitlines(keepends=True),
    }
    for name, line, edit in edits:
        text = lines[name]
        if not text:
            continue
        i = line % len(text)
        if edit == "delete":
            del text[i]
        elif edit == "duplicate":
            text.insert(i, text[i])
        else:
            column, insert = edit
            text[i] = text[i][:column] + insert + text[i][column:]
    return {name: "".join(text) for name, text in lines.items()}


class TestRunOnEditedExports:
    @settings(max_examples=100, deadline=None)
    @given(export_edits())
    # A 5,001-digit volume in the first CR entry: "..., J ONE, V99...91, P1".
    @example(((0, 9), (0, 9), [("index", 6, (27, "9" * 5000))]))
    @example(((0, 9), (0, 9), [("index", 0, (0, "\ufeff")), ("medline", 0, (0, "\ufeff"))]))
    def test_exit_code_is_0_or_1_and_an_error_is_named(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = {}
            for name, text in _edited_exports(case).items():
                paths[name] = root / f"{name}.txt"
                paths[name].write_text(text, encoding="utf-8", newline="")
            runs = [["ingest", "--index", str(paths["index"]),
                     "--medline", str(paths["medline"])], *_COMMANDS_AFTER_INGEST]
            for argv in runs:
                code, err = _run_quietly([*argv, "--cache", str(root / "cache.tsv"),
                                          "--out-dir", str(root / "out")])
                assert code in (0, 1), argv
                assert "Traceback" not in err
                if code == 1:
                    assert any(line.startswith("error: ") for line in err.splitlines()), argv


# ── a config value reads as its flag's text ──────────────────────────────────

# Flags every run of a command needs, unless the case under test sets one.
_NEEDED = {
    "ingest": {"--index": "index.txt", "--medline": "medline.txt"},
    "words": {"--years": "1970:1972"},
    "cowords": {"--years": "1970:1972"},
    "phrase": {"--head": "reverse", "--stem": "transcr"},
}


class TestConfigValueReadsAsFlagText:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory) -> Path:
        root = tmp_path_factory.mktemp("flag_or_config")
        _write_run_files(root, "{}")
        return root

    def outcome(self, root: Path, out: str, command: str, flag: str, args: list[str]):
        needed = [f"{f}={root / v if f in ('--index', '--medline') else v}"
                  for f, v in _NEEDED.get(command, {}).items() if f != flag]
        out_dir = root / out
        shutil.rmtree(out_dir, ignore_errors=True)
        cache = out_dir / "cache.tsv" if command == "ingest" else root / "cache.tsv"
        code, err = _run_quietly([command, "--cache", str(cache), "--out-dir", str(out_dir),
                                  *needed, *args])
        assert "Traceback" not in err
        reports = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        return code, reports

    @pytest.mark.parametrize("flag,value", [(flag, value) for flag, values in _FLAG_VALUES.items()
                                            for value in values])
    def test_same_exit_code_and_reports(self, root, flag, value):
        key = flag[2:].replace("-", "_")
        (root / "value.json").write_text(json.dumps({key: value}), encoding="utf-8")
        for command in cli._COMMANDS:
            if cli._SETTINGS[key].takes(command):
                by_flag = self.outcome(root, "flag", command, flag, [f"{flag}={value}"])
                by_config = self.outcome(root, "config", command, flag,
                                         ["--config", str(root / "value.json")])
                assert by_flag == by_config, command

    @pytest.mark.parametrize("command,config", [
        ("summary", '{"workers": 2.7}'),
        ("summary", '{"workers": true}'),
        ("summary", '{"workers": 1e300}'),
        pytest.param("summary", '{"workers": 1' + "0" * 5000 + "}", id="summary-5001-digits"),
        ("words", '{"min_percent": true}'),
        ("cowords", '{"min_cosine": false}'),
        ("words", '{"stopwords": null}'),
    ])
    def test_a_value_the_flag_would_reject_is_an_error(self, root, command, config):
        (root / "value.json").write_text(config, encoding="utf-8")
        code, err = _run_quietly([command, "--cache", str(root / "cache.tsv"),
                                  "--out-dir", str(root / "out"), "--years", "1970:1972",
                                  "--config", str(root / "value.json")])
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (root / "out").exists()

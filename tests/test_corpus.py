import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import bibshift
from bibshift.cli import run
from bibshift.records import (
    CACHE_HEADER,
    BibRecord,
    EmptyCorpus,
    Source,
    build_corpus,
    read_cache,
    split_by_source,
)
from bibshift.refkey import parse_cited_ref
from conftest import mkrec, save_cache
from oracles import CELL_ESCAPES, brute_build_corpus, brute_read_cache, brute_split_by_source


class TestBibRecord:
    def record(self):
        return BibRecord("p1", Source.CITATION_INDEX, "virus assay", 1970,
                         frozenset([parse_cited_ref("X, 1960, J")]))

    def test_rejects_attribute_assignment(self):
        record = self.record()
        with pytest.raises(AttributeError):
            record.title = "other"
        assert record.title == "virus assay"

    def test_is_hashable(self):
        assert len({self.record(), self.record()}) == 1

    def test_equals_the_record_built_by_keyword(self):
        assert self.record() == BibRecord(
            record_id="p1", source=Source.CITATION_INDEX, title="virus assay",
            pub_year=1970, cited_refs=frozenset([parse_cited_ref("X, 1960, J")]))

    def test_replace_gives_a_new_record(self):
        record = self.record()
        renamed = record._replace(record_id="p1#2")
        assert renamed.record_id == "p1#2" and record.record_id == "p1"
        assert renamed[1:] == record[1:]

    def test_cites_nothing_by_default(self):
        assert BibRecord("m1", Source.MEDLINE, "tumor", 1971).cited_refs == frozenset()


class TestBuildCorpus:
    def test_partitions_by_year(self):
        records = [mkrec(f"r{y}{i}", year=y) for y in (1970, 1971) for i in range(3)]
        corpus = build_corpus(records)
        assert list(corpus) == [1970, 1971]
        assert len(corpus[1970]) == 3
        assert len(corpus[1971]) == 3
        assert sum(map(len, corpus.values())) == 6

    def test_slice_counts_sum_to_total(self):
        records = [mkrec(f"r{i}", year=1966 + i % 10) for i in range(25)]
        corpus = build_corpus(records)
        assert sum(len(corpus[y]) for y in corpus) == len(records)

    def test_range_filter_keeps_only_years_in_range(self):
        records = [mkrec(f"r{i}", year=1966 + i) for i in range(10)]
        corpus = build_corpus(records, (1969, 1975))
        assert list(corpus) == list(range(1969, 1976))
        assert [r for recs in corpus.values() for r in recs] == records[3:]

    def test_missing_year_excluded(self):
        records = [mkrec("a", year=1970), mkrec("b", year=None)]
        assert build_corpus(records) == {1970: (records[0],)}

    def test_every_record_in_exactly_its_year_slice(self):
        records = [mkrec(f"r{i}", year=1970 + i % 3) for i in range(9)]
        corpus = build_corpus(records)
        for year, recs in corpus.items():
            assert all(r.pub_year == year for r in recs)

    def test_in_range_year_without_records_has_empty_slice(self):
        corpus = build_corpus([mkrec("a", year=1970)], (1969, 1971))
        assert corpus[1969] == ()
        assert list(corpus) == [1969, 1970, 1971]

    def test_single_year(self):
        corpus = build_corpus([mkrec("a", year=1970)])
        assert list(corpus) == [1970]

    def test_years_ascend_and_each_keeps_input_order(self):
        records = [mkrec("c", year=1972), mkrec("a", year=1970), mkrec("d", year=1972),
                   mkrec("b", year=1970)]
        corpus = build_corpus(records)
        assert corpus == {1970: (records[1], records[3]), 1971: (),
                          1972: (records[0], records[2])}
        assert list(corpus) == [1970, 1971, 1972]

    def test_nothing_survives_raises(self):
        with pytest.raises(EmptyCorpus):
            build_corpus([mkrec("a", year=1970)], (1980, 1990))

    def test_no_dated_records_raises(self):
        with pytest.raises(EmptyCorpus):
            build_corpus([mkrec("a", year=None)])

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            build_corpus([mkrec("a", year=1970)], (1975, 1966))


class TestSplitBySource:
    def test_sources_in_declaration_order(self):
        records = [
            mkrec("m", year=1970, source=Source.MEDLINE),
            mkrec("i", year=1970, source=Source.CITATION_INDEX),
        ]
        assert list(split_by_source(build_corpus(records))) == [
            Source.CITATION_INDEX,
            Source.MEDLINE,
        ]

    def test_each_part_holds_its_source_and_every_year(self):
        records = [
            mkrec("i70", year=1970, source=Source.CITATION_INDEX),
            mkrec("m70", year=1970, source=Source.MEDLINE),
            mkrec("i72", year=1972, source=Source.CITATION_INDEX),
            mkrec("m74", year=1974, source=Source.MEDLINE),
        ]
        corpus = build_corpus(records, (1969, 1975))
        parts = split_by_source(corpus)
        for source, part in parts.items():
            assert list(part) == list(corpus)
            for year, recs in corpus.items():
                assert part[year] == tuple(r for r in recs if r.source is source)

        def ids(part):
            return [r.record_id for recs in part.values() for r in recs]
        assert ids(parts[Source.CITATION_INDEX]) == ["i70", "i72"]
        assert ids(parts[Source.MEDLINE]) == ["m70", "m74"]

    def test_an_absent_source_is_omitted(self):
        corpus = build_corpus([mkrec("m", year=1970, source=Source.MEDLINE)])
        assert list(split_by_source(corpus)) == [Source.MEDLINE]


def _outcome(build, *args):
    """What ``build`` returns for ``args``, or its exception's type and message."""
    try:
        return build(*args)
    except (EmptyCorpus, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_corpus(got, want):
    """The same years in the same order, each holding the very same records."""
    assert list(got) == list(want)
    for year, records in want.items():
        assert type(got[year]) is tuple
        assert len(got[year]) == len(records)
        assert all(a is b for a, b in zip(got[year], records))


# Records in any order, some without a year; ids repeat, so equal records
# that are different objects occur, and only identity tells them apart.
_corpus_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.none() | st.integers(1968, 1973),
              st.sampled_from(list(Source))),
    max_size=12)
_year_range = st.none() | st.tuples(st.integers(1965, 1976), st.integers(1965, 1976))


class TestCorpusMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(_corpus_rows, _year_range)
    @example([("a", 1970, Source.MEDLINE)], (1971, 1969))  # a reversed range
    @example([("a", 1970, Source.MEDLINE)], (1960, 1965))  # a range outside the data
    @example([("a", 1971, Source.MEDLINE), ("a", 1970, Source.CITATION_INDEX),
              ("a", 1971, Source.CITATION_INDEX)], (1971, 1971))  # a single year
    @example([("a", None, Source.MEDLINE)], None)  # no year at all
    @example([("a", None, Source.MEDLINE)], (1971, 1969))
    @example([("c", 1973, Source.MEDLINE), ("b", 1968, Source.MEDLINE),
              ("a", 1973, Source.MEDLINE), ("a", None, Source.CITATION_INDEX)], None)
    def test_build_and_split_agree_with_the_brute_ones(self, rows, year_range):
        records = [mkrec(rid, title=rid, year=year, source=source)
                   for rid, year, source in rows]
        got = _outcome(build_corpus, records, year_range)
        want = _outcome(brute_build_corpus, records, year_range)
        if isinstance(want, tuple):
            assert got == want
            return
        _assert_same_corpus(got, want)
        parts, brute_parts = split_by_source(got), brute_split_by_source(want)
        assert list(parts) == list(brute_parts)
        for source, part in brute_parts.items():
            _assert_same_corpus(parts[source], part)

    def test_records_of_a_generator_are_grouped(self):
        records = [mkrec("b", year=1971), mkrec("a", year=1970), mkrec("c", year=1971)]
        corpus = build_corpus(iter(records))
        _assert_same_corpus(corpus, brute_build_corpus(records))


# awkward characters the cache escaping must survive
_nasty_text = st.text(
    alphabet=st.sampled_from(list("abZ9 \t\n\r|\\;,#") + ["é", "日"]),
    max_size=12,
)
_nasty_word = st.text(
    alphabet=st.sampled_from(list("abZ9|\\;#") + ["é", "日"]), min_size=1, max_size=5)
# the second arm draws the Web of Science shape
# AUTHOR, YYYY, SOURCE[, Vn][, Pn][, DOI d], which the parser reads in one match
_nasty_ref = st.one_of(
    st.text(
        alphabet=st.sampled_from(list("abZ9 \t\n\r|\\;,#") + ["é", "日"]),
        min_size=1,
        max_size=12,
    ),
    st.tuples(
        st.lists(_nasty_word, min_size=1, max_size=2).map(" ".join),
        st.integers(min_value=0, max_value=9999).map("{:04d}".format),
        _nasty_word,
        st.none() | st.integers(min_value=0, max_value=10**6).map("V{}".format),
        st.none() | st.integers(min_value=0, max_value=10**6).map("P{}".format),
        st.none() | _nasty_word.map("DOI {}".format),
    ).map(lambda parts: ", ".join(filter(None, parts))),
)


def _spellings(path) -> list[list[str]]:
    """The reference spellings of each data line of a cache, in file order,
    unescaped."""
    # split on "\n" only: splitlines() also breaks a title at "\x85" or "\u2028"
    lines = Path(path).read_text(encoding="utf-8").split("\n")[1:-1]
    return [[re.sub(r"\\(.)", lambda m: CELL_ESCAPES[m.group(1)], cell)
             for cell in line.split("\t")[4].split("|") if cell]
            for line in lines]


def _canonical_spellings(corpus) -> list[list[str]]:
    """What ``_spellings`` reads from a cache of ``corpus``: each record's
    reference spellings (a blank one as " "), in the order of their escaped
    cells."""
    escapes = {text: "\\" + code for code, text in CELL_ESCAPES.items()}
    return [sorted((ref or " " for ref in record.cited_refs),
                   key=lambda s: "".join(escapes.get(c, c) for c in s))
            for records in corpus.values() for record in records]


class TestCacheRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path, data_dir):
        from bibshift.ingest import parse_citation_index_export

        with open(data_dir / "citation_index_3records.txt", encoding="utf-8") as fh:
            corpus = build_corpus(parse_citation_index_export(fh).records)
        path_a = tmp_path / "a.tsv"
        path_b = tmp_path / "b.tsv"
        save_cache(corpus, path_a)
        save_cache(build_corpus(read_cache(path_a)), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                _nasty_text,
                st.sampled_from([Source.CITATION_INDEX, Source.MEDLINE]),
                st.integers(min_value=1900, max_value=2100),
                st.lists(_nasty_ref, max_size=3),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # a blank string spells as "" and is written as a one-space cell;
    # A| is written as the cell A\p, which sorts before A] as a cell but
    # after it as text
    @example([("t", Source.CITATION_INDEX, 1970, [" "])])
    @example([("t", Source.CITATION_INDEX, 1970, ["a]", "a|", " "])])
    def test_arbitrary_field_content_survives(self, tmp_path_factory, rows):
        from bibshift.refkey import parse_cited_ref

        records = [
            BibRecord(
                record_id=f"id{i}",
                source=source,
                title=title,
                pub_year=year,
                cited_refs=(
                    frozenset(parse_cited_ref(r) for r in refs)
                    if source is Source.CITATION_INDEX
                    else frozenset()
                ),
            )
            for i, (title, source, year, refs) in enumerate(rows)
        ]
        corpus = build_corpus(records)
        path = tmp_path_factory.mktemp("cache") / "c.tsv"
        save_cache(corpus, path)
        loaded = build_corpus(read_cache(path))
        assert list(loaded) == list(corpus)
        for year, recs in corpus.items():
            original = {r.record_id: r for r in recs}
            recovered = {r.record_id: r for r in loaded[year]}
            assert recovered.keys() == original.keys()
            for rid, rec in original.items():
                assert recovered[rid].title == rec.title
                assert recovered[rid].cited_refs == rec.cited_refs
                assert recovered[rid].source == rec.source
        assert _spellings(path) == _canonical_spellings(corpus)

    def test_header_line_skipped_on_read(self, tmp_path):
        corpus = build_corpus([mkrec("a", refs=["X, 1960, J"], title="T", year=1970)])
        path = tmp_path / "c.tsv"
        save_cache(corpus, path)
        assert path.read_text(encoding="utf-8").startswith("#")
        assert len(read_cache(path)) == 1

    def test_blank_and_comment_lines_after_the_header_skipped(self, tmp_path):
        corpus = build_corpus([mkrec("a", refs=["X, 1960, J"], title="T", year=1970),
                               mkrec("b", title="U", year=1971)])
        path = tmp_path / "c.tsv"
        save_cache(corpus, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        padded = tmp_path / "padded.tsv"
        padded.write_text("".join([header, "\n", "# a note\n", rows[0], "#\n", "\n",
                                   *rows[1:]]), encoding="utf-8")
        assert read_cache(padded) == read_cache(path)
        assert read_cache(padded, refs=False) == read_cache(path, refs=False)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("one\ttwo\tthree\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_cache(path)

    def test_wrong_column_count_after_the_header_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(f"{CACHE_HEADER}\none\ttwo\tthree\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: expected 5 cache columns, got 3"):
            read_cache(path)


class TestCacheReferenceSpellings:
    SPELLING_A = "Baltimore D, 1970, Nature, V226, P1209"
    SPELLING_B = "BALTIMORE  D,1970,NATURE,  V226 , P1209"

    def test_repeated_and_respelled_refs_are_written_in_one_spelling(self, tmp_path):
        cited = {
            "a1": [self.SPELLING_A, "X, 1960, J"],
            "a2": [self.SPELLING_A, "X, 1960, J", "Y, 1961, K"],
            "b1": [self.SPELLING_B, "X, 1960, J"],
            "b2": [self.SPELLING_B],
        }
        records = [mkrec(rid, refs=refs) for rid, refs in cited.items()]
        path_a, path_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_cache(build_corpus(records), path_a)
        loaded = read_cache(path_a)

        assert loaded == records
        baltimore = "BALTIMORE D, 1970, NATURE, V226, P1209"
        assert _spellings(path_a) == [[baltimore, "X, 1960, J"],
                                      [baltimore, "X, 1960, J", "Y, 1961, K"],
                                      [baltimore, "X, 1960, J"], [baltimore]]
        save_cache(build_corpus(loaded), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_references_order_alike_under_any_hash_seed(self, tmp_path):
        # "X, 1970" has year 1970; "X,,1970" has source "1970": two references
        # that spell differently, "X, 1970" and "X, , 1970"
        script = (
            "import sys\n"
            "from bibshift.records import BibRecord, Source, build_corpus, write_cache\n"
            "from bibshift.refkey import parse_cited_ref\n"
            "refs = frozenset(parse_cited_ref(r) for r in ('X, 1970', 'X,,1970', 'W, 1950'))\n"
            "record = BibRecord('p', Source.CITATION_INDEX, 't', 1970, refs)\n"
            "with open(sys.argv[1], 'wb') as out:\n"
            "    write_cache(build_corpus([record]), out)\n"
        )
        src = str(Path(bibshift.__file__).resolve().parents[1])
        outputs = set()
        for seed in range(1, 7):
            path = tmp_path / f"seed{seed}.tsv"
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
            outputs.add(path.read_bytes())
        assert len(outputs) == 1
        assert _spellings(path) == [["W, 1950", "X, , 1970", "X, 1970"]]

    # A cache as written when each reference cell held the export's own
    # spelling: lower case, doubled spaces, a DOI tail, "X,,1970", and a
    # volume too long for int(). The header is the same.
    LONG_REF = "smith j, 1960, nature, V" + "9" * 5000 + ", P1"
    EXPORT_SPELLINGS = {
        "p1": ["baltimore  d, 1970, nature, v226, p1209", "X, 1970", "X,,1970"],
        "p2": ["Baltimore D, 1970, Nature, V226, P1209, DOI 10.1038/226209a0",
               LONG_REF, "x, 1970"],
        "p3": [LONG_REF, "Temin HM,1970,NATURE,V226", "X,,1970"],
    }
    EXPORT_SPELLING_CACHE = (
        "# bibshift-cache v1: record_id\tsource\tyear\ttitle\tcited_refs\n"
        "p1\tCITATION_INDEX\t1970\tvirus\t"
        "baltimore  d, 1970, nature, v226, p1209|X, 1970|X,,1970\n"
        "p2\tCITATION_INDEX\t1970\tvirus\t"
        f"Baltimore D, 1970, Nature, V226, P1209, DOI 10.1038/226209a0|{LONG_REF}|x, 1970\n"
        f"p3\tCITATION_INDEX\t1971\tvirus\t{LONG_REF}|Temin HM,1970,NATURE,V226|X,,1970\n"
        "m1\tMEDLINE\t1971\ttumor\t\n"
    )

    def test_a_cache_of_export_spellings_reads_and_reports_as_its_rewrite(self, tmp_path):
        old, new = tmp_path / "old.tsv", tmp_path / "new.tsv"
        old.write_text(self.EXPORT_SPELLING_CACHE, encoding="utf-8")
        records = read_cache(old)
        assert {r.record_id: r.cited_refs for r in records} == {
            **{rid: frozenset(map(parse_cited_ref, refs))
               for rid, refs in self.EXPORT_SPELLINGS.items()},
            "m1": frozenset()}
        save_cache(build_corpus(records), new)
        assert read_cache(new) == records
        # the rewrite holds each reference's canonical spelling, which reads back as it
        rewritten = _spellings(new)
        assert rewritten == _canonical_spellings(build_corpus(records))
        assert all(parse_cited_ref(s) == s for line in rewritten for s in line)
        reports = []
        for cache in (old, new):
            out = tmp_path / f"out-{cache.stem}"
            for command in (["summary"], ["core-refs", "--thresholds", "1/1,2/2"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run([*command, "--cache", str(cache), "--out-dir", str(out)]) == 0
            reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert reports[0] == reports[1]
        assert b"\tX, , 1970\n" in reports[0]["core_refs.tsv"]


class TestCacheWithoutReferences:
    def write(self, tmp_path):
        records = [
            mkrec("a", refs=["X, 1960, J", "Y, 1961, K"], title="virus assay", year=1970),
            mkrec("m", title="tumor", year=1971, source=Source.MEDLINE),
        ]
        path = tmp_path / "c.tsv"
        save_cache(build_corpus(records), path)
        return path

    def test_same_records_with_no_references(self, tmp_path):
        path = self.write(tmp_path)
        full = read_cache(path)
        assert any(record.cited_refs for record in full)
        assert read_cache(path, refs=False) == [
            record._replace(cited_refs=frozenset()) for record in full]

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda text: text.split("\n", 1)[1], r":1: not a bibshift cache",
                     id="no-header"),
        pytest.param(lambda text: text.replace("\tvirus assay\t", "\t"),
                     r":2: expected 5 cache columns", id="four-columns"),
        pytest.param(lambda text: text.replace("\tMEDLINE\t", "\tBOGUS\t"),
                     r":3: unknown source", id="unknown-source"),
        pytest.param(lambda text: text.replace("\t1971\t", "\tMCMLXXI\t"), r"MCMLXXI",
                     id="bad-year"),
    ])
    def test_bad_lines_are_still_rejected(self, tmp_path, edit, message):
        path = self.write(tmp_path)
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_cache(path, refs=False)

    @pytest.mark.parametrize("refs", [True, False])
    @pytest.mark.parametrize("cell", ["BOGUS", "medline", "MEDLINE ", " MEDLINE", "Medline",
                                      "CITATION_INDEX\x00", ""])
    def test_a_source_cell_must_be_a_member_name(self, tmp_path, cell, refs):
        path = self.write(tmp_path)
        text = path.read_text(encoding="utf-8").replace("\tMEDLINE\t", f"\t{cell}\t")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f":3: unknown source {cell!r} (want one of CITATION_INDEX, MEDLINE)")):
            read_cache(path, refs=refs)

    def test_empty_reference_cells_share_one_set(self, tmp_path):
        path = self.write(tmp_path)
        full, bare = read_cache(path), read_cache(path, refs=False)
        assert full[1].cited_refs is bare[0].cited_refs is bare[1].cited_refs


class TestCacheCutShort:
    def write(self, tmp_path):
        records = [mkrec(f"p{i}", refs=["GROSS L, 1957, CANCER RES, V17, P1"],
                         title="virus", year=1970 + i) for i in range(3)]
        path = tmp_path / "c.tsv"
        save_cache(build_corpus(records), path)
        return path

    def test_cache_cut_mid_line_rejected(self, tmp_path):
        path = self.write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:data.rindex(b"CANCER")])
        with pytest.raises(ValueError, match=r":4: truncated cache line"):
            read_cache(path)
        with pytest.raises(ValueError, match=r":4: truncated cache line"):
            read_cache(path, refs=False)

    def test_cache_cut_at_a_line_end_still_loads(self, tmp_path):
        path = self.write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:data.rindex(b"\n", 0, -1) + 1])
        assert [r.pub_year for r in read_cache(path)] == [1970, 1971]


class TestCacheLineEnds:
    @pytest.mark.parametrize("line", [
        "A\tMEDLINE\t1970\tT one\t\r",  # a CRLF line end
        "A\tMEDLINE\t1970\tT\rone\t",    # inside a cell
        "# note\r",                      # a comment line
    ])
    def test_raw_carriage_return_rejected(self, tmp_path, line):
        path = tmp_path / "c.tsv"
        path.write_bytes(f"{CACHE_HEADER}\n{line}\n".encode())
        for refs in (True, False):
            with pytest.raises(ValueError, match=r"^.*c\.tsv:2: raw carriage return in a "
                               r"cache line \(a cache file has LF line ends, not CRLF\)$"):
                read_cache(path, refs)


# Cache text for the reader oracle. A cell is clean (no backslash) or holds
# escapes; references are drawn from a small pool so that cells repeat, and
# most year cells are 1970, so that a bad year follows a good one.
_PLAIN = ["a", "Z", "9", " ", ",", "é", "日", "V1", "P2"]
_ESCAPES = ["\\\\", "\\t", "\\n", "\\r", "\\p", "\\#"]
_clean_cell = st.lists(st.sampled_from(_PLAIN), max_size=5).map("".join)
_escaped_cell = st.tuples(
    _clean_cell, st.sampled_from(_ESCAPES),
    st.lists(st.sampled_from(_PLAIN + _ESCAPES), max_size=4).map("".join)).map("".join)
_any_cell = _clean_cell | _escaped_cell
_ref_pool = ["X, 1960, J", "GROSS L, 1957, CANCER RES, V17, P1", "A\\pB, 1960, J",
             "TAB\\tBED, 1961, K, V2", "Y, 1965", " ", ""]


def _data_line(cell):
    return st.tuples(
        cell,
        st.sampled_from(["CITATION_INDEX", "MEDLINE"]),
        st.sampled_from(["1970", "1970", "1970", "1971", "0", "9999", "0042"]),
        cell,
        st.lists(st.sampled_from(_ref_pool) | cell, max_size=4).map("|".join),
    ).map("\t".join)


_good_line = st.one_of(
    _data_line(_clean_cell), _data_line(_escaped_cell), _data_line(_any_cell),
    _clean_cell.map("#{}".format), st.just(""),  # a comment line, a blank line
)


@st.composite
def _bad_line(draw):
    """A data line with one or more cells spoilt in ways a reader rejects."""
    cells = draw(_data_line(_any_cell)).split("\t")
    for column in sorted(draw(st.lists(st.integers(0, 5), min_size=1, max_size=2,
                                       unique=True))):
        if column == 1:
            cells[1] = draw(st.sampled_from(["BOGUS", "medline", ""]))
        elif column == 2:
            cells[2] = draw(st.sampled_from(["1_970", "01970", " 197", "10000", "", "+197",
                                             "١٩٧٠"]))
        elif column == 5:
            cells.append("extra")
        else:  # a bad escape, where "\\|" reads as one only where refs go unparsed;
            # or a raw carriage return
            cells[column] += draw(st.sampled_from(["\\q", "\\", "\\|X, 1960, J", "\r"]))
    return "\t".join(cells)


@st.composite
def _cache_texts(draw):
    lines = draw(st.lists(_good_line, max_size=6))
    if draw(st.booleans()):
        lines += [draw(_bad_line()), *draw(st.lists(_good_line, max_size=2))]
    end = draw(st.sampled_from(["\n", "\n", "\n", ""]))  # at times a cut file
    return "\n".join([CACHE_HEADER, *lines]) + end


class TestCacheReaderOracle:
    @staticmethod
    def outcome(read, path, refs):
        try:
            return read(path, refs)
        except ValueError as exc:
            return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(_cache_texts())
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\t\nb\tMEDLINE\t1_970\tt\t\n")
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\t\nb\tMEDLINE\t1970\tt\\q\t\n")
    @example(f"{CACHE_HEADER}\na\tCITATION_INDEX\t1970\tt\\q\tX, 1960, J\\|Y\n")
    @example(f"{CACHE_HEADER}\n\n# note\na\tMEDLINE\t1970\tt\\p\t")
    # A cut last line is reported as cut, whatever else is wrong with it.
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt")  # four columns
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\\q\t")  # a bad escape
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\\\t")  # a lone trailing backslash
    @example(f"{CACHE_HEADER}\na\tCITATION_INDEX\t1970\tt\tX, 1960, J\\")
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\t\r")  # a raw carriage return
    @example(f"{CACHE_HEADER}\na\tBOGUS\t1970\tt\t")  # an unknown source
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1_970\tt\t")  # a bad year
    @example(f"{CACHE_HEADER}\n# note")  # a comment line
    # a lone trailing backslash that the newline follows
    @example(f"{CACHE_HEADER}\na\tCITATION_INDEX\t1970\tt\tX, 1960, J\\\n")
    # years out of order, a blank and a comment line between them
    @example(f"{CACHE_HEADER}\na\tMEDLINE\t1970\tt\t\n\n# note\nb\tMEDLINE\t1969\tu\t\n")
    def test_read_cache_agrees_with_the_brute_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("cache") / "c.tsv"
        path.write_text(text, encoding="utf-8", newline="\n")
        for refs in (True, False):
            got = self.outcome(read_cache, path, refs)
            assert got == self.outcome(brute_read_cache, path, refs)
            if isinstance(got, list):
                assert all(type(record) is BibRecord for record in got)


class TestCacheWrite:
    def corpus(self, title="virus"):
        return build_corpus([mkrec("p", refs=["X, 1960, J"], title=title, year=1970)])

    def test_str_path_works(self, tmp_path):
        path = tmp_path / "c.tsv"
        save_cache(self.corpus(), path)
        assert [r.record_id for r in read_cache(str(path))] == ["p"]

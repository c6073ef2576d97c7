"""Bibliographic record model, the corpus, and the corpus cache.

A record is a ``NamedTuple``: immutable, hashable, equal field by field, and
built at tuple cost, since every command builds one per cache line. Every
record that cites nothing shares the one empty set ``NO_REFS``. A corpus is
a plain dict (``Corpus``) from each year, first to last, to that year's
records; ``build_corpus`` is its one producer.

A cited reference is its canonical spelling (see ``refkey``). The cache
is a line-delimited TSV: one record per line with columns ``record_id``,
``source``, ``year``, ``title``, ``cited_refs``. The last column joins each
cited reference's spelling with ``|`` (a single space for the reference of
a blank string, whose spelling is empty); a cell is parsed on read, so a
cell holding any other spelling of a reference (an export's own, as
earlier writers kept it) reads as its canonical spelling.
Backslash escapes (backslash, tab, newline, carriage return, ``#``, and
``|`` as ``\\p``) keep every field tab-, separator-, and comment-safe, so a
cache file round-trips byte-identically, and any other escape is rejected on read. The
first line must be ``CACHE_HEADER``; later lines starting with ``#`` are
comment lines and are skipped on read. The file always ends with a newline,
so a last line without one marks a cut file and is rejected. The cache is
written through a temp file that replaces the old one only once complete
(``write_text_atomic``); each distinct reference is spelled and escaped once
per write. A reader that needs only titles can leave the reference column
unparsed (``read_cache(path, refs=False)``). On read, each distinct year
cell is checked once per call, and a line without a backslash holds no
escape, so none of its cells is unescaped.
"""
from __future__ import annotations

import enum
import os
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .refkey import parse_cited_ref

CACHE_HEADER = "# bibshift-cache v1: record_id\tsource\tyear\ttitle\tcited_refs"
# Export years are four-digit fields, so every year lies in 0..MAX_YEAR.
MAX_YEAR = 9999


class Source(enum.Enum):
    CITATION_INDEX = "citation_index"
    MEDLINE = "medline"


# A cache cell names a source; a dict lookup is cheaper than ``Source[...]``.
_SOURCE_BY_NAME = dict(Source.__members__)
NO_REFS: frozenset[str] = frozenset()


class BibRecord(NamedTuple):
    """One bibliographic record from either export format, as a
    ``NamedTuple`` (``_replace`` gives a changed copy).

    ``pub_year`` is None when the source record carried no usable year;
    such records are excluded (and counted) when a corpus is built.
    MEDLINE-source records always have an empty ``cited_refs``.
    """

    record_id: str
    source: Source
    title: str
    pub_year: Optional[int]
    cited_refs: frozenset[str] = NO_REFS


class EmptyCorpus(Exception):
    """No record survived the year filter."""


# Records by publication year: every year from the first to the last, in
# ascending order and possibly empty, so that interval analyses can compare
# any two years; each year's records in input order.
Corpus = dict[int, tuple[BibRecord, ...]]


def build_corpus(
    records: Iterable[BibRecord],
    year_range: Optional[tuple[int, int]] = None,
) -> Corpus:
    """Group records by year, filtering to ``year_range``.

    Records without a year are always excluded; when ``year_range`` is None
    it is derived from the data. Raises EmptyCorpus when nothing survives,
    and ValueError when the range is reversed.
    """
    dated = [r for r in records if r.pub_year is not None]
    if year_range is None:
        if not dated:
            raise EmptyCorpus("no record carries a publication year")
        year_range = (min(r.pub_year for r in dated), max(r.pub_year for r in dated))

    lo, hi = year_range
    if lo > hi:
        raise ValueError(f"invalid year range {lo}:{hi}")

    by_year: dict[int, list[BibRecord]] = {year: [] for year in range(lo, hi + 1)}
    for record in dated:
        if lo <= record.pub_year <= hi:
            by_year[record.pub_year].append(record)
    if not any(by_year.values()):
        raise EmptyCorpus(f"no record falls inside the year range {lo}:{hi}")
    return {year: tuple(recs) for year, recs in by_year.items()}


def split_by_source(corpus: Corpus) -> dict[Source, Corpus]:
    """The corpus split by record source: one part per source present, in
    ``Source`` order. Each part keeps every year of the corpus, empty or
    not."""
    parts = {}
    for source in Source:
        # Sources compare by identity; hashing an Enum member runs Python code.
        part = {year: tuple(r for r in records if r.source is source)
                for year, records in corpus.items()}
        if any(part.values()):
            parts[source] = part
    return parts


# ── corpus cache ──────────────────────────────────────────────────────────────

def _escape(text: str) -> str:
    # "|" maps to "\p" so no literal pipe survives inside a field and the
    # ref-join column can be split on plain "|"; "#" is escaped so a record
    # id can never make a data line look like a comment line.
    return (text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")
            .replace("\r", "\\r").replace("|", "\\p").replace("#", "\\#"))


_UNESCAPED = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "p": "|", "#": "#"}
_ESCAPE_RE = re.compile(r"\\(.?)", re.S)


def _unescape_one(match: re.Match) -> str:
    text = _UNESCAPED.get(match.group(1))
    if text is None:
        raise ValueError(f"bad escape {match.group()!r} (a cache escapes only "
                         "backslash, tab, newline, carriage return, | and #)")
    return text


def _unescape(text: str) -> str:
    """The text of an escaped cache cell. An escape that ``_escape`` never
    writes, a lone trailing backslash included, raises ValueError."""
    if "\\" not in text:
        return text
    return _ESCAPE_RE.sub(_unescape_one, text)


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends, through a
    temp file in the same directory that replaces ``path`` only once it is
    complete. On any error the temp file is removed and ``path`` keeps what
    it held. This guards against an interrupted process, not a power loss:
    nothing is synced to disk."""
    path = Path(path)
    tmp = path.with_name(f".bibshift-{os.getpid()}-{os.urandom(4).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cache(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write the corpus as a TSV cache. Deterministic: years ascending,
    each year's records in order, each record's cited refs in order of
    their cells. A reference cell is the reference's escaped spelling, or
    a single space for the reference of a blank string, whose spelling is
    empty (an empty cell holds no reference). Each distinct reference is
    escaped once per write."""
    lines = [CACHE_HEADER]
    escaped: dict[str, str] = {}  # reference -> its cache cell
    for year, records in corpus.items():
        year_text = str(year)
        for record in records:
            cells = []
            for ref in record.cited_refs:
                cell = escaped.get(ref)
                if cell is None:
                    cell = escaped[ref] = _escape(ref or " ")
                cells.append(cell)
            # distinct references escape differently, so their cells differ too
            cells.sort()
            lines.append(
                "\t".join(
                    (
                        _escape(record.record_id),
                        record.source.name,
                        year_text,
                        _escape(record.title),
                        "|".join(cells),
                    )
                )
            )
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_cache(path: str | os.PathLike, refs: bool = True) -> list[BibRecord]:
    """Read records back from a cache file written by write_cache.

    Each distinct reference cell is parsed once per call; records that
    repeat a cell share its spelling. Each distinct year cell is checked
    and converted once per call. A line without a backslash is taken as
    its own text: only a line that holds one has its cells unescaped. With
    ``refs`` false, for callers that read only titles, every line is still
    split and its column count, source, year and escapes checked, but the
    cited-reference column is never parsed and every record's
    ``cited_refs`` is empty. Parsing a reference never fails, so skipping
    the column rejects no cache that reading it accepts. A file whose last
    line lacks its newline was cut short and is rejected, and so is a year
    cell that is not a whole number in 0-``MAX_YEAR`` and a cell holding an
    escape that ``write_cache`` never writes.
    """
    records: list[BibRecord] = []
    spellings: dict[str, str] = {}  # escaped reference cell -> its spelling
    years: dict[str, int] = {}  # year cell that passed the check -> its year
    with open(path, encoding="utf-8", newline="\n") as handle:
        if handle.readline().rstrip("\n") != CACHE_HEADER:
            raise ValueError(f"{path}:1: not a bibshift cache (the first line must be "
                             f"{CACHE_HEADER!r})")
        for lineno, line in enumerate(handle, start=2):
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: truncated cache line (a cache file "
                                 "ends with a newline; this one was cut short)")
            line = line[:-1]
            if not line or line.startswith("#"):
                continue
            # Tabs inside fields are escaped, so a plain split is safe.
            cells = line.split("\t")
            if len(cells) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 cache columns, got {len(cells)}")
            record_id, source_name, year_text, title, refs_cell = cells
            source = _SOURCE_BY_NAME.get(source_name)
            if source is None:
                raise ValueError(f"{path}:{lineno}: unknown source {source_name!r} (want one "
                                 f"of {', '.join(Source.__members__)})")
            year = years.get(year_text)
            if year is None:
                # 1-4 ASCII digits, as ingest writes a year; int() alone would
                # also take "1_970" or "+2000000", a year no export can hold.
                if not (len(year_text) <= 4 and year_text.isascii() and year_text.isdigit()):
                    raise ValueError(f"{path}:{lineno}: year {year_text!r} is not a whole "
                                     f"number in 0-{MAX_YEAR}")
                year = years[year_text] = int(year_text)
            # A line without a backslash holds no escape: each cell is its text.
            escaped = "\\" in line
            try:
                cited = NO_REFS
                if refs and refs_cell:
                    cited_refs = []
                    for part in refs_cell.split("|"):
                        if not part:
                            continue
                        ref = spellings.get(part)
                        if ref is None:
                            ref = spellings[part] = parse_cited_ref(
                                _unescape(part) if escaped else part)
                        cited_refs.append(ref)
                    cited = frozenset(cited_refs)
                elif escaped:
                    _unescape(refs_cell)  # reject what reading the references would
                if escaped:
                    record_id = _unescape(record_id)
                    title = _unescape(title)
            except ValueError as exc:  # a bad escape
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            # tuple.__new__ skips the NamedTuple's Python-level __new__.
            records.append(tuple.__new__(BibRecord, (record_id, source, title, year, cited)))
    return records

"""Bibliographic record model, year-sliced corpus, and the corpus cache.

The cache is a line-delimited TSV: one record per line with columns
``record_id``, ``source``, ``year``, ``title``, ``cited_refs``. The last
column joins the raw cited-reference strings with ``|``; backslash escapes
(backslash, tab, newline, carriage return, ``#``, and ``|`` as ``\\p``) keep
every field tab-, separator-, and comment-safe, so a cache file round-trips
byte-identically. The first line must be ``CACHE_HEADER``; later lines
starting with ``#`` are comment lines and are skipped on read. The file
always ends with a newline, so a last line without one marks a cut file and
is rejected. The cache is written through a temp file that replaces the old
one only once complete (``write_text_atomic``). A reader
that needs only titles can leave the reference column unparsed
(``read_cache(path, refs=False)``).
"""
from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .refkey import RefKey, parse_cited_ref

CACHE_HEADER = "# bibshift-cache v1: record_id\tsource\tyear\ttitle\tcited_refs"


class Source(enum.Enum):
    CITATION_INDEX = "citation_index"
    MEDLINE = "medline"


@dataclass(frozen=True)
class BibRecord:
    """One bibliographic record from either export format.

    ``pub_year`` is None when the source record carried no usable year;
    such records are excluded (and counted) when a corpus is built.
    MEDLINE-source records always have an empty ``cited_refs``.
    """

    record_id: str
    source: Source
    title: str
    pub_year: Optional[int]
    cited_refs: frozenset[RefKey] = frozenset()


@dataclass(frozen=True)
class YearSlice:
    year: int
    records: tuple[BibRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class BuildReport:
    total_input: int
    kept: int
    excluded_out_of_range: int
    excluded_missing_year: int


class EmptyCorpus(Exception):
    """No record survived the year filter."""


@dataclass(frozen=True)
class Corpus:
    """Records partitioned by publication year.

    Every year of ``year_range`` has a slice (possibly empty), so that
    interval analyses can compare any two in-range years.
    """

    slices: dict[int, YearSlice]
    year_range: tuple[int, int]
    build_report: BuildReport = field(default=BuildReport(0, 0, 0, 0), compare=False)

    def years(self) -> list[int]:
        lo, hi = self.year_range
        return list(range(lo, hi + 1))

    def slice(self, year: int) -> YearSlice:
        return self.slices.get(year, YearSlice(year=year))

    def records(self) -> Iterator[BibRecord]:
        for year in self.years():
            yield from self.slice(year).records

    @property
    def total_records(self) -> int:
        return sum(len(s) for s in self.slices.values())


def build_corpus(
    records: Iterable[BibRecord],
    year_range: Optional[tuple[int, int]] = None,
) -> Corpus:
    """Partition records into year slices, filtering to ``year_range``.

    Records without a year are always excluded; when ``year_range`` is None
    it is derived from the data. Raises EmptyCorpus when nothing survives.
    """
    records = list(records)
    dated = [r for r in records if r.pub_year is not None]
    missing_year = len(records) - len(dated)

    if year_range is None:
        if not dated:
            raise EmptyCorpus("no record carries a publication year")
        year_range = (min(r.pub_year for r in dated), max(r.pub_year for r in dated))

    lo, hi = year_range
    if lo > hi:
        raise ValueError(f"invalid year range {lo}:{hi}")

    by_year: dict[int, list[BibRecord]] = {year: [] for year in range(lo, hi + 1)}
    out_of_range = 0
    for record in dated:
        if lo <= record.pub_year <= hi:
            by_year[record.pub_year].append(record)
        else:
            out_of_range += 1

    kept = len(dated) - out_of_range
    if kept == 0:
        raise EmptyCorpus(f"no record falls inside the year range {lo}:{hi}")

    slices = {year: YearSlice(year=year, records=tuple(recs)) for year, recs in by_year.items()}
    report = BuildReport(
        total_input=len(records),
        kept=kept,
        excluded_out_of_range=out_of_range,
        excluded_missing_year=missing_year,
    )
    return Corpus(slices=slices, year_range=(lo, hi), build_report=report)


def slice_by_source(sl: YearSlice, source: Source) -> YearSlice:
    return YearSlice(year=sl.year, records=tuple(r for r in sl.records if r.source == source))


def corpus_sources(corpus: Corpus) -> list[Source]:
    """Sources present in the corpus, in enum declaration order."""
    present = {r.source for r in corpus.records()}
    return [s for s in Source if s in present]


# ── corpus cache ──────────────────────────────────────────────────────────────

# "|" maps to "\p" so no literal pipe survives inside a field and the
# ref-join column can be split on plain "|"; "#" is escaped so a record id
# can never make a data line look like a comment line.
_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r"),
            ("|", "\\p"), ("#", "\\#")]


def _escape(text: str) -> str:
    for plain, escaped in _ESCAPES:
        text = text.replace(plain, escaped)
    return text


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    out: list[str] = []
    it = iter(text)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "p": "|"}.get(nxt, nxt))
    return "".join(out)


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends, through a
    temp file in the same directory that replaces ``path`` only once it is
    complete. On any error the temp file is removed and ``path`` keeps what
    it held. This guards against an interrupted process, not a power loss:
    nothing is synced to disk."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
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
    records in slice order, cited refs in ``RefKey.sort_key`` order."""
    lines = [CACHE_HEADER]
    for year in corpus.years():
        for record in corpus.slice(year).records:
            refs = sorted(record.cited_refs, key=RefKey.sort_key)
            lines.append(
                "\t".join(
                    (
                        _escape(record.record_id),
                        record.source.name,
                        str(year),
                        _escape(record.title),
                        "|".join(_escape(k.raw) for k in refs),
                    )
                )
            )
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_cache(path: str | os.PathLike, refs: bool = True) -> list[BibRecord]:
    """Read records back from a cache file written by write_cache.

    Each distinct reference cell is parsed once per call; records that
    repeat a spelling share its key. With ``refs`` false, for callers that
    read only titles, every line is still split and its column count,
    source and year checked, but the cited-reference column is never parsed
    and every record's ``cited_refs`` is empty. Parsing a reference never
    fails, so skipping the column rejects no cache that reading it accepts.
    A file whose last line lacks its newline was cut short and is rejected.
    """
    records: list[BibRecord] = []
    keys: dict[str, RefKey] = {}  # escaped reference cell -> parsed key
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
            try:
                source = Source[source_name]
            except KeyError:
                raise ValueError(f"{path}:{lineno}: unknown source {source_name!r} (want one "
                                 f"of {', '.join(Source.__members__)})") from None
            cited = []
            if refs:
                for part in refs_cell.split("|"):
                    if not part:
                        continue
                    key = keys.get(part)
                    if key is None:
                        key = keys[part] = parse_cited_ref(_unescape(part))
                    cited.append(key)
            records.append(
                BibRecord(
                    record_id=_unescape(record_id),
                    source=source,
                    title=_unescape(title),
                    pub_year=int(year_text),
                    cited_refs=frozenset(cited),
                )
            )
    return records

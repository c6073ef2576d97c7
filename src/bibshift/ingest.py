"""Parsers for the two export file formats, plus offline record linkage,
which keys each title by ``textmetrics.title_token_sequence``'s word rule.

Citation-index export layout:
  - Each field starts at column 0 with a two-letter tag followed by a space
    (``PY 1970``); the end-of-record tag ``ER`` stands on a line of its own.
  - Continuation lines are indented with three spaces.
  - Cited references live under the ``CR`` tag, one entry per continuation
    line; a trailing ``;`` separator is tolerated and stripped, and several
    entries on one line may be separated by ``;``.
  - ``FN``/``VR`` file-header lines and a trailing ``EF`` marker are ignored.
  - Tags used: UT (record id), TI (title), PY (year), CR (cited refs).

MEDLINE export layout:
  - Fields as ``TAG - value`` with the tag padded to 4 characters
    (``PMID- 123``, ``TI  - ...``); continuation lines indented 6 spaces.
  - Records are separated by blank lines.
  - Tags used: PMID (record id), TI (title), DP (publication date; the
    year is the leading 4-digit group).

Both parsers keep records that lack a title or year and report them as
MissingField entries instead of dropping them; structurally broken input
raises MalformedRecord with the offending line number. Within one file, a
record equal in every field to an earlier record of its id is dropped with
its missing-field entries (and counted), and one that differs gets the id
suffix ``#2``, ``#3``, ... (and is listed as renamed). An id-less record
gets the id ``anon:N``, N numbering its block, and is dropped the same way
when it equals an earlier id-less record but for that id. Each parser
streams its file's field blocks into ``_file_records``, which returns one
``ParseResult``; ``cli`` words it as warnings, and its ``ingest``, as a
command does, returns its outputs.

A citation-index line that starts with three spaces is a continuation
line; any other line is stripped of its line end and matched against the
tag pattern, which takes a tag followed by a space and a value, or a bare
tag followed by nothing but whitespace. A line the pattern refuses is
skipped when blank and an error otherwise.

The MEDLINE parser memoises each distinct six-column head: a line whose
``line[:4]`` is a tag padded with spaces and whose ``line[4:6]`` is
``"- "`` is a tag line, and the tag pattern checks each such head once
per file. Any other line (a continuation, a blank line, a tag padded with
anything but spaces, ``TI -x``, a stray line, a tag line holding a newline
before its end) is stripped of its line end and matched against the
pattern, which gives the same fields and the same errors as matching every
line.
"""
from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .refkey import parse_cited_ref
from .records import NO_REFS, BibRecord, Source
from .textmetrics import title_token_sequence

_INDEX_TAG_RE = re.compile(r"^([A-Z][A-Z0-9])(?: (.*)|\s*)$")
_MEDLINE_TAG_RE = re.compile(r"^([A-Z0-9]{1,4})\s*- ?(.*)$")

END_OF_RECORD = "ER"
_HEADER_TAGS = {"FN", "VR", "EF"}


class MalformedRecord(Exception):
    """Structurally invalid input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingField(NamedTuple):
    record_id: str
    field: str


class ParseResult(NamedTuple):
    """What a parser found: the records, their missing fields, the
    ``(old_id, new_id)`` pair of each record ``renamed``, and the number of
    records ``dropped`` as exact duplicates of an earlier one."""
    records: list[BibRecord]
    missing: list[MissingField]
    renamed: list[tuple[str, str]]
    dropped: int


# A record's field block: each tag's values, and its cited references.
_Block = tuple[dict[str, list[str]], frozenset[str]]


def parse_citation_index_export(stream: Iterable[str]) -> ParseResult:
    """Parse a citation-index export (opened text file or iterable of lines)."""
    return _file_records(_index_blocks(stream), Source.CITATION_INDEX, "UT", "PY")


def _index_blocks(stream: Iterable[str]) -> Iterator[_Block]:
    fields: dict[str, list[str]] = {}
    values: Optional[list[str]] = None  # values of the field being continued
    last_field_line = 0
    spellings: dict[str, str] = {}  # raw reference string -> its spelling

    for line_number, raw_line in enumerate(stream, start=1):
        if raw_line[:3] == "   ":
            value = raw_line[3:].strip()
            if not value:
                continue  # blank line
            if values is None:
                raise MalformedRecord(line_number, "continuation line outside any field")
            values.append(value)
            last_field_line = line_number
            continue
        line = raw_line.rstrip("\n").rstrip("\r")
        m = _INDEX_TAG_RE.match(line)
        if m is None:
            if not line.strip():
                continue
            raise MalformedRecord(line_number, f"unrecognized line {line!r}")
        tag, value = m.groups("")  # "" for a bare tag
        if tag == END_OF_RECORD:
            if fields:
                yield fields, _cited_refs(fields.get("CR", ()), spellings)
                fields = {}
            values = None
            continue
        if tag in _HEADER_TAGS:
            values = None
            continue
        values = fields.setdefault(tag, [])
        values.append(value.strip())
        last_field_line = line_number

    if fields:
        raise MalformedRecord(last_field_line, "record block without end-of-record tag")


def _cited_refs(cited: Sequence[str], spellings: dict[str, str]) -> frozenset[str]:
    """The spellings of the ``CR`` entries; ``spellings`` memoises each raw
    entry's."""
    refs = []
    # Splitting the joined values gives the entries of each value in turn.
    for entry in ";".join(cited).split(";"):
        ref = spellings.get(entry)
        if ref is None:
            if not entry.strip():
                continue
            ref = spellings[entry] = parse_cited_ref(entry)
        refs.append(ref)
    return frozenset(refs) if refs else NO_REFS


def parse_medline_export(stream: Iterable[str]) -> ParseResult:
    """Parse a MEDLINE export (opened text file or iterable of lines)."""
    return _file_records(_medline_blocks(stream), Source.MEDLINE, "PMID", "DP")


def _medline_blocks(stream: Iterable[str]) -> Iterator[_Block]:
    fields: dict[str, list[str]] = {}
    values: Optional[list[str]] = None  # values of the field being continued
    tags: dict[str, str] = {}  # "TI  - " -> "TI", for each tag column seen

    for line_number, raw_line in enumerate(stream, start=1):
        # A tag line, known by its six-column head.
        head = raw_line[:6]
        tag = tags.get(head)
        if tag is None and head[4:] == "- ":
            m = _MEDLINE_TAG_RE.match(head)
            if m and m.group(1) == head[:4].rstrip(" "):  # padded with spaces only
                tag = tags[head] = m.group(1)
        # A newline before the line's end fails the tag pattern's "(.*)$".
        if tag is not None and raw_line.find("\n", 0, -1) < 0:
            values = fields.setdefault(tag, [])
            values.append(raw_line[6:].strip())
            continue
        # Anything else: continuations, blank lines, errors, tags padded otherwise.
        line = raw_line.rstrip("\n").rstrip("\r")
        if not line.strip():
            if fields:
                yield fields, NO_REFS
                fields = {}
            values = None
            continue
        if line[0].isspace():
            if values is None:
                raise MalformedRecord(line_number, "continuation line outside any field")
            values.append(line.strip())
            continue
        m = _MEDLINE_TAG_RE.match(line)
        if m is None:
            raise MalformedRecord(line_number, f"unrecognized line {line!r}")
        values = fields.setdefault(m.group(1), [])
        values.append(m.group(2).strip())

    if fields:
        yield fields, NO_REFS


def _file_records(blocks: Iterable[_Block], source: Source,
                  id_tag: str, year_tag: str) -> ParseResult:
    """The records of one file's field blocks, noting a missing id (given an
    ``anon:`` id numbering the block in its file), title or year in that
    order. ``seen`` holds the distinct records of each id so far, and each
    id-less record under its other fields as well. A record equal to an
    earlier one of its id, or an id-less record equal to an earlier id-less
    one but for the ``anon:`` id, is dropped with its notes; one that
    differs is renamed ``<id>#<n>`` so ids stay unique in the file."""
    records: list[BibRecord] = []
    missing: list[MissingField] = []
    renamed: list[tuple[str, str]] = []
    seen: dict[str | tuple, tuple[BibRecord, ...]] = {}
    number = 0  # of the last block
    for number, (fields, cited_refs) in enumerate(blocks, start=1):
        ident = " ".join(filter(None, fields.get(id_tag, ()))).strip()
        record_id = ident or f"anon:{number}"
        title = " ".join(filter(None, fields.get("TI", ()))).strip()
        year = _parse_year(" ".join(fields.get(year_tag, ())))
        record = BibRecord(record_id, source, title, year, cited_refs)
        same_id = seen.get(record_id, ())
        if (record in same_id) if ident else (record[1:] in seen):
            continue  # a copy, dropped with its notes
        if not ident:  # compared by its other fields, which key it in ``seen`` too
            seen[record[1:]] = (record,)
            missing.append(MissingField(record_id, id_tag))
        if not title:
            missing.append(MissingField(record_id, "TI"))
        if year is None:
            missing.append(MissingField(record_id, year_tag))
        seen[record_id] = same_id = (*same_id, record)
        if len(same_id) > 1:
            new_id = f"{record_id}#{len(same_id)}"
            renamed.append((record_id, new_id))
            record = record._replace(record_id=new_id)
        records.append(record)
    return ParseResult(records, missing, renamed, number - len(records))


def _parse_year(text: str) -> Optional[int]:
    # isdecimal() is exactly the \d of a str pattern; "" is not decimal
    digits = text.strip()[:4]
    return int(digits) if len(digits) == 4 and digits.isdecimal() else None


# ── record linkage ────────────────────────────────────────────────────────────

def normalize_title(title: str) -> str:
    """The words of the case-folded title joined by single spaces. The whole
    title is folded first (``"İ"`` folds to two code points)."""
    return " ".join(title_token_sequence(title.casefold()))


def link_records(
    medline: Iterable[BibRecord], index: Iterable[BibRecord]
) -> Optional[float]:
    """Share of MEDLINE records linked to the citation-index record sharing
    their normalized title and publication year; None when there is no
    MEDLINE record (rendered as ``-`` in reports).

    A record with no year or an empty normalized title (no title, or only
    punctuation) is never a candidate and never matches. Several candidates
    with the same title+year leave the MEDLINE record ambiguous, which
    counts as unmatched; ambiguity is data, not failure.
    """
    def key(record: BibRecord) -> Optional[tuple[str, int]]:
        title = normalize_title(record.title)
        return (title, record.pub_year) if title and record.pub_year is not None else None

    candidates = Counter(filter(None, map(key, index)))
    found = list(map(candidates.get, map(key, medline)))  # candidates per record
    return found.count(1) / len(found) if found else None

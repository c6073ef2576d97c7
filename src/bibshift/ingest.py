"""Parsers for the two export file formats, plus offline record linkage.

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
its missing-field entries (one warning counts the drops), and one that
differs gets the id suffix ``#2``, ``#3``, ... with a warning each. An
id-less record gets the id ``anon:N``, N numbering its block, and is
dropped the same way when it equals an earlier id-less record but for
that id.

Both read a line by its fixed columns first. A citation-index line is a
tag line when its first two characters are a tag (``[A-Z][A-Z0-9]``) and
the third is a space, or nothing but whitespace follows the tag; it is a
continuation line when it starts with three spaces. A MEDLINE line is a tag
line when ``line[:4]`` is a tag padded with spaces and ``line[4:6]`` is
``"- "`` (the tag regex checks each distinct six-column head once per
file); it is a continuation line when it starts with a space. Only a
line of any other shape (a blank line, a tag padded with anything but
spaces, ``TI -x``, a stray line, a tag line holding a newline before its
end) is stripped of its line end and matched against its format's tag
pattern, which gives the same fields and the same errors as matching every
line. The citation-index pattern takes a tag followed by a space and a
value, or a bare tag followed by nothing but whitespace.
"""
from __future__ import annotations

import re
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Optional, Sequence

from .refkey import RefKey, parse_cited_ref
from .records import NO_REFS, BibRecord, Source

_INDEX_TAG_RE = re.compile(r"^([A-Z][A-Z0-9])(?: (.*)|\s*)$")
_MEDLINE_TAG_RE = re.compile(r"^([A-Z0-9]{1,4})\s*- ?(.*)$")
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_INDEX_TAGS = frozenset(a + b for a in _UPPER for b in _UPPER + "0123456789")

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


class ParseResult(SimpleNamespace):
    """What a parser found, filled in as it reads: the records, their
    missing fields, warnings, and the number of records ``dropped`` as
    exact duplicates of an earlier one. Equal when every field is."""

    def __init__(self) -> None:
        super().__init__(records=[], missing=[], warnings=[], dropped=0)


def parse_citation_index_export(stream: Iterable[str]) -> ParseResult:
    """Parse a citation-index export (opened text file or iterable of lines)."""
    result = ParseResult()
    fields: dict[str, list[str]] = {}
    values: Optional[list[str]] = None  # values of the field being continued
    last_field_line = 0
    keys: dict[str, RefKey] = {}  # raw reference string -> parsed key
    seen: dict[str | tuple, tuple[BibRecord, ...]] = {}  # see _finish_record

    for line_number, raw_line in enumerate(stream, start=1):
        # The usual shapes, told apart by their first columns.
        if raw_line[:3] == "   ":
            value = raw_line[3:].strip()
            if not value:
                continue  # blank line
            if values is None:
                raise MalformedRecord(line_number, "continuation line outside any field")
            values.append(value)
            last_field_line = line_number
            continue
        tag, rest = raw_line[:2], raw_line[2:]
        # A newline before the line's end fails the tag pattern's "(.*)$".
        if (tag in _INDEX_TAGS and (rest[:1] == " " or not rest.strip())
                and raw_line.find("\n", 0, -1) < 0):
            value = rest[1:].strip()  # "" for a bare tag
        else:
            # Anything else: blank lines, errors, tags padded otherwise.
            line = raw_line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            m = _INDEX_TAG_RE.match(line)
            if m is None:
                raise MalformedRecord(line_number, f"unrecognized line {line!r}")
            tag = m.group(1)
            value = (m.group(2) or "").strip()
        if tag == END_OF_RECORD:
            if fields:
                _finish_record(fields, result, seen, Source.CITATION_INDEX, "UT", "PY",
                               _cited_refs(fields.get("CR", ()), keys))
                fields = {}
            values = None
            continue
        if tag in _HEADER_TAGS:
            values = None
            continue
        values = fields.setdefault(tag, [])
        values.append(value)
        last_field_line = line_number

    if fields:
        raise MalformedRecord(last_field_line, "record block without end-of-record tag")
    _note_dropped(result)
    return result


def _cited_refs(cited: Sequence[str], keys: dict[str, RefKey]) -> frozenset[RefKey]:
    """The parsed ``CR`` entries; ``keys`` memoises each raw entry's key."""
    refs = []
    # Splitting the joined values gives the entries of each value in turn.
    for entry in ";".join(cited).split(";"):
        key = keys.get(entry)
        if key is None:
            if not entry.strip():
                continue
            key = keys[entry] = parse_cited_ref(entry)
        refs.append(key)
    return frozenset(refs) if refs else NO_REFS


def parse_medline_export(stream: Iterable[str]) -> ParseResult:
    """Parse a MEDLINE export (opened text file or iterable of lines)."""
    result = ParseResult()
    fields: dict[str, list[str]] = {}
    values: Optional[list[str]] = None  # values of the field being continued
    tags: dict[str, str] = {}  # "TI  - " -> "TI", for each tag column seen
    seen: dict[str | tuple, tuple[BibRecord, ...]] = {}  # see _finish_record

    for line_number, raw_line in enumerate(stream, start=1):
        # The usual shapes, told apart by their first columns.
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
        if raw_line[:1] == " ":
            value = raw_line.strip()
            if value:
                if values is None:
                    raise MalformedRecord(line_number,
                                          "continuation line outside any field")
                values.append(value)
                continue
        # Anything else: blank lines, errors, tags padded otherwise.
        line = raw_line.rstrip("\n").rstrip("\r")
        if not line.strip():
            if fields:
                _finish_record(fields, result, seen, Source.MEDLINE, "PMID", "DP")
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
        _finish_record(fields, result, seen, Source.MEDLINE, "PMID", "DP")
    _note_dropped(result)
    return result


def _finish_record(fields: dict[str, list[str]], result: ParseResult,
                   seen: dict[str | tuple, tuple[BibRecord, ...]], source: Source,
                   id_tag: str, year_tag: str,
                   cited_refs: frozenset[RefKey] = NO_REFS) -> None:
    """Append the record of one field block to ``result``, noting a missing
    id (given an ``anon:`` id numbering the block in its file), title or
    year in that order. ``seen`` holds the distinct records of each id so
    far, and each id-less record under its other fields as well. A record
    equal to an earlier one of its id, or an id-less record equal to an
    earlier id-less one but for the ``anon:`` id, is dropped with its notes;
    one that differs is renamed ``<id>#<n>`` so ids stay unique in the file."""
    notes_from = len(result.missing)
    ident = " ".join(filter(None, fields.get(id_tag, ()))).strip()
    record_id = ident or f"anon:{len(result.records) + result.dropped + 1}"
    if not ident:
        result.missing.append(MissingField(record_id, id_tag))

    title = " ".join(filter(None, fields.get("TI", ()))).strip()
    if not title:
        result.missing.append(MissingField(record_id, "TI"))

    year = _parse_year(" ".join(fields.get(year_tag, ())))
    if year is None:
        result.missing.append(MissingField(record_id, year_tag))

    record = BibRecord(record_id, source, title, year, cited_refs)
    same_id = seen.get(record_id)
    if ident:
        copy = same_id is not None and record in same_id
    else:  # compared by its other fields, which key it in ``seen`` too
        copy = record[1:] in seen
        seen[record[1:]] = (record,)
    if copy:
        result.dropped += 1
        del result.missing[notes_from:]
        return
    if same_id is None:
        seen[record_id] = (record,)
    else:
        seen[record_id] = same_id = (*same_id, record)
        new_id = f"{record_id}#{len(same_id)}"
        result.warnings.append(f"duplicate record id {record_id!r} renamed to {new_id!r}")
        record = record._replace(record_id=new_id)
    result.records.append(record)


def _parse_year(text: str) -> Optional[int]:
    # isdecimal() is exactly the \d of a str pattern; "" is not decimal
    digits = text.strip()[:4]
    return int(digits) if len(digits) == 4 and digits.isdecimal() else None


def _note_dropped(result: ParseResult) -> None:
    if result.dropped:
        result.warnings.append(f"dropped {result.dropped} duplicate record(s), each equal "
                               "in every field to an earlier record of its id")


# ── record linkage ────────────────────────────────────────────────────────────

_TITLE_PUNCT_RE = re.compile(r"[\W_]+", re.UNICODE)
# Each ASCII character that is not a letter or digit ([\W_] on ASCII text)
# becomes a space. Letters and digits map to themselves: a full table is
# faster than one that misses.
_ASCII_PUNCT_TO_SPACE = {c: chr(c) if chr(c).isalnum() else " " for c in range(128)}


def normalize_title(title: str) -> str:
    """Case-fold, strip punctuation, collapse whitespace."""
    folded = title.casefold()
    if folded.isascii():
        # Same result as the regex: runs of [\W_] become one space, trimmed.
        return " ".join(folded.translate(_ASCII_PUNCT_TO_SPACE).split())
    return _TITLE_PUNCT_RE.sub(" ", folded).strip()


class LinkageResult(NamedTuple):
    """Outcome of matching MEDLINE records against citation-index records.

    ``coverage`` is matched / total MEDLINE records, or None when there were
    no MEDLINE records to match (rendered as ``-`` in reports).
    """

    matches: dict[str, str]
    ambiguous: dict[str, tuple[str, ...]]
    unmatched: tuple[str, ...]

    @property
    def coverage(self) -> Optional[float]:
        total = len(self.matches) + len(self.ambiguous) + len(self.unmatched)
        if total == 0:
            return None
        return len(self.matches) / total

    def coverage_text(self) -> str:
        cov = self.coverage
        return "-" if cov is None else f"{cov:.4f}"


def link_records(
    medline: Iterable[BibRecord], index: Iterable[BibRecord]
) -> LinkageResult:
    """Link each MEDLINE record to the citation-index record sharing its
    normalized title and publication year.

    A record with no year or an empty normalized title (no title, or only
    punctuation) is never a candidate and never matches. Several candidates
    with the same title+year leave the MEDLINE record ambiguous (reported,
    not matched); ambiguity is data, not failure.
    """
    def key(record: BibRecord) -> Optional[tuple[str, int]]:
        title = normalize_title(record.title)
        return (title, record.pub_year) if title and record.pub_year is not None else None

    candidates: dict[tuple[str, int], list[str]] = {}
    for record in index:
        title_year = key(record)
        if title_year is not None:
            candidates.setdefault(title_year, []).append(record.record_id)

    matches: dict[str, str] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    unmatched: list[str] = []
    for record in medline:
        found = candidates.get(key(record), [])
        if len(found) == 1:
            matches[record.record_id] = found[0]
        elif len(found) > 1:
            ambiguous[record.record_id] = tuple(found)
        else:
            unmatched.append(record.record_id)

    return LinkageResult(
        matches=matches, ambiguous=ambiguous, unmatched=tuple(unmatched)
    )

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
raises MalformedRecord with the offending line number.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .refkey import RefKey, parse_cited_ref
from .records import BibRecord, Source

_INDEX_TAG_RE = re.compile(r"^([A-Z][A-Z0-9]) (.*)$")
_INDEX_BARE_TAG_RE = re.compile(r"^([A-Z][A-Z0-9])\s*$")
_MEDLINE_TAG_RE = re.compile(r"^([A-Z0-9]{1,4})\s*- ?(.*)$")
_LEADING_YEAR_RE = re.compile(r"^(\d{4})")

END_OF_RECORD = "ER"
_HEADER_TAGS = {"FN", "VR", "EF"}


class MalformedRecord(Exception):
    """Structurally invalid input; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class MissingField:
    record_id: str
    field: str


@dataclass
class ParseResult:
    records: list[BibRecord] = field(default_factory=list)
    missing: list[MissingField] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not self.missing and not self.warnings


def parse_citation_index_export(stream: Iterable[str]) -> ParseResult:
    """Parse a citation-index export (opened text file or iterable of lines)."""
    result = ParseResult()
    fields: dict[str, list[str]] = {}
    current_tag: Optional[str] = None
    open_record = False
    last_field_line = 0
    keys: dict[str, RefKey] = {}  # raw reference string -> parsed key

    def flush() -> None:
        nonlocal fields, current_tag, open_record
        if fields:
            _finish_index_record(fields, result, keys)
        fields = {}
        current_tag = None
        open_record = False

    line_number = 0
    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("   "):
            if current_tag is None:
                raise MalformedRecord(line_number, "continuation line outside any field")
            fields[current_tag].append(line[3:].strip())
            last_field_line = line_number
            continue
        m = _INDEX_TAG_RE.match(line) or _INDEX_BARE_TAG_RE.match(line)
        if m is None:
            raise MalformedRecord(line_number, f"unrecognized line {line!r}")
        tag = m.group(1)
        value = m.group(2).strip() if m.lastindex and m.lastindex >= 2 else ""
        if tag == END_OF_RECORD:
            flush()
            continue
        if tag in _HEADER_TAGS:
            current_tag = None
            continue
        fields.setdefault(tag, []).append(value)
        current_tag = tag
        open_record = True
        last_field_line = line_number

    if open_record:
        raise MalformedRecord(last_field_line, "record block without end-of-record tag")
    _ensure_unique_ids(result)
    return result


def _finish_index_record(fields: dict[str, list[str]], result: ParseResult,
                         keys: dict[str, RefKey]) -> None:
    record_id = " ".join(v for v in fields.get("UT", []) if v).strip()
    if not record_id:
        record_id = f"anon:{len(result.records) + 1}"
        result.missing.append(MissingField(record_id, "UT"))

    title = " ".join(v for v in fields.get("TI", []) if v).strip()
    if not title:
        result.missing.append(MissingField(record_id, "TI"))

    year = _parse_year(" ".join(fields.get("PY", [])))
    if year is None:
        result.missing.append(MissingField(record_id, "PY"))

    refs = []
    for value in fields.get("CR", []):
        for entry in value.split(";"):
            if not entry.strip():
                continue
            key = keys.get(entry)
            if key is None:
                key = keys[entry] = parse_cited_ref(entry)
            refs.append(key)
    result.records.append(
        BibRecord(
            record_id=record_id,
            source=Source.CITATION_INDEX,
            title=title,
            pub_year=year,
            cited_refs=frozenset(refs),
        )
    )


def parse_medline_export(stream: Iterable[str]) -> ParseResult:
    """Parse a MEDLINE export (opened text file or iterable of lines)."""
    result = ParseResult()
    fields: dict[str, list[str]] = {}
    current_tag: Optional[str] = None

    def flush() -> None:
        nonlocal fields, current_tag
        if fields:
            _finish_medline_record(fields, result)
        fields = {}
        current_tag = None

    for line_number, raw_line in enumerate(stream, start=1):
        line = raw_line.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line[0].isspace():
            if current_tag is None:
                raise MalformedRecord(line_number, "continuation line outside any field")
            fields[current_tag].append(line.strip())
            continue
        m = _MEDLINE_TAG_RE.match(line)
        if m is None:
            raise MalformedRecord(line_number, f"unrecognized line {line!r}")
        tag, value = m.group(1), m.group(2).strip()
        fields.setdefault(tag, []).append(value)
        current_tag = tag

    flush()
    _ensure_unique_ids(result)
    return result


def _finish_medline_record(fields: dict[str, list[str]], result: ParseResult) -> None:
    record_id = " ".join(v for v in fields.get("PMID", []) if v).strip()
    if not record_id:
        record_id = f"anon:{len(result.records) + 1}"
        result.missing.append(MissingField(record_id, "PMID"))

    title = " ".join(v for v in fields.get("TI", []) if v).strip()
    if not title:
        result.missing.append(MissingField(record_id, "TI"))

    year = _parse_year(" ".join(fields.get("DP", [])))
    if year is None:
        result.missing.append(MissingField(record_id, "DP"))

    result.records.append(
        BibRecord(
            record_id=record_id,
            source=Source.MEDLINE,
            title=title,
            pub_year=year,
            cited_refs=frozenset(),
        )
    )


def _parse_year(text: str) -> Optional[int]:
    m = _LEADING_YEAR_RE.match(text.strip())
    return int(m.group(1)) if m else None


def _ensure_unique_ids(result: ParseResult) -> None:
    """Suffix duplicate record ids so ids stay unique within one file."""
    seen: dict[str, int] = {}
    for i, record in enumerate(result.records):
        count = seen.get(record.record_id, 0)
        seen[record.record_id] = count + 1
        if count:
            new_id = f"{record.record_id}#{count + 1}"
            result.warnings.append(
                f"duplicate record id {record.record_id!r} renamed to {new_id!r}"
            )
            result.records[i] = replace(record, record_id=new_id)


# ── record linkage ────────────────────────────────────────────────────────────

_TITLE_PUNCT_RE = re.compile(r"[\W_]+", re.UNICODE)


def normalize_title(title: str) -> str:
    """Case-fold, strip punctuation, collapse whitespace."""
    return _TITLE_PUNCT_RE.sub(" ", title.casefold()).strip()


@dataclass(frozen=True)
class LinkageResult:
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

    Several candidates with the same title+year leave the MEDLINE record
    ambiguous (reported, not matched); ambiguity is data, not failure.
    """
    candidates: dict[tuple[str, int], list[str]] = {}
    for record in index:
        if record.pub_year is None:
            continue
        key = (normalize_title(record.title), record.pub_year)
        candidates.setdefault(key, []).append(record.record_id)

    matches: dict[str, str] = {}
    ambiguous: dict[str, tuple[str, ...]] = {}
    unmatched: list[str] = []
    for record in medline:
        found = (
            candidates.get((normalize_title(record.title), record.pub_year), [])
            if record.pub_year is not None
            else []
        )
        if len(found) == 1:
            matches[record.record_id] = found[0]
        elif len(found) > 1:
            ambiguous[record.record_id] = tuple(found)
        else:
            unmatched.append(record.record_id)

    return LinkageResult(
        matches=matches, ambiguous=ambiguous, unmatched=tuple(unmatched)
    )

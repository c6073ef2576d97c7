"""Brute-force reference implementations used to check the real ones.

Everything here recomputes from first principles with the most literal
loops possible; no sharing of code with the package under test beyond the
data types.
"""
import math
import re
from fractions import Fraction
from itertools import combinations
from typing import Optional

from bibshift.cocitation import ThresholdPair
from bibshift.ingest import MalformedRecord, MissingField, ParseResult
from bibshift.records import CACHE_HEADER, BibRecord, Source


def brute_citation_counts(records) -> dict:
    counts = {}
    for record in records:
        for ref in record.cited_refs:
            counts[ref] = counts.get(ref, 0) + 1
    return counts


def brute_cocitation_counts(records, candidates) -> dict:
    candidates = set(candidates)
    counts = {}
    for record in records:
        cited = [r for r in record.cited_refs if r in candidates]
        for a, b in combinations(sorted(cited), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def brute_core_refs(records, thresholds: ThresholdPair) -> frozenset:
    """Enumerates every reference pair per paper, then filters literally."""
    cites = brute_citation_counts(records)
    pair_counts = {}
    for record in records:
        for a, b in combinations(sorted(record.cited_refs), 2):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1

    members = set()
    for ref, n in cites.items():
        if n < thresholds.cite_min:
            continue
        for other, m in cites.items():
            if other == ref or m < thresholds.cite_min:
                continue
            pair = (ref, other) if ref <= other else (other, ref)
            if pair_counts.get(pair, 0) >= thresholds.cocite_min:
                members.add(ref)
                break
    return frozenset(members)


def brute_rsi_2dp(value: Fraction) -> str:
    """Two decimals, a remainder of exactly half a hundredth rounding up."""
    hundredths = math.floor(value * 100)
    if value * 100 - hundredths >= Fraction(1, 2):
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def brute_sequence(title: str) -> list:
    """Every case-folded token of a title, in order, stop words kept."""
    tokens = []
    word = []
    for ch in title + " ":
        if ch.isalnum() and ch != "_":
            word.append(ch)
        elif word:
            tokens.append("".join(word).casefold())
            word = []
    return tokens


def brute_tokens(title: str, stop_words: set) -> set:
    """Literal re-statement of the tokenizer rules."""
    tokens = set()
    word = []
    for ch in title + " ":
        if ch.isalnum() and ch != "_":
            word.append(ch)
        elif word:
            token = "".join(word).casefold()
            word = []
            if len(token) >= 2 and not token.isdecimal() and token not in stop_words:
                tokens.add(token)
    return tokens


def brute_doc_freq(records, stop_words: set) -> dict:
    counts = {}
    for record in records:
        for token in brute_tokens(record.title, stop_words):
            counts[token] = counts.get(token, 0) + 1
    return counts


def brute_co_doc_freq(records, stop_words: set) -> dict:
    counts = {}
    for record in records:
        for a, b in combinations(sorted(brute_tokens(record.title, stop_words)), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def brute_new_terms(former, later, stop_words: set,
                    min_percent: float) -> dict:
    """New later-year terms and their percentages, recomputed literally."""
    former_terms = set(brute_doc_freq(former, stop_words))
    out = {}
    for term, df in brute_doc_freq(later, stop_words).items():
        percent = 100.0 * df / len(later)
        if term not in former_terms and percent >= min_percent:
            out[term] = (df, percent)
    return out


def brute_new_coword_pairs(former, later, stop_words: set,
                           min_cosine: float, min_percent: float) -> dict:
    """New later-year co-word pairs passing both floors, recomputed literally."""
    former_pairs = set(brute_co_doc_freq(former, stop_words))
    df = brute_doc_freq(later, stop_words)
    out = {}
    for (a, b), co in brute_co_doc_freq(later, stop_words).items():
        if (a, b) in former_pairs:
            continue
        cosine = co / math.sqrt(df[a] * df[b])
        percent = 100.0 * co / len(later)
        if cosine >= min_cosine and percent >= min_percent:
            out[(a, b)] = (co, cosine, percent)
    return out


def brute_phrase_points(records, years, head: str, stem: str) -> list:
    """(year, doc_freq, percent) per year: records of that year whose title
    holds ``head`` followed at once by a token starting with ``stem``.
    Tokenises every title; no pre-filter."""
    head, stem = head.casefold(), stem.casefold()
    points = []
    for year in years:
        total = hits = 0
        for record in records:
            if record.pub_year != year:
                continue
            total += 1
            seq = brute_sequence(record.title)
            for i in range(len(seq) - 1):
                if seq[i] == head and seq[i + 1].startswith(stem):
                    hits += 1
                    break
        points.append((year, hits, 100.0 * hits / total if total else 0.0))
    return points


# The cited-reference parser as first written: whitespace collapsed, strip
# and upper-case per comma segment, one regex per recognised segment form.
_WS_RE = re.compile(r"\s+")
_YEAR_RE = re.compile(r"^\d{4}$")
_VOLUME_RE = re.compile(r"^V(\d+)$")
_PAGE_RE = re.compile(r"^P(\d+)$")


def _normalize_text(text: str) -> str:
    return _WS_RE.sub(" ", text).strip().upper()


def _int_or_none(digits: str) -> Optional[int]:
    """A digit run ``int()`` refuses (too long) is dropped."""
    try:
        return int(digits)
    except ValueError:
        return None


def brute_ref_fields(raw: str) -> tuple:
    """(author, year, source, volume, first page), None where absent."""
    segments = [_normalize_text(part) for part in raw.split(",")]
    non_empty = [seg for seg in segments if seg]
    if not non_empty:
        return (_normalize_text(raw), None, None, None, None)

    author = segments[0] if segments[0] else non_empty[0]
    year: Optional[int] = None
    source: Optional[str] = None
    volume: Optional[int] = None
    page: Optional[int] = None

    for pos, seg in enumerate(segments[1:], start=1):
        if not seg:
            continue
        m = _VOLUME_RE.match(seg)
        if m:
            if volume is None:
                volume = _int_or_none(m.group(1))
            continue
        m = _PAGE_RE.match(seg)
        if m:
            if page is None:
                page = _int_or_none(m.group(1))
            continue
        if pos == 1 and _YEAR_RE.match(seg):
            year = int(seg)
        elif pos == 2:
            source = seg
        # other positions: unparseable, dropped

    return (author, year, source, volume, page)


def brute_parse_cited_ref(raw: str) -> str:
    """The spelling of ``brute_ref_fields``: each present field, the year in
    four digits and the volume and page after ``V`` and ``P``, joined by
    ", "; a source without a year keeps an empty year segment."""
    author, year, source, volume, page = brute_ref_fields(raw)
    if year is not None:
        year_text = "%04d" % year
    else:
        year_text = None if source is None else ""
    spelled = [author, year_text, source,
               None if volume is None else "V%d" % volume,
               None if page is None else "P%d" % page]
    return ", ".join(text for text in spelled if text is not None)


# The two export parsers as first written: every line stripped of its line
# end, tested for blankness and matched against a regex.
_INDEX_TAG_RE = re.compile(r"^([A-Z][A-Z0-9]) (.*)$")
_INDEX_BARE_TAG_RE = re.compile(r"^([A-Z][A-Z0-9])\s*$")
_MEDLINE_TAG_RE = re.compile(r"^([A-Z0-9]{1,4})\s*- ?(.*)$")
_LEADING_YEAR_RE = re.compile(r"^(\d{4})")


def brute_parse_citation_index_export(stream) -> ParseResult:
    blocks = []
    fields = {}
    current_tag = None
    open_record = False
    last_field_line = 0

    def flush():
        nonlocal fields, current_tag, open_record
        if fields:
            _brute_finish_index_record(fields, blocks)
        fields = {}
        current_tag = None
        open_record = False

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
        if tag == "ER":
            flush()
            continue
        if tag in ("FN", "VR", "EF"):
            current_tag = None
            continue
        fields.setdefault(tag, []).append(value)
        current_tag = tag
        open_record = True
        last_field_line = line_number

    if open_record:
        raise MalformedRecord(last_field_line, "record block without end-of-record tag")
    return _brute_unique_ids(blocks)


def _brute_finish_index_record(fields, blocks) -> None:
    notes = []
    record_id = " ".join(v for v in fields.get("UT", []) if v).strip()
    if not record_id:
        record_id = f"anon:{len(blocks) + 1}"
        notes.append(MissingField(record_id, "UT"))
    title = " ".join(v for v in fields.get("TI", []) if v).strip()
    if not title:
        notes.append(MissingField(record_id, "TI"))
    year = _brute_year(" ".join(fields.get("PY", [])))
    if year is None:
        notes.append(MissingField(record_id, "PY"))
    refs = []
    for value in fields.get("CR", []):
        for entry in value.split(";"):
            if entry.strip():
                refs.append(brute_parse_cited_ref(entry))
    blocks.append((BibRecord(record_id=record_id, source=Source.CITATION_INDEX, title=title,
                             pub_year=year, cited_refs=frozenset(refs)), notes))


def brute_parse_medline_export(stream) -> ParseResult:
    blocks = []
    fields = {}
    current_tag = None

    def flush():
        nonlocal fields, current_tag
        if fields:
            _brute_finish_medline_record(fields, blocks)
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
    return _brute_unique_ids(blocks)


def _brute_finish_medline_record(fields, blocks) -> None:
    notes = []
    record_id = " ".join(v for v in fields.get("PMID", []) if v).strip()
    if not record_id:
        record_id = f"anon:{len(blocks) + 1}"
        notes.append(MissingField(record_id, "PMID"))
    title = " ".join(v for v in fields.get("TI", []) if v).strip()
    if not title:
        notes.append(MissingField(record_id, "TI"))
    year = _brute_year(" ".join(fields.get("DP", [])))
    if year is None:
        notes.append(MissingField(record_id, "DP"))
    blocks.append((BibRecord(record_id=record_id, source=Source.MEDLINE, title=title,
                             pub_year=year, cited_refs=frozenset()), notes))


def _brute_year(text: str) -> Optional[int]:
    m = _LEADING_YEAR_RE.match(text.strip())
    return int(m.group(1)) if m else None


def _brute_unique_ids(blocks) -> ParseResult:
    """The parse result of a file's (record, missing-field notes) blocks: a
    block whose record equals a kept earlier record with the same id, or an
    id-less block (one noted for a missing UT or PMID) whose record equals a
    kept earlier id-less record in every field but the id, is dropped, notes
    and all; a record differing from every earlier one of its id takes the
    suffix #n, n counting the distinct records of that id."""
    records, missing, renamed, dropped = [], [], [], 0
    kept = []  # (record before any renaming, id-less?) of each kept block
    for record, notes in blocks:
        idless = any(note.field in ("UT", "PMID") for note in notes)
        earlier = [r for r, _ in kept if r.record_id == record.record_id]
        if record in earlier or (idless and any(
                other_idless and (r.source, r.title, r.pub_year, r.cited_refs)
                == (record.source, record.title, record.pub_year, record.cited_refs)
                for r, other_idless in kept)):
            dropped += 1
            continue
        kept.append((record, idless))
        missing += notes
        distinct = [r for j, r in enumerate(earlier) if r not in earlier[:j]]
        if distinct:
            new_id = f"{record.record_id}#{len(distinct) + 1}"
            renamed.append((record.record_id, new_id))
            record = record._replace(record_id=new_id)
        records.append(record)
    return ParseResult(records, missing, renamed, dropped)


def brute_link_counts(medline, index) -> tuple[int, int, int]:
    """(matched, ambiguous, unmatched) MEDLINE records: index records with a
    year equal to the MEDLINE record's and the same non-empty title,
    case-folded with every run of non-word characters read as one space."""
    def norm(title: str) -> str:
        return re.sub(r"[\W_]+", " ", title.casefold()).strip()

    counts = [0, 0, 0]
    for m in medline:
        found = [r for r in index if m.pub_year is not None and r.pub_year == m.pub_year
                 and norm(m.title) and norm(r.title) == norm(m.title)]
        counts[0 if len(found) == 1 else 1 if found else 2] += 1
    return tuple(counts)


# The cache reader at its most literal: the whole file split on "\n", every
# cell unescaped one character at a time, every year cell checked, and no
# memo of any kind. CELL_ESCAPES maps each escape code to its character.
CELL_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "p": "|", "#": "#"}


def _brute_unescape(cell: str) -> str:
    out = []
    i = 0
    while i < len(cell):
        if cell[i] != "\\":
            out.append(cell[i])
            i += 1
            continue
        escape = cell[i:i + 2]  # a lone trailing backslash included
        code = escape[1:]
        if code not in CELL_ESCAPES:
            raise ValueError(f"bad escape {escape!r} (a cache escapes only "
                             "backslash, tab, newline, carriage return, | and #)")
        out.append(CELL_ESCAPES[code])
        i += 2
    return "".join(out)


def brute_read_cache(path, refs: bool = True) -> list:
    with open(path, encoding="utf-8", newline="\n") as handle:
        lines = handle.read().split("\n")
    if lines[0] != CACHE_HEADER:
        raise ValueError(f"{path}:1: not a bibshift cache (the first line must be "
                         f"{CACHE_HEADER!r})")
    records = []
    for lineno in range(2, len(lines) + 1):
        line = lines[lineno - 1]
        if lineno == len(lines):  # the text after the last newline
            if line:
                raise ValueError(f"{path}:{lineno}: truncated cache line (a cache file "
                                 "ends with a newline; this one was cut short)")
            break
        if "\r" in line:
            raise ValueError(f"{path}:{lineno}: raw carriage return in a cache line (a "
                             "cache file has LF line ends, not CRLF)")
        if line == "" or line[0] == "#":
            continue
        cells = line.split("\t")
        if len(cells) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 cache columns, got {len(cells)}")
        record_id, source_name, year_text, title, refs_cell = cells
        if source_name not in [source.name for source in Source]:
            raise ValueError(f"{path}:{lineno}: unknown source {source_name!r} (want one "
                             f"of {', '.join(source.name for source in Source)})")
        if not (1 <= len(year_text) <= 4 and all(c in "0123456789" for c in year_text)):
            raise ValueError(f"{path}:{lineno}: year {year_text!r} is not a whole "
                             "number in 0-9999")
        try:
            cited = []
            if refs:
                for part in refs_cell.split("|"):
                    if part:
                        cited.append(brute_parse_cited_ref(_brute_unescape(part)))
            else:
                _brute_unescape(refs_cell)
            record = BibRecord(record_id=_brute_unescape(record_id),
                               source=Source[source_name],
                               title=_brute_unescape(title),
                               pub_year=int(year_text),
                               cited_refs=frozenset(cited))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        records.append(record)
    return records

"""Brute-force reference implementations used to check the real ones.

Everything here recomputes from first principles with the most literal
loops possible; no sharing of code with the package under test beyond the
data types.
"""
import math
import re
from itertools import combinations
from typing import Optional

from bibshift import RefKey, YearSlice
from bibshift.cocitation import ThresholdPair


def brute_citation_counts(sl: YearSlice) -> dict:
    counts = {}
    for record in sl.records:
        for ref in record.cited_refs:
            counts[ref] = counts.get(ref, 0) + 1
    return counts


def brute_cocitation_counts(sl: YearSlice, candidates) -> dict:
    candidates = set(candidates)
    counts = {}
    for record in sl.records:
        cited = [r for r in record.cited_refs if r in candidates]
        for a, b in combinations(sorted(cited, key=lambda k: k.sort_key()), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def brute_core_refs(sl: YearSlice, thresholds: ThresholdPair) -> frozenset:
    """Enumerates every reference pair per paper, then filters literally."""
    cites = brute_citation_counts(sl)
    pair_counts = {}
    for record in sl.records:
        for a, b in combinations(sorted(record.cited_refs, key=lambda k: k.sort_key()), 2):
            pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1

    members = set()
    for ref, n in cites.items():
        if n < thresholds.cite_min:
            continue
        for other, m in cites.items():
            if other == ref or m < thresholds.cite_min:
                continue
            pair = (ref, other) if ref.sort_key() <= other.sort_key() else (other, ref)
            if pair_counts.get(pair, 0) >= thresholds.cocite_min:
                members.add(ref)
                break
    return frozenset(members)


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


def brute_doc_freq(sl: YearSlice, stop_words: set) -> dict:
    counts = {}
    for record in sl.records:
        for token in brute_tokens(record.title, stop_words):
            counts[token] = counts.get(token, 0) + 1
    return counts


def brute_co_doc_freq(sl: YearSlice, stop_words: set) -> dict:
    counts = {}
    for record in sl.records:
        for a, b in combinations(sorted(brute_tokens(record.title, stop_words)), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def brute_new_terms(former: YearSlice, later: YearSlice, stop_words: set,
                    min_percent: float) -> dict:
    """New later-year terms and their percentages, recomputed literally."""
    former_terms = set(brute_doc_freq(former, stop_words))
    out = {}
    for term, df in brute_doc_freq(later, stop_words).items():
        percent = 100.0 * df / len(later.records)
        if term not in former_terms and percent >= min_percent:
            out[term] = (df, percent)
    return out


def brute_new_coword_pairs(former: YearSlice, later: YearSlice, stop_words: set,
                           min_cosine: float, min_percent: float) -> dict:
    """New later-year co-word pairs passing both floors, recomputed literally."""
    former_pairs = set(brute_co_doc_freq(former, stop_words))
    df = brute_doc_freq(later, stop_words)
    out = {}
    for (a, b), co in brute_co_doc_freq(later, stop_words).items():
        if (a, b) in former_pairs:
            continue
        cosine = co / math.sqrt(df[a] * df[b])
        percent = 100.0 * co / len(later.records)
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


def brute_parse_cited_ref(raw: str) -> RefKey:
    segments = [_normalize_text(part) for part in raw.split(",")]
    non_empty = [seg for seg in segments if seg]
    if not non_empty:
        return RefKey(author=_normalize_text(raw), raw=raw)

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
                volume = int(m.group(1))
            continue
        m = _PAGE_RE.match(seg)
        if m:
            if page is None:
                page = int(m.group(1))
            continue
        if pos == 1 and _YEAR_RE.match(seg):
            year = int(seg)
        elif pos == 2:
            source = seg
        # other positions: unparseable, kept only in raw

    return RefKey(
        author=author,
        year=year,
        source_abbrev=source,
        volume=volume,
        first_page=page,
        raw=raw,
    )

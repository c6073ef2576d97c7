"""Title-word analysis: new-word detection by document frequency, new
co-word pairs scored by cosine, and stem-anchored phrase trends.

``title_token_sequence`` holds the package's one word rule, for these
analyses and for ``ingest``'s record linkage alike: a title's words are its
runs of letters and digits (``str.isalnum``; ``_`` and all else split), each
case-folded on its own. ``tokenize_title`` drops pure-digit and
single-character words plus stop words; a stop-word list is the
``frozenset`` of its case-folded words. Counting is binary per record: a
title contributes at most 1 to a term's document frequency no matter how
often it repeats the word. Percent values use the number of the year's
records as denominator, including records whose titles tokenize to nothing.
``new_terms`` and ``new_coword_pairs`` take the former and the later year's
records; ``phrase_trend`` takes a corpus (one source's part, say) and walks
its years in order.

Phrase trends deliberately use the raw ordered token sequence (stop words
kept) so that adjacency is judged on the title as written.

Each query tokenises each title it is given at most once.
``new_coword_pairs`` counts pairs, in both years, only among the later
terms whose own share reaches ``min_percent``: a pair's share never exceeds
either member's, so no pair holding another term can pass the floor, and
former pairs outside that vocabulary can mark no later pair as not new.
``phrase_trend`` tokenises only titles whose case-folded text contains the
case-folded head. That filter drops no match because ``str.casefold`` maps
each code point on its own, so the case fold of any token is a substring of
the case fold of its title. The reverse does not hold (``"İ".casefold()``
is two code points, one of them a combining mark), so the analyses never
case-fold a title before tokenising it; linkage does (``ingest.normalize_title``).
"""
from __future__ import annotations

import math
import re
from collections import Counter
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple, Sequence

from .records import BibRecord, Corpus

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII, [^\W_] is [A-Za-z0-9] and casefold is lower; all else becomes a
# space. Letters and digits map to themselves: a full table outruns a sparse one.
_ASCII_PUNCT_TO_SPACE = {c: chr(c) if chr(c).isalnum() else " " for c in range(128)}


class TermStats(NamedTuple):
    term: str
    doc_freq: int
    percent: float


class CoWordPair(NamedTuple):
    term_a: str  # lexicographically first member
    term_b: str
    co_doc_freq: int
    cosine: float
    percent: float  # later-year pair document frequency share


class PhrasePoint(NamedTuple):
    year: int
    doc_freq: int
    percent: float


def parse_stopwords(lines) -> frozenset[str]:
    words = set()
    for line in lines:
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        words.add(token.casefold())
    return frozenset(words)


def load_stopwords(path) -> frozenset[str]:
    # utf-8-sig drops the byte-order mark that starts some saved lists.
    with open(path, encoding="utf-8-sig") as fh:
        return parse_stopwords(fh)


def default_stopwords() -> frozenset[str]:
    with open(Path(__file__).parent / "data" / "stopwords_en.txt", encoding="utf-8") as fh:
        return parse_stopwords(fh)


def title_token_sequence(title: str) -> tuple[str, ...]:
    """Ordered case-folded ``_TOKEN_RE`` runs, unfiltered; adjacency-faithful."""
    if title.isascii():
        return tuple(title.lower().translate(_ASCII_PUNCT_TO_SPACE).split())
    return tuple(map(str.casefold, _TOKEN_RE.findall(title)))


def tokenize_title(title: str, stop: frozenset[str]) -> frozenset[str]:
    """Distinct analysis tokens of one title."""
    # casefold is idempotent, so folded tokens go to stop directly;
    # isdecimal() is exactly a full match of \d+ (isdigit() also takes "²").
    return frozenset(
        token for token in title_token_sequence(title)
        if len(token) > 1 and not token.isdecimal() and token not in stop
    )


def _term_pairs(token_sets):
    """Every term pair of every set, lexicographically ordered in the pair."""
    return chain.from_iterable(combinations(sorted(tokens), 2) for tokens in token_sets)


def new_terms(
    former: Sequence[BibRecord], later: Sequence[BibRecord], stop: frozenset[str],
    min_percent: float,
) -> list[TermStats]:
    """Terms of the later year's records absent from the former year's, at
    or above ``min_percent`` of the later records; most frequent first (ties
    alphabetical)."""
    if not min_percent >= 0:
        raise ValueError(f"min_percent must be >= 0, got {min_percent}")
    total = len(later)
    df = Counter(chain.from_iterable(
        tokenize_title(record.title, stop) for record in later))
    former_terms = set(chain.from_iterable(
        tokenize_title(record.title, stop) for record in former))
    stats = []
    for term, n in df.items():
        percent = 100.0 * n / total
        if percent >= min_percent and term not in former_terms:
            stats.append(TermStats(term=term, doc_freq=n, percent=percent))
    stats.sort(key=lambda s: (-s.doc_freq, s.term))
    return stats


def new_coword_pairs(
    former: Sequence[BibRecord],
    later: Sequence[BibRecord],
    stop: frozenset[str],
    min_cosine: float,
    min_percent: float,
) -> list[CoWordPair]:
    """Later-year pairs never co-occurring in the former year (members may
    individually exist earlier), meeting both thresholds; most frequent
    first. Percent is the later-year pair document frequency share."""
    if not min_percent >= 0:
        raise ValueError(f"min_percent must be >= 0, got {min_percent}")
    if not 0 <= min_cosine <= 1:
        raise ValueError(f"min_cosine must be in [0, 1], got {min_cosine}")
    total = len(later)
    later_sets = [tokenize_title(record.title, stop) for record in later]
    df = Counter(chain.from_iterable(later_sets))
    # A pair's co_doc_freq is at most either member's df, and the percent is
    # monotone in it: a pair holding a term outside keep cannot pass.
    keep = frozenset(t for t, n in df.items() if 100.0 * n / total >= min_percent)
    later_sets = [tokens & keep for tokens in later_sets]
    former_sets = (tokenize_title(record.title, stop) & keep for record in former)
    former_pairs = set(_term_pairs(former_sets))
    pairs = []
    for (a, b), n in Counter(_term_pairs(later_sets)).items():
        if (a, b) in former_pairs:
            continue
        cosine = n / math.sqrt(df[a] * df[b])
        percent = 100.0 * n / total
        if cosine >= min_cosine and percent >= min_percent:
            pairs.append(CoWordPair(term_a=a, term_b=b, co_doc_freq=n,
                                    cosine=cosine, percent=percent))
    pairs.sort(key=lambda p: (-p.co_doc_freq, p.term_a, p.term_b))
    return pairs


def _phrase_point(year: int, hits: int, total: int) -> PhrasePoint:
    return PhrasePoint(year=year, doc_freq=hits,
                       percent=100.0 * hits / total if total else 0.0)


def phrase_trend(corpus: Corpus, head: str, stem_prefix: str) -> list[PhrasePoint]:
    """Per-year share of records whose title contains ``head`` immediately
    followed by a token starting with ``stem_prefix``."""
    if not head or not stem_prefix:
        raise ValueError("head and stem_prefix must be non-empty")
    head = head.casefold()
    stem_prefix = stem_prefix.casefold()
    points = []
    for year, records in corpus.items():
        hits = 0
        for record in records:
            if head not in record.title.casefold():
                continue
            seq = title_token_sequence(record.title)
            if any(
                seq[i] == head and seq[i + 1].startswith(stem_prefix)
                for i in range(len(seq) - 1)
            ):
                hits += 1
        points.append(_phrase_point(year, hits, len(records)))
    return points


def sum_phrase_trends(corpus: Corpus, trends) -> list[PhrasePoint]:
    """The trend over the whole corpus from ``phrase_trend`` results for
    disjoint parts of it (e.g. one per source) that together cover it."""
    trends = list(trends)
    return [
        _phrase_point(year, sum(trend[i].doc_freq for trend in trends), len(records))
        for i, (year, records) in enumerate(corpus.items())
    ]

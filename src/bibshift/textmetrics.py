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
records and key each ``DocShare`` by term, each ``CoWordPair`` by term pair
``(a, b)``, ``a < b``; ``phrase_trend`` takes a corpus (one source's part,
say) and keys a ``DocShare`` by each of its years, in order.

Phrase trends deliberately use the raw ordered token sequence (stop words
kept) so that adjacency is judged on the title as written.

Each query tokenises each title it is given at most once. Former titles
are split into words (``title_token_sequence``) but never filtered: the
filter judges each word alone, and only later analysis terms are looked up
among the former words, so a dropped word there can match none of them.
``new_coword_pairs`` counts pairs, in both years, only among the later
terms whose own share reaches ``min_percent``: a pair's share never exceeds
either member's, so no pair holding another term can pass the floor, and
former pairs outside that vocabulary can mark no later pair as not new.
It counts them by enumerating each title's term pairs or, when the kept
terms have fewer pairs than the later titles do, by one AND of per-term
title bitsets per pair; both give the same pairs and counts.
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
# On ASCII, [^\W_] is [A-Za-z0-9] and casefold is lower: this byte table
# lower-cases A-Z, keeps a-z and 0-9, and makes every other byte a space.
_ASCII_WORD_BYTES = bytes(ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else 32
                          for c in range(256))


class DocShare(NamedTuple):
    doc_freq: int
    percent: float  # share of the year's records


class CoWordPair(NamedTuple):
    co_doc_freq: int
    cosine: float
    percent: float  # later-year pair document frequency share


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
        return tuple(title.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split())
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


def _title_masks(token_sets, terms) -> dict[str, int]:
    """Per term, an int whose bit ``i`` is set when set ``i`` holds it."""
    token_sets = list(token_sets)
    # Setting bits in bytes keeps each step small; an int would be rebuilt.
    rows = {term: bytearray(len(token_sets) // 8 + 1) for term in terms}
    for i, tokens in enumerate(token_sets):
        for term in tokens:
            rows[term][i >> 3] |= 1 << (i & 7)
    return {term: int.from_bytes(row, "little") for term, row in rows.items()}


def _new_pair_counts(former_sets, later_sets, terms):
    """``((a, b), n)`` for each pair of the sorted ``terms`` that shares
    ``n > 0`` later sets and no former set, by one AND of title masks."""
    former = _title_masks(former_sets, terms)
    later = _title_masks(later_sets, terms)
    for i, a in enumerate(terms):
        later_a, former_a = later[a], former[a]
        for b in terms[i + 1:]:
            n = (later_a & later[b]).bit_count()
            if n and not former_a & former[b]:
                yield (a, b), n


def _percent(n: int, total: int) -> float:
    return 100.0 * n / total if total else 0.0


def new_terms(
    former: Sequence[BibRecord], later: Sequence[BibRecord], stop: frozenset[str],
    min_percent: float,
) -> dict[str, DocShare]:
    """Terms of the later year's records absent from the former year's, at
    or above ``min_percent`` of the later records; most frequent first (ties
    alphabetical)."""
    if not min_percent >= 0:
        raise ValueError(f"min_percent must be >= 0, got {min_percent}")
    total = len(later)
    df = Counter(chain.from_iterable(
        tokenize_title(record.title, stop) for record in later))
    former_terms = set(chain.from_iterable(
        title_token_sequence(record.title) for record in former))
    fresh = [(term, n) for term, n in df.items()
             if _percent(n, total) >= min_percent and term not in former_terms]
    fresh.sort(key=lambda item: (-item[1], item[0]))
    return {term: DocShare(n, _percent(n, total)) for term, n in fresh}


def new_coword_pairs(
    former: Sequence[BibRecord],
    later: Sequence[BibRecord],
    stop: frozenset[str],
    min_cosine: float,
    min_percent: float,
) -> dict[tuple[str, str], CoWordPair]:
    """Later-year pairs ``(a, b)``, ``a < b``, never co-occurring in the former
    year (members may individually exist earlier), meeting both thresholds;
    most frequent first. Percent is the later-year pair document frequency share."""
    if not min_percent >= 0:
        raise ValueError(f"min_percent must be >= 0, got {min_percent}")
    if not 0 <= min_cosine <= 1:
        raise ValueError(f"min_cosine must be in [0, 1], got {min_cosine}")
    total = len(later)
    later_sets = [tokenize_title(record.title, stop) for record in later]
    df = Counter(chain.from_iterable(later_sets))
    # A pair's co_doc_freq is at most either member's df, and the percent is
    # monotone in it: a pair holding a term outside keep cannot pass.
    keep = frozenset(t for t, n in df.items() if _percent(n, total) >= min_percent)
    later_sets = [tokens & keep for tokens in later_sets]
    former_sets = (keep.intersection(title_token_sequence(record.title))
                   for record in former)
    # Masks cost one AND per pair of keep terms; enumeration one count per
    # term pair of each later title. Take whichever does fewer.
    if math.comb(len(keep), 2) < sum(math.comb(len(tokens), 2) for tokens in later_sets):
        counts = _new_pair_counts(former_sets, later_sets, sorted(keep))
    else:
        former_pairs = set(_term_pairs(former_sets))
        # A generator: a list of every pair would set off cyclic GC passes.
        counts = ((pair, n) for pair, n in Counter(_term_pairs(later_sets)).items()
                  if pair not in former_pairs)
    pairs = []
    for (a, b), n in counts:
        cosine = n / math.sqrt(df[a] * df[b])
        percent = _percent(n, total)
        if cosine >= min_cosine and percent >= min_percent:
            pairs.append(((a, b), CoWordPair(n, cosine, percent)))
    pairs.sort(key=lambda item: (-item[1].co_doc_freq, item[0]))
    return dict(pairs)


def phrase_trend(corpus: Corpus, head: str, stem_prefix: str) -> dict[int, DocShare]:
    """Per-year share of records whose title contains ``head`` immediately
    followed by a token starting with ``stem_prefix``, for each corpus year."""
    if not head or not stem_prefix:
        raise ValueError("head and stem_prefix must be non-empty")
    head = head.casefold()
    stem_prefix = stem_prefix.casefold()
    trend = {}
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
        trend[year] = DocShare(hits, _percent(hits, len(records)))
    return trend


def sum_phrase_trends(corpus: Corpus, trends) -> dict[int, DocShare]:
    """The trend over the whole corpus from ``phrase_trend`` results for
    disjoint parts of it (e.g. one per source) that together cover it."""
    hits = Counter()
    for trend in trends:
        hits.update({year: share.doc_freq for year, share in trend.items()})
    return {year: DocShare(hits[year], _percent(hits[year], len(records)))
            for year, records in corpus.items()}

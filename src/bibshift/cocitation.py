"""Per-year citation counts, co-citation counts, and core-reference sets.

Counting is per citing paper: a paper contributes at most 1 to a
reference's citation count and at most 1 to any pair's co-citation count,
however often the raw record repeated the string. A reference is *core*
for a year under a threshold pair when its citation count reaches
``cite_min`` and it is co-cited at least ``cocite_min`` times with some
other reference that itself reaches ``cite_min``.

A core set is the ``frozenset`` of its members' spellings (see
``refkey``): ``core_sets`` keys them by threshold pair and then by year,
running ``core_references`` once per year on rows that are each citing
paper's set of cited references.

A year's candidates are the references that reach the lowest
``cite_min``. ``core_references`` finds their cores in one of two ways,
picked for each year from the row count and the candidates' citation
counts, before either starts (``_masks_cheaper``); both give the same cores.

* Row masks: each candidate gets an int whose bits are the rows citing
  it. Under each threshold pair a candidate not yet core scans the
  others, highest count first, and stops at its first partner: the first
  whose mask shares ``cocite_min`` bits with its own. Both are then core.
  At worst, when no candidate has a partner, this ANDs each pair of
  candidates once per threshold pair, at a word per 64 rows.
* Pair counts: ``cocitation_counts`` maps each row to its candidates'
  sorted positions with one dict lookup per citation and counts every
  row's position pairs in one ``Counter``; each threshold pair then keeps
  the pairs that reach it. This costs a count per pair of candidates in
  each row.

A year takes masks when their worst case is expected to cost less than
the pair counts: a year of a thousand rows with a dense canon takes masks,
and a tall year of short rows, whose candidates seldom share rows, takes
pairs.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from math import comb
from typing import Hashable, Iterable, NamedTuple, Sequence

from .records import Corpus

# The costs in ``_masks_cheaper``, in 64-bit mask words: the fixed cost of
# one mask AND, and the cost of counting one pair of candidates in a row.
# Both were fitted with four threshold pairs, on years from 200 to 50,000
# rows; the second is set low, since a wrong pick of masks costs the most.
_SCAN_WORDS = 18
_PAIR_WORDS = 30


class _Thresholds(NamedTuple):
    cite_min: int
    cocite_min: int


class ThresholdPair(_Thresholds):
    """Citation / co-citation thresholds, written ``cite/cocite`` (e.g. 15/11).

    A ``cocite_min`` above ``cite_min`` is allowed: a pair count can never
    exceed either member's citation count, so such a pair behaves like
    ``cocite_min == cite_min``. The CLI warns about it."""

    __slots__ = ()

    def __new__(cls, cite_min: int, cocite_min: int) -> ThresholdPair:
        if cite_min < 1 or cocite_min < 1:
            raise ValueError(f"thresholds must be >= 1, got {cite_min}/{cocite_min}")
        return tuple.__new__(cls, (cite_min, cocite_min))

    def __str__(self) -> str:
        return f"{self.cite_min}/{self.cocite_min}"

    @classmethod
    def parse(cls, text: str) -> ThresholdPair:
        cite, _, cocite = text.partition("/")
        try:
            cite_min, cocite_min = int(cite), int(cocite)
        except ValueError as exc:
            raise ValueError(f"cannot parse threshold pair {text!r} (want N/M)") from exc
        return cls(cite_min=cite_min, cocite_min=cocite_min)


def citation_counts(rows: Iterable[Iterable[Hashable]]) -> Counter:
    """Number of rows holding each item."""
    return Counter(chain.from_iterable(rows))


def cocitation_counts(rows: Iterable[Iterable[Hashable]],
                      ordered: Sequence[Hashable]) -> Counter[tuple[int, int]]:
    """For each pair of ``ordered`` items, the number of rows holding both,
    keyed by the items' positions in ``ordered``, lower first. Rows are
    sets: an item repeated within a row is counted once per copy."""
    position = {item: p for p, item in enumerate(ordered)}.get
    # Sorted positions of each row holding two or more items, each kept as
    # a tuple: the garbage collector stops tracking a tuple of ints, where
    # it would walk every kept list again on each full collection.
    held_rows = []
    for row in rows:
        held = [p for p in map(position, row) if p is not None]
        if len(held) > 1:
            held.sort()
            held_rows.append(tuple(held))
    return Counter(chain.from_iterable(map(combinations, held_rows, repeat(2))))


def _candidates(rows: Sequence[Iterable[str]],
                thresholds: Sequence[ThresholdPair]) -> tuple[list[str], list[int]]:
    """The references of ``rows`` that reach the lowest ``cite_min``, highest
    citation count first, and their counts in the same order."""
    cites = citation_counts(rows)
    floor = min(t.cite_min for t in thresholds)
    ordered = sorted((ref for ref, n in cites.items() if n >= floor),
                     key=cites.__getitem__, reverse=True)
    return ordered, [cites[ref] for ref in ordered]


def _masks_cheaper(n_rows: int, counts: Sequence[int]) -> bool:
    """Whether row masks should find a year's cores faster than pair counts,
    judged from its row count and its candidates' citation counts alone. The mask scan ANDs,
    at worst, each pair of candidates once per threshold pair, at a fixed
    cost plus one word per 64 rows. Pair counting adds one count per pair
    of candidates in each row; with the mean number per row, ``held``, that
    is at least ``n_rows * comb(held, 2)``."""
    if not counts:
        return False
    held = sum(counts) / n_rows
    return (comb(len(counts), 2) * (_SCAN_WORDS + n_rows / 64)
            < _PAIR_WORDS * n_rows * held * (held - 1) / 2)


def _pair_cores(rows: Sequence[Iterable[str]], ordered: Sequence[str], counts: Sequence[int],
                thresholds: Sequence[ThresholdPair]) -> list[frozenset[str]]:
    """Each threshold pair's core among the candidates ``ordered``, whose
    citation counts are ``counts``: every pair of them is counted once, and
    each threshold pair keeps the pairs whose count reaches its
    ``cocite_min`` and whose members both reach its ``cite_min``."""
    pairs = cocitation_counts(rows, ordered)
    cores = []
    for cite_min, cocite_min in thresholds:
        positions = set(chain.from_iterable(
            pair for pair, n in pairs.items()
            if n >= cocite_min and counts[pair[0]] >= cite_min and counts[pair[1]] >= cite_min
        ))
        cores.append(frozenset(ordered[p] for p in positions))
    return cores


def _row_masks(rows: Sequence[Iterable[str]], refs: Sequence[str]) -> list[int]:
    """Per item of ``refs``, in order, an int whose bit ``i`` is set when
    row ``i`` holds it."""
    # Setting bits in bytes keeps each step small; an int would be rebuilt.
    masks = {ref: bytearray(len(rows) // 8 + 1) for ref in refs}
    get = masks.get
    for i, row in enumerate(rows):
        byte, bit = i >> 3, 1 << (i & 7)
        for ref in row:
            mask = get(ref)
            if mask is not None:
                mask[byte] |= bit
    return [int.from_bytes(mask, "little") for mask in masks.values()]


def _mask_cores(rows: Sequence[Iterable[str]], ordered: Sequence[str], counts: Sequence[int],
                thresholds: Sequence[ThresholdPair]) -> list[frozenset[str]]:
    """Each threshold pair's core among the candidates ``ordered``, highest
    citation count (``counts``) first, from one row mask per candidate:
    a candidate's scan stops at its first partner, and a pair's count is
    the number of bits its masks share."""
    masks = _row_masks(rows, ordered)
    cores = []
    for cite_min, cocite_min in thresholds:
        # A pair count never exceeds either member's citation count.
        floor = max(cite_min, cocite_min)
        eligible = range(sum(1 for n in counts if n >= floor))
        # A scanned candidate that found no partner is no one's partner, so
        # it leaves the scan; the others keep their order.
        live = list(eligible)
        core = set()
        for a in eligible:
            if a in core:
                continue
            mask = masks[a]
            for b in live:
                if b != a and (mask & masks[b]).bit_count() >= cocite_min:
                    core.update((a, b))
                    break
            else:
                live.remove(a)
        cores.append(frozenset(ordered[p] for p in core))
    return cores


def core_references(rows: Sequence[Iterable[str]],
                    thresholds: Sequence[ThresholdPair]) -> list[frozenset[str]]:
    """One core set per threshold pair, in the given order, from one year's
    rows, each the cited references of one citing paper. The candidates are
    the references that reach the lowest ``cite_min``; the year's cores come
    from their row masks or from their pair counts, whichever
    ``_masks_cheaper`` expects to be faster. An empty core is a legitimate
    outcome for sparse years.
    """
    ordered, counts = _candidates(rows, thresholds)
    find_cores = _mask_cores if _masks_cheaper(len(rows), counts) else _pair_cores
    return find_cores(rows, ordered, counts, thresholds)


def core_sets(
    corpus: Corpus, thresholds: Sequence[ThresholdPair]
) -> dict[ThresholdPair, dict[int, frozenset[str]]]:
    """The core set of every corpus year, in year order, under each distinct
    threshold pair. Each year is counted once for all the pairs."""
    unique = list(dict.fromkeys(thresholds))
    by_threshold: dict[ThresholdPair, dict[int, frozenset[str]]] = {t: {} for t in unique}
    for year, records in corpus.items():
        rows = [record.cited_refs for record in records if record.cited_refs]
        for t, members in zip(unique, core_references(rows, unique)):
            by_threshold[t][year] = members
    return by_threshold


def distinct_ref_count(corpus: Corpus) -> tuple[dict[int, int], int]:
    """The number of distinct references cited in each year of the corpus,
    and in the whole corpus: one walk of the records' references builds each
    year's set, and the total is the size of their union."""
    by_year: dict[int, set[str]] = {}
    for year, records in corpus.items():
        refs = by_year[year] = set()
        for record in records:
            # Merging a frozenset reuses its stored hashes.
            refs.update(record.cited_refs)
    return ({year: len(refs) for year, refs in by_year.items()},
            len(set().union(*by_year.values())))

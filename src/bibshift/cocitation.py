"""Per-year citation counts, co-citation counts, and core-reference sets.

Counting is per citing paper: a paper contributes at most 1 to a
reference's citation count and at most 1 to any pair's co-citation count,
however often the raw record repeated the string. A reference is *core*
for a year under a threshold pair when its citation count reaches
``cite_min`` and it is co-cited at least ``cocite_min`` times with some
other reference that itself reaches ``cite_min``.

Core sets are counted on ints: each distinct reference of the corpus gets
an id once, in one pass over the records that cite anything, and citation
and co-citation counts run on those ids. Only each year's candidates are
ordered by ``RefKey.sort_key``, and ``RefKey`` sets are built only for the
result.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Iterable, Sequence

from .refkey import RefKey
from .records import Corpus, YearSlice

RefPair = tuple[RefKey, RefKey]


@dataclass(frozen=True)
class ThresholdPair:
    """Citation / co-citation thresholds, written ``cite/cocite`` (e.g. 15/11)."""

    cite_min: int
    cocite_min: int

    def __post_init__(self):
        if self.cite_min < 1 or self.cocite_min < 1:
            raise ValueError(f"thresholds must be >= 1, got {self}")
        if self.cocite_min > self.cite_min:
            # A pair count can never exceed either member's citation count,
            # so such a pair behaves like cocite_min == cite_min.
            warnings.warn(
                f"cocite_min {self.cocite_min} exceeds cite_min {self.cite_min}; "
                "the co-citation threshold can never bind above the citation count",
                stacklevel=2,
            )

    def __str__(self) -> str:
        return f"{self.cite_min}/{self.cocite_min}"

    @classmethod
    def parse(cls, text: str) -> "ThresholdPair":
        cite, _, cocite = text.partition("/")
        try:
            return cls(cite_min=int(cite), cocite_min=int(cocite))
        except ValueError as exc:
            raise ValueError(f"cannot parse threshold pair {text!r} (want N/M)") from exc


@dataclass(frozen=True)
class CoreRefSet:
    year: int
    thresholds: ThresholdPair
    members: frozenset[RefKey]

    def __len__(self) -> int:
        return len(self.members)


def citation_counts(sl: YearSlice) -> dict[RefKey, int]:
    """Number of distinct papers in the slice citing each reference."""
    counts: Counter[RefKey] = Counter()
    for record in sl.records:
        counts.update(record.cited_refs)
    return dict(counts)


def pair_key(a: RefKey, b: RefKey) -> RefPair:
    """Canonical unordered-pair key: members in ``RefKey.sort_key`` order."""
    return (a, b) if a.sort_key() <= b.sort_key() else (b, a)


def cocitation_counts(
    sl: YearSlice, candidates: Iterable[RefKey]
) -> dict[RefPair, int]:
    """Number of papers citing both members, for pairs drawn from
    ``candidates``. Pairs never cited together are omitted."""
    ordered = sorted(set(candidates), key=RefKey.sort_key)
    counts = _pair_counts((record.cited_refs for record in sl.records), ordered)
    return {(ordered[a], ordered[b]): n for (a, b), n in counts.items()}


def _pair_counts(rows: Iterable[Iterable[Hashable]],
                 ordered: Sequence[Hashable]) -> Counter[tuple[int, int]]:
    """For each pair of ``ordered`` items, the number of rows holding both,
    keyed by the items' positions in ``ordered``, lower first. With
    ``ordered`` in sort-key order that is the canonical order of pair_key."""
    position = {item: p for p, item in enumerate(ordered)}
    counts: Counter[tuple[int, int]] = Counter()
    for row in rows:
        held = sorted([position[item] for item in row if item in position])
        counts.update(combinations(held, 2))
    return counts


def core_sets(
    corpus: Corpus, thresholds: Sequence[ThresholdPair]
) -> dict[ThresholdPair, list[CoreRefSet]]:
    """Core sets of every corpus year, in year order, under each threshold
    pair. Each year is counted once for all the pairs."""
    unique = list(dict.fromkeys(thresholds))
    by_threshold: dict[ThresholdPair, list[CoreRefSet]] = {t: [] for t in unique}
    years = corpus.years()
    keys, rows_by_year = _ref_ids(corpus.slice(year) for year in years)
    for year, rows in zip(years, rows_by_year):
        for core in _year_cores(year, rows, keys, unique):
            by_threshold[core.thresholds].append(core)
    return by_threshold


def core_references(sl: YearSlice, thresholds: ThresholdPair) -> CoreRefSet:
    """Core references of one year slice under one threshold pair.

    An empty result is a legitimate outcome for sparse years.
    """
    keys, (rows,) = _ref_ids([sl])
    return _year_cores(sl.year, rows, keys, [thresholds])[0]


def _ref_ids(slices: Iterable[YearSlice]) -> tuple[list[RefKey], list[list[list[int]]]]:
    """Give each distinct reference of the slices an int id: the keys in id
    order, and per slice the ids cited by each record that cites anything."""
    ids: dict[RefKey, int] = {}
    rows = [
        [[ids.setdefault(ref, len(ids)) for ref in record.cited_refs]
         for record in sl.records if record.cited_refs]
        for sl in slices
    ]
    return list(ids), rows


def _year_cores(year: int, rows: list[list[int]], keys: Sequence[RefKey],
                thresholds: Sequence[ThresholdPair]) -> list[CoreRefSet]:
    """One core set per threshold pair from a single count of one year's
    id rows.

    Pairs are counted among the references that reach the lowest
    ``cite_min``; each threshold pair then keeps the pairs whose count
    reaches its ``cocite_min`` and whose members both reach its ``cite_min``.
    """
    cites = Counter(chain.from_iterable(rows))
    floor = min(t.cite_min for t in thresholds)
    ordered = sorted((i for i, n in cites.items() if n >= floor),
                     key=lambda i: keys[i].sort_key())
    pairs = _pair_counts(rows, ordered)
    counts = [cites[i] for i in ordered]  # citation count by position
    cores = []
    for t in thresholds:
        cite_min, cocite_min = t.cite_min, t.cocite_min
        positions = set(chain.from_iterable(
            pair for pair, n in pairs.items()
            if n >= cocite_min and counts[pair[0]] >= cite_min and counts[pair[1]] >= cite_min
        ))
        members = frozenset(keys[ordered[p]] for p in positions)
        cores.append(CoreRefSet(year=year, thresholds=t, members=members))
    return cores


def distinct_ref_count(sl: YearSlice) -> int:
    refs: set[RefKey] = set()
    for record in sl.records:
        refs.update(record.cited_refs)
    return len(refs)


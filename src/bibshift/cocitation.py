"""Per-year citation counts, co-citation counts, and core-reference sets.

Counting is per citing paper: a paper contributes at most 1 to a
reference's citation count and at most 1 to any pair's co-citation count,
however often the raw record repeated the string. A reference is *core*
for a year under a threshold pair when its citation count reaches
``cite_min`` and it is co-cited at least ``cocite_min`` times with some
other reference that itself reaches ``cite_min``.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

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
    # Count on int ids numbered in sort-key order: a sorted id pair is
    # already the canonical pair order of pair_key.
    ordered = sorted(set(candidates), key=RefKey.sort_key)
    ids = {ref: i for i, ref in enumerate(ordered)}
    counts: Counter[tuple[int, int]] = Counter()
    for record in sl.records:
        cited = sorted(i for i in map(ids.get, record.cited_refs) if i is not None)
        counts.update(combinations(cited, 2))
    return {(ordered[a], ordered[b]): n for (a, b), n in counts.items()}


def core_sets(
    corpus: Corpus, thresholds: Sequence[ThresholdPair]
) -> dict[ThresholdPair, list[CoreRefSet]]:
    """Core sets of every corpus year, in year order, under each threshold
    pair. Each year is counted once for all the pairs."""
    unique = list(dict.fromkeys(thresholds))
    by_threshold: dict[ThresholdPair, list[CoreRefSet]] = {t: [] for t in unique}
    for year in corpus.years():
        for core in _year_cores(corpus.slice(year), unique):
            by_threshold[core.thresholds].append(core)
    return by_threshold


def core_references(sl: YearSlice, thresholds: ThresholdPair) -> CoreRefSet:
    """Core references of one year slice under one threshold pair.

    An empty result is a legitimate outcome for sparse years.
    """
    return _year_cores(sl, [thresholds])[0]


def _year_cores(sl: YearSlice, thresholds: Sequence[ThresholdPair]) -> list[CoreRefSet]:
    """One core set per threshold pair from a single count of the slice.

    Pairs are counted among the references that reach the lowest
    ``cite_min``; each threshold pair then keeps the pairs whose count
    reaches its ``cocite_min`` and whose members both reach its ``cite_min``.
    """
    cites = citation_counts(sl)
    floor = min(t.cite_min for t in thresholds)
    pairs = cocitation_counts(sl, [ref for ref, n in cites.items() if n >= floor])
    # (pair count, lower member citation count, members)
    scored = [(n, min(cites[a], cites[b]), (a, b)) for (a, b), n in pairs.items()]
    return [
        CoreRefSet(
            year=sl.year,
            thresholds=t,
            members=frozenset(
                ref
                for n, low, pair in scored
                if n >= t.cocite_min and low >= t.cite_min
                for ref in pair
            ),
        )
        for t in thresholds
    ]


def distinct_ref_count(sl: YearSlice) -> int:
    refs: set[RefKey] = set()
    for record in sl.records:
        refs.update(record.cited_refs)
    return len(refs)


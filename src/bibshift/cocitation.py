"""Per-year citation counts, co-citation counts, and core-reference sets.

Counting is per citing paper: a paper contributes at most 1 to a
reference's citation count and at most 1 to any pair's co-citation count,
however often the raw record repeated the string. A reference is *core*
for a year under a threshold pair when its citation count reaches
``cite_min`` and it is co-cited at least ``cocite_min`` times with some
other reference that itself reaches ``cite_min``.

``core_sets`` walks the corpus dict's years in order. It gives each
distinct reference of the corpus an int id once, in one pass over the
records that cite anything, then runs ``core_references`` once per year;
it counts that year's id rows with ``citation_counts`` and
``cocitation_counts``, which take rows of any hashable items. Only each
year's candidates are ordered by ``RefKey.sort_key``, and ``RefKey`` sets
are built only for the result.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Hashable, Iterable, NamedTuple, Sequence

from .refkey import RefKey
from .records import BibRecord, Corpus


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


class CoreRefSet(NamedTuple):
    year: int
    thresholds: ThresholdPair
    members: frozenset[RefKey]


def citation_counts(rows: Iterable[Iterable[Hashable]]) -> Counter:
    """Number of rows holding each item."""
    return Counter(chain.from_iterable(rows))


def cocitation_counts(rows: Iterable[Iterable[Hashable]],
                      ordered: Sequence[Hashable]) -> Counter[tuple[int, int]]:
    """For each pair of ``ordered`` items, the number of rows holding both,
    keyed by the items' positions in ``ordered``, lower first."""
    position = {item: p for p, item in enumerate(ordered)}
    counts: Counter[tuple[int, int]] = Counter()
    for row in rows:
        held = sorted([position[item] for item in row if item in position])
        counts.update(combinations(held, 2))
    return counts


def core_references(year: int, rows: Sequence[Iterable[Hashable]], keys: Sequence[RefKey],
                    thresholds: Sequence[ThresholdPair]) -> list[CoreRefSet]:
    """One core set per threshold pair from a single count of one year's
    rows, where ``keys[item]`` is the ``RefKey`` of a row item.

    Pairs are counted among the references that reach the lowest
    ``cite_min``; each threshold pair then keeps the pairs whose count
    reaches its ``cocite_min`` and whose members both reach its ``cite_min``.
    An empty core is a legitimate outcome for sparse years.
    """
    cites = citation_counts(rows)
    floor = min(t.cite_min for t in thresholds)
    ordered = sorted((i for i, n in cites.items() if n >= floor),
                     key=lambda i: keys[i].sort_key())
    pairs = cocitation_counts(rows, ordered)
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


def core_sets(
    corpus: Corpus, thresholds: Sequence[ThresholdPair]
) -> dict[ThresholdPair, list[CoreRefSet]]:
    """Core sets of every corpus year, in year order, under each threshold
    pair. Each year is counted once for all the pairs."""
    unique = list(dict.fromkeys(thresholds))
    by_threshold: dict[ThresholdPair, list[CoreRefSet]] = {t: [] for t in unique}
    keys, rows_by_year = _ref_ids(corpus.values())
    for year, rows in zip(corpus, rows_by_year):
        for core in core_references(year, rows, keys, unique):
            by_threshold[core.thresholds].append(core)
    return by_threshold


def _ref_ids(groups: Iterable[Iterable[BibRecord]]
             ) -> tuple[list[RefKey], list[list[list[int]]]]:
    """Give each distinct reference of the record groups an int id: the keys
    in id order, and per group the ids cited by each record that cites
    anything."""
    ids: dict[RefKey, int] = {}
    rows = [
        [[ids.setdefault(ref, len(ids)) for ref in record.cited_refs]
         for record in records if record.cited_refs]
        for records in groups
    ]
    return list(ids), rows


def distinct_ref_count(corpus: Corpus) -> tuple[dict[int, int], int]:
    """The number of distinct references cited in each year of the corpus,
    and in the whole corpus: one walk of the records' references builds each
    year's set, and the total is the size of their union."""
    by_year: dict[int, set[RefKey]] = {}
    for year, records in corpus.items():
        refs = by_year[year] = set()
        for record in records:
            # Merging a frozenset reuses its stored hashes.
            refs.update(record.cited_refs)
    return ({year: len(refs) for year, refs in by_year.items()},
            len(set().union(*by_year.values())))

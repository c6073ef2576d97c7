"""Reference Stability Index series and groove detection.

RSI compares two core-reference sets, each a ``frozenset`` of reference
spellings: shared members divided by the union size
(shared / (n_former + n_later - shared)). When either core set is empty
the index is undefined (``None``), distinct from 0.
Values are exact fractions: this module computes them, and ``reports``
rounds and renders them. A series compares one threshold pair's core sets,
keyed by year as ``cocitation.core_sets`` returns them, and is a dict from
each ``(former_year, later_year)`` interval to its ``RsiPoint``, years
ascending; this module counts no citations.

A "groove" is a pronounced dip: per series, the interval(s) attaining the
minimal defined RSI. When every series in a set bottoms out at a common
interval, that interval is flagged as a consensus shift candidate.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .cocitation import ThresholdPair

Interval = tuple[int, int]


class GapTooLarge(ValueError):
    """No (year, year+gap) interval fits inside the corpus year range."""


class NoDefinedPoints(ValueError):
    """Every point of the series of ``thresholds`` is undefined; no minimum
    exists."""

    def __init__(self, thresholds: ThresholdPair) -> None:
        super().__init__(thresholds)
        self.thresholds = thresholds


class RsiPoint(NamedTuple):
    n_former: int
    n_later: int
    shared: int
    rsi: Optional[Fraction]  # None = undefined (an empty core set)


class GrooveReport(NamedTuple):
    # per pair: the minimal defined RSI and every interval attaining it
    minima: dict[ThresholdPair, tuple[Fraction, tuple[Interval, ...]]]
    consensus: tuple[Interval, ...]  # intervals minimal in every series


def rsi(former: frozenset[str], later: frozenset[str]) -> RsiPoint:
    """Stability of the core set from ``former`` to ``later``."""
    n_former = len(former)
    n_later = len(later)
    shared = len(former & later)
    if n_former == 0 or n_later == 0:
        value = None
    else:
        value = Fraction(shared, n_former + n_later - shared)
    return RsiPoint(n_former=n_former, n_later=n_later, shared=shared, rsi=value)


def rsi_series(cores: dict[int, frozenset[str]], gap: int) -> dict[Interval, RsiPoint]:
    """One RsiPoint per year ``y`` of ``cores``, ascending, whose ``y + gap``
    is also a year of ``cores``, keyed ``(y, y + gap)``: one threshold
    pair's core sets keyed by year, as ``core_sets(...)[thresholds]``
    returns them."""
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if not cores:
        raise ValueError("need at least one core set")
    series = {(year, year + gap): rsi(cores[year], cores[year + gap])
              for year in sorted(cores) if year + gap in cores}
    if not series:
        raise GapTooLarge(
            f"gap {gap} leaves no interval inside year range {min(cores)}:{max(cores)}"
        )
    return series


def groove_detect(series: dict[ThresholdPair, dict[Interval, RsiPoint]]) -> GrooveReport:
    """Per-series minima plus the consensus intervals shared by all series."""
    if not series:
        raise ValueError("need at least one series")
    minima = {}
    for thresholds, points in series.items():
        defined = {iv: p.rsi for iv, p in points.items() if p.rsi is not None}
        if not defined:
            raise NoDefinedPoints(thresholds)
        low = min(defined.values())
        intervals = tuple(iv for iv, value in defined.items() if value == low)
        minima[thresholds] = (low, intervals)
    shared = set.intersection(*(set(intervals) for _, intervals in minima.values()))
    return GrooveReport(minima=minima, consensus=tuple(sorted(shared)))

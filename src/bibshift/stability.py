"""Reference Stability Index series and groove detection.

RSI compares the core-reference sets of two years, each a ``frozenset``
of reference spellings: shared members divided by the union size
(shared / (n_former + n_later - shared)). When either core set is empty
the index is undefined (``None``), distinct from 0.
Values are exact fractions: this module computes them, and ``reports``
rounds and renders them. A series compares one threshold pair's core sets,
keyed by year as ``cocitation.core_sets`` returns them; this module counts
no citations.

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
    """Every point in a series is undefined; no minimum exists."""


class RsiPoint(NamedTuple):
    former_year: int
    later_year: int
    n_former: int
    n_later: int
    shared: int
    rsi: Optional[Fraction]  # None = undefined (an empty core set)

    @property
    def defined(self) -> bool:
        return self.rsi is not None

    @property
    def interval(self) -> Interval:
        return (self.former_year, self.later_year)


class RsiSeries(NamedTuple):
    thresholds: ThresholdPair
    gap: int
    points: tuple[RsiPoint, ...]


class SeriesMinimum(NamedTuple):
    thresholds: ThresholdPair
    value: Fraction
    intervals: tuple[Interval, ...]  # every interval attaining the minimum


class GrooveReport(NamedTuple):
    minima: tuple[SeriesMinimum, ...]
    consensus: tuple[Interval, ...]  # intervals minimal in every series


def rsi(former_year: int, former: frozenset[str],
        later_year: int, later: frozenset[str]) -> RsiPoint:
    """Stability of the core set from ``former_year``'s to ``later_year``'s."""
    n_former = len(former)
    n_later = len(later)
    shared = len(former & later)
    if n_former == 0 or n_later == 0:
        value = None
    else:
        value = Fraction(shared, n_former + n_later - shared)
    return RsiPoint(
        former_year=former_year,
        later_year=later_year,
        n_former=n_former,
        n_later=n_later,
        shared=shared,
        rsi=value,
    )


def rsi_series(thresholds: ThresholdPair, cores: dict[int, frozenset[str]],
               gap: int) -> RsiSeries:
    """One RsiPoint per year ``y`` of ``cores``, ascending, whose ``y + gap``
    is also a year of ``cores``: one threshold pair's core sets keyed by
    year, as ``core_sets(...)[thresholds]`` returns them."""
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if not cores:
        raise ValueError("need at least one core set")
    points = tuple(rsi(year, cores[year], year + gap, cores[year + gap])
                   for year in sorted(cores) if year + gap in cores)
    if not points:
        raise GapTooLarge(
            f"gap {gap} leaves no interval inside year range {min(cores)}:{max(cores)}"
        )
    return RsiSeries(thresholds=thresholds, gap=gap, points=points)


def series_minimum(series: RsiSeries) -> SeriesMinimum:
    """Minimal defined RSI of one series, with every interval attaining it."""
    defined = [p for p in series.points if p.defined]
    if not defined:
        raise NoDefinedPoints(
            f"series {series.thresholds} gap {series.gap} has no defined RSI points"
        )
    low = min(p.rsi for p in defined)
    intervals = tuple(p.interval for p in defined if p.rsi == low)
    return SeriesMinimum(thresholds=series.thresholds, value=low, intervals=intervals)


def groove_detect(series_set: list[RsiSeries]) -> GrooveReport:
    """Per-series minima plus the consensus intervals shared by all series."""
    if not series_set:
        raise ValueError("need at least one series")
    gaps = {s.gap for s in series_set}
    if len(gaps) > 1:
        raise ValueError(f"series mix gaps {sorted(gaps)}; groove needs one gap")
    minima = tuple(series_minimum(s) for s in series_set)
    shared: set[Interval] = set(minima[0].intervals)
    for m in minima[1:]:
        shared &= set(m.intervals)
    return GrooveReport(minima=minima, consensus=tuple(sorted(shared)))

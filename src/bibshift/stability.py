"""Reference Stability Index series and groove detection.

RSI compares the core-reference sets of two years: shared members divided
by the union size (shared / (n_former + n_later - shared)). When either
core set is empty the index is undefined, distinct from 0.0, and renders
as "-/-". Values are kept as exact fractions; rounding to two decimals
(half-up) happens only in reports.

A "groove" is a pronounced dip: per series, the interval(s) attaining the
minimal defined RSI. When every series in a set bottoms out at a common
interval, that interval is flagged as a consensus shift candidate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cocitation import CoreRefSet, ThresholdPair, core_sets
from .records import Corpus

Interval = tuple[int, int]


class ThresholdMismatch(ValueError):
    """Compared core sets were computed under different thresholds."""


class GapTooLarge(ValueError):
    """No (year, year+gap) interval fits inside the corpus year range."""


class NoDefinedPoints(ValueError):
    """Every point in a series is undefined; no minimum exists."""


@dataclass(frozen=True)
class RsiPoint:
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


@dataclass(frozen=True)
class RsiSeries:
    thresholds: ThresholdPair
    gap: int
    points: tuple[RsiPoint, ...]


@dataclass(frozen=True)
class SeriesMinimum:
    thresholds: ThresholdPair
    value: Fraction
    intervals: tuple[Interval, ...]  # every interval attaining the minimum


@dataclass(frozen=True)
class GrooveReport:
    gap: int
    minima: tuple[SeriesMinimum, ...]
    consensus: tuple[Interval, ...]  # intervals minimal in every series


def rsi(core_a: CoreRefSet, core_b: CoreRefSet) -> RsiPoint:
    """Stability of the core set from ``core_a``'s year to ``core_b``'s."""
    if core_a.thresholds != core_b.thresholds:
        raise ThresholdMismatch(
            f"cannot compare core sets built under {core_a.thresholds} and {core_b.thresholds}"
        )
    n_former = len(core_a)
    n_later = len(core_b)
    shared = len(core_a.members & core_b.members)
    if n_former == 0 or n_later == 0:
        value = None
    else:
        value = Fraction(shared, n_former + n_later - shared)
    return RsiPoint(
        former_year=core_a.year,
        later_year=core_b.year,
        n_former=n_former,
        n_later=n_later,
        shared=shared,
        rsi=value,
    )


def rsi_series(corpus: Corpus, thresholds: ThresholdPair, gap: int,
               cores: Optional[Sequence[CoreRefSet]] = None) -> RsiSeries:
    """One RsiPoint per (y, y+gap) pair inside the corpus year range.

    ``cores`` are the corpus's core sets under ``thresholds``, one per
    year, as ``core_sets`` returns them; they are computed when omitted.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    first, last = corpus.year_range
    if first + gap > last:
        raise GapTooLarge(
            f"gap {gap} leaves no interval inside year range {first}:{last}"
        )
    if cores is None:
        cores = core_sets(corpus, [thresholds])[thresholds]
    by_year = {core.year: core for core in cores}
    points = tuple(
        rsi(by_year[year], by_year[year + gap]) for year in range(first, last - gap + 1)
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
    return GrooveReport(
        gap=series_set[0].gap,
        minima=minima,
        consensus=tuple(sorted(shared)),
    )


def round_half_up_2dp(value: Fraction) -> Fraction:
    """Round to 2 decimals, halves away from zero-point-zero-zero-five up."""
    scaled = value * 100
    return Fraction((2 * scaled.numerator + scaled.denominator)
                    // (2 * scaled.denominator), 100)


def format_rsi(value: Optional[Fraction]) -> str:
    """Two-decimal rendering; undefined renders as '-'."""
    if value is None:
        return "-"
    rounded = round_half_up_2dp(value)
    return f"{rounded.numerator / rounded.denominator:.2f}"


def format_cell(point: RsiPoint) -> str:
    """Matrix cell 'shared/RSI', e.g. '8/0.22'; undefined renders '-/-'."""
    if not point.defined:
        return "-/-"
    return f"{point.shared}/{format_rsi(point.rsi)}"

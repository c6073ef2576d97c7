"""Reference Stability Index series and groove detection.

RSI compares the core-reference sets of two years: shared members divided
by the union size (shared / (n_former + n_later - shared)). When either
core set is empty the index is undefined, distinct from 0.0, and renders
as "-/-". Values are kept as exact fractions; rounding to two decimals
(half-up) happens only in reports. A series compares the core sets it is
given, one per consecutive year under one threshold pair, as
``cocitation.core_sets`` returns them; this module counts no citations.

A "groove" is a pronounced dip: per series, the interval(s) attaining the
minimal defined RSI. When every series in a set bottoms out at a common
interval, that interval is flagged as a consensus shift candidate.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .cocitation import CoreRefSet, ThresholdPair

Interval = tuple[int, int]


class ThresholdMismatch(ValueError):
    """Compared core sets were computed under different thresholds."""


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


def rsi(core_a: CoreRefSet, core_b: CoreRefSet) -> RsiPoint:
    """Stability of the core set from ``core_a``'s year to ``core_b``'s."""
    if core_a.thresholds != core_b.thresholds:
        raise ThresholdMismatch(
            f"cannot compare core sets built under {core_a.thresholds} and {core_b.thresholds}"
        )
    n_former = len(core_a.members)
    n_later = len(core_b.members)
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


def rsi_series(cores: Sequence[CoreRefSet], gap: int) -> RsiSeries:
    """One RsiPoint per (y, y+gap) pair of ``cores``: one core set per
    consecutive year under one threshold pair, in year order, as
    ``core_sets(...)[t]`` returns them."""
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if not cores:
        raise ValueError("need at least one core set")
    first, thresholds = cores[0].year, cores[0].thresholds
    if any(core.year != first + i or core.thresholds != thresholds
           for i, core in enumerate(cores)):
        raise ValueError("need one core set per consecutive year under one threshold pair")
    last = cores[-1].year
    if first + gap > last:
        raise GapTooLarge(
            f"gap {gap} leaves no interval inside year range {first}:{last}"
        )
    points = tuple(rsi(former, later) for former, later in zip(cores, cores[gap:]))
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

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bibshift.cocitation import CoreRefSet, ThresholdPair, core_sets
from bibshift.records import build_corpus
from bibshift.stability import (
    GapTooLarge,
    NoDefinedPoints,
    ThresholdMismatch,
    format_cell,
    format_rsi,
    groove_detect,
    round_half_up_2dp,
    rsi,
    rsi_series,
    series_minimum,
)
from conftest import mkrec, mkref

T = ThresholdPair(3, 2)


def core(year, names, thresholds=T):
    members = frozenset(mkref(f"{n}, 1960, J") for n in names)
    return CoreRefSet(year=year, thresholds=thresholds, members=members)


class TestRsi:
    def test_counts_and_value(self):
        point = rsi(core(1966, "ABCDEFGH"), core(1967, "ABZ"))
        assert (point.n_former, point.n_later, point.shared) == (8, 3, 2)
        assert point.rsi == Fraction(2, 9)
        assert format_rsi(point.rsi) == "0.22"

    def test_larger_sets(self):
        former = core(1970, [f"F{i}" for i in range(46)] )
        later = core(1972, [f"F{i}" for i in range(8)] + [f"L{i}" for i in range(72)])
        point = rsi(former, later)
        assert (point.n_former, point.n_later, point.shared) == (46, 80, 8)
        assert point.rsi == Fraction(8, 118)
        assert format_rsi(point.rsi) == "0.07"

    def test_identical_sets(self):
        point = rsi(core(1970, "ABC"), core(1971, "ABC"))
        assert point.rsi == 1
        assert format_rsi(point.rsi) == "1.00"

    def test_disjoint_sets(self):
        point = rsi(core(1970, "ABC"), core(1971, "XYZ"))
        assert point.rsi == 0
        assert format_rsi(point.rsi) == "0.00"

    def test_empty_former_is_undefined(self):
        point = rsi(core(1970, ""), core(1971, "ABC"))
        assert point.rsi is None
        assert not point.defined

    def test_empty_later_is_undefined(self):
        assert rsi(core(1970, "ABC"), core(1971, "")).rsi is None

    def test_mismatched_thresholds_rejected(self):
        with pytest.raises(ThresholdMismatch):
            rsi(core(1970, "AB"), core(1971, "AB", thresholds=ThresholdPair(5, 2)))

    def test_symmetry_of_value(self):
        a, b = core(1970, "ABCD"), core(1971, "CDE")
        assert rsi(a, b).rsi == rsi(b, a).rsi

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_range_and_extremes(self, xs, ys):
        a = core(1970, [f"N{i}" for i in xs])
        b = core(1971, [f"N{i}" for i in ys])
        value = rsi(a, b).rsi
        if not xs or not ys:
            assert value is None
        else:
            assert 0 <= value <= 1
            assert (value == 1) == (xs == ys)
            assert (value == 0) == (not xs & ys)

    @given(st.sets(st.integers(0, 20), min_size=1), st.sets(st.integers(0, 20), min_size=1))
    def test_shared_addition_strictly_increases(self, xs, ys):
        if xs == ys:
            return
        a = core(1970, [f"N{i}" for i in xs])
        b = core(1971, [f"N{i}" for i in ys])
        a2 = core(1970, [f"N{i}" for i in xs] + ["EXTRA"])
        b2 = core(1971, [f"N{i}" for i in ys] + ["EXTRA"])
        assert rsi(a2, b2).rsi > rsi(a, b).rsi


class TestRounding:
    @pytest.mark.parametrize(
        "num,den,text",
        [
            (2, 9, "0.22"),
            (6, 95, "0.06"),
            (1, 8, "0.13"),     # 0.125 rounds half up
            (1, 200, "0.01"),   # 0.005 rounds half up
            (1, 3, "0.33"),
            (2, 3, "0.67"),
            (1, 1, "1.00"),
            (0, 5, "0.00"),
            (31, 101, "0.31"),
            (45, 293, "0.15"),
            (18, 51, "0.35"),
        ],
    )
    def test_half_up_two_decimals(self, num, den, text):
        assert format_rsi(Fraction(num, den)) == text

    def test_round_half_up_returns_hundredths(self):
        assert round_half_up_2dp(Fraction(1, 8)) == Fraction(13, 100)
        assert round_half_up_2dp(Fraction(1, 2)) == Fraction(50, 100)

    def test_undefined_renders_dash(self):
        assert format_rsi(None) == "-"


class TestFormatCell:
    def test_defined_cell(self):
        point = rsi(core(1966, "ABCDEFGH"), core(1967, "ABZ"))
        assert format_cell(point) == "2/0.22"

    def test_undefined_cell(self):
        point = rsi(core(1966, "ABC"), core(1967, ""))
        assert format_cell(point) == "-/-"


def interval_corpus(per_year_refs, years=None):
    """Corpus where every year's core set under 3/2 is exactly the given
    ref-name pool: three papers per year, each citing the whole pool."""
    records = []
    for year, names in per_year_refs.items():
        refs = [f"{n}, 1960, J" for n in names]
        for i in range(3):
            records.append(mkrec(f"p{year}x{i}", refs=refs, year=year))
    return build_corpus(records, years)


class TestRsiSeries:
    def test_point_count_and_order(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1966, 1976)})
        series = rsi_series(corpus, T, gap=2)
        assert len(series.points) == 8
        assert [p.interval for p in series.points] == [
            (y, y + 2) for y in range(1966, 1974)
        ]

    def test_gap_one_on_ten_years(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1966, 1976)})
        assert len(rsi_series(corpus, T, gap=1).points) == 9

    def test_single_year_rejects_any_gap(self):
        corpus = interval_corpus({1970: ["A", "B"]})
        with pytest.raises(GapTooLarge):
            rsi_series(corpus, T, gap=1)

    def test_gap_below_one_rejected(self):
        corpus = interval_corpus({y: ["A", "B"] for y in (1970, 1971)})
        with pytest.raises(ValueError):
            rsi_series(corpus, T, gap=0)

    def test_values_track_core_overlap(self):
        corpus = interval_corpus({1970: ["A", "B"], 1971: ["B", "C"]})
        [point] = rsi_series(corpus, T, gap=1).points
        assert point.rsi == Fraction(1, 3)

    def test_empty_year_gives_undefined_point(self):
        corpus = interval_corpus({1970: ["A", "B"], 1972: ["A", "B"]}, (1970, 1972))
        series = rsi_series(corpus, T, gap=1)
        assert [p.defined for p in series.points] == [False, False]


class TestGroove:
    def test_minimum_interval_reported(self):
        corpus = interval_corpus({
            1970: ["A", "B", "C"],
            1971: ["A", "B", "C"],
            1972: ["X", "Y", "Z"],
            1973: ["X", "Y", "Z"],
        })
        series = rsi_series(corpus, T, gap=1)
        low = series_minimum(series)
        assert low.value == 0
        assert low.intervals == ((1971, 1972),)

    def test_ties_list_every_interval(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1970, 1974)})
        series = rsi_series(corpus, T, gap=1)
        low = series_minimum(series)
        assert low.value == 1
        assert low.intervals == ((1970, 1971), (1971, 1972), (1972, 1973))

    def test_undefined_points_excluded_from_minimum(self):
        corpus = interval_corpus(
            {1970: ["A", "B"], 1972: ["A", "B"], 1973: ["A", "C"]}, (1970, 1973)
        )
        series = rsi_series(corpus, T, gap=1)
        low = series_minimum(series)
        assert low.intervals == ((1972, 1973),)
        assert low.value == Fraction(1, 3)

    def test_all_undefined_raises(self):
        # data only in the end years leaves every consecutive pair with an
        # empty side
        corpus = interval_corpus({1970: ["A", "B"], 1974: ["A", "B"]}, (1970, 1974))
        series = rsi_series(corpus, T, gap=1)
        assert not any(p.defined for p in series.points)
        with pytest.raises(NoDefinedPoints):
            series_minimum(series)

    def test_consensus_when_all_series_dip_together(self):
        corpus = interval_corpus({
            1970: ["A", "B", "C", "D"],
            1971: ["A", "B", "C", "D"],
            1972: ["W", "X", "Y", "Z"],
            1973: ["W", "X", "Y", "Z"],
        })
        series_set = [
            rsi_series(corpus, t, gap=1)
            for t in (ThresholdPair(3, 2), ThresholdPair(3, 3), ThresholdPair(2, 2))
        ]
        report = groove_detect(series_set)
        assert report.consensus == ((1971, 1972),)

    def test_no_consensus_when_minima_disagree(self):
        # threshold 3/2 sees only the pool refs, dipping at 1972/1973; the
        # weak U,V pair (two citing papers) enters under 2/2 from 1971 on
        # and moves that series' minimum to 1970/1971
        records = []
        pools = {1970: ["A", "B"], 1971: ["A", "B"], 1972: ["A", "B"], 1973: ["B", "C"]}
        for year, names in pools.items():
            refs = [f"{n}, 1960, J" for n in names]
            for i in range(3):
                records.append(mkrec(f"p{year}x{i}", refs=refs, year=year))
        for year in (1971, 1972, 1973):
            records.append(mkrec(f"w{year}a", refs=["U, 1960, J", "V, 1960, J"], year=year))
            records.append(mkrec(f"w{year}b", refs=["U, 1960, J", "V, 1960, J"], year=year))
        corpus = build_corpus(records)
        strict = rsi_series(corpus, ThresholdPair(3, 2), gap=1)
        loose = rsi_series(corpus, ThresholdPair(2, 2), gap=1)
        assert series_minimum(strict).intervals == ((1972, 1973),)
        assert series_minimum(loose).intervals == ((1970, 1971),)
        report = groove_detect([strict, loose])
        assert report.consensus == ()

    def test_mixed_gaps_rejected(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1970, 1974)})
        with pytest.raises(ValueError):
            groove_detect([
                rsi_series(corpus, T, gap=1),
                rsi_series(corpus, T, gap=2),
            ])

    def test_empty_series_set_rejected(self):
        with pytest.raises(ValueError):
            groove_detect([])


class TestSharedCoreSets:
    THRESHOLDS = (ThresholdPair(3, 2), ThresholdPair(2, 2), ThresholdPair(2, 1))

    def test_core_sets_once_match_per_series_computation(self):
        # overlapping pools that drift year by year, with a quiet year
        pools = {
            1970: ["A", "B", "C"],
            1971: ["A", "B", "C", "D"],
            1972: ["B", "D", "E"],
            1974: ["E", "F"],
            1975: ["E", "F", "G"],
        }
        records = [
            mkrec(f"{year}-{i}", refs=[f"{n}, 1960, J" for n in pool[i % 2:]], year=year)
            for year, pool in pools.items()
            for i in range(4)
        ]
        corpus = build_corpus(records, (1970, 1975))
        cores = core_sets(corpus, self.THRESHOLDS)
        for gap in (1, 2):
            for t in self.THRESHOLDS:
                assert rsi_series(corpus, t, gap, cores[t]) == rsi_series(corpus, t, gap)

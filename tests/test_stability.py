from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bibshift.cocitation import ThresholdPair, core_sets
from bibshift.records import build_corpus
from bibshift.reports import rsi_matrix, rsi_text
from bibshift.stability import (
    GapTooLarge,
    NoDefinedPoints,
    groove_detect,
    rsi,
    rsi_series,
)
from conftest import corpus_series, mkrec, mkref

T = ThresholdPair(3, 2)


def core(names):
    return frozenset(mkref(f"{n}, 1960, J") for n in names)


class TestRsi:
    def test_counts_and_value(self):
        point = rsi(core("ABCDEFGH"), core("ABZ"))
        assert (point.n_former, point.n_later, point.shared) == (8, 3, 2)
        assert point.rsi == Fraction(2, 9)
        assert rsi_text(point.rsi) == "0.22"

    def test_larger_sets(self):
        former = core([f"F{i}" for i in range(46)])
        later = core([f"F{i}" for i in range(8)] + [f"L{i}" for i in range(72)])
        point = rsi(former, later)
        assert (point.n_former, point.n_later, point.shared) == (46, 80, 8)
        assert point.rsi == Fraction(8, 118)
        assert rsi_text(point.rsi) == "0.07"

    def test_identical_sets(self):
        point = rsi(core("ABC"), core("ABC"))
        assert point.rsi == 1
        assert rsi_text(point.rsi) == "1.00"

    def test_disjoint_sets(self):
        point = rsi(core("ABC"), core("XYZ"))
        assert point.rsi == 0
        assert rsi_text(point.rsi) == "0.00"

    def test_empty_former_is_undefined(self):
        point = rsi(core(""), core("ABC"))
        assert point.rsi is None
        assert rsi_text(point.rsi) == "-/-"

    def test_empty_later_is_undefined(self):
        assert rsi(core("ABC"), core("")).rsi is None

    def test_symmetry_of_value(self):
        a, b = core("ABCD"), core("CDE")
        assert rsi(a, b).rsi == rsi(b, a).rsi

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_range_and_extremes(self, xs, ys):
        a = core([f"N{i}" for i in xs])
        b = core([f"N{i}" for i in ys])
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
        a = core([f"N{i}" for i in xs])
        b = core([f"N{i}" for i in ys])
        a2 = core([f"N{i}" for i in xs] + ["EXTRA"])
        b2 = core([f"N{i}" for i in ys] + ["EXTRA"])
        assert rsi(a2, b2).rsi > rsi(a, b).rsi


class TestRounding:
    """The reports' two-decimal RSI text, ``reports.rsi_text``."""

    @pytest.mark.parametrize(
        "num,den,text",
        [
            (2, 9, "0.22"),
            (6, 95, "0.06"),
            (1, 8, "0.13"),     # 0.125 rounds half up
            (1, 2, "0.50"),
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
        assert rsi_text(Fraction(num, den)) == text


class TestFormatCell:
    """The ``shared/RSI`` cells of ``reports.rsi_matrix``."""

    @staticmethod
    def cells(cores) -> list[str]:
        series = {T: rsi_series(cores, gap=1)}
        text = rsi_matrix(series, groove_detect(series), [])
        return text.splitlines()[1].split("\t")[1:]

    def test_defined_cell(self):
        assert self.cells({1966: core("ABCDEFGH"), 1967: core("ABZ")}) == ["2/0.22"]

    def test_undefined_cell(self):
        cells = self.cells({1966: core("AB"), 1967: core("AB"), 1968: core("")})
        assert cells == ["2/1.00", "-/-"]


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
        series = corpus_series(corpus, T, gap=2)
        assert len(series) == 8
        assert list(series) == [(y, y + 2) for y in range(1966, 1974)]

    def test_gap_one_on_ten_years(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1966, 1976)})
        assert len(corpus_series(corpus, T, gap=1)) == 9

    def test_single_year_rejects_any_gap(self):
        corpus = interval_corpus({1970: ["A", "B"]})
        with pytest.raises(GapTooLarge,
                           match=r"^gap 1 leaves no interval inside year range 1970:1970$"):
            corpus_series(corpus, T, gap=1)

    def test_gap_below_one_rejected(self):
        corpus = interval_corpus({y: ["A", "B"] for y in (1970, 1971)})
        with pytest.raises(ValueError, match=r"^gap must be >= 1, got 0$"):
            corpus_series(corpus, T, gap=0)

    def test_values_track_core_overlap(self):
        corpus = interval_corpus({1970: ["A", "B"], 1971: ["B", "C"]})
        [point] = corpus_series(corpus, T, gap=1).values()
        assert point.rsi == Fraction(1, 3)

    def test_empty_year_gives_undefined_point(self):
        corpus = interval_corpus({1970: ["A", "B"], 1972: ["A", "B"]}, (1970, 1972))
        series = corpus_series(corpus, T, gap=1)
        assert list(series) == [(1970, 1971), (1971, 1972)]
        assert [p.rsi for p in series.values()] == [None, None]

    def test_years_come_from_the_cores(self):
        series = rsi_series({1980: core("AB"), 1981: core("B")}, gap=1)
        assert series == {(1980, 1981): (2, 1, 1, Fraction(1, 2))}

    def test_no_cores_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least one core set$"):
            rsi_series({}, gap=1)

    @pytest.mark.parametrize("years", [
        (1970, 1971, 1973, 1974),  # a hole at 1972
        (1974, 1971, 1970, 1973),  # keys out of order
    ])
    def test_points_only_where_both_years_are_keys(self, years):
        series = rsi_series({year: core("AB") for year in years}, gap=1)
        assert list(series) == [(1970, 1971), (1973, 1974)]

    def test_no_interval_between_keys_rejected(self):
        with pytest.raises(GapTooLarge,
                           match=r"^gap 1 leaves no interval inside year range 1970:1972$"):
            rsi_series({1972: core("AB"), 1970: core("AB")}, gap=1)


class TestGroove:
    def test_minimum_interval_reported(self):
        corpus = interval_corpus({
            1970: ["A", "B", "C"],
            1971: ["A", "B", "C"],
            1972: ["X", "Y", "Z"],
            1973: ["X", "Y", "Z"],
        })
        series = corpus_series(corpus, T, gap=1)
        assert groove_detect({T: series}).minima[T] == (0, ((1971, 1972),))

    def test_ties_list_every_interval(self):
        corpus = interval_corpus({y: ["A", "B"] for y in range(1970, 1974)})
        series = corpus_series(corpus, T, gap=1)
        value, intervals = groove_detect({T: series}).minima[T]
        assert value == 1
        assert intervals == ((1970, 1971), (1971, 1972), (1972, 1973))

    def test_undefined_points_excluded_from_minimum(self):
        corpus = interval_corpus(
            {1970: ["A", "B"], 1972: ["A", "B"], 1973: ["A", "C"]}, (1970, 1973)
        )
        series = corpus_series(corpus, T, gap=1)
        value, intervals = groove_detect({T: series}).minima[T]
        assert intervals == ((1972, 1973),)
        assert value == Fraction(1, 3)

    def test_all_undefined_raises(self):
        # data only in the end years leaves every consecutive pair with an
        # empty side
        corpus = interval_corpus({1970: ["A", "B"], 1974: ["A", "B"]}, (1970, 1974))
        series = corpus_series(corpus, T, gap=1)
        assert all(p.rsi is None for p in series.values())
        with pytest.raises(NoDefinedPoints) as raised:
            groove_detect({T: series})
        assert raised.value.thresholds == T

    def test_consensus_when_all_series_dip_together(self):
        corpus = interval_corpus({
            1970: ["A", "B", "C", "D"],
            1971: ["A", "B", "C", "D"],
            1972: ["W", "X", "Y", "Z"],
            1973: ["W", "X", "Y", "Z"],
        })
        series_set = {
            t: corpus_series(corpus, t, gap=1)
            for t in (ThresholdPair(3, 2), ThresholdPair(3, 3), ThresholdPair(2, 2))
        }
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
        strict, loose = ThresholdPair(3, 2), ThresholdPair(2, 2)
        report = groove_detect({t: corpus_series(corpus, t, gap=1) for t in (strict, loose)})
        assert report.minima[strict][1] == ((1972, 1973),)
        assert report.minima[loose][1] == ((1970, 1971),)
        assert report.consensus == ()

    def test_empty_series_set_rejected(self):
        with pytest.raises(ValueError):
            groove_detect({})


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
                assert rsi_series(cores[t], gap) == corpus_series(corpus, t, gap)

import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from bibshift.cocitation import (
    ThresholdPair,
    _candidates,
    _mask_cores,
    _masks_cheaper,
    _pair_cores,
    citation_counts,
    cocitation_counts,
    core_references,
    core_sets,
    distinct_ref_count,
)
from bibshift.records import build_corpus
from conftest import cited_rows, mkrec, mkref, ref_pair_counts, slice_core
from oracles import brute_citation_counts, brute_cocitation_counts, brute_core_refs


class TestThresholdPair:
    def test_str_and_parse_round_trip(self):
        t = ThresholdPair(15, 11)
        assert str(t) == "15/11"
        assert ThresholdPair.parse("15/11") == t

    @pytest.mark.parametrize("cite,cocite", [(0, 1), (1, 0), (-3, 2)])
    def test_values_below_one_rejected(self, cite, cocite):
        with pytest.raises(ValueError):
            ThresholdPair(cite, cocite)

    def test_cocite_above_cite_constructs_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = ThresholdPair(3, 5)
        assert t.cocite_min == 5

    @pytest.mark.parametrize("text", ["15", "a/b", "15/", "/8"])
    def test_unparseable_text_rejected(self, text):
        with pytest.raises(ValueError, match=f"cannot parse threshold pair '{text}'"):
            ThresholdPair.parse(text)

    @pytest.mark.parametrize("text", ["0/1", "3/0", "-1/2"])
    def test_parsed_values_below_one_name_the_bound(self, text):
        with pytest.raises(ValueError, match=f"^thresholds must be >= 1, got {text}$"):
            ThresholdPair.parse(text)


class TestCitationCounts:
    def test_s1_counts(self, s1_slice, s1_refs):
        counts = citation_counts(cited_rows(s1_slice))
        assert counts[s1_refs["R1"]] == 4
        assert counts[s1_refs["R2"]] == 3
        assert counts[s1_refs["R3"]] == 3

    def test_no_refs_yields_empty_map(self):
        sl = build_corpus([mkrec("m", year=1970)])[1970]
        assert citation_counts(cited_rows(sl)) == {}

    def test_single_paper_single_ref(self):
        sl = build_corpus([mkrec("p", refs=["R1, 1960, J"])])[1970]
        assert list(citation_counts(cited_rows(sl)).values()) == [1]


class TestCocitationCounts:
    def test_s1_pairs(self, s1_slice, s1_refs):
        r = s1_refs
        counts = ref_pair_counts(s1_slice, r.values())
        assert counts[(r["R1"], r["R2"])] == 3
        assert counts[(r["R1"], r["R3"])] == 2
        assert counts[(r["R2"], r["R3"])] == 1
        assert len(counts) == 3

    def test_single_candidate_has_no_pairs(self, s1_slice, s1_refs):
        assert ref_pair_counts(s1_slice, [s1_refs["R1"]]) == {}

    def test_restricting_candidates_restricts_pairs(self, s1_slice, s1_refs):
        r = s1_refs
        counts = ref_pair_counts(s1_slice, [r["R2"], r["R1"]])
        assert counts == {(r["R1"], r["R2"]): 3}


class TestCoreReferences:
    def test_s1_thresholds_3_2(self, s1_slice, s1_refs):
        core = slice_core(s1_slice, ThresholdPair(3, 2))
        assert core == frozenset(s1_refs.values())

    def test_s1_thresholds_3_3_drops_r3(self, s1_slice, s1_refs):
        core = slice_core(s1_slice, ThresholdPair(3, 3))
        assert core == frozenset({s1_refs["R1"], s1_refs["R2"]})

    def test_s1_thresholds_5_1_empty(self, s1_slice):
        assert slice_core(s1_slice, ThresholdPair(5, 1)) == frozenset()

    def test_partner_must_itself_qualify(self):
        # X is cited twice and co-cited twice with Y, but Y is cited only
        # twice, below cite_min 3: under 3/2 neither is core even though
        # pair counts alone would admit X
        records = [
            mkrec("p1", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p2", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p3", refs=["X, 1960, J", "Z, 1962, J"]),
        ]
        sl = build_corpus(records)[1970]
        assert slice_core(sl, ThresholdPair(3, 2)) == frozenset()

    def test_refkey_rows_give_the_core_of_the_id_rows(self, s1_slice):
        thresholds = [ThresholdPair(3, 2), ThresholdPair(3, 3)]
        rows = cited_rows(s1_slice)
        cores = core_references(rows, thresholds)
        assert cores == [slice_core(s1_slice, t) for t in thresholds]

    def test_year_and_thresholds_recorded(self, s1_slice):
        # the pairs are keys in first-seen order, and every corpus year,
        # empty ones included, is a key under each pair
        corpus = build_corpus(s1_slice, (1968, 1972))
        ts = [ThresholdPair(3, 3), ThresholdPair(3, 2), ThresholdPair(3, 3)]
        cores = core_sets(corpus, ts)
        assert list(cores) == [ThresholdPair(3, 3), ThresholdPair(3, 2)]
        for t, by_year in cores.items():
            assert list(by_year) == list(corpus) == list(range(1968, 1973))
            assert by_year[1970] == slice_core(s1_slice, t)
            assert all(by_year[y] == frozenset() for y in (1968, 1969, 1971, 1972))


class TestDistinctRefCount:
    def test_s1(self, s1_slice):
        assert distinct_ref_count(build_corpus(s1_slice)) == ({1970: 3}, 3)

    def test_empty_slice(self):
        corpus = build_corpus([mkrec("a", year=1971)], (1970, 1971))
        assert distinct_ref_count(corpus) == ({1970: 0, 1971: 0}, 0)

    def test_identical_sets_count_once(self):
        refs = ["A, 1960, J", "B, 1961, J"]
        corpus = build_corpus([mkrec("p1", refs=refs), mkrec("p2", refs=refs)])
        assert distinct_ref_count(corpus) == ({1970: 2}, 2)

    def test_total_counts_a_reference_of_several_years_once(self):
        corpus = build_corpus([mkrec("p1", refs=["A, 1960, J", "B, 1961, J"], year=1970),
                               mkrec("p2", refs=["B, 1961, J", "C, 1962, J"], year=1972)])
        assert distinct_ref_count(corpus) == ({1970: 2, 1971: 0, 1972: 2}, 3)


# random small corpora for property checks
@st.composite
def random_slice(draw):
    n_refs = draw(st.integers(min_value=1, max_value=12))
    refs = [mkref(f"REF{i}, 19{i:02d}, J") for i in range(n_refs)]
    n_papers = draw(st.integers(min_value=0, max_value=20))
    papers = []
    for p in range(n_papers):
        cited = draw(st.sets(st.sampled_from(refs), max_size=min(n_refs, 8)))
        papers.append(mkrec(f"p{p}", refs=cited))
    if not papers:
        papers = [mkrec("pad", refs=[])]
    return build_corpus(papers)[1970]


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_slice())
    def test_counts_match_brute_force(self, sl):
        assert citation_counts(cited_rows(sl)) == brute_citation_counts(sl)
        cites = citation_counts(cited_rows(sl))
        assert ref_pair_counts(sl, cites) == brute_cocitation_counts(sl, cites)

    @settings(max_examples=150, deadline=None)
    @given(random_slice(),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_core_matches_brute_force(self, sl, cite_min, cocite_min):
        t = ThresholdPair(cite_min, min(cocite_min, cite_min))
        assert slice_core(sl, t) == brute_core_refs(sl, t)

    @settings(max_examples=150, deadline=None)
    @given(random_slice())
    def test_pair_count_bounded_by_member_counts(self, sl):
        cites = citation_counts(cited_rows(sl))
        for (a, b), n in ref_pair_counts(sl, cites).items():
            assert n <= min(cites[a], cites[b])

    @settings(max_examples=150, deadline=None)
    @given(random_slice(),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_loosening_thresholds_grows_core(self, sl, cite_min, cocite_min, dc, dcc):
        cocite_min = min(cocite_min, cite_min)
        # cap keeps cocite_min <= cite_min and tight still >= loose componentwise
        tight = ThresholdPair(cite_min + dc, min(cocite_min + dcc, cite_min + dc))
        loose = ThresholdPair(cite_min, cocite_min)
        assert slice_core(sl, tight) <= slice_core(sl, loose)


@st.composite
def random_corpus(draw):
    """One to three years of papers citing a shared reference pool."""
    n_refs = draw(st.integers(min_value=1, max_value=10))
    refs = [mkref(f"REF{i}, 19{i:02d}, J") for i in range(n_refs)]
    years = range(1970, 1970 + draw(st.integers(min_value=1, max_value=3)))
    papers = [
        mkrec(f"p{year}-{p}", refs=draw(st.sets(st.sampled_from(refs))), year=year)
        for year in years
        for p in range(draw(st.integers(min_value=1, max_value=15)))
    ]
    return build_corpus(papers, (years[0], years[-1]))


_threshold_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    .map(lambda pair: ThresholdPair(pair[0], min(pair))),
    min_size=1,
    max_size=4,
)


class TestCoreSets:
    @settings(max_examples=150, deadline=None)
    @given(random_corpus(), _threshold_lists)
    def test_one_count_per_year_matches_brute_force(self, corpus, thresholds):
        cores = core_sets(corpus, thresholds)
        assert list(cores) == list(dict.fromkeys(thresholds))
        for t in thresholds:
            assert list(cores[t]) == list(corpus)
            for year, members in cores[t].items():
                assert members == brute_core_refs(corpus[year], t)

    def test_lower_cite_min_candidates_do_not_leak_upwards(self):
        # Y reaches cite_min 2 but not 3: it is a co-citation candidate
        # for the 2/2 pair only, and must not make X core under 3/2
        records = [
            mkrec("p1", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p2", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p3", refs=["X, 1960, J", "Z, 1962, J"]),
        ]
        corpus = build_corpus(records)
        strict, loose = ThresholdPair(3, 2), ThresholdPair(2, 2)
        cores = core_sets(corpus, [strict, loose])
        assert cores[strict][1970] == frozenset()
        assert cores[loose][1970] == frozenset(
            {mkref("X, 1960, J"), mkref("Y, 1961, J")}
        )


# Year shapes for ``cocitation_counts``. Each strategy gives (rows, ordered).
_POOL = [mkref(f"POOL{i}, {1800 + i}, J") for i in range(200)]


@st.composite
def dense_year(draw):
    """8-40 rows, each a 3-8 item canon less at most one of its items,
    some with a reference outside the canon."""
    size = draw(st.integers(min_value=3, max_value=8))
    ordered = draw(st.permutations(_POOL[:size]))
    rows = []
    for _ in range(draw(st.integers(min_value=8, max_value=40))):
        row = set(ordered)
        row.discard(draw(st.sampled_from([None, *ordered])))
        if draw(st.booleans()):
            row.add(_POOL[-1])
        rows.append(frozenset(row))
    return rows, ordered


@st.composite
def one_off_year(draw):
    """4-30 rows, each with 3-6 references no other row cites and up to two
    of five shared ones; every one-off is a candidate."""
    shared, one_offs = _POOL[:5], _POOL[5:]
    n_rows = draw(st.integers(min_value=4, max_value=30))
    per_row = draw(st.integers(min_value=3, max_value=6))
    rows = [
        frozenset(one_offs[r * per_row:(r + 1) * per_row])
        | draw(st.frozensets(st.sampled_from(shared), max_size=2))
        for r in range(n_rows)
    ]
    candidates = one_offs[:n_rows * per_row] + draw(st.lists(st.sampled_from(shared), unique=True))
    return rows, draw(st.permutations(candidates))


@st.composite
def tall_year(draw):
    """2,000-3,000 rows, each 3 of 100 references, with some left out of
    the candidates."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pool = _POOL[:100]
    rows = [frozenset(rng.sample(pool, 3)) for _ in range(draw(st.integers(2000, 3000)))]
    ordered = rng.sample(pool, draw(st.integers(min_value=2, max_value=len(pool))))
    return rows, ordered


class TestCountingShapes:
    @pytest.mark.parametrize("year", [dense_year(), one_off_year(), tall_year()],
                             ids=["dense", "one-off", "tall"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_counts_match_brute_force(self, year, data):
        rows, ordered = data.draw(year)
        counts = cocitation_counts(rows, ordered)
        assert all(0 <= a < b < len(ordered) for a, b in counts)
        by_refs = {tuple(sorted((ordered[a], ordered[b]))): n
                   for (a, b), n in counts.items()}
        records = [mkrec(f"p{i}", refs=row) for i, row in enumerate(rows)]
        assert by_refs == brute_cocitation_counts(records, ordered)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(dense_year(), one_off_year()), _threshold_lists, st.data())
    def test_permuting_rows_or_their_items_keeps_the_cores(self, year, thresholds, data):
        rows, _ = year
        cores = core_references(rows, thresholds)
        shuffled = data.draw(st.permutations(rows))
        assert core_references(shuffled, thresholds) == cores
        reordered = [data.draw(st.permutations(sorted(row)))
                     for row in rows]
        assert core_references(reordered, thresholds) == cores


# Threshold lists that include pairs whose cocite_min exceeds their cite_min.
_any_threshold_lists = st.lists(
    st.builds(ThresholdPair, st.integers(min_value=1, max_value=5),
              st.integers(min_value=1, max_value=5)),
    min_size=1,
    max_size=4,
)


class TestCoreKernels:
    """Each way ``core_references`` may find a year's cores, called on its
    own, gives the oracle's core under every threshold pair."""

    @pytest.mark.parametrize("kernel", [_mask_cores, _pair_cores], ids=["masks", "pairs"])
    @pytest.mark.parametrize("year", [dense_year(), one_off_year(), tall_year()],
                             ids=["dense", "one-off", "tall"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, kernel, year, data):
        rows, _ = data.draw(year)
        thresholds = data.draw(st.one_of(_threshold_lists, _any_threshold_lists))
        ordered, counts = _candidates(rows, thresholds)
        records = [mkrec(f"p{i}", refs=row) for i, row in enumerate(rows)]
        assert kernel(rows, ordered, counts, thresholds) == [
            brute_core_refs(records, t) for t in thresholds]

    def test_a_candidate_with_no_partner_is_no_later_candidates_partner(self):
        # A (4 rows) finds no partner and leaves the scan; B and C (3 rows
        # each) share 2 rows, so they are core under 3/2 and A is not.
        a, b, c = (mkref(f"{name}, 1960, J") for name in "ABC")
        rows = [frozenset({a}), frozenset({a}), frozenset({a, b}), frozenset({a, c}),
                frozenset({b, c}), frozenset({b, c})]
        thresholds = [ThresholdPair(3, 2), ThresholdPair(3, 1)]
        ordered, counts = _candidates(rows, thresholds)
        assert ordered[0] == a
        for kernel in (_mask_cores, _pair_cores):
            assert kernel(rows, ordered, counts, thresholds) == [
                frozenset({b, c}), frozenset({a, b, c})]


_BENCH_THRESHOLDS = [ThresholdPair(15, 11), ThresholdPair(15, 8), ThresholdPair(11, 9),
                     ThresholdPair(10, 8)]


def _paper_like_year(seed: int) -> list[frozenset[str]]:
    """1,000 rows shaped like a year of ``scripts/make_synthetic_corpus.py``:
    a canon of nine, each cited by nine rows in ten, and one to three of
    150 rarely cited references."""
    rng = random.Random(seed)
    canon, tail = _POOL[:9], _POOL[50:]
    return [frozenset([ref for ref in canon if rng.random() < 0.9]
                      + rng.sample(tail, rng.randint(1, 3)))
            for _ in range(1000)]


class TestKernelRule:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_paper_like_year_takes_masks(self, seed):
        rows = _paper_like_year(seed)
        for thresholds in (_BENCH_THRESHOLDS, [ThresholdPair(1, 1)]):
            assert _masks_cheaper(len(rows), _candidates(rows, thresholds)[1])

    @settings(max_examples=10, deadline=None)
    @given(tall_year())
    def test_a_tall_year_takes_pairs(self, year):
        rows, _ = year
        assert not _masks_cheaper(len(rows), _candidates(rows, _BENCH_THRESHOLDS)[1])

    def test_a_year_with_no_candidate_takes_pairs(self):
        assert not _masks_cheaper(0, [])
        assert core_references([], [ThresholdPair(1, 1)]) == [frozenset()]

import pytest
from hypothesis import given, settings, strategies as st

from bibshift import (
    ThresholdPair,
    citation_counts,
    cocitation_counts,
    core_references,
    distinct_ref_count,
    build_corpus,
)
from bibshift.cocitation import core_sets, pair_key
from conftest import mkrec, mkref
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

    def test_cocite_above_cite_warns_but_constructs(self):
        with pytest.warns(UserWarning):
            t = ThresholdPair(3, 5)
        assert t.cocite_min == 5

    @pytest.mark.parametrize("text", ["15", "a/b", "15/", "/8"])
    def test_unparseable_text_rejected(self, text):
        with pytest.raises(ValueError):
            ThresholdPair.parse(text)


class TestCitationCounts:
    def test_s1_counts(self, s1_slice, s1_refs):
        counts = citation_counts(s1_slice)
        assert counts[s1_refs["R1"]] == 4
        assert counts[s1_refs["R2"]] == 3
        assert counts[s1_refs["R3"]] == 3

    def test_no_refs_yields_empty_map(self):
        sl = build_corpus([mkrec("m", year=1970)]).slice(1970)
        assert citation_counts(sl) == {}

    def test_single_paper_single_ref(self):
        sl = build_corpus([mkrec("p", refs=["R1, 1960, J"])]).slice(1970)
        assert list(citation_counts(sl).values()) == [1]


class TestCocitationCounts:
    def test_s1_pairs(self, s1_slice, s1_refs):
        r = s1_refs
        counts = cocitation_counts(s1_slice, r.values())
        assert counts[pair_key(r["R1"], r["R2"])] == 3
        assert counts[pair_key(r["R1"], r["R3"])] == 2
        assert counts[pair_key(r["R2"], r["R3"])] == 1
        assert len(counts) == 3

    def test_single_candidate_has_no_pairs(self, s1_slice, s1_refs):
        assert cocitation_counts(s1_slice, [s1_refs["R1"]]) == {}

    def test_restricting_candidates_restricts_pairs(self, s1_slice, s1_refs):
        r = s1_refs
        counts = cocitation_counts(s1_slice, [r["R1"], r["R2"]])
        assert counts == {pair_key(r["R1"], r["R2"]): 3}

    def test_pair_key_is_order_insensitive(self):
        a, b = mkref("A, 1960, J"), mkref("B, 1961, J")
        assert pair_key(a, b) == pair_key(b, a)


class TestCoreReferences:
    def test_s1_thresholds_3_2(self, s1_slice, s1_refs):
        core = core_references(s1_slice, ThresholdPair(3, 2))
        assert core.members == frozenset(s1_refs.values())

    def test_s1_thresholds_3_3_drops_r3(self, s1_slice, s1_refs):
        core = core_references(s1_slice, ThresholdPair(3, 3))
        assert core.members == frozenset({s1_refs["R1"], s1_refs["R2"]})

    def test_s1_thresholds_5_1_empty(self, s1_slice):
        assert core_references(s1_slice, ThresholdPair(5, 1)).members == frozenset()

    def test_partner_must_itself_qualify(self):
        # X is cited twice and co-cited twice with Y, but Y is cited only
        # twice, below cite_min 3: under 3/2 neither is core even though
        # pair counts alone would admit X
        records = [
            mkrec("p1", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p2", refs=["X, 1960, J", "Y, 1961, J"]),
            mkrec("p3", refs=["X, 1960, J", "Z, 1962, J"]),
        ]
        sl = build_corpus(records).slice(1970)
        core = core_references(sl, ThresholdPair(3, 2))
        assert core.members == frozenset()

    def test_year_and_thresholds_recorded(self, s1_slice):
        core = core_references(s1_slice, ThresholdPair(3, 2))
        assert core.year == 1970
        assert core.thresholds == ThresholdPair(3, 2)


class TestDistinctRefCount:
    def test_s1(self, s1_slice):
        assert distinct_ref_count(s1_slice) == 3

    def test_empty_slice(self):
        sl = build_corpus([mkrec("a", year=1971)], (1970, 1971)).slice(1970)
        assert distinct_ref_count(sl) == 0

    def test_identical_sets_count_once(self):
        refs = ["A, 1960, J", "B, 1961, J"]
        sl = build_corpus([mkrec("p1", refs=refs), mkrec("p2", refs=refs)]).slice(1970)
        assert distinct_ref_count(sl) == 2


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
    return build_corpus(papers).slice(1970)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_slice())
    def test_counts_match_brute_force(self, sl):
        assert citation_counts(sl) == brute_citation_counts(sl)
        cites = citation_counts(sl)
        assert cocitation_counts(sl, cites) == brute_cocitation_counts(sl, cites)

    @settings(max_examples=150, deadline=None)
    @given(random_slice(),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5))
    def test_core_matches_brute_force(self, sl, cite_min, cocite_min):
        t = ThresholdPair(cite_min, min(cocite_min, cite_min))
        assert core_references(sl, t).members == brute_core_refs(sl, t)

    @settings(max_examples=150, deadline=None)
    @given(random_slice())
    def test_pair_count_bounded_by_member_counts(self, sl):
        cites = citation_counts(sl)
        for (a, b), n in cocitation_counts(sl, cites).items():
            assert n <= min(cites[a], cites[b])

    @settings(max_examples=150, deadline=None)
    @given(random_slice(),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_loosening_thresholds_grows_core(self, sl, cite_min, cocite_min, dc, dcc):
        cocite_min = min(cocite_min, cite_min)
        # cap keeps the pair warning-free and still >= loose componentwise
        tight = ThresholdPair(cite_min + dc, min(cocite_min + dcc, cite_min + dc))
        loose = ThresholdPair(cite_min, cocite_min)
        assert core_references(sl, tight).members <= core_references(sl, loose).members


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
            assert [c.year for c in cores[t]] == corpus.years()
            for core in cores[t]:
                assert core.thresholds == t
                assert core.members == brute_core_refs(corpus.slice(core.year), t)

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
        assert cores[strict][0].members == frozenset()
        assert cores[loose][0].members == frozenset(
            {mkref("X, 1960, J"), mkref("Y, 1961, J")}
        )

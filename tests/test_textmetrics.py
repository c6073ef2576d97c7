import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bibshift import textmetrics
from bibshift.records import Source, build_corpus, split_by_source
from bibshift.textmetrics import (
    CoWordPair,
    DocShare,
    default_stopwords,
    load_stopwords,
    new_coword_pairs,
    new_terms,
    parse_stopwords,
    phrase_trend,
    sum_phrase_trends,
    title_token_sequence,
    tokenize_title,
)
from conftest import coword_pairs, mkrec, term_stats
from oracles import (
    brute_co_doc_freq,
    brute_doc_freq,
    brute_new_coword_pairs,
    brute_new_terms,
    brute_sequence,
    brute_tokens,
)

EMPTY_STOP = frozenset()


class TestStopWordList:
    def test_lookup_is_case_insensitive(self):
        assert tokenize_title("OF Virus of", frozenset({"of"})) == {"virus"}

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n\nThe\nAND\n", encoding="utf-8")
        assert load_stopwords(path) == {"the", "and"}

    def test_default_list_is_packaged(self):
        stop = default_stopwords()
        assert type(stop) is frozenset
        assert {"the", "of"} <= stop
        assert len(stop) > 100


class TestTokenize:
    def test_spec_title(self, s2_stop):
        tokens = tokenize_title("Reverse transcriptase of avian virus", s2_stop)
        assert tokens == {"reverse", "transcriptase", "avian", "virus"}

    def test_all_stop_words(self, s2_stop):
        assert tokenize_title("Of of OF in", s2_stop) == frozenset()

    def test_hyphen_splits_and_short_tokens_survive_at_two_chars(self):
        tokens = tokenize_title("RNA-dependent DNA polymerase", EMPTY_STOP)
        assert tokens == {"rna", "dependent", "dna", "polymerase"}

    def test_digits_and_single_characters_dropped(self):
        tokens = tokenize_title("A 2nd x 1970 b12 virus", EMPTY_STOP)
        assert tokens == {"2nd", "b12", "virus"}

    def test_empty_title(self):
        assert tokenize_title("", EMPTY_STOP) == frozenset()

    def test_repeats_collapse(self):
        assert tokenize_title("virus virus VIRUS", EMPTY_STOP) == {"virus"}

    def test_underscore_is_a_separator(self):
        assert tokenize_title("alpha_beta", EMPTY_STOP) == {"alpha", "beta"}

    def test_sequence_keeps_order_stop_words_and_case_folds(self):
        seq = title_token_sequence("Reverse Transcription OF 1 mice")
        assert seq == ("reverse", "transcription", "of", "1", "mice")


class TestDocFrequencies:
    def test_s2_counts_and_percent(self, s2_slice, s2_stop):
        stats = term_stats(s2_slice, s2_stop)
        assert {t: s.doc_freq for t, s in stats.items()} == {
            "reverse": 2, "avian": 2, "virus": 2,
            "transcriptase": 1, "tumor": 1, "studies": 1,
            "transcription": 1, "mice": 1,
        }
        assert stats["reverse"].percent == pytest.approx(200 / 3)

    def test_sorted_by_freq_then_term(self, s2_slice, s2_stop):
        stats = term_stats(s2_slice, s2_stop)
        assert list(stats)[:3] == ["avian", "reverse", "virus"]
        assert [s.doc_freq for s in stats.values()] == sorted(
            (s.doc_freq for s in stats.values()), reverse=True
        )

    def test_empty_slice(self):
        sl = build_corpus([mkrec("a", year=1971)], (1970, 1971))[1970]
        assert term_stats(sl, EMPTY_STOP) == {}

    def test_identical_titles_reach_hundred_percent(self):
        records = [mkrec(f"r{i}", title="Same words here", year=1970) for i in range(4)]
        sl = build_corpus(records)[1970]
        assert term_stats(sl, EMPTY_STOP) == {
            "same": DocShare(4, 100.0), "words": DocShare(4, 100.0),
            "here": DocShare(4, 100.0)}

    def test_empty_titles_count_in_denominator(self):
        records = [
            mkrec("a", title="virus", year=1970),
            mkrec("b", title="", year=1970),
        ]
        sl = build_corpus(records)[1970]
        assert term_stats(sl, EMPTY_STOP) == {"virus": DocShare(1, 50.0)}


class TestNewTerms:
    def test_s2_new_terms(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=1.0)
        assert fresh == {"mice": DocShare(1, 100 / 3), "transcription": DocShare(1, 100 / 3)}
        assert list(fresh) == ["mice", "transcription"]

    def test_same_slice_has_no_new_terms(self, s2_slice, s2_stop):
        assert new_terms(s2_slice, s2_slice, s2_stop, min_percent=0.0) == {}

    def test_zero_percent_floor_admits_rare_terms(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=0.0)
        assert set(fresh) == {"transcription", "mice"}

    def test_floor_excludes_below_threshold(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=50.0)
        assert fresh == {}  # both new terms sit at 1/3 of the later slice

    def test_sub_threshold_presence_is_not_novelty(self, s2_stop):
        former = build_corpus(
            [mkrec("a", title="whisper of transcription", year=1970)]
            + [mkrec(f"f{i}", title="other text", year=1970) for i in range(9)]
        )[1970]
        later = build_corpus(
            [mkrec(f"l{i}", title="transcription study", year=1971) for i in range(5)]
        )[1971]
        fresh = new_terms(former, later, s2_stop, min_percent=1.0)
        # present in 10% of former papers, so not new at any later frequency
        assert "transcription" not in fresh

    def test_negative_floor_rejected(self, s2_slice, s2_stop):
        with pytest.raises(ValueError):
            new_terms(s2_slice, s2_slice, s2_stop, min_percent=-1.0)


class TestCosinePairs:
    """Cosine scoring of ``new_coword_pairs`` against an empty former year,
    with no percent floor: every co-occurring pair is new."""

    def test_s2_values(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        assert pairs[("avian", "virus")].cosine == pytest.approx(1.0)
        assert pairs[("avian", "reverse")].cosine == pytest.approx(0.5)

    def test_pairs_ordered_and_canonical(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        for a, b in pairs:
            assert a < b
        order = [(-p.co_doc_freq, pair) for pair, p in pairs.items()]
        assert order == sorted(order)

    def test_never_cooccurring_pair_absent(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        assert ("mice", "tumor") not in pairs

    def test_threshold_angle_interpretation(self):
        assert 75.0 <= math.degrees(math.acos(0.25)) <= 76.0

    def test_min_cosine_boundary_is_inclusive(self):
        records = [mkrec("a", title="alpha beta", year=1970),
                   mkrec("b", title="alpha beta", year=1970),
                   mkrec("c", title="alpha gamma", year=1970),
                   mkrec("d", title="beta delta", year=1970)]
        sl = build_corpus(records)[1970]
        # cosine(alpha, beta) = 2/sqrt(3*3) = 2/3
        pairs = coword_pairs(sl, EMPTY_STOP, min_cosine=2 / 3)
        assert pairs == {("alpha", "beta"): CoWordPair(2, 2 / 3, 50.0)}

    def test_invalid_min_cosine_rejected(self, s2_slice, s2_stop):
        with pytest.raises(ValueError, match=r"^min_cosine must be in \[0, 1\], got 1.5$"):
            coword_pairs(s2_slice, s2_stop, min_cosine=1.5)


class TestNewCowordPairs:
    def test_negative_min_percent_rejected(self, s2_former_slice, s2_slice, s2_stop):
        with pytest.raises(ValueError, match="min_percent must be >= 0"):
            new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                             min_cosine=0.25, min_percent=-1.0)

    def test_s2_new_pairs(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                                 min_cosine=0.25, min_percent=1.0)
        assert ("reverse", "transcription") in fresh
        assert ("avian", "virus") not in fresh

    def test_members_may_exist_individually(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                                 min_cosine=0.0, min_percent=0.0)
        # "reverse" and "mice" both qualify via pair-level novelty even
        # though "reverse" already existed alone
        assert ("mice", "reverse") in fresh

    def test_identical_slices_give_nothing(self, s2_slice, s2_stop):
        assert new_coword_pairs(s2_slice, s2_slice, s2_stop, 0.0, 0.0) == {}

    def test_percent_is_later_share(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_coword_pairs(s2_former_slice, s2_slice, s2_stop, 0.25, 1.0)
        assert fresh
        for p in fresh.values():
            assert p.percent == pytest.approx(100.0 * p.co_doc_freq / 3)

    def test_cosine_floor_prunes_weak_new_pairs(self, s2_former_slice, s2_slice, s2_stop):
        # (mice, transcription) co-occur exclusively (cosine 1.0); every other
        # new pair involves "reverse" (doc_freq 2) and lands at 1/sqrt(2)
        tight = new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                                 min_cosine=0.9, min_percent=0.0)
        assert tight == {("mice", "transcription"): CoWordPair(1, 1.0, 100 / 3)}


    @pytest.mark.parametrize("later_titles, keep, path, pair", [
        # alpha (3 of 4) and beta (2 of 4) reach 50 %; gamma, delta, epsilon do
        # not. One pair of keep terms against two title pairs: title masks.
        (["alpha beta", "alpha beta", "alpha gamma", "delta epsilon"],
         {"alpha", "beta"}, "_title_masks", CoWordPair(2, 2 / math.sqrt(6), 50.0)),
        # alpha, beta and gamma (2 of 4 each) reach 50 %; delta and epsilon do
        # not. Three pairs of keep terms against two title pairs: enumeration.
        (["alpha beta", "alpha beta", "gamma delta", "gamma epsilon"],
         {"alpha", "beta", "gamma"}, "_term_pairs", CoWordPair(2, 1.0, 50.0)),
    ], ids=["masks", "enumeration"])
    def test_no_pair_with_a_term_below_the_floor_is_counted(self, monkeypatch, later_titles,
                                                             keep, path, pair):
        former_titles = ["alpha gamma", "beta delta"]
        counted = {}
        for name in ("_term_pairs", "_title_masks"):
            def spy(token_sets, *rest, name=name, original=getattr(textmetrics, name)):
                token_sets = [set(tokens) for tokens in token_sets]
                counted.setdefault(name, []).append(token_sets)
                return original(token_sets, *rest)

            monkeypatch.setattr(textmetrics, name, spy)
        fresh = new_coword_pairs(_slice(former_titles, 1970), _slice(later_titles, 1971),
                                 EMPTY_STOP, min_cosine=0.0, min_percent=50.0)
        assert fresh == {("alpha", "beta"): pair}
        assert list(counted) == [path]
        # each path reads the former titles, then the later ones, as keep terms only
        assert counted[path] == [[keep.intersection(title.split()) for title in titles]
                                 for titles in (former_titles, later_titles)]


@pytest.mark.parametrize("analysis", [
    lambda former, later, stop, percent: new_terms(former, later, stop, percent),
    lambda former, later, stop, percent: new_coword_pairs(former, later, stop, 0.25, percent),
], ids=["new_terms", "new_coword_pairs"])
def test_nan_min_percent_rejected(analysis, s2_former_slice, s2_slice, s2_stop):
    with pytest.raises(ValueError, match=r"^min_percent must be >= 0, got nan$"):
        analysis(s2_former_slice, s2_slice, s2_stop, math.nan)


class TestPhraseTrend:
    def make_corpus(self):
        titles = {
            1970: ["virus study", "tumor viruses"],
            1971: ["Reverse transcriptase of avian virus",
                   "reverse transcription in mice",
                   "unrelated title"],
            1972: ["more reverse transcriptase work"],
        }
        records = [
            mkrec(f"r{y}{i}", title=t, year=y)
            for y, ts in titles.items()
            for i, t in enumerate(ts)
        ]
        return build_corpus(records)

    def test_s2_single_year_count(self, s2_slice):
        corpus = build_corpus(list(s2_slice))
        assert phrase_trend(corpus, "reverse", "transcr") == {1971: DocShare(2, 200 / 3)}

    def test_rise_from_zero(self):
        trend = phrase_trend(self.make_corpus(), "reverse", "transcr")
        assert trend == {1970: DocShare(0, 0.0), 1971: DocShare(2, 200 / 3),
                         1972: DocShare(1, 100.0)}
        assert list(trend) == [1970, 1971, 1972]

    def test_head_absent_everywhere(self):
        trend = phrase_trend(self.make_corpus(), "garbanzo", "transcr")
        assert trend == dict.fromkeys([1970, 1971, 1972], DocShare(0, 0.0))

    def test_adjacency_required(self):
        corpus = build_corpus([
            mkrec("a", title="reverse of transcription", year=1970),
        ])
        assert phrase_trend(corpus, "reverse", "transcr")[1970].doc_freq == 0

    def test_stop_words_not_removed_for_adjacency(self):
        # with stop-word removal "reverse the transcription" would look
        # adjacent; the raw sequence must not match
        corpus = build_corpus([
            mkrec("a", title="reverse the transcription", year=1970),
            mkrec("b", title="reverse transcription", year=1970),
        ])
        assert phrase_trend(corpus, "reverse", "transcr") == {1970: DocShare(1, 50.0)}

    def test_record_counts_once_despite_two_matches(self):
        corpus = build_corpus([
            mkrec("a", title="reverse transcriptase and reverse transcription", year=1970),
        ])
        assert phrase_trend(corpus, "reverse", "transcr") == {1970: DocShare(1, 100.0)}

    def test_empty_year_has_zero_percent(self):
        corpus = build_corpus([mkrec("a", title="reverse transcription", year=1971)],
                              (1970, 1971))
        trend = phrase_trend(corpus, "reverse", "transcr")
        assert trend == {1970: DocShare(0, 0.0), 1971: DocShare(1, 100.0)}

    def test_dotted_capital_i_stays_one_token(self):
        # "İ".casefold() is "i" plus a combining dot, which is no word
        # character; folding the title before splitting would yield "i", "stanbul"
        corpus = build_corpus([mkrec("a", title="İSTANBUL", year=1970)])
        assert phrase_trend(corpus, "i", "stanbul")[1970].doc_freq == 0
        assert phrase_trend(corpus, "İstanbul", "x")[1970].doc_freq == 0
        corpus = build_corpus([mkrec("a", title="İSTANBUL İZMİR", year=1970)])
        assert phrase_trend(corpus, "İstanbul", "İz")[1970].doc_freq == 1

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            phrase_trend(self.make_corpus(), "", "transcr")

    def test_per_source_trends_sum_to_the_corpus_trend(self):
        # the citation index has no 1972 record, MEDLINE none in 1970; 1973 is empty
        corpus = build_corpus([
            mkrec("c0", title="reverse transcriptase", year=1970),
            mkrec("c1", title="virus study", year=1970),
            mkrec("c2", title="reverse transcription", year=1971),
            mkrec("m0", title="tumor viruses", year=1971, source=Source.MEDLINE),
            mkrec("m1", title="Reverse Transcriptase", year=1972, source=Source.MEDLINE),
        ], (1970, 1973))
        parts = split_by_source(corpus)
        assert list(parts) == [Source.CITATION_INDEX, Source.MEDLINE]
        summed = sum_phrase_trends(
            corpus, (phrase_trend(part, "reverse", "transcr") for part in parts.values()))
        assert summed == phrase_trend(corpus, "reverse", "transcr")
        assert summed == {1970: DocShare(1, 50.0), 1971: DocShare(1, 50.0),
                          1972: DocShare(1, 100.0), 1973: DocShare(0, 0.0)}
        assert list(summed) == [1970, 1971, 1972, 1973]


_title = st.text(
    alphabet=st.sampled_from(list("abc de-f.2X ")),
    max_size=30,
)


# Stop words (of the), one-letter words and digit runs mixed with terms.
_filtered_title = st.lists(
    st.sampled_from(["of", "Of", "the", "a", "x", "X", "1970", "22", "virus", "rna", "x2"]),
    max_size=6).map(" ".join)


def _slice(titles, year):
    records = [mkrec(f"r{year}-{i}", title=t, year=year) for i, t in enumerate(titles)]
    return build_corpus(records)[year]


@st.composite
def coword_cases(draw):
    """Former and later slices and the two floors; the percent floor is
    often exactly the share of a later term or pair, or 0."""
    former = _slice(draw(st.lists(_title, min_size=1, max_size=8)), 1970)
    later = _slice(draw(st.lists(_title, min_size=1, max_size=8)), 1971)
    counts = sorted({*brute_doc_freq(later, set()).values(),
                     *brute_co_doc_freq(later, set()).values()})
    exact = [100.0 * n / len(later) for n in counts]
    min_percent = draw(st.one_of(st.just(0.0), st.sampled_from(exact or [0.0]),
                                 st.floats(0, 100)))
    min_cosine = draw(st.one_of(st.just(0.0), st.floats(0, 1)))
    return former, later, min_percent, min_cosine


class TestOracleProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_title, min_size=1, max_size=10), st.sets(st.sampled_from(["de", "f2", "ab"])))
    def test_doc_freq_matches_brute_force(self, titles, stop_words):
        stop = frozenset(stop_words)
        records = [mkrec(f"r{i}", title=t, year=1970) for i, t in enumerate(titles)]
        sl = build_corpus(records)[1970]
        got = {term: s.doc_freq for term, s in term_stats(sl, stop).items()}
        assert got == brute_doc_freq(sl, set(stop_words))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_title, min_size=1, max_size=8))
    def test_cosine_matches_brute_force(self, titles):
        records = [mkrec(f"r{i}", title=t, year=1970) for i, t in enumerate(titles)]
        sl = build_corpus(records)[1970]
        df = brute_doc_freq(sl, set())
        co = brute_co_doc_freq(sl, set())
        got = coword_pairs(sl, EMPTY_STOP, 0.0)
        assert set(got) == set(co)
        for pair, p in got.items():
            assert p.co_doc_freq == co[pair]
            expected = co[pair] / math.sqrt(df[pair[0]] * df[pair[1]])
            assert p.cosine == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_title, min_size=1, max_size=8), st.lists(_title, min_size=1, max_size=8))
    def test_new_terms_matches_set_difference(self, former_titles, later_titles):
        former = build_corpus(
            [mkrec(f"f{i}", title=t, year=1970) for i, t in enumerate(former_titles)]
        )[1970]
        later = build_corpus(
            [mkrec(f"l{i}", title=t, year=1971) for i, t in enumerate(later_titles)]
        )[1971]
        fresh = set(new_terms(former, later, EMPTY_STOP, 0.0))
        former_tokens = set()
        for r in former:
            former_tokens |= brute_tokens(r.title, set())
        later_tokens = set()
        for r in later:
            later_tokens |= brute_tokens(r.title, set())
        assert fresh == later_tokens - former_tokens

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_title, min_size=1, max_size=8),
           st.floats(min_value=0, max_value=1))
    def test_raising_floors_never_adds_results(self, titles, min_cosine):
        records = [mkrec(f"r{i}", title=t, year=1970) for i, t in enumerate(titles)]
        sl = build_corpus(records)[1970]
        base = coword_pairs(sl, EMPTY_STOP, 0.0)
        tightened = coword_pairs(sl, EMPTY_STOP, min_cosine)
        assert tightened.keys() <= base.keys()

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from(list("İßﬁ\u212a_²٣") + list("aIk2 -.")), max_size=30),
           st.sets(st.sampled_from(["ss", "ﬁ", "fi", "k", "i̇", "aa"])))
    def test_tokens_match_brute_force_beyond_ascii(self, title, stop_words):
        # "²" is a digit to isdigit() but not to \d; "٣" is a decimal digit
        stop = parse_stopwords(stop_words)
        assert tokenize_title(title, stop) == brute_tokens(title, stop)
        assert list(title_token_sequence(title)) == brute_sequence(title)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters(max_codepoint=127), max_size=40),
           st.sets(st.sampled_from(["ab", "a1", "x", "12"])))
    # every ASCII character once, in code-point order
    @example("".join(map(chr, range(128))), set())
    def test_tokens_match_brute_force_on_every_ascii_character(self, title, stop_words):
        stop = parse_stopwords(stop_words)
        assert tokenize_title(title, stop) == brute_tokens(title, stop)
        assert list(title_token_sequence(title)) == brute_sequence(title)

    @settings(max_examples=300, deadline=None)
    @given(coword_cases())
    # (ab, cd) is in 2 of 8 later titles: exactly on the 25 % floor. Three
    # pairs of terms at the floor, two title pairs: enumeration.
    @example((_slice(["ab", "cd ef"], 1970),
              _slice(["ab cd", "ab cd"] + ["ef"] * 6, 1971), 25.0, 0.25))
    # Three pairs of terms at the floor, seven title pairs: title masks.
    @example((_slice(["ab ef", "cd"], 1970),
              _slice(["ab cd ef", "ab cd ef", "ab cd", "X"], 1971), 25.0, 0.0))
    def test_new_coword_pairs_match_brute_force(self, case):
        former, later, min_percent, min_cosine = case
        with mock.patch.object(textmetrics, "_title_masks",
                               wraps=textmetrics._title_masks) as masks:
            fresh = new_coword_pairs(former, later, EMPTY_STOP, min_cosine, min_percent)
        assert fresh == brute_new_coword_pairs(former, later, set(), min_cosine, min_percent)
        assert list(fresh) == sorted(fresh, key=lambda pair: (-fresh[pair].co_doc_freq, pair))
        keep = {term for term, n in brute_doc_freq(later, set()).items()
                if 100.0 * n / len(later) >= min_percent}
        title_pairs = sum(math.comb(len(brute_tokens(r.title, set()) & keep), 2)
                          for r in later)
        assert masks.called == (math.comb(len(keep), 2) < title_pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_filtered_title, min_size=1, max_size=6),
           st.lists(_filtered_title, min_size=1, max_size=6),
           st.sampled_from([0.0, 20.0, 50.0]))
    # the former titles hold only words the filter drops, each also in a later title
    @example(["Of the 1970 x", "a 22"], ["virus rna of 1970", "rna x the", "22 a virus"], 0.0)
    def test_former_words_the_filter_drops_are_never_new(self, former_titles,
                                                         later_titles, min_percent):
        # former titles are split but not filtered: a stop word, a one-letter
        # word or a digit run there can match no later analysis term
        former, later = _slice(former_titles, 1970), _slice(later_titles, 1971)
        stop = frozenset({"of", "the"})
        assert new_terms(former, later, stop, min_percent) == brute_new_terms(
            former, later, set(stop), min_percent)
        assert new_coword_pairs(former, later, stop, 0.0, min_percent) == (
            brute_new_coword_pairs(former, later, set(stop), 0.0, min_percent))

    def test_superscript_digits_are_kept(self):
        assert tokenize_title("x² ²² ٣٣", EMPTY_STOP) == {"x²", "²²"}

    def test_no_stop_words_in_any_output(self, s2_slice, s2_stop):
        for term in term_stats(s2_slice, s2_stop):
            assert term not in s2_stop
        for a, b in coword_pairs(s2_slice, s2_stop, 0.0):
            assert a not in s2_stop
            assert b not in s2_stop

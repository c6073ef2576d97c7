import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bibshift import textmetrics
from bibshift.records import build_corpus
from bibshift.textmetrics import (
    default_stopwords,
    load_stopwords,
    new_coword_pairs,
    new_terms,
    parse_stopwords,
    phrase_trend,
    title_token_sequence,
    tokenize_title,
)
from conftest import coword_pairs, mkrec, term_stats
from oracles import (
    brute_co_doc_freq,
    brute_doc_freq,
    brute_new_coword_pairs,
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
        by_term = {s.term: s for s in stats}
        assert {t: s.doc_freq for t, s in by_term.items()} == {
            "reverse": 2, "avian": 2, "virus": 2,
            "transcriptase": 1, "tumor": 1, "studies": 1,
            "transcription": 1, "mice": 1,
        }
        assert by_term["reverse"].percent == pytest.approx(200 / 3)

    def test_sorted_by_freq_then_term(self, s2_slice, s2_stop):
        stats = term_stats(s2_slice, s2_stop)
        assert [s.term for s in stats[:3]] == ["avian", "reverse", "virus"]
        assert [s.doc_freq for s in stats] == sorted(
            (s.doc_freq for s in stats), reverse=True
        )

    def test_empty_slice(self):
        sl = build_corpus([mkrec("a", year=1971)], (1970, 1971))[1970]
        assert term_stats(sl, EMPTY_STOP) == []

    def test_identical_titles_reach_hundred_percent(self):
        records = [mkrec(f"r{i}", title="Same words here", year=1970) for i in range(4)]
        sl = build_corpus(records)[1970]
        for s in term_stats(sl, EMPTY_STOP):
            assert s.doc_freq == 4
            assert s.percent == 100.0

    def test_empty_titles_count_in_denominator(self):
        records = [
            mkrec("a", title="virus", year=1970),
            mkrec("b", title="", year=1970),
        ]
        sl = build_corpus(records)[1970]
        [s] = term_stats(sl, EMPTY_STOP)
        assert s.percent == 50.0


class TestNewTerms:
    def test_s2_new_terms(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=1.0)
        assert {s.term for s in fresh} == {"transcription", "mice"}

    def test_same_slice_has_no_new_terms(self, s2_slice, s2_stop):
        assert new_terms(s2_slice, s2_slice, s2_stop, min_percent=0.0) == []

    def test_zero_percent_floor_admits_rare_terms(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=0.0)
        assert {s.term for s in fresh} == {"transcription", "mice"}

    def test_floor_excludes_below_threshold(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_terms(s2_former_slice, s2_slice, s2_stop, min_percent=50.0)
        assert fresh == []  # both new terms sit at 1/3 of the later slice

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
        assert "transcription" not in {s.term for s in fresh}

    def test_negative_floor_rejected(self, s2_slice, s2_stop):
        with pytest.raises(ValueError):
            new_terms(s2_slice, s2_slice, s2_stop, min_percent=-1.0)


class TestCosinePairs:
    """Cosine scoring of ``new_coword_pairs`` against an empty former year,
    with no percent floor: every co-occurring pair is new."""

    def test_s2_values(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        by_pair = {(p.term_a, p.term_b): p.cosine for p in pairs}
        assert by_pair[("avian", "virus")] == pytest.approx(1.0)
        assert by_pair[("avian", "reverse")] == pytest.approx(0.5)

    def test_pairs_ordered_and_canonical(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        for p in pairs:
            assert p.term_a < p.term_b
        order = [(-p.co_doc_freq, p.term_a, p.term_b) for p in pairs]
        assert order == sorted(order)

    def test_never_cooccurring_pair_absent(self, s2_slice, s2_stop):
        pairs = coword_pairs(s2_slice, s2_stop, min_cosine=0.0)
        assert ("mice", "tumor") not in {(p.term_a, p.term_b) for p in pairs}

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
        assert {(p.term_a, p.term_b) for p in pairs} == {("alpha", "beta")}

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
        keys = {(p.term_a, p.term_b) for p in fresh}
        assert ("reverse", "transcription") in keys
        assert ("avian", "virus") not in keys

    def test_members_may_exist_individually(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                                 min_cosine=0.0, min_percent=0.0)
        # "reverse" and "mice" both qualify via pair-level novelty even
        # though "reverse" already existed alone
        assert ("mice", "reverse") in {(p.term_a, p.term_b) for p in fresh}

    def test_identical_slices_give_nothing(self, s2_slice, s2_stop):
        assert new_coword_pairs(s2_slice, s2_slice, s2_stop, 0.0, 0.0) == []

    def test_percent_is_later_share(self, s2_former_slice, s2_slice, s2_stop):
        fresh = new_coword_pairs(s2_former_slice, s2_slice, s2_stop, 0.25, 1.0)
        for p in fresh:
            assert p.percent == pytest.approx(100.0 * p.co_doc_freq / 3)

    def test_cosine_floor_prunes_weak_new_pairs(self, s2_former_slice, s2_slice, s2_stop):
        # (mice, transcription) co-occur exclusively (cosine 1.0); every other
        # new pair involves "reverse" (doc_freq 2) and lands at 1/sqrt(2)
        tight = new_coword_pairs(s2_former_slice, s2_slice, s2_stop,
                                 min_cosine=0.9, min_percent=0.0)
        assert {(p.term_a, p.term_b) for p in tight} == {("mice", "transcription")}


    def test_no_pair_with_a_term_below_the_floor_is_counted(self, monkeypatch):
        former = build_corpus([mkrec("f1", title="alpha gamma", year=1970),
                               mkrec("f2", title="beta delta", year=1970)])[1970]
        later = build_corpus([mkrec("l1", title="alpha beta", year=1971),
                              mkrec("l2", title="alpha beta", year=1971),
                              mkrec("l3", title="alpha gamma", year=1971),
                              mkrec("l4", title="delta epsilon", year=1971)])[1971]
        counted = []
        original = textmetrics._term_pairs

        def spy(token_sets):
            token_sets = [set(tokens) for tokens in token_sets]
            counted.append(token_sets)
            return original(token_sets)

        monkeypatch.setattr(textmetrics, "_term_pairs", spy)
        # alpha (3 of 4) and beta (2 of 4) reach 50 %; gamma, delta, epsilon do not
        fresh = new_coword_pairs(former, later, EMPTY_STOP, min_cosine=0.0, min_percent=50.0)
        assert [(p.term_a, p.term_b, p.co_doc_freq) for p in fresh] == [("alpha", "beta", 2)]
        [former_sets, later_sets] = counted
        assert all(tokens <= {"alpha", "beta"} for tokens in former_sets + later_sets)
        assert set(original(former_sets)) == set()
        assert set(original(later_sets)) == {("alpha", "beta")}


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
        [point] = phrase_trend(corpus, "reverse", "transcr")
        assert point.doc_freq == 2
        assert point.percent == pytest.approx(200 / 3)

    def test_rise_from_zero(self):
        points = phrase_trend(self.make_corpus(), "reverse", "transcr")
        assert [(p.year, p.doc_freq) for p in points] == [
            (1970, 0), (1971, 2), (1972, 1),
        ]

    def test_head_absent_everywhere(self):
        points = phrase_trend(self.make_corpus(), "garbanzo", "transcr")
        assert all(p.doc_freq == 0 for p in points)

    def test_adjacency_required(self):
        corpus = build_corpus([
            mkrec("a", title="reverse of transcription", year=1970),
        ])
        [point] = phrase_trend(corpus, "reverse", "transcr")
        assert point.doc_freq == 0

    def test_stop_words_not_removed_for_adjacency(self):
        # with stop-word removal "reverse the transcription" would look
        # adjacent; the raw sequence must not match
        corpus = build_corpus([
            mkrec("a", title="reverse the transcription", year=1970),
            mkrec("b", title="reverse transcription", year=1970),
        ])
        [point] = phrase_trend(corpus, "reverse", "transcr")
        assert point.doc_freq == 1

    def test_record_counts_once_despite_two_matches(self):
        corpus = build_corpus([
            mkrec("a", title="reverse transcriptase and reverse transcription", year=1970),
        ])
        [point] = phrase_trend(corpus, "reverse", "transcr")
        assert point.doc_freq == 1

    def test_empty_year_has_zero_percent(self):
        corpus = build_corpus([mkrec("a", title="reverse transcription", year=1971)],
                              (1970, 1971))
        points = phrase_trend(corpus, "reverse", "transcr")
        assert points[0].doc_freq == 0
        assert points[0].percent == 0.0

    def test_dotted_capital_i_stays_one_token(self):
        # "İ".casefold() is "i" plus a combining dot, which is no word
        # character; folding the title before splitting would yield "i", "stanbul"
        corpus = build_corpus([mkrec("a", title="İSTANBUL", year=1970)])
        assert phrase_trend(corpus, "i", "stanbul")[0].doc_freq == 0
        assert phrase_trend(corpus, "İstanbul", "x")[0].doc_freq == 0
        corpus = build_corpus([mkrec("a", title="İSTANBUL İZMİR", year=1970)])
        assert phrase_trend(corpus, "İstanbul", "İz")[0].doc_freq == 1

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            phrase_trend(self.make_corpus(), "", "transcr")


_title = st.text(
    alphabet=st.sampled_from(list("abc de-f.2X ")),
    max_size=30,
)


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
        got = {s.term: s.doc_freq for s in term_stats(sl, stop)}
        assert got == brute_doc_freq(sl, set(stop_words))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_title, min_size=1, max_size=8))
    def test_cosine_matches_brute_force(self, titles):
        records = [mkrec(f"r{i}", title=t, year=1970) for i, t in enumerate(titles)]
        sl = build_corpus(records)[1970]
        df = brute_doc_freq(sl, set())
        co = brute_co_doc_freq(sl, set())
        got = {(p.term_a, p.term_b): p for p in coword_pairs(sl, EMPTY_STOP, 0.0)}
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
        fresh = {s.term for s in new_terms(former, later, EMPTY_STOP, 0.0)}
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
        base = {(p.term_a, p.term_b) for p in coword_pairs(sl, EMPTY_STOP, 0.0)}
        tightened = {(p.term_a, p.term_b) for p in coword_pairs(sl, EMPTY_STOP, min_cosine)}
        assert tightened <= base

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
    # (ab, cd) is in 2 of 8 later titles: exactly on the 25 % floor
    @example((_slice(["ab", "cd ef"], 1970),
              _slice(["ab cd", "ab cd"] + ["ef"] * 6, 1971), 25.0, 0.25))
    def test_new_coword_pairs_match_brute_force(self, case):
        former, later, min_percent, min_cosine = case
        fresh = new_coword_pairs(former, later, EMPTY_STOP, min_cosine, min_percent)
        got = {(p.term_a, p.term_b): (p.co_doc_freq, p.cosine, p.percent) for p in fresh}
        assert got == brute_new_coword_pairs(former, later, set(), min_cosine, min_percent)
        assert [(p.term_a, p.term_b) for p in fresh] == sorted(
            got, key=lambda pair: (-got[pair][0], pair))

    def test_superscript_digits_are_kept(self):
        assert tokenize_title("x² ²² ٣٣", EMPTY_STOP) == {"x²", "²²"}

    def test_no_stop_words_in_any_output(self, s2_slice, s2_stop):
        for s in term_stats(s2_slice, s2_stop):
            assert s.term not in s2_stop
        for p in coword_pairs(s2_slice, s2_stop, 0.0):
            assert p.term_a not in s2_stop
            assert p.term_b not in s2_stop

import re
import string
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from bibshift import refkey
from bibshift.refkey import parse_cited_ref
from oracles import brute_parse_cited_ref, brute_ref_fields

# Separators, Unicode whitespace (tab, NBSP, EM SPACE, \x1c), both cases of
# the volume and page markers, ASCII and non-ASCII decimal digits (ARABIC-INDIC
# THREE), a digit that is not decimal (SUPERSCRIPT TWO), and letters whose
# upper-case forms differ in length or need the context (ß -> SS, İ).
_REF_ALPHABET = (list(",\t\u00a0\u2003\x1c VPvp") + list(string.digits)
                 + list("٣²ßİ") + list("AXj."))


class TestParseCitedRef:
    def test_full_five_segment_string(self):
        assert parse_cited_ref("BALTIMORE D, 1970, NATURE, V226, P1209") == \
            "BALTIMORE D, 1970, NATURE, V226, P1209"

    def test_spacing_and_case_normalized(self):
        ref = parse_cited_ref("  baltimore d ,1970,  nature , V226, P1209 ")
        assert ref == "BALTIMORE D, 1970, NATURE, V226, P1209"

    def test_a_key_is_its_five_components_and_nothing_else(self):
        ref = parse_cited_ref("Baltimore D, 1970, Nature, V226, P1209, DOI 10.1/X")
        assert type(ref) is str and ref == "BALTIMORE D, 1970, NATURE, V226, P1209"

    def test_author_only(self):
        assert parse_cited_ref("ANON REPORT") == "ANON REPORT"

    def test_author_and_year(self):
        assert parse_cited_ref("TEMIN HM, 1964") == "TEMIN HM, 1964"

    def test_volume_and_page_recognized_anywhere(self):
        # the year slot is position 1 only, so 1960 is the source
        assert parse_cited_ref("SMITH A, V7, 1960, P99") == "SMITH A, , 1960, V7, P99"

    def test_non_year_second_segment(self):
        assert parse_cited_ref("WHO, TECH REP SER, GENEVA") == "WHO, , GENEVA"

    def test_source_taken_from_third_segment_only(self):
        assert parse_cited_ref("A, 1970, J ONE, J TWO") == "A, 1970, J ONE"

    def test_unparseable_extra_segments_are_dropped(self):
        ref = parse_cited_ref("A, 1970, J, V1, P2, DOI 10.1/xy")
        assert ref == parse_cited_ref("A, 1970, J, V1, P2") == "A, 1970, J, V1, P2"

    def test_case_and_spacing_insensitive_equality(self):
        a = parse_cited_ref("Baltimore D, 1970, Nature, V226, P1209")
        b = parse_cited_ref("BALTIMORE  D,1970,NATURE,  V226 , P1209")
        assert a == b
        assert hash(a) == hash(b)

    def test_differing_components_not_equal(self):
        a = parse_cited_ref("A, 1970, NATURE, V1, P1")
        b = parse_cited_ref("A, 1970, NATURE, V1, P2")
        assert a != b

    def test_empty_string(self):
        assert parse_cited_ref("") == ""

    def test_first_volume_and_page_win(self):
        assert parse_cited_ref("A, 1970, J, V1, V2, P3, P4") == "A, 1970, J, V1, P3"

    @given(st.text(alphabet=string.printable, max_size=80))
    def test_never_raises(self, raw):
        assert type(parse_cited_ref(raw)) is str

    # Segments with digit runs around int()'s default 4,300-digit limit,
    # after V, P, either case or nothing, in any position.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.text(alphabet=st.sampled_from(_REF_ALPHABET), max_size=8),
        st.builds(lambda marker, digit, n: marker + digit * n,
                  st.sampled_from(["V", "P", "v", "p", " V", ""]),
                  st.sampled_from(["9", "1", "٣"]), st.integers(4290, 6000))),
        max_size=6).map(", ".join))
    @example("SMITH J, 1960, NATURE, V" + "9" * 5000 + ", P1")
    def test_never_raises_on_long_digit_runs(self, raw):
        ref = parse_cited_ref(raw)
        assert ref == brute_parse_cited_ref(raw)
        assert parse_cited_ref(ref) == ref

    def test_a_run_int_refuses_is_dropped(self):
        raw = "SMITH J, 1960, NATURE, V" + "9" * 5000 + ", P1"
        assert parse_cited_ref(raw) == "SMITH J, 1960, NATURE, P1"
        # a later volume segment that converts is taken
        assert parse_cited_ref(raw + ", V7") == "SMITH J, 1960, NATURE, V7, P1"

    @settings(max_examples=300)
    @given(st.lists(st.text(alphabet=st.sampled_from(_REF_ALPHABET), max_size=24), max_size=6))
    @example(["X,,1970", "X, 1970", "X, , 1970"])
    @example(["a, 0970, J", "A, 970, J", "A, , 0970, J"])
    @example([", V12, 1970", "V12, , 1970, V12"])
    @example([",", ", ,", ""])
    @example(["A, 1970, J, V" + "1" * 19, "A, 1970, J, V" + "1" * 18])
    @example(["baltimore  d,1970, nature, v226,p1209, doi 10.1038/226209a0"])
    def test_reparsing_canonical_is_a_fixed_point(self, raws):
        for ref in map(parse_cited_ref, raws):
            assert parse_cited_ref(ref) == ref


# _REF_ALPHABET with more Unicode decimal digits (ARABIC-INDIC ONE, NINE,
# SEVEN, ZERO; EXTENDED ARABIC-INDIC THREE; DEVANAGARI SEVEN) and ß again,
# so that more drawn strings spell alike.
_IDENTITY_ALPHABET = _REF_ALPHABET + list("١٩٧٠۳७ß")


def _with_respellings(raws: list[str]) -> list[str]:
    """``raws``, each also in lower case and with spaces around its commas."""
    return raws + [raw.lower() for raw in raws] + [raw.replace(",", " ,\t") for raw in raws]


class TestSpellingIsAnIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet=st.sampled_from(_IDENTITY_ALPHABET), max_size=16),
                    min_size=1, max_size=4).map(_with_respellings))
    @example(["X,,1970", "X, 1970", "X, , 1970", "x, , 1970"])
    @example(["a, 0970, J", "A, 970, J", "A, , 0970, J", "A, ٠٩٧٠, J"])
    @example(["A, 1970, J, V007", "A, 1970, J, V7", "a,1970,j,v७", "A, 1970, J, P7",
              "a,1970,j,p७"])
    @example(["x, ١٩٧٠, j", "X, 1970, J", "X, 1970, J, DOI 10.1/X"])
    @example(["ß, 1970", "SS, 1970", "ss,1970", "S, 1970"])
    @example(["A, 1970, J, V" + "1" * 5000, "A, 1970, J", "A, 1970, J, V1"])
    @example([",", ", ,", "", " ", "\t,"])
    def test_two_strings_spell_alike_exactly_when_their_fields_agree(self, raws):
        refs = list(map(parse_cited_ref, raws))
        fields = list(map(brute_ref_fields, raws))
        for ref, field in zip(refs, fields):
            assert parse_cited_ref(ref) == ref
            assert [ref == other for other in refs] == [field == other for other in fields]


class TestOneNormalizingPass:
    @settings(max_examples=400)
    @given(st.text(alphabet=st.sampled_from(_REF_ALPHABET), max_size=30))
    @example("  baltimore d ,1970,  nature , V226, P1209 ")
    @example("x, ١٩٧٠, j, v٣, p٢")
    @example("x, 1970, j, V², P²")
    @example("\x1c,\u2003,\u00a0")
    @example("ß, 1970, İ")
    def test_every_field_matches_the_per_segment_parser(self, raw):
        assert parse_cited_ref(raw) == brute_parse_cited_ref(raw)

    def test_normalizing_before_the_split_is_exact_on_every_code_point(self):
        # The three facts that make one pass over the whole string give the
        # same segments and components as one pass per segment.
        space, digit = re.compile(r"\s"), re.compile(r"\d")
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert (space.fullmatch(ch) is not None) == ch.isspace(), hex(code)
            assert (digit.fullmatch(ch) is not None) == ch.isdecimal(), hex(code)
            if ch != "," and not ch.isspace():
                upper = ch.upper()
                assert "," not in upper and not any(c.isspace() for c in upper), hex(code)


# Strings of the Web of Science shape AUTHOR, YYYY, SOURCE[, Vn][, Pn][, DOI d]
# and its near misses, written already normalized. Each string of _SHAPED
# takes the one-match path; each other one names why it falls through to the
# segment loop.
_SHAPED = ("BALTIMORE D, 1970, NATURE, V226, P1209",
           "BALTIMORE D, 1970, NATURE, V226, P1209, DOI 10.1038/226209A0")
_DOI = "DOI 10.1038/226209A0"
_FALLBACKS = {
    "no space after a comma": "BALTIMORE D,1970, NATURE, V226, P1209",
    "space before a comma": "BALTIMORE D , 1970, NATURE, V226, P1209",
    "Unicode-digit year": "BALTIMORE D, ١٩٧٠, NATURE, V226, P1209",
    "Unicode-digit volume": "BALTIMORE D, 1970, NATURE, V٢٢٦, P1209",
    "19-digit volume": "BALTIMORE D, 1970, NATURE, V" + "9" * 19 + ", P1209",
    "page before volume": "BALTIMORE D, 1970, NATURE, P1209, V226",
    "DOI list holding a comma": "BALTIMORE D, 1970, NATURE, V226, P1209, "
                                "DOI [10.1038/226209A0, 10.1038/226211A0]",
    "trailing segment other than a DOI": "BALTIMORE D, 1970, NATURE, V226, P1209, ERRATUM",
    "no source": "BALTIMORE D, 1970",
}
# a source the loop reads as a volume or page: the match fits, the key may not
_SOURCE_IS_A_MARKER = ("A, 1970, V12, P3", "A, 1970, P3")


_NEAR_MISSES = ("lower case", "doubled space", "no space after a comma",
                "space before a comma", "Unicode-digit year", "Unicode-digit volume",
                "19-digit volume", "source V12", "source P3", "page before volume",
                "DOI list holding a comma", "trailing segment other than a DOI",
                "no source")


@st.composite
def _wos_shaped(draw) -> str:
    """A reference of the shape, half the time with up to three near misses."""
    digits = st.sampled_from(["0", "7", "0226", "9" * 18])
    author = draw(st.sampled_from(["BALTIMORE D", "Temin HM", "V12", "ß", "X.Y"]))
    year = draw(st.sampled_from(["1970", "0001", "2099"]))
    source = draw(st.sampled_from(["NATURE", "j cell biol", "V", "P3X", "1971", _DOI]))
    volume = draw(st.none() | st.builds("V{}".format, digits))
    page = draw(st.none() | st.builds("P{}".format, digits))
    doi = draw(st.sampled_from([None, _DOI, "doi 10.1016/0092-8674(86)90016-3"]))
    misses = (draw(st.sets(st.sampled_from(_NEAR_MISSES), min_size=1, max_size=3))
              if draw(st.booleans()) else set())
    if "Unicode-digit year" in misses:
        year = "١٩٧٠"
    if "Unicode-digit volume" in misses:
        volume = "V٢٢٦"
    if "19-digit volume" in misses:
        volume = "V" + "9" * 19
    if "source V12" in misses:
        source = "V12"
    if "source P3" in misses:
        source = "P3"
    if "DOI list holding a comma" in misses:
        doi = "DOI [10.1038/226209A0, V12]"
    marks = [mark for mark in (volume, page) if mark is not None]
    if "page before volume" in misses:
        marks.reverse()
    parts = ([author, year] + ([] if "no source" in misses else [source]) + marks
             + ([] if doi is None else [doi]))
    if "trailing segment other than a DOI" in misses:
        parts.append(draw(st.sampled_from(["ERRATUM", "P12", "V3"])))
    separators = [", "] * (len(parts) - 1)
    for miss, sep in (("doubled space", ", \t "), ("no space after a comma", ","),
                      ("space before a comma", " , ")):
        if miss in misses:
            separators[draw(st.integers(0, len(separators) - 1))] = sep
    raw = parts[0] + "".join(map(str.__add__, separators, parts[1:]))
    return raw.lower() if "lower case" in misses else raw


class TestWosShapedMatch:
    def test_each_example_takes_the_path_it_names(self):
        assert all(refkey._CANONICAL(raw) for raw in _SHAPED)
        assert not any(refkey._CANONICAL(raw) for raw in _FALLBACKS.values())
        assert all(refkey._CANONICAL(raw) for raw in _SOURCE_IS_A_MARKER)

    @settings(max_examples=400)
    @given(_wos_shaped())
    @example(_SHAPED[0])
    @example(_SHAPED[1])
    @example(_FALLBACKS["no space after a comma"])
    @example(_FALLBACKS["space before a comma"])
    @example(_FALLBACKS["Unicode-digit year"])
    @example(_FALLBACKS["Unicode-digit volume"])
    @example(_FALLBACKS["19-digit volume"])
    @example(_FALLBACKS["page before volume"])
    @example(_FALLBACKS["DOI list holding a comma"])
    @example(_FALLBACKS["trailing segment other than a DOI"])
    @example(_FALLBACKS["no source"])
    @example(_SOURCE_IS_A_MARKER[0])
    @example(_SOURCE_IS_A_MARKER[1])
    def test_every_field_matches_the_per_segment_parser(self, raw):
        ref = parse_cited_ref(raw)
        assert ref == brute_parse_cited_ref(raw)
        assert parse_cited_ref(ref) == ref


class TestCanonical:
    # "X,,1970" has source 1970 and keeps an empty year segment; "X, 1970"
    # has year 1970; a year below 1000 keeps four digits
    @pytest.mark.parametrize("raw, spelling", [
        ("  baltimore d ,1970,  nature , V226, P1209 ", "BALTIMORE D, 1970, NATURE, V226, P1209"),
        ("X,,1970", "X, , 1970"),
        ("X, 1970", "X, 1970"),
        ("a, 0970, j", "A, 0970, J"),
    ])
    def test_rebuilds_component_spelling(self, raw, spelling):
        assert parse_cited_ref(raw) == spelling

    def test_skips_absent_components(self):
        assert parse_cited_ref("smith a,1960,,P12") == "SMITH A, 1960, P12"

    def test_equal_keys_share_canonical(self):
        a = parse_cited_ref("Smith A, 1960, J Virol, V1, P10")
        b = parse_cited_ref("SMITH  A , 1960 , J  VIROL, V1, P10")
        assert a == b == "SMITH A, 1960, J VIROL, V1, P10"

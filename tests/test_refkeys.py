import os
import pickle
import re
import string
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from bibshift.refkey import RefKey, parse_cited_ref
from oracles import brute_parse_cited_ref

# Separators, Unicode whitespace (tab, NBSP, EM SPACE, \x1c), both cases of
# the volume and page markers, ASCII and non-ASCII decimal digits (ARABIC-INDIC
# THREE), a digit that is not decimal (SUPERSCRIPT TWO), and letters whose
# upper-case forms differ in length or need the context (ß -> SS, İ).
_REF_ALPHABET = (list(",\t\u00a0\u2003\x1c VPvp") + list(string.digits)
                 + list("٣²ßİ") + list("AXj."))


def _fields(key: RefKey) -> tuple:
    return (key.author, key.year, key.source_abbrev, key.volume, key.first_page, key.raw)


class TestParseCitedRef:
    def test_full_five_segment_string(self):
        key = parse_cited_ref("BALTIMORE D, 1970, NATURE, V226, P1209")
        assert key.author == "BALTIMORE D"
        assert key.year == 1970
        assert key.source_abbrev == "NATURE"
        assert key.volume == 226
        assert key.first_page == 1209

    def test_raw_preserved_verbatim(self):
        raw = "  baltimore d ,1970,  nature , V226, P1209 "
        assert parse_cited_ref(raw).raw == raw

    def test_author_only(self):
        key = parse_cited_ref("ANON REPORT")
        assert key.author == "ANON REPORT"
        assert key.year is None
        assert key.source_abbrev is None
        assert key.volume is None
        assert key.first_page is None

    def test_author_and_year(self):
        key = parse_cited_ref("TEMIN HM, 1964")
        assert (key.author, key.year) == ("TEMIN HM", 1964)
        assert key.source_abbrev is None

    def test_volume_and_page_recognized_anywhere(self):
        key = parse_cited_ref("SMITH A, V7, 1960, P99")
        assert key.volume == 7
        assert key.first_page == 99
        assert key.year is None  # the year slot is position 1 only

    def test_non_year_second_segment(self):
        key = parse_cited_ref("WHO, TECH REP SER, GENEVA")
        assert key.author == "WHO"
        assert key.year is None
        assert key.source_abbrev == "GENEVA"

    def test_source_taken_from_third_segment_only(self):
        key = parse_cited_ref("A, 1970, J ONE, J TWO")
        assert key.source_abbrev == "J ONE"

    def test_unparseable_extra_segments_survive_in_raw_only(self):
        raw = "A, 1970, J, V1, P2, DOI 10.1/xy"
        key = parse_cited_ref(raw)
        assert key == parse_cited_ref("A, 1970, J, V1, P2")
        assert key.raw == raw

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
        key = parse_cited_ref("")
        assert key.author == ""
        assert key.raw == ""

    def test_first_volume_and_page_win(self):
        key = parse_cited_ref("A, 1970, J, V1, V2, P3, P4")
        assert key.volume == 1
        assert key.first_page == 3

    @given(st.text(alphabet=string.printable, max_size=80))
    def test_never_raises(self, raw):
        key = parse_cited_ref(raw)
        assert isinstance(key, RefKey)

    @given(
        st.text(alphabet=string.ascii_uppercase + " .", min_size=1, max_size=20),
        st.integers(min_value=1000, max_value=2999),
        st.one_of(st.none(), st.text(alphabet=string.ascii_uppercase + " ", min_size=1, max_size=20)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=9999)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=9999)),
    )
    def test_reparsing_canonical_is_a_fixed_point(self, author, year, source, volume, page):
        # the year segment anchors the positional scheme, so any dated key
        # round-trips through its canonical spelling
        parts = [author, str(year)]
        if source is not None:
            parts.append(source)
        if volume is not None:
            parts.append(f"V{volume}")
        if page is not None:
            parts.append(f"P{page}")
        key = parse_cited_ref(", ".join(parts))
        again = parse_cited_ref(key.canonical())
        assert again == key
        assert again.canonical() == key.canonical()


class TestOneNormalizingPass:
    @settings(max_examples=400)
    @given(st.text(alphabet=st.sampled_from(_REF_ALPHABET), max_size=30))
    @example("  baltimore d ,1970,  nature , V226, P1209 ")
    @example("x, ١٩٧٠, j, v٣, p٢")
    @example("x, 1970, j, V², P²")
    @example("\x1c,\u2003,\u00a0")
    @example("ß, 1970, İ")
    def test_every_field_matches_the_per_segment_parser(self, raw):
        assert _fields(parse_cited_ref(raw)) == _fields(brute_parse_cited_ref(raw))

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


class TestCanonical:
    def test_rebuilds_component_spelling(self):
        key = parse_cited_ref("  baltimore d ,1970,  nature , V226, P1209 ")
        assert key.canonical() == "BALTIMORE D, 1970, NATURE, V226, P1209"

    def test_skips_absent_components(self):
        key = RefKey(author="SMITH A", year=1960, first_page=12)
        assert key.canonical() == "SMITH A, 1960, P12"

    def test_equal_keys_share_sort_key(self):
        a = parse_cited_ref("Smith A, 1960, J Virol, V1, P10")
        b = parse_cited_ref("SMITH  A , 1960 , J  VIROL, V1, P10")
        assert a.sort_key() == b.sort_key()


class TestHash:
    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from(_REF_ALPHABET), max_size=24))
    def test_hash_is_that_of_the_five_compared_fields(self, raw):
        key = parse_cited_ref(raw)
        assert hash(key) == hash(
            (key.author, key.year, key.source_abbrev, key.volume, key.first_page))

    def test_keys_differing_only_in_raw_hash_alike(self):
        a = parse_cited_ref("Baltimore D, 1970, Nature, V226, P1209")
        b = parse_cited_ref("BALTIMORE  D,1970,NATURE,V226,P1209")
        assert a.raw != b.raw
        assert a == b and hash(a) == hash(b)
        assert hash(replace(a, raw="other")) == hash(a)

    def test_an_unpickled_key_hashes_for_the_loading_process(self):
        # A str hash differs between hash seeds, so a key pickled under
        # another seed must not carry its old hash along.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import pickle, sys\n"
                "from bibshift.refkey import parse_cited_ref\n"
                "sys.stdout.buffer.write(pickle.dumps(parse_cited_ref('X, 1960, J')))\n")
        data = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, timeout=120).stdout
        key = pickle.loads(data)
        assert key in {parse_cited_ref("x, 1960, j")}
        assert key.raw == "X, 1960, J"

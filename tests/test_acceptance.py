"""Acceptance checks, one per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming the guarantee
(visible with ``pytest tests/test_acceptance.py -s``) and then asserts.
The first block reproduces recorded stability-table cells; the rest pit
the library against brute-force oracles, constructed corpora with known
answers, and byte-level CLI determinism.
"""
import math
import random
import time

from bibshift.cli import run
from bibshift.cocitation import ThresholdPair, citation_counts
from bibshift.records import build_corpus
from bibshift.refkey import parse_cited_ref
from bibshift.reports import rsi_matrix, rsi_text
from bibshift.stability import groove_detect, rsi
from bibshift.textmetrics import (
    new_coword_pairs,
    new_terms,
    phrase_trend,
)
from conftest import (
    DATA_DIR,
    cited_rows,
    corpus_series,
    coword_pairs,
    mkrec,
    mkref,
    ref_pair_counts,
    slice_core,
    term_stats,
    write_index_export,
    write_medline_export,
)
from oracles import (
    brute_co_doc_freq,
    brute_core_refs,
    brute_doc_freq,
    brute_new_coword_pairs,
    brute_new_terms,
)

EMPTY_STOP = frozenset()
FOUR_THRESHOLDS = tuple(
    ThresholdPair.parse(text) for text in ("15/11", "15/8", "11/9", "10/8")
)


def report(criterion: int, description: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] acceptance {criterion:2d}: {description}")
    assert not problems, (
        f"acceptance {criterion} ({description}): "
        + "; ".join(str(p) for p in problems[:5])
    )


# ── 1. stability-table cell reproduction ──────────────────────────────────────

def load_table_cells() -> list[dict]:
    lines = [
        line
        for line in (DATA_DIR / "rsi_table_cells.tsv")
        .read_text(encoding="utf-8")
        .splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def make_cores(n_former: int, n_later: int, shared: int):
    """``rsi``'s arguments for a 1970 and a 1971 core set of the given sizes."""
    refs = [mkref(f"R{i} X, 1950") for i in range(n_former + n_later - shared)]
    former = frozenset(refs[:n_former])
    later = frozenset(refs[n_former - shared: n_former - shared + n_later])
    return 1970, former, 1971, later


def test_criterion_01_table_cells_reproduced():
    cells = load_table_cells()
    problems = []
    if len(cells) != 68:
        problems.append(f"expected 68 fixture rows, found {len(cells)}")

    started = time.perf_counter()
    deviations = {}
    for row in cells:
        n_former, n_later = int(row["n_former"]), int(row["n_later"])
        shared = 0 if row["shared"] == "-" else int(row["shared"])
        point = rsi(*make_cores(n_former, n_later, shared))
        computed = rsi_text(point.rsi)
        where = (row["table"], row["thresholds"], row["former_year"], row["later_year"])
        if computed != row["expected_rsi"]:
            problems.append(f"{where}: computed {computed} != {row['expected_rsi']}")
        if row["printed_rsi"] != row["expected_rsi"]:
            deviations[where] = row["status"]
        elif row["status"] not in ("ok", "undefined"):
            problems.append(f"{where}: status {row['status']} but values agree")
    elapsed = time.perf_counter() - started

    expected_deviations = {
        ("T3", "11/9", "1971", "1972"): "misprint",
        ("T3", "10/8", "1973", "1974"): "misprint",
        ("T4", "10/8", "1966", "1968"): "half_even_print",
        ("T4", "15/11", "1967", "1969"): "undefined_vs_printed_zero",
    }
    if deviations != expected_deviations:
        problems.append(f"deviation cells changed: {deviations}")

    spot = {(8, 3, 2): "0.22", (16, 32, 10): "0.26", (46, 80, 8): "0.07",
            (29, 72, 6): "0.06", (6, 11, 5): "0.42"}
    for (nf, nl, sh), expected in spot.items():
        got = rsi_text(rsi(*make_cores(nf, nl, sh)).rsi)
        if got != expected:
            problems.append(f"spot cell {nf},{nl},{sh}: {got} != {expected}")

    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "every recorded stability cell matches shared/(union) half-up", problems)


# ── 2. undefined RSI rendering ────────────────────────────────────────────────

def test_criterion_02_undefined_cell_renders_dashes():
    pool = ["AHL B, 1950, J ONE, V1, P1", "BEK C, 1951, J TWO, V2, P2",
            "CZE D, 1952, J SIX, V3, P3"]
    weak = ["DOV E, 1953, J TEN, V4, P4", "EBB F, 1954, J ELF, V5, P5"]
    records = []
    for year in (1966, 1968, 1969):
        records += [mkrec(f"p{year}-{i}", refs=pool, year=year) for i in range(3)]
    records += [mkrec(f"p1967-{i}", refs=weak, year=1967) for i in range(2)]
    corpus = build_corpus(records)

    thresholds = ThresholdPair(3, 2)
    problems = []
    sizes = (len(slice_core(corpus[1966], thresholds)),
             len(slice_core(corpus[1967], thresholds)))
    if sizes != (3, 0):
        problems.append(f"core sizes {sizes} != (3, 0)")

    series = corpus_series(corpus, thresholds, gap=1)
    text = rsi_matrix([series], groove_detect([series]),
                      [("command", "rsi"), ("gap", "1")])
    row = next(line for line in text.splitlines() if line.startswith("3/2\t"))
    cells = row.split("\t")
    if cells[1] != "-/-":
        problems.append(f"1966/1967 cell rendered {cells[1]!r}, want '-/-'")
    report(2, "a 3-vs-0 core comparison renders exactly -/-", problems)


# ── 3 & 4. randomized-corpus oracles ──────────────────────────────────────────

def random_slice(rng: random.Random, max_papers: int = 50, max_refs: int = 30):
    refs = [mkref(f"A{i} B, 1950, J R{i}") for i in range(rng.randint(2, max_refs))]
    records = []
    for p in range(rng.randint(1, max_papers)):
        cited = rng.sample(refs, rng.randint(0, min(len(refs), 12)))
        records.append(mkrec(f"p{p}", refs=cited, year=1970))
    return build_corpus(records)[1970]


def test_criterion_03_core_sets_match_brute_force():
    rng = random.Random(20260814)
    problems = []
    started = time.perf_counter()
    for case in range(1000):
        sl = random_slice(rng)
        thresholds = ThresholdPair(rng.randint(1, 6), rng.randint(1, 6))
        fast = slice_core(sl, thresholds)
        slow = brute_core_refs(sl, thresholds)
        if fast != slow:
            problems.append(f"case {case} under {thresholds}: {len(fast)} vs {len(slow)}")
            if len(problems) > 3:
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget 30s")
    report(3, "1000 random corpora: core sets equal brute-force enumeration", problems)


def test_criterion_04_threshold_monotonicity_and_pair_bound():
    rng = random.Random(8141412)
    problems = []
    for case in range(1000):
        sl = random_slice(rng, max_papers=25, max_refs=15)
        loose = ThresholdPair(rng.randint(1, 6), rng.randint(1, 6))
        tight = ThresholdPair(loose.cite_min + rng.randint(0, 3),
                              loose.cocite_min + rng.randint(0, 3))
        if not slice_core(sl, tight) <= slice_core(sl, loose):
            problems.append(f"case {case}: core({tight}) escaped core({loose})")
        cites = citation_counts(cited_rows(sl))
        for (a, b), co in ref_pair_counts(sl, cites).items():
            if co > min(cites[a], cites[b]):
                problems.append(f"case {case}: cocite {co} exceeds cite counts")
                break
        if len(problems) > 3:
            break
    report(4, "1000 cases: tighter thresholds shrink cores; cocite <= min(cite)", problems)


# ── 5. groove consensus on a constructed decade ───────────────────────────────

def decade_pools() -> dict[int, list[str]]:
    classic = "KERN A, 1956, J BIOL CHEM, V21, P197"
    era_a = [f"AVETT B{i}, 195{i}, J VIROL, V{i + 1}, P{10 + i}" for i in range(7)]
    era_b = [f"BOND C{i}, 196{i}, CELL RES, V{i + 1}, P{20 + i}" for i in range(7)]
    pools = {year: [classic] + era_a for year in range(1966, 1971)}
    pools[1971] = [classic] + era_a[:3] + era_b[:3]
    pools.update({year: [classic] + era_b for year in range(1972, 1976)})
    return pools


def decade_corpus():
    records = [
        mkrec(f"p{year}-{i}", refs=pool, year=year)
        for year, pool in decade_pools().items()
        for i in range(20)
    ]
    return build_corpus(records)


def test_criterion_05_groove_consensus_interval():
    corpus = decade_corpus()
    series_set = [corpus_series(corpus, t, gap=2) for t in FOUR_THRESHOLDS]
    groove = groove_detect(series_set)

    problems = []
    for minimum in groove.minima:
        if minimum.intervals != ((1970, 1972),):
            problems.append(f"{minimum.thresholds} dips at {minimum.intervals}")
        if rsi_text(minimum.value) != "0.07":
            problems.append(f"{minimum.thresholds} minimum {minimum.value}, want 1/15")
    if not groove.consensus:
        problems.append("no consensus flagged")
    if groove.consensus != ((1970, 1972),):
        problems.append(f"consensus {groove.consensus} != ((1970, 1972),)")
    report(5, "four gap-2 series dip together at 1970/1972 with consensus", problems)


# ── 6. cited-reference string parsing ─────────────────────────────────────────

CORE_REF_STRINGS = [
    ("BALTIMORE D, 1970, NATURE, V226, P1209",
     ("BALTIMORE D", 1970, "NATURE", 226, 1209)),
    ("TEMIN HM, 1970, NATURE, V226, P1211",
     ("TEMIN HM", 1970, "NATURE", 226, 1211)),
    ("HUEBNER RJ, 1966, P NATL ACAD SCI USA, V56, P1164",
     ("HUEBNER RJ", 1966, "P NATL ACAD SCI USA", 56, 1164)),
    ("HARTLEY JW, 1965, P NATL ACAD SCI USA, V53, P931",
     ("HARTLEY JW", 1965, "P NATL ACAD SCI USA", 53, 931)),
    ("HARTLEY JW, 1966, P NATL ACAD SCI USA, V55, P780",
     ("HARTLEY JW", 1966, "P NATL ACAD SCI USA", 55, 780)),
    ("HARTLEY JW, 1969, J VIROL, V3, P126",
     ("HARTLEY JW", 1969, "J VIROL", 3, 126)),
    ("DUFF RG, 1969, VIROLOGY, V39, P18",
     ("DUFF RG", 1969, "VIROLOGY", 39, 18)),
    ("SPIEGELM.S, 1970, NATURE, V227, P563",
     ("SPIEGELM.S", 1970, "NATURE", 227, 563)),
]


def test_criterion_06_reference_strings_parse_exactly():
    problems = []
    parsed = 0
    for raw, expected in CORE_REF_STRINGS:
        author, year, source, volume, page = expected
        spelling = f"{author}, {year:04d}, {source}, V{volume}, P{page}"
        got = parse_cited_ref(raw)
        if got == spelling:
            parsed += 1
        else:
            problems.append(f"{raw!r} -> {got!r}, want {spelling!r}")
    if parsed != 8:
        problems.append(f"parsed {parsed}/8")
    report(6, "all eight recorded core-reference strings parse field-exact", problems)


# ── 7. cosine threshold semantics ─────────────────────────────────────────────

def boundary_slice(co_both: int):
    solo = 10000 - co_both
    records = (
        [mkrec(f"c{i}", title="alpha beta", year=1970) for i in range(co_both)]
        + [mkrec(f"a{i}", title="alpha", year=1970) for i in range(solo)]
        + [mkrec(f"b{i}", title="beta", year=1970) for i in range(solo)]
    )
    return build_corpus(records)[1970]


def test_criterion_07_cosine_angle_and_boundary():
    problems = []
    angle = math.degrees(math.acos(0.25))
    if not 75.0 <= angle <= 76.0:
        problems.append(f"acos(0.25) = {angle:.3f} degrees")

    below = coword_pairs(boundary_slice(2499), EMPTY_STOP, min_cosine=0.25)
    if any((p.term_a, p.term_b) == ("alpha", "beta") for p in below):
        problems.append("cosine 0.2499 slipped past min_cosine 0.25")

    above = coword_pairs(boundary_slice(2501), EMPTY_STOP, min_cosine=0.25)
    kept = [p for p in above if (p.term_a, p.term_b) == ("alpha", "beta")]
    if not kept:
        problems.append("cosine 0.2501 was dropped at min_cosine 0.25")
    elif not math.isclose(kept[0].cosine, 0.2501):
        problems.append(f"cosine came out {kept[0].cosine}")
    report(7, "acos(0.25) is ~75 degrees; 0.2499 excluded, 0.2501 included", problems)


# ── 8. phrase-trend shape ─────────────────────────────────────────────────────

def test_criterion_08_phrase_trend_rises_from_zero():
    records = []
    for year in range(1966, 1976):
        records += [
            mkrec(f"b{year}-0", title="virus assay methods", year=year),
            mkrec(f"b{year}-1", title="tumor growth factor", year=year),
            mkrec(f"b{year}-2", title="reverse mutation screen", year=year),
        ]
        if year >= 1970:
            records += [
                mkrec(f"s{year}-0", title="reverse transcriptase purification", year=year),
                mkrec(f"s{year}-1", title="viral reverse transcription assay", year=year),
            ]
    corpus = build_corpus(records)

    problems = []
    for point in phrase_trend(corpus, "reverse", "transcr"):
        if point.year < 1970 and point.doc_freq != 0:
            problems.append(f"{point.year}: expected 0, got {point.doc_freq}")
        if point.year >= 1970 and point.doc_freq <= 0:
            problems.append(f"{point.year}: expected > 0, got {point.doc_freq}")
    report(8, "head+stem trend is exactly 0 before onset year, > 0 after", problems)


# ── 9. text-metric oracles ────────────────────────────────────────────────────

TITLE_WORDS = ["virus", "tumor", "reverse", "transcription", "avian", "rna",
               "dna", "enzyme", "assay", "of", "in", "the", "2nd", "x", "1970"]


def random_text_slice(rng: random.Random, year: int):
    records = [
        mkrec(
            f"r{year}-{i}",
            title=" ".join(rng.choice(TITLE_WORDS) for _ in range(rng.randint(0, 6))),
            year=year,
        )
        for i in range(rng.randint(1, 12))
    ]
    return build_corpus(records, (year, year))[year]


def test_criterion_09_text_metrics_match_brute_force():
    problems = []

    s2 = build_corpus([
        mkrec("T0", title="REVERSE TRANSCRIPTASE OF AVIAN VIRUS", year=1971),
        mkrec("T1", title="AVIAN TUMOR VIRUS STUDIES", year=1971),
        mkrec("T2", title="REVERSE TRANSCRIPTION IN MICE", year=1971),
    ])[1971]
    s2_stop = frozenset({"of", "in"})
    s2_df = {s.term: s.doc_freq for s in term_stats(s2, s2_stop)}
    if s2_df != brute_doc_freq(s2, {"of", "in"}):
        problems.append("fixture slice: doc frequencies diverge from oracle")

    rng = random.Random(97146)
    for case in range(500):
        stop_words = set(rng.sample(["of", "in", "the"], rng.randint(0, 3)))
        stop = frozenset(stop_words)
        former = random_text_slice(rng, 1970)
        later = random_text_slice(rng, 1971)
        min_cosine = rng.choice([0.0, 0.25, 0.5])
        min_percent = rng.choice([0.0, 1.0, 10.0])

        got_df = {s.term: s.doc_freq for s in term_stats(later, stop)}
        if got_df != brute_doc_freq(later, stop_words):
            problems.append(f"case {case}: document frequencies")

        got_pairs = {
            (p.term_a, p.term_b): (p.co_doc_freq, p.cosine)
            for p in coword_pairs(later, stop, min_cosine)
        }
        df = brute_doc_freq(later, stop_words)
        want_pairs = {
            pair: (co, co / math.sqrt(df[pair[0]] * df[pair[1]]))
            for pair, co in brute_co_doc_freq(later, stop_words).items()
            if co / math.sqrt(df[pair[0]] * df[pair[1]]) >= min_cosine
        }
        if got_pairs != want_pairs:
            problems.append(f"case {case}: co-word pairs")

        got_new = {
            s.term: (s.doc_freq, s.percent)
            for s in new_terms(former, later, stop, min_percent)
        }
        if got_new != brute_new_terms(former, later, stop_words, min_percent):
            problems.append(f"case {case}: new_terms")

        got_co = {
            (p.term_a, p.term_b): (p.co_doc_freq, p.cosine, p.percent)
            for p in new_coword_pairs(former, later, stop, min_cosine, min_percent)
        }
        if got_co != brute_new_coword_pairs(former, later, stop_words,
                                            min_cosine, min_percent):
            problems.append(f"case {case}: new_coword_pairs")
        if len(problems) > 5:
            break
    report(9, "500 random slices: every text metric equals brute recomputation", problems)


# ── 10. CLI determinism across worker counts ──────────────────────────────────

def test_criterion_10_cli_outputs_are_worker_independent(tmp_path):
    shift_words = {1972: "reverse transcription paper", 1973: "transcriptase enzyme note"}
    index_rows, medline_rows = [], []
    for year, pool in decade_pools().items():
        for i in range(20):
            title = shift_words.get(year, "tumor virus biology") + f" {chr(97 + i)}"
            index_rows.append((f"IDX:{year}{i:02d}", year, title.upper(), pool))
            if i % 2 == 0:
                medline_rows.append((f"7{year}{i:02d}", year, title))
    write_index_export(tmp_path / "index.txt", index_rows)
    write_medline_export(tmp_path / "medline.txt", medline_rows)

    cache = tmp_path / "cache.tsv"
    assert run(["ingest", "--index", str(tmp_path / "index.txt"),
                "--medline", str(tmp_path / "medline.txt"),
                "--cache", str(cache), "--out-dir", str(tmp_path / "ingest_out")]) == 0

    def run_reports(workers: int) -> dict[str, bytes]:
        out_dir = tmp_path / f"w{workers}"
        base = ["--cache", str(cache), "--out-dir", str(out_dir),
                "--workers", str(workers)]
        assert run(["rsi", *base, "--thresholds", "15/11,15/8,11/9,10/8",
                    "--gaps", "1,2"]) == 0
        assert run(["words", *base, "--years", "1970:1972"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    problems = []
    first, second = run_reports(1), run_reports(4)
    if set(first) != set(second):
        problems.append(f"file sets differ: {sorted(set(first) ^ set(second))}")
    else:
        for name in first:
            if first[name] != second[name]:
                problems.append(f"{name} differs between worker counts")
    if len(first) != 11:
        problems.append(f"expected 11 report files, found {len(first)}")
    report(10, "rsi and words reports byte-identical for 1 vs 4 workers", problems)

from pathlib import Path

import pytest

from bibshift.cocitation import ThresholdPair, cocitation_counts, core_sets
from bibshift.records import BibRecord, Source, build_corpus, write_cache
from bibshift.refkey import parse_cited_ref
from bibshift.stability import rsi_series
from bibshift.textmetrics import CoWordPair, DocShare, new_coword_pairs, new_terms

DATA_DIR = Path(__file__).parent / "data"


def mkref(text: str):
    return parse_cited_ref(text)


def mkrec(record_id, refs=(), title="", year=1970, source=Source.CITATION_INDEX):
    return BibRecord(
        record_id=record_id,
        source=source,
        title=title,
        pub_year=year,
        cited_refs=frozenset(mkref(r) if isinstance(r, str) else r for r in refs),
    )


def save_cache(corpus, path) -> None:
    """Write ``corpus`` as a new cache file at ``path``."""
    with open(path, "wb") as out:
        write_cache(corpus, out)


def corpus_series(corpus, thresholds, gap):
    """The RSI series of ``corpus`` under one threshold pair."""
    return rsi_series(core_sets(corpus, [thresholds])[thresholds], gap)


def cited_rows(sl) -> list[frozenset[str]]:
    """The cited references of each record of ``sl`` (one year's records),
    as counting rows."""
    return [record.cited_refs for record in sl]


def ref_pair_counts(sl, candidates) -> dict[tuple[str, str], int]:
    """``cocitation_counts`` of ``sl`` over ``candidates``, each pair keyed by
    its members in sorted order."""
    ordered = sorted(set(candidates))
    counts = cocitation_counts(cited_rows(sl), ordered)
    return {(ordered[a], ordered[b]): n for (a, b), n in counts.items()}


def slice_core(sl, thresholds: ThresholdPair) -> frozenset[str]:
    """The core set of ``sl`` (one year's records) under one threshold pair:
    ``core_sets`` on a corpus of that one year."""
    [core] = core_sets(build_corpus(sl), [thresholds])[thresholds].values()
    return core


def term_stats(sl, stop: frozenset[str]) -> dict[str, DocShare]:
    """Every term of ``sl`` (one year's records) with its document
    frequency: its new terms against an empty former year, with no percent
    floor."""
    return new_terms((), sl, stop, 0.0)


def coword_pairs(sl, stop: frozenset[str],
                 min_cosine: float) -> dict[tuple[str, str], CoWordPair]:
    """Every co-word pair of ``sl`` (one year's records) at ``min_cosine``:
    its new pairs against an empty former year, with no percent floor."""
    return new_coword_pairs((), sl, stop, min_cosine, 0.0)


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def s1_refs():
    return {name: mkref(f"{name}, 1960, J TEST") for name in ("R1", "R2", "R3")}


@pytest.fixture
def s1_slice(s1_refs) -> tuple[BibRecord, ...]:
    """Five papers citing {R1,R2}, {R1,R2}, {R1,R2,R3}, {R1,R3}, {R3}."""
    r = s1_refs
    cited = [
        ("P1", [r["R1"], r["R2"]]),
        ("P2", [r["R1"], r["R2"]]),
        ("P3", [r["R1"], r["R2"], r["R3"]]),
        ("P4", [r["R1"], r["R3"]]),
        ("P5", [r["R3"]]),
    ]
    records = [mkrec(pid, refs) for pid, refs in cited]
    return build_corpus(records)[1970]


S2_TITLES = (
    "REVERSE TRANSCRIPTASE OF AVIAN VIRUS",
    "AVIAN TUMOR VIRUS STUDIES",
    "REVERSE TRANSCRIPTION IN MICE",
)


@pytest.fixture
def s2_stop() -> frozenset[str]:
    return frozenset({"of", "in"})


@pytest.fixture
def s2_slice() -> tuple[BibRecord, ...]:
    records = [
        mkrec(f"T{i}", title=title, year=1971) for i, title in enumerate(S2_TITLES)
    ]
    return build_corpus(records)[1971]


@pytest.fixture
def s2_former_slice() -> tuple[BibRecord, ...]:
    """S2 without its third title, one year earlier."""
    records = [
        mkrec(f"T{i}", title=title, year=1970) for i, title in enumerate(S2_TITLES[:2])
    ]
    return build_corpus(records)[1970]


# ── export-file builders (shared by CLI and acceptance tests) ────────────────


def index_export_text(rows) -> str:
    """Citation-index export from (record_id, year, title, refs) rows."""
    lines = ["FN TEST EXPORT", "VR 1.0"]
    for record_id, year, title, refs in rows:
        lines += ["PT J", f"TI {title}", f"PY {year}", f"UT {record_id}"]
        if refs:
            lines.append(f"CR {refs[0]};")
            lines.extend(f"   {ref};" for ref in refs[1:])
        lines.append("ER")
    lines.append("EF")
    return "\n".join(lines) + "\n"


def medline_export_text(rows) -> str:
    """MEDLINE export from (pmid, year, title) rows."""
    blocks = [
        f"PMID- {pmid}\nTI  - {title}\nDP  - {year} Jan\n"
        for pmid, year, title in rows
    ]
    return "\n".join(blocks)


def write_index_export(path, rows) -> None:
    path.write_text(index_export_text(rows), encoding="utf-8")


def write_medline_export(path, rows) -> None:
    path.write_text(medline_export_text(rows), encoding="utf-8")

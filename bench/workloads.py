"""Benchmark workloads: seeded input generators and the commands each runs.

Every workload writes plain export files; bibshift sees nothing else. The
export format has one definition, ``write_index_export`` /
``write_medline_export`` in ``scripts/make_synthetic_corpus.py``, which
this module imports from the checkout.

* ``paper``: the repository's own generator at 1,000 papers per year. A
  small, heavily cited canon with a watershed: the best case for any cache
  keyed by reference string, and the paper's own shape.
* ``heavy-tail``: Zipf-distributed citations over large per-era pools plus
  one-off references, so most distinct references are cited once, as in
  real citation data. Runs every analysis command with ``--workers 2``.
* ``titles``: 30,000 MEDLINE records with long titles, plus one cited
  citation-index record per year, so title analysis dominates and the
  reference layers do almost nothing.
"""
from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

FIRST_YEAR, LAST_YEAR, WATERSHED = 1966, 1975, 1971
YEARS = range(FIRST_YEAR, LAST_YEAR + 1)
PHRASES = ("REVERSE TRANSCRIPTASE", "REVERSE TRANSCRIPTION")
PHRASE_SHARE = 0.4
MEDLINE_SHARE = 0.7
THRESHOLDS = "15/11,15/8,11/9,10/8"
PAPER_PER_YEAR, HEAVY_TAIL_PER_YEAR, TITLES_PER_YEAR = 1000, 200, 3000
# Filler and stop words placed between title words; all are in the
# built-in English stop-word list.
STOP_WORDS = ("of", "the", "in", "and", "by", "with", "from", "on", "for",
              "during", "after", "into", "at", "its", "via", "between")


def load_generator(root: Path):
    """The repository's synthetic-corpus generator, imported from the checkout."""
    path = root / "scripts" / "make_synthetic_corpus.py"
    if not path.is_file():
        raise FileNotFoundError(f"generator not found: {path}")
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def zipf_cum_weights(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / rank ** s for rank in range(1, n + 1)))


def pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """``count`` distinct lower-case pronounceable words not in ``taken``."""
    consonants, vowels = "bcdfghklmnprstvz", "aeiou"
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(consonants) + rng.choice(vowels)
                       for _ in range(rng.randint(2, 4)))
        if word not in taken and not word.startswith(("reverse", "transcr")):
            taken.add(word)
            words.append(word)
    return words


@dataclass
class Corpus:
    """Generated rows in the generator's row format, plus what they hold."""

    index_rows: list   # (record_id, year, title, refs)
    medline_rows: list  # (pmid, year, title)
    vocabulary: int

    def size(self) -> dict:
        cited = [ref for _, _, _, refs in self.index_rows for ref in refs]
        return {
            "index_records": len(self.index_rows),
            "medline_records": len(self.medline_rows),
            "citations": len(cited),
            "distinct_ref_strings": len(set(cited)),
            "vocabulary": self.vocabulary,
        }

    def expected_summary(self) -> dict[int, tuple[int, int, int]]:
        """Per year: index records, MEDLINE records, distinct cited refs.
        Every generated reference string is already normalised and no two
        spell the same key, so distinct strings are distinct references."""
        return {
            year: (sum(r[1] == year for r in self.index_rows),
                   sum(r[1] == year for r in self.medline_rows),
                   len({ref for r in self.index_rows if r[1] == year for ref in r[3]}))
            for year in YEARS
        }

    def expected_phrase(self) -> dict[str, dict[int, int]]:
        """Per source and year, records whose title holds a planted
        ``reverse transcr*`` phrase; the generators plant only ``PHRASES``
        and no other title word starts with ``reverse`` or ``transcr``."""
        hits = {}
        for source, rows in (("citation_index", self.index_rows),
                             ("medline", self.medline_rows)):
            if rows:
                hits[source] = {year: sum(r[1] == year and any(p in r[2] for p in PHRASES)
                                          for r in rows) for year in YEARS}
            else:
                hits[source] = {}
        return hits


def paper_corpus(gen, seed: int) -> Corpus:
    spec = gen.CorpusSpec(first_year=FIRST_YEAR, last_year=LAST_YEAR,
                          watershed=WATERSHED, papers_per_year=PAPER_PER_YEAR, seed=seed)
    index_rows, medline_rows = gen.generate(spec)
    vocabulary = {w.lower() for w in gen.OLD_WORDS + gen.NEW_WORDS + gen.FILLERS}
    return Corpus(index_rows, medline_rows, len(vocabulary) + 3)


def _era(year: int, rng: random.Random) -> int:
    """0 before the watershed, 1 after it, a fair coin in the watershed year."""
    if year == WATERSHED:
        return rng.randrange(2)
    return int(year > WATERSHED)


def _maybe_phrase(rng: random.Random, year: int, words: list[str]) -> list[str]:
    if year >= WATERSHED and rng.random() < PHRASE_SHARE:
        at = rng.randint(0, len(words))
        words = words[:at] + [rng.choice(PHRASES).lower()] + words[at:]
    return words


def heavy_tail_corpus(gen, seed: int) -> Corpus:
    """``HEAVY_TAIL_PER_YEAR`` papers per year. Each cites the classic, 12
    Zipf(1.1) draws from its era's 5,000-reference pool and 8 references no
    other paper cites. Titles hold 6-12 words drawn Zipf(1.1) from a
    3,000-word vocabulary ranked differently in each era."""
    rng = random.Random(f"heavy-tail:{seed}")
    pool_size, vocab_size, per_year = 5000, 3000, HEAVY_TAIL_PER_YEAR
    pools = [[f"{rng.choice(gen.SURNAMES)} {chr(65 + i % 26)}{chr(65 + i // 26 % 26)}, "
              f"{rng.randint(1930, 1969)}, {rng.choice(gen.JOURNALS)}, "
              f"V{100 + era * 100 + i // 1000}, P{1 + i % 1000}"
              for i in range(pool_size)] for era in (0, 1)]
    ref_weights = zipf_cum_weights(pool_size, 1.1)
    vocab = pseudo_words(rng, vocab_size, set(STOP_WORDS))
    rankings = [vocab, rng.sample(vocab, vocab_size)]
    word_weights = zipf_cum_weights(vocab_size, 1.1)

    index_rows, medline_rows = [], []
    one_off = 0
    pmid = 8000000
    for year in YEARS:
        for i in range(per_year):
            words = [rng.choices(rankings[_era(year, rng)], cum_weights=word_weights)[0]
                     for _ in range(rng.randint(6, 12))]
            title = " ".join(_maybe_phrase(rng, year, words)).upper()
            refs = [gen.CLASSIC_REF]
            refs += [rng.choices(pools[_era(year, rng)], cum_weights=ref_weights)[0]
                     for _ in range(12)]
            for _ in range(8):
                refs.append(f"{rng.choice(gen.SURNAMES)} {chr(65 + one_off % 26)}, "
                            f"{rng.randint(1900, 1969)}, {rng.choice(gen.JOURNALS)}, "
                            f"V{1000 + one_off // 1000}, P{1 + one_off % 1000}")
                one_off += 1
            index_rows.append((f"IDX:{year}-{i:04d}", year, title, refs))
            if rng.random() < MEDLINE_SHARE:
                pmid += 1
                medline_rows.append((str(pmid), year, title))
    return Corpus(index_rows, medline_rows, vocab_size)


def titles_corpus(gen, seed: int) -> Corpus:
    """``TITLES_PER_YEAR`` MEDLINE records per year. Titles hold 8-16 content
    words, each drawn Zipf(1.0) from the era's 1,000-word vocabulary or from
    a shared 2,000-word one, with a stop word in half the gaps. One
    citation-index record per year, cited references included, mirrors a
    MEDLINE title."""
    rng = random.Random(f"titles:{seed}")
    taken = set(STOP_WORDS)
    shared = pseudo_words(rng, 2000, taken)
    eras = [pseudo_words(rng, 1000, taken), pseudo_words(rng, 1000, taken)]
    shared_weights = zipf_cum_weights(len(shared), 1.0)
    era_weights = zipf_cum_weights(1000, 1.0)

    index_rows, medline_rows = [], []
    pmid = 9000000
    for year in YEARS:
        for i in range(TITLES_PER_YEAR):
            words = []
            for k in range(rng.randint(8, 16)):
                if k and rng.random() < 0.5:
                    words.append(rng.choice(STOP_WORDS))
                if rng.random() < 0.5:
                    words.append(rng.choices(shared, cum_weights=shared_weights)[0])
                else:
                    words.append(rng.choices(eras[_era(year, rng)],
                                             cum_weights=era_weights)[0])
            title = " ".join(_maybe_phrase(rng, year, words)).upper()
            pmid += 1
            medline_rows.append((str(pmid), year, title))
            if i == 0:
                refs = [gen.CLASSIC_REF, rng.choice(gen.OLD_POOL), rng.choice(gen.NEW_POOL)]
                index_rows.append((f"IDX:{year}-0000", year, title, refs))
    return Corpus(index_rows, medline_rows, 4000)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object      # (generator module, seed) -> Corpus
    workers: int      # --workers for every analysis command


WORKLOADS = {
    "paper": Workload("paper", paper_corpus, 1),
    "heavy-tail": Workload("heavy-tail", heavy_tail_corpus, 2),
    "titles": Workload("titles", titles_corpus, 1),
}


def write_exports(gen, corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    index, medline = directory / "citation_index.txt", directory / "medline.txt"
    gen.write_index_export(index, corpus.index_rows)
    gen.write_medline_export(medline, corpus.medline_rows)
    return index, medline


def commands(index: Path, medline: Path, cache: Path, out_dir: Path,
             workers: int) -> dict[str, list[str]]:
    """argv per command, in the order the demo runs them."""
    base = ["--cache", str(cache), "--out-dir", str(out_dir)]
    work = base + ["--workers", str(workers)]
    return {
        "ingest": ["ingest", *base, "--index", str(index), "--medline", str(medline)],
        "summary": ["summary", *work],
        "rsi": ["rsi", *work, "--thresholds", THRESHOLDS, "--gaps", "1,2"],
        "core-refs": ["core-refs", *work, "--thresholds", THRESHOLDS],
        "words": ["words", *work, "--years", "1970:1972"],
        "cowords": ["cowords", *work, "--years", "1970:1972"],
        "phrase": ["phrase", *work, "--head", "reverse", "--stem", "transcr"],
    }

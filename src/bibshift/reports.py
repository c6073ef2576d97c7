"""TSV report emitters.

Every report is UTF-8 with ``\\n`` line endings and starts with ``# key=value``
lines recording the analysis configuration, followed by a tab-separated
column header and data rows. Emitters are pure string builders with fully
specified orderings, so a report is byte-identical across runs and worker
counts.

The analyses return values, and this module words them: an RSI reads as
two decimals with halves rounded up (``rsi_text``), or ``-/-`` when
undefined. The combined RSI matrix mirrors the shape of a printed
stability table: one row per threshold pair, one column per year
interval, each cell ``shared/RSI``, or ``-/-`` for an undefined interval;
it reads ``{pair: {interval: point}}``, rows and columns in dict order.
A core-reference member prints as its spelling, members in sorted order.
A title table reads ``{source: {key: stats}}``, a key per term, pair or year.
"""
from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .cocitation import ThresholdPair
from .records import Corpus, Source, write_text_atomic
from .stability import GrooveReport, RsiPoint
from .textmetrics import CoWordPair, DocShare

if TYPE_CHECKING:
    from fractions import Fraction

ConfigPairs = Sequence[tuple[str, str]]


def fraction_text(value: Optional[Fraction]) -> str:
    if value is None:
        return "-/-"
    return f"{value.numerator}/{value.denominator}"


def rsi_text(value: Optional[Fraction]) -> str:
    """Two decimals, halves rounded up, in whole hundredths; ``-/-`` when
    undefined."""
    if value is None:
        return "-/-"
    hundredths = (200 * value.numerator + value.denominator) // (2 * value.denominator)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def percent_text(value: float) -> str:
    return f"{value:.2f}"


def cosine_text(value: float) -> str:
    return f"{value:.4f}"


def render_table(config: ConfigPairs, columns: Sequence[str], rows) -> str:
    lines = [f"# {key}={value}" for key, value in config]
    lines.append("\t".join(columns))
    lines.extend("\t".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_report(path: Path, text: str) -> None:
    write_text_atomic(path, text)


# ── corpus summary ────────────────────────────────────────────────────────────

def summary_table(corpus: Corpus, distinct_refs_by_year: dict[int, int],
                  distinct_refs_total: int, config: ConfigPairs) -> str:
    columns = ["year", "citation_index_records", "medline_records",
               "total_records", "distinct_cited_refs"]
    rows = []
    totals = {source: 0 for source in Source}
    for year, records in corpus.items():
        # One read of the records; list.count then compares by identity in
        # C (a Counter would call Enum's Python-level __hash__ per record).
        sources = [record.source for record in records]
        per_source = {source: sources.count(source) for source in Source}
        for source, n in per_source.items():
            totals[source] += n
        rows.append([
            year,
            per_source[Source.CITATION_INDEX],
            per_source[Source.MEDLINE],
            len(records),
            distinct_refs_by_year[year],
        ])
    rows.append([
        "TOTAL",
        totals[Source.CITATION_INDEX],
        totals[Source.MEDLINE],
        sum(totals.values()),
        distinct_refs_total,
    ])
    return render_table(config, columns, rows)


# ── citation-graph tables ─────────────────────────────────────────────────────

CoreSets = dict[ThresholdPair, dict[int, frozenset[str]]]


def core_membership_table(cores_by_threshold: CoreSets, config: ConfigPairs) -> str:
    columns = ["year", "thresholds", "member"]
    rows = [
        [year, str(thresholds), spelling]
        for thresholds, cores in cores_by_threshold.items()
        for year, members in cores.items()
        for spelling in sorted(members)
    ]
    return render_table(config, columns, rows)


def core_size_matrix(cores_by_threshold: CoreSets, config: ConfigPairs) -> str:
    """One column per year of the cores: every pair's cores hold every year."""
    years = next(iter(cores_by_threshold.values()), {})
    columns = ["thresholds"] + [str(year) for year in years]
    rows = [[str(thresholds)] + [len(members) for members in cores.values()]
            for thresholds, cores in cores_by_threshold.items()]
    return render_table(config, columns, rows)


# ── RSI tables ────────────────────────────────────────────────────────────────

def rsi_long_table(thresholds: ThresholdPair, gap: int,
                   points: dict[tuple[int, int], RsiPoint], config: ConfigPairs) -> str:
    columns = ["thresholds", "gap", "former_year", "later_year",
               "n_former", "n_later", "shared", "rsi_full", "rsi_2dp"]
    rows = [
        [
            str(thresholds),
            gap,
            former_year,
            later_year,
            p.n_former,
            p.n_later,
            p.shared,
            fraction_text(p.rsi),
            rsi_text(p.rsi),
        ]
        for (former_year, later_year), p in points.items()
    ]
    return render_table(config, columns, rows)


def _interval_text(interval: tuple[int, int]) -> str:
    return f"{interval[0]}/{interval[1]}"


def rsi_matrix(series: dict[ThresholdPair, dict[tuple[int, int], RsiPoint]],
               groove: GrooveReport, config: ConfigPairs) -> str:
    """Threshold-by-interval matrix with the groove report appended.

    Every series holds the same intervals, the columns of the matrix. The
    consensus line is emitted only when more than one series took part; a
    single series has nothing to agree with.
    """
    first = next(iter(series.values()))
    columns = ["thresholds"] + [_interval_text(iv) for iv in first]
    rows = [
        [str(thresholds)]
        + [f"{p.shared}/{rsi_text(p.rsi)}" if p.rsi is not None else "-/-"
           for p in points.values()]
        for thresholds, points in series.items()
    ]
    text = render_table(config, columns, rows)

    groove_columns = ["thresholds", "min_rsi_full", "min_rsi_2dp", "intervals"]
    groove_rows = [
        [
            str(thresholds),
            fraction_text(value),
            rsi_text(value),
            ",".join(_interval_text(iv) for iv in intervals),
        ]
        for thresholds, (value, intervals) in groove.minima.items()
    ]
    if len(series) > 1:
        consensus = ",".join(_interval_text(iv) for iv in groove.consensus) or "-"
        groove_rows.append(["CONSENSUS", "-", "-", consensus])
    return (text + "# groove: minimal defined RSI per series\n"
            + render_table([], groove_columns, groove_rows))


# ── word tables ───────────────────────────────────────────────────────────────

def _per_source_table(per_source: dict[Source, dict], key_columns: Sequence[str],
                      value_columns: Sequence[str], cells, config: ConfigPairs) -> str:
    """One row per key (a term, or a pair filling two ``key_columns``) over
    every source's items, with one group of ``value_columns`` per source
    present and ``-`` cells where the key is absent from a source. Rows run
    from the best percent in any source down, ties in key order."""
    sources = [s for s in Source if s in per_source]
    columns = [*key_columns,
               *(f"{source.value}_{name}" for source in sources for name in value_columns)]
    by_key: dict = {}
    for source in sources:
        for k, stats in per_source[source].items():
            by_key.setdefault(k, {})[source] = stats

    def order(k):
        return (-max(stats.percent for stats in by_key[k].values()), k)

    absent = ["-"] * len(value_columns)
    rows = []
    for k in sorted(by_key, key=order):
        row = [k] if len(key_columns) == 1 else list(k)
        for source in sources:
            stats = by_key[k].get(source)
            row += absent if stats is None else cells(stats)
        rows.append(row)
    return render_table(config, columns, rows)


def words_table(per_source: dict[Source, dict[str, DocShare]],
                config: ConfigPairs) -> str:
    """New-term table; one percent/doc-freq column pair per source, ``-``
    where a term did not qualify in that source."""
    return _per_source_table(
        per_source, ["term"], ["doc_freq", "percent"],
        lambda s: [str(s.doc_freq), percent_text(s.percent)], config)


def cowords_table(per_source: dict[Source, dict[tuple[str, str], CoWordPair]],
                  config: ConfigPairs) -> str:
    """New co-word table; per-source co-doc-freq / cosine / percent columns."""
    return _per_source_table(
        per_source, ["term_a", "term_b"], ["co_doc_freq", "cosine", "percent"],
        lambda p: [str(p.co_doc_freq), cosine_text(p.cosine), percent_text(p.percent)],
        config)


def phrase_table(per_source: dict[Source, dict[int, DocShare]],
                 config: ConfigPairs) -> str:
    """One row per year of the trends: every source part keeps every year."""
    sources = [s for s in Source if s in per_source]
    columns = ["year", *(f"{source.value}_{name}" for source in sources
                         for name in ("doc_freq", "percent"))]
    rows = {year: [year] for year in next(iter(per_source.values()), {})}
    for source in sources:
        for year, share in per_source[source].items():
            rows[year] += [str(share.doc_freq), percent_text(share.percent)]
    return render_table(config, columns, rows.values())


def phrase_series(trend: dict[int, DocShare], config: ConfigPairs) -> str:
    """Two-column (year, percent) series for plotting."""
    rows = [[year, percent_text(share.percent)] for year, share in trend.items()]
    return render_table(config, ["year", "percent"], rows)

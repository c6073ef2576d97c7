"""Command-line front end.

Subcommands: ``ingest`` (parse exports, write the corpus cache plus an
ingest report), ``summary`` (per-year record counts), ``rsi`` (stability
tables, combined matrix, groove report), ``core-refs`` (core-set
membership and sizes), ``words`` / ``cowords`` (new-term and new-co-word
tables for a year pair), ``phrase`` (head + stem-prefix trend series).
An analysis error carries values and this module words it: ``rsi`` names
the threshold pair and gap of a series with no defined RSI point.

Flags may also come from a JSON config file (``--config``); explicit
command-line flags win. A flag is spelled in full, as its config key is,
and an empty path is refused, since ``Path`` reads it as the working
directory. Each process runs one command and imports only
what it can run: ``ingest`` alone imports the export parsers
(``bibshift.ingest``), and ``json`` is loaded only when ``--config``
names a file. All reports are deterministic: re-running a command with
the same inputs and any ``--workers`` value reproduces the files byte
for byte. A command returns its outputs. Once none of them is an input of
the run or another of its outputs, ``run`` hands them to ``_commit``, the
one place that changes a file: it checks that no target is a directory
or below a file before it makes any directory, then writes every output
to a temp file and only then replaces the targets. A warning is printed
as soon as it is found, before anything is written.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, NamedTuple, Optional, Sequence

from . import reports
from .cocitation import ThresholdPair, core_sets, distinct_ref_count
from .records import (
    BibRecord,
    Corpus,
    EmptyCorpus,
    MAX_YEAR,
    Source,
    build_corpus,
    read_cache,
    split_by_source,
    write_cache,
)
from .stability import GapTooLarge, NoDefinedPoints, groove_detect, rsi_series
from .textmetrics import (
    default_stopwords,
    load_stopwords,
    new_coword_pairs,
    new_terms,
    phrase_trend,
    sum_phrase_trends,
)

if TYPE_CHECKING:
    from .ingest import ParseResult


class CliError(Exception):
    """User-facing failure; printed as ``error: ...`` with exit code 1."""


@contextmanager
def _user_file(action: str, path: Path, missing: str = ""):
    """Turn a failure on ``path`` into ``CliError``: ``missing`` (when given)
    if the file or a parent of it does not exist or is not a directory,
    ``<path>: not UTF-8 text (...)`` on bad bytes, and ``cannot <action>
    <path> (<file>: <reason>)`` on any other ``OSError`` (a symlink loop
    is one); the file the system names can differ from ``path`` (a parent
    that is not a directory, or the temp file ``_commit`` creates for
    ``path``); a temp file that fails to replace ``path`` names ``path``,
    and a write to the temp file's handle names no file. ``_commit``
    checks every target, each in a block of its own, before it makes
    anything."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        if missing and isinstance(exc, (FileNotFoundError, NotADirectoryError)):
            raise CliError(missing) from exc
        name = exc.filename2 or exc.filename
        reason = f"{name}: {exc.strerror}" if name else str(exc)
        raise CliError(f"cannot {action} {path} ({reason})") from exc


# ── argument handling ─────────────────────────────────────────────────────────

class _ArgumentParser(argparse.ArgumentParser):
    """Ends a bad flag, flag value or subcommand like every other bad input:
    the usage line, then ``error: ...``, and exit code 1 (argparse's is 2).
    Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")

    def _get_values(self, action, arg_strings):
        # Before Python 3.13, argparse drops a flag's value ``--``
        # (``--years=--``) and hands the setting ``[]``. Here, as on 3.13,
        # the setting gets the text ``--`` and its own check words the error.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def parse_years(text: str) -> tuple[int, int]:
    first, sep, last = text.partition(":")
    if not sep:
        raise CliError(f"cannot parse years {text!r} (want A:B)")
    try:
        lo, hi = int(first), int(last)
    except ValueError as exc:
        raise CliError(f"cannot parse years {text!r} (want A:B)") from exc
    if lo > hi:
        raise CliError(f"years {text!r} are reversed")
    if lo < 0 or hi > MAX_YEAR:
        raise CliError(f"years {text!r} must lie in 0:{MAX_YEAR}")
    return lo, hi


def parse_thresholds(text: str) -> tuple[ThresholdPair, ...]:
    """Threshold pairs from ``N/M,...``; a repeated pair counts once."""
    try:
        return tuple(dict.fromkeys(ThresholdPair.parse(part) for part in text.split(",")))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_gaps(text: str) -> tuple[int, ...]:
    """Gaps from ``N,M,...``; a repeated gap counts once."""
    try:
        gaps = tuple(dict.fromkeys(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise CliError(f"cannot parse gaps {text!r} (want N,M,...)") from exc
    if any(g < 1 for g in gaps):
        raise CliError(f"gaps must be >= 1, got {text!r}")
    return gaps


def _workers(name: str, count: int) -> int:
    if count < 1:
        raise CliError(f"{name} must be >= 1, got {count}")
    return count


def _finite(name: str, number: float) -> float:
    if not math.isfinite(number):
        raise CliError(f"{name} must be a finite number, got {number}")
    return number


def _min_percent(name: str, number: float) -> float:
    if _finite(name, number) < 0:
        raise CliError(f"{name} must be >= 0, got {number}")
    return number


def _min_cosine(name: str, number: float) -> float:
    if not 0 <= _finite(name, number) <= 1:
        raise CliError(f"{name} must be in [0, 1], got {number}")
    return number


def _path(name: str, text: str) -> Path:
    if not text:
        raise CliError(f"{name} must not be empty")
    if "\0" in text:
        raise CliError(f"{name} {text!r} must not hold a NUL character")
    try:
        os.fsencode(text)
    except UnicodeEncodeError as exc:
        raise CliError(f"{name} {text!r} cannot be encoded as a file name") from exc
    return Path(text)


def _report_text(name: str, text: str) -> str:
    try:
        text.encode("utf-8")  # an undecodable argument byte is a lone surrogate
    except UnicodeEncodeError as exc:
        raise CliError(f"{name} {text!r} is not UTF-8 text "
                       "(it is written into the report header)") from exc
    return text


def _header_path(name: str, text: str) -> Path:
    if "\n" in text or "\r" in text:
        raise CliError(f"{name} {text!r} must not hold a line break "
                       "(it is written into the report header)")
    return _path(name, _report_text(name, text))


# --head and --stem become part of report file names.
_PATH_CHARS = frozenset({"/", "\\", os.sep, "\0"})
# No character of a title word (a run of [^\W_]) case-folds to anything that
# holds whitespace or ASCII punctuation, and those characters keep one after
# case folding, so a --head or --stem holding one can never match.
_NEVER_IN_WORD = frozenset("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")  # string.punctuation


def _name_part(name: str, value: str) -> str:
    _report_text(name, value)
    if _PATH_CHARS.intersection(value):
        raise CliError(f"{name} {value!r} must not hold a path separator or NUL "
                       "(it is part of the report file names)")
    if any(ch.isspace() or ch in _NEVER_IN_WORD for ch in value):
        raise CliError(f"{name} {value!r} must not hold whitespace or ASCII punctuation "
                       "(no title word can match it)")
    return value


class _Setting(NamedTuple):
    """One setting: the flag ``--name`` (``_`` written ``-``) on ``commands``
    (``None``: every command) and the config-file key ``name``. ``help`` may
    name ``{default}``. The flag's text, or a config value read as that
    text, goes through ``type`` (when set) and then ``check(name, value)``,
    which rejects what a run cannot use and returns the run's value. A
    ``text_only`` setting (a path or a report-name part) takes no JSON
    number."""
    help: str
    check: Callable[[str, Any], Any]
    commands: Optional[tuple[str, ...]] = None
    default: Any = None
    type: Optional[Callable[[str], Any]] = None
    text_only: bool = False

    def takes(self, command: str) -> bool:
        return self.commands is None or command in self.commands


_SETTINGS = {
    "cache": _Setting("corpus cache file (default {default})", _path,
                      default="corpus_cache.tsv", text_only=True),
    "out_dir": _Setting("directory for report files (default {default})", _path,
                        default=".", text_only=True),
    "years": _Setting("year range A:B (for words/cowords: the compared pair)",
                      lambda _, text: parse_years(text)),
    "workers": _Setting("accepted for compatibility (>= 1, default {default}); work runs "
                        "serially and output never depends on it",
                        _workers, default=1, type=int),
    "index": _Setting("citation-index export file", _path, ("ingest",), text_only=True),
    "medline": _Setting("MEDLINE export file", _path, ("ingest",), text_only=True),
    "thresholds": _Setting("comma-separated cite/cocite pairs (default {default})",
                           lambda _, text: parse_thresholds(text),
                           ("rsi", "core-refs"), default="15/11,15/8,11/9,10/8"),
    "gaps": _Setting("comma-separated interval gaps (default {default})",
                     lambda _, text: parse_gaps(text), ("rsi",), default="1,2"),
    "min_percent": _Setting("later-year document-frequency floor (default {default})",
                            _min_percent, ("words", "cowords"), default=1.0, type=float),
    "min_cosine": _Setting("cosine floor for pairs (default {default})",
                           _min_cosine, ("cowords",), default=0.25, type=float),
    "stopwords": _Setting("stop-word list file (default: built-in)", _header_path,
                          ("words", "cowords"), text_only=True),
    "head": _Setting("leading word, e.g. reverse", _name_part, ("phrase",), text_only=True),
    "stem": _Setting("stem prefix of the following word, e.g. transcr", _name_part,
                     ("phrase",), text_only=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="bibshift", allow_abbrev=False,
        description="Detect shifts in a literature corpus via core-reference "
                    "stability and title-word analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for name, setting in _SETTINGS.items():
            if setting.takes(command):
                p.add_argument(f"--{name.replace('_', '-')}", type=setting.type,
                               help=setting.help.format(default=setting.default))
    return parser


def _load_config_file(name: Optional[str]) -> dict:
    if name is None:
        return {}
    path = _path("config", name)
    import json

    with _user_file("read config file", path, f"config file not found: {path}"):
        text = path.read_text(encoding="utf-8-sig")  # as exports: a leading BOM is dropped
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long a number, too deep a nest
        raise CliError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_SETTINGS))
    if unknown:
        raise CliError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return data


def _config_value(name: str, setting: _Setting, value):
    """A config value as its flag's value: a JSON string is the flag's text
    and a JSON number (unless ``text_only``) its ``str()``, converted by the
    flag's ``type``."""
    if isinstance(value, str):
        text = value
    elif setting.text_only:
        raise CliError(f"{name} must be a string, got {value!r}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        text = str(value)
    else:
        raise CliError(f"cannot parse {name} {value!r} (want a string or a number)")
    if setting.type is None:
        return text
    try:
        return setting.type(text)
    except ValueError as exc:
        raise CliError(f"cannot parse {name} {text!r} "
                       f"(invalid {setting.type.__name__} value)") from exc


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The command and each setting: from its flag, else the config file,
    else its default."""
    file_cfg = _load_config_file(args.config)
    values = {}
    for name, setting in _SETTINGS.items():
        value = getattr(args, name, None)
        if value is None and name in file_cfg:
            value = _config_value(name, setting, file_cfg[name])
        if value is None:
            value = setting.default
        values[name] = None if value is None else setting.check(name, value)
    # Every command rejects a bad threshold list; only those taking it warn.
    if _SETTINGS["thresholds"].takes(args.command):
        for t in values["thresholds"]:
            if t.cocite_min > t.cite_min:
                print(f"warning: cocite_min {t.cocite_min} exceeds cite_min {t.cite_min}; "
                      "the co-citation threshold can never bind above the citation count",
                      file=sys.stderr)
    return argparse.Namespace(command=args.command, **values)


# ── shared helpers ────────────────────────────────────────────────────────────

def _load_corpus(cfg: argparse.Namespace, full: bool = False, refs: bool = True) -> Corpus:
    """Corpus from the cache; ``full`` ignores the --years restriction
    (words/cowords read --years as the compared pair, not a filter), and
    ``refs`` false leaves every record's cited references empty (for the
    title commands)."""
    with _user_file("read cache", cfg.cache,
                    f"cache file not found: {cfg.cache} (run the ingest command first)"):
        try:
            return build_corpus(read_cache(cfg.cache, refs=refs),
                                None if full else cfg.years)
        except (EmptyCorpus, ValueError) as exc:
            raise CliError(f"cannot build corpus from {cfg.cache}: {exc}") from exc


def _load_stopwords(cfg: argparse.Namespace) -> frozenset[str]:
    if cfg.stopwords is None:
        return default_stopwords()
    with _user_file("read stop-word file", cfg.stopwords,
                    f"stop-word file not found: {cfg.stopwords}"):
        return load_stopwords(cfg.stopwords)


def _stopwords_text(cfg: argparse.Namespace) -> str:
    return "<builtin:en>" if cfg.stopwords is None else str(cfg.stopwords)


def _years_text(corpus: Corpus) -> str:
    return f"{min(corpus)}:{max(corpus)}"


def _thresholds_text(cfg: argparse.Namespace) -> str:
    return ",".join(str(t) for t in cfg.thresholds)


class _Output(NamedTuple):
    """A file a command writes once the run's every output has been checked
    against its inputs and against each other: ``write`` encodes it into
    the binary handle ``_commit`` opened."""
    what: str  # "report" or "cache"
    path: Path
    write: Callable[[BinaryIO], None]


def _report(cfg: argparse.Namespace, name: str, text: str) -> _Output:
    return _Output("report", cfg.out_dir / name, lambda out: reports.write_report(out, text))


def _inputs(cfg: argparse.Namespace, config: Optional[str]) -> list[tuple[str, Path]]:
    """Each file the run reads, with what it is; ingest writes the cache."""
    named = [("config file", None if config is None else Path(config))]
    if cfg.command == "ingest":
        named += [("citation-index export", cfg.index), ("MEDLINE export", cfg.medline)]
    else:
        named.append(("cache", cfg.cache))
    if _SETTINGS["stopwords"].takes(cfg.command):
        named.append(("stop-word file", cfg.stopwords))
    return [(what, path) for what, path in named if path is not None]


def _same_file(a: Path, b: Path) -> bool:
    """Whether two paths name one file: by ``os.path.samefile`` when both
    exist, so links count, else by resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # not written yet
        try:
            return a.resolve() == b.resolve()
        except (OSError, RuntimeError):  # a symlink loop: the write names it
            return False


def _check_outputs(outputs: list[_Output], inputs: list[tuple[str, Path]]) -> None:
    """A run never writes over a file it reads or has already written."""
    earlier = list(inputs)
    for output in outputs:
        for what, path in earlier:
            if _same_file(output.path, path):
                raise CliError(f"the {output.what} {output.path} would overwrite "
                               f"the {what} {path}")
        earlier.append((output.what, output.path))


def _dirs_to_make(path: Path) -> list[Path]:
    """The missing directories of ``path``'s parent, outermost first, or the
    error a write to ``path`` would meet: ``ENOTDIR`` naming the first
    existing ancestor of its parent (a dangling link counts) when that is
    not a directory, ``ENOENT`` naming a ``..`` of its parent that follows a
    directory not made yet (making it only for ``..`` to leave it would
    leave it behind), and ``EISDIR`` when ``path`` is a directory (a symlink
    is replaced, so it passes) or ends in ``..``, which names one once its
    parent is made."""
    for folder in (path.parent, *path.parent.parents):
        if folder.is_symlink() or folder.exists():
            if not folder.is_dir():
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                         str(folder))
            break
    missing = path.parent.parts[len(folder.parts):]
    if ".." in missing:
        dotdot = folder.joinpath(*missing[:missing.index("..") + 1])
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(dotdot))
    if path.name == ".." or (path.is_dir() and not path.is_symlink()):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return [folder.joinpath(*missing[:depth]) for depth in range(1, len(missing) + 1)]


def _commit(outputs: list[_Output]) -> None:
    """Check every target (``_dirs_to_make``) before anything is made, so a
    refused target changes no file. Then write each output to a new temp
    file beside its target (its missing directories made, the name
    ``.bibshift-<pid>-<hex>.tmp`` of fixed length), and replace each
    target, in output order. A directory an earlier output made is not made
    again. Each temp file is created exclusively and its writer is handed
    that handle, so no writer opens a file by name. Before the first
    replace, each temp name must still be the file its handle wrote, not a
    link or a file swapped in meanwhile. On any exception after the checks,
    an interrupt included, every temp file is removed, and then each
    directory made here, deepest first, if it is empty; so only a failure
    in the replace loop leaves some targets replaced. Nothing is synced to
    disk."""
    new_dirs = []
    for output in outputs:
        with _user_file(f"write {output.what}", output.path):
            new_dirs.append(_dirs_to_make(output.path))
    temps: list[tuple[Path, os.stat_result]] = []
    made: list[Path] = []
    try:
        for output, folders in zip(outputs, new_dirs):
            with _user_file(f"write {output.what}", output.path):
                for folder in folders:
                    try:
                        folder.mkdir()
                    except FileExistsError:  # an earlier output made it
                        if not folder.is_dir():
                            raise
                    else:
                        made.append(folder)
                temp = output.path.with_name(f".bibshift-{os.getpid()}-{os.urandom(4).hex()}.tmp")
                with open(temp, "xb") as out:
                    temps.append((temp, os.fstat(out.fileno())))
                    output.write(out)
        for output, (temp, written) in zip(outputs, temps):
            with _user_file(f"write {output.what}", output.path):
                if not os.path.samestat(os.lstat(temp), written):  # a link is not followed
                    raise CliError(f"cannot write {output.what} {output.path} "
                                   f"({temp}: replaced by another file while it was written)")
        for output, (temp, _) in zip(outputs, temps):
            with _user_file(f"write {output.what}", output.path):
                os.replace(temp, output.path)
    except BaseException:
        for temp, _ in temps:
            temp.unlink(missing_ok=True)
        for folder in reversed(made):
            with suppress(OSError):  # not empty: something else wrote there
                folder.rmdir()
        raise


def _require_year_pair(cfg: argparse.Namespace, corpus: Corpus) -> tuple[int, int]:
    if cfg.years is None:
        raise CliError(f"{cfg.command} needs --years FORMER:LATER")
    former, later = cfg.years
    known = [year for year, records in corpus.items() if records]
    missing = [y for y in (former, later) if y not in known]
    if former == later:
        raise CliError(f"year pair {former}:{later} compares a year with itself")
    if missing:
        raise CliError(
            f"year pair {former}:{later} not covered by the corpus "
            f"(available years: {', '.join(map(str, known))})"
        )
    return former, later


# ── commands ──────────────────────────────────────────────────────────────────

def _parse_export(path: Path, parser) -> ParseResult:
    from .ingest import MalformedRecord

    with _user_file("read input file", path, f"input file not found: {path}"):
        try:
            # utf-8-sig drops the byte-order mark that starts some exports.
            with path.open(encoding="utf-8-sig") as handle:
                return parser(handle)
        except MalformedRecord as exc:
            raise CliError(f"{path}: {exc}") from exc


def cmd_ingest(cfg: argparse.Namespace) -> list[_Output]:
    if cfg.index is None and cfg.medline is None:
        raise CliError("ingest needs at least one input file (--index and/or --medline)")
    from .ingest import link_records, parse_citation_index_export, parse_medline_export

    results = [_parse_export(path, parser) for path, parser in (
        (cfg.index, parse_citation_index_export), (cfg.medline, parse_medline_export))
        if path is not None]

    warnings = []
    for result in results:
        warnings += [f"duplicate record id {old!r} renamed to {new!r}"
                     for old, new in result.renamed]
        if result.dropped:
            warnings.append(f"dropped {result.dropped} duplicate record(s), each equal in "
                            "every field to an earlier record of its id, or id-less and "
                            "equal to an earlier id-less record but for its anon id")
    warnings += [f"record {missing.record_id} missing field {missing.field}"
                 for result in results for missing in result.missing]
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    records: list[BibRecord] = [record for result in results for record in result.records]
    try:
        corpus = build_corpus(records, cfg.years)
    except EmptyCorpus as exc:
        raise CliError(f"cannot build corpus: {exc}") from exc

    kept = [record for year_records in corpus.values() for record in year_records]
    if cfg.index is not None and cfg.medline is not None:
        coverage = link_records(
            [r for r in kept if r.source is Source.MEDLINE],
            [r for r in kept if r.source is Source.CITATION_INDEX],
        )
        linkage_text = "-" if coverage is None else f"{coverage:.4f}"
    else:
        linkage_text = "not applicable"

    missing_year = sum(record.pub_year is None for record in records)
    config = [
        ("command", "ingest"),
        ("years", _years_text(corpus)),
        ("total_input", str(len(records))),
        ("kept", str(len(kept))),
        ("excluded_missing_year", str(missing_year)),
        ("excluded_out_of_range", str(len(records) - len(kept) - missing_year)),
        ("linkage_coverage", linkage_text),
    ] + [("warning", w) for w in warnings]

    by_year, total = distinct_ref_count(corpus)
    return [
        _report(cfg, "ingest_report.tsv", reports.summary_table(corpus, by_year, total, config)),
        _Output("cache", cfg.cache, lambda out: write_cache(corpus, out)),
    ]


def cmd_summary(cfg: argparse.Namespace) -> list[_Output]:
    corpus = _load_corpus(cfg)
    config = [("command", "summary"), ("years", _years_text(corpus))]
    by_year, total = distinct_ref_count(corpus)
    return [_report(cfg, "summary.tsv", reports.summary_table(corpus, by_year, total, config))]


def cmd_core_refs(cfg: argparse.Namespace) -> list[_Output]:
    corpus = _load_corpus(cfg)
    by_threshold = core_sets(corpus, cfg.thresholds)

    config = [
        ("command", "core-refs"),
        ("years", _years_text(corpus)),
        ("thresholds", _thresholds_text(cfg)),
    ]
    return [
        _report(cfg, "core_refs.tsv", reports.core_membership_table(by_threshold, config)),
        _report(cfg, "core_sizes.tsv", reports.core_size_matrix(by_threshold, config)),
    ]


def cmd_rsi(cfg: argparse.Namespace) -> list[_Output]:
    corpus = _load_corpus(cfg)
    cores = core_sets(corpus, cfg.thresholds)
    outputs = []
    for gap in cfg.gaps:
        try:
            series = {t: rsi_series(cores[t], gap) for t in cfg.thresholds}
            groove = groove_detect(series)
        except GapTooLarge as exc:
            raise CliError(str(exc)) from exc
        except NoDefinedPoints as exc:
            raise CliError(f"series {exc.thresholds} gap {gap} has no defined RSI "
                           "points") from exc
        base_config = [
            ("command", "rsi"),
            ("years", _years_text(corpus)),
            ("gap", str(gap)),
        ]
        for t, points in series.items():
            config = base_config + [("thresholds", str(t))]
            outputs.append(_report(cfg, f"rsi_{t.cite_min}-{t.cocite_min}_gap{gap}.tsv",
                                   reports.rsi_long_table(t, gap, points, config)))

        config = base_config + [("thresholds", _thresholds_text(cfg))]
        outputs.append(_report(cfg, f"rsi_matrix_gap{gap}.tsv",
                               reports.rsi_matrix(series, groove, config)))
    return outputs


def cmd_words(cfg: argparse.Namespace) -> list[_Output]:
    corpus = _load_corpus(cfg, full=True, refs=False)
    stop = _load_stopwords(cfg)
    former, later = _require_year_pair(cfg, corpus)
    per_source = {
        source: new_terms(part[former], part[later], stop, cfg.min_percent)
        for source, part in split_by_source(corpus).items()
    }
    config = [
        ("command", "words"),
        ("years", f"{former}:{later}"),
        ("min_percent", str(cfg.min_percent)),
        ("stopwords", _stopwords_text(cfg)),
    ]
    return [_report(cfg, f"words_{former}-{later}.tsv", reports.words_table(per_source, config))]


def cmd_cowords(cfg: argparse.Namespace) -> list[_Output]:
    corpus = _load_corpus(cfg, full=True, refs=False)
    stop = _load_stopwords(cfg)
    former, later = _require_year_pair(cfg, corpus)
    per_source = {
        source: new_coword_pairs(part[former], part[later], stop,
                                 cfg.min_cosine, cfg.min_percent)
        for source, part in split_by_source(corpus).items()
    }
    config = [
        ("command", "cowords"),
        ("years", f"{former}:{later}"),
        ("min_percent", str(cfg.min_percent)),
        ("min_cosine", str(cfg.min_cosine)),
        ("stopwords", _stopwords_text(cfg)),
    ]
    return [_report(cfg, f"cowords_{former}-{later}.tsv",
                    reports.cowords_table(per_source, config))]


def cmd_phrase(cfg: argparse.Namespace) -> list[_Output]:
    if not cfg.head or not cfg.stem:
        raise CliError("phrase needs --head and --stem")
    corpus = _load_corpus(cfg, refs=False)
    per_source = {
        source: phrase_trend(part, cfg.head, cfg.stem)
        for source, part in split_by_source(corpus).items()
    }
    config = [
        ("command", "phrase"),
        ("years", _years_text(corpus)),
        ("head", cfg.head),
        ("stem", cfg.stem),
    ]
    return [
        _report(cfg, f"phrase_{cfg.head}_{cfg.stem}.tsv",
                reports.phrase_table(per_source, config)),
        _report(cfg, f"phrase_series_{cfg.head}_{cfg.stem}.tsv",
                reports.phrase_series(sum_phrase_trends(corpus, per_source.values()), config)),
    ]


_COMMANDS = {
    "ingest": ("parse export files and write the corpus cache", cmd_ingest),
    "summary": ("per-year record and cited-reference counts", cmd_summary),
    "rsi": ("stability series, combined matrix, groove report", cmd_rsi),
    "core-refs": ("core-reference membership and set sizes", cmd_core_refs),
    "words": ("new title words for a year pair", cmd_words),
    "cowords": ("new co-word pairs for a year pair", cmd_cowords),
    "phrase": ("per-year trend of head word + stem prefix", cmd_phrase),
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        outputs = _COMMANDS[cfg.command][1](cfg)
        _check_outputs(outputs, _inputs(cfg, args.config))
        _commit(outputs)
        for output in outputs:
            print(f"wrote {output.path}")
        sys.stdout.flush()
    except CliError as exc:
        return _fail(str(exc))
    except (OSError, UnicodeEncodeError) as exc:  # stdout or stderr failed: a full
        return _fail(f"cannot write output ({exc})")  # device, a path it cannot encode
    return 0


def _fail(message: str) -> int:
    """Print ``error: message`` if stderr still works, and return exit code
    1. A standard stream that cannot flush is pointed at ``os.devnull``, as
    the SIGPIPE note of Python's ``signal`` docs shows, so the flush at exit
    cannot fail again and turn exit code 1 into 120."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        pass  # stderr failed too: the exit code alone reports the error
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            _to_devnull(stream)
    return 1


def _to_devnull(stream) -> None:
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor, so nothing flushes it at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

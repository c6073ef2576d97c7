"""Byte pin of every command: the SHA-256 of each file a command writes,
and its exit code, stdout and stderr with the run's directory written
``<tmp>``, on the generator's default-seed exports at 24 papers a year.

``tests/data/command_digests.json`` holds the expected outcomes. A change
that keeps the reports, the cache and the messages keeps this test passing;
one that changes a byte must say why and pin the new value.
"""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

from bibshift.cli import run

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "command_digests.json"

# (label, argv after the shared flags); each label gets its own --out-dir.
COMMANDS = [
    ("ingest", ["ingest", "--index", "{exports}/citation_index.txt",
                "--medline", "{exports}/medline.txt", "--cache", "{tmp}/cache.tsv"]),
    ("ingest_years", ["ingest", "--index", "{exports}/citation_index.txt",
                      "--medline", "{exports}/medline.txt",
                      "--cache", "{tmp}/cache_years.tsv", "--years", "1969:1971"]),
    ("summary", ["summary", "--cache", "{tmp}/cache.tsv"]),
    ("summary_years", ["summary", "--cache", "{tmp}/cache.tsv", "--years", "1968:1980"]),
    ("rsi", ["rsi", "--cache", "{tmp}/cache.tsv"]),
    ("core_refs", ["core-refs", "--cache", "{tmp}/cache.tsv"]),
    ("words", ["words", "--cache", "{tmp}/cache.tsv", "--years", "1970:1972"]),
    ("cowords", ["cowords", "--cache", "{tmp}/cache.tsv", "--years", "1970:1972"]),
    ("phrase", ["phrase", "--cache", "{tmp}/cache.tsv", "--head", "reverse",
                "--stem", "transcr"]),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def command_outcomes(tmp: Path) -> dict:
    """Each command's exit code, path-normalised stdout and stderr, and the
    digest of every file it wrote, by label."""
    exports = tmp / "exports"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_synthetic_corpus.py"),
         "--out-dir", str(exports), "--papers-per-year", "24"],
        check=True, capture_output=True, timeout=120,
    )
    outcomes = {}
    for label, argv in COMMANDS:
        out_dir = tmp / label
        argv = [arg.format(tmp=tmp, exports=exports) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, "--out-dir", str(out_dir)])
        # Every file in the report directory, and every file the run names.
        written = set(out_dir.rglob("*")) if out_dir.exists() else set()
        written.update(Path(line[len("wrote "):]) for line in out.getvalue().splitlines()
                       if line.startswith("wrote "))
        outcomes[label] = {
            "exit": code,
            "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
            "stderr": err.getvalue().replace(str(tmp), "<tmp>"),
            "files": {p.relative_to(tmp).as_posix(): _sha256(p)
                      for p in sorted(written)},
        }
    return outcomes


def test_every_command_writes_the_pinned_bytes(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = command_outcomes(tmp_path)
    assert list(actual) == list(expected)
    for label in expected:
        assert actual[label] == expected[label], label

"""Output gate: what one bibshift invocation produced, and checks on it.

An invocation's *signature* is its exit code, the SHA-256 of its stderr and
the SHA-256 of every file it reports writing (``wrote <path>`` on stdout),
keyed by file name. Signatures are compared byte for byte against digests
pinned in ``digests.json``; for a seed with no pinned digests, against the
first invocation of the same command in the same run.

The semantic checks below hold for every seed. They recompute a few report
columns straight from the generated rows, so an unpinned seed still catches
a program that is consistently wrong.
"""
from __future__ import annotations

import hashlib
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def signature(exit_code: int, stdout: str, stderr: str) -> dict:
    files = {}
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            path = Path(line[len("wrote "):])
            files[path.name] = sha256(path.read_bytes()) if path.is_file() else "missing"
    return {"exit": exit_code, "stderr": sha256(stderr.encode()), "files": files}


def written(stdout: str, name: str) -> Path | None:
    """Path of the file called ``name`` that the invocation wrote."""
    for line in stdout.splitlines():
        if line.startswith("wrote ") and Path(line[len("wrote "):]).name == name:
            return Path(line[len("wrote "):])
    return None


def _table(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """Header ``# key=value`` pairs and the rows after the column line."""
    config, rows, seen_columns = {}, [], False
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config.setdefault(key, value)
        elif not seen_columns:
            seen_columns = True
        else:
            rows.append(line.split("\t"))
    return config, rows


def check_summary(text: str, expected: dict[int, tuple[int, int, int]],
                  kept: int | None = None) -> list[str]:
    """Per-year (index records, MEDLINE records, distinct cited refs)."""
    config, rows = _table(text)
    problems = []
    if kept is not None and config.get("kept") != str(kept):
        problems.append(f"kept={config.get('kept')}, generated {kept}")
    got = {int(r[0]): (int(r[1]), int(r[2]), int(r[4])) for r in rows if r[0] != "TOTAL"}
    if got != expected:
        problems.append(f"per-year counts {got} != generated {expected}")
    return problems


def check_phrase(text: str, expected: dict[str, dict[int, int]]) -> list[str]:
    """Per-source, per-year record counts of the planted phrase."""
    _, rows = _table(text)
    sources = [s for s in ("citation_index", "medline") if expected[s]]
    got = {s: {int(r[0]): int(r[1 + 2 * k]) for r in rows} for k, s in enumerate(sources)}
    want = {s: expected[s] for s in sources}
    return [] if got == want else [f"phrase counts {got} != generated {want}"]


def groove(text: str) -> dict[str, str]:
    """Groove block of an ``rsi_matrix_gap*.tsv``: thresholds -> minimal RSI
    as an exact fraction with its intervals, plus the CONSENSUS row."""
    lines = text.splitlines()
    start = lines.index("# groove: minimal defined RSI per series") + 2
    out = {}
    for line in lines[start:]:
        cells = line.split("\t")
        out[cells[0]] = cells[3] if cells[0] == "CONSENSUS" else f"{cells[1]} @ {cells[3]}"
    return out

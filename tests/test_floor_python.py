"""The byte pins of ``tests/test_command_digests.py`` on the oldest Python
that ``pyproject.toml`` declares, where a runtime difference (a regex form
or a library function the older version lacks) would show, and on the
newest CPython that pyenv built, where a change to a private method that
``bibshift`` overrides (``argparse.ArgumentParser._get_values``) would show.
Parsing every file at the oldest version (``tests/test_syntax_floor.py``)
cannot see those.

The floor interpreter is ``python3.10`` on ``PATH``, else the one that
``BIBSHIFT_FLOOR_PYTHON`` names, else a ``python3.10`` that pyenv built
(``<pyenv root>/versions/3.10*/bin``, the root from ``PYENV_ROOT`` or
``~/.pyenv``). The newest is ``<pyenv root>/versions/X.Y.Z/bin/python3``
of the highest ``X.Y.Z`` at or above the floor. A candidate counts only if
it runs and reports its version. With none, the test is skipped and says
what it tried. ``test_command_digests`` imports only the standard library
and ``bibshift``, so neither interpreter needs test packages.
"""
import json
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from test_syntax_floor import _oldest_python

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "command_digests.json"
ENV_VAR = "BIBSHIFT_FLOOR_PYTHON"


def _pyenv_root() -> Path:
    return Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")


def _runs_as(label: str, path: str, version: tuple[int, int]) -> str | None:
    """None if ``path`` runs and reports ``version``, else a note saying why not."""
    try:
        proc = subprocess.run([path, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
                              capture_output=True, text=True, timeout=60)
    except OSError as exc:
        return f"{label} ({path}): {exc.strerror}"
    if proc.returncode != 0:
        return f"{label} ({path}): exit {proc.returncode}"
    if proc.stdout.strip() != str(version):
        return f"{label} ({path}): Python {proc.stdout.strip()}"
    return None


def _floor_python() -> tuple[str | None, list[str]]:
    """The first candidate that runs as the floor version, and a note on
    each candidate tried."""
    version = _oldest_python()
    name = "python{}.{}".format(*version)
    pyenv_root = _pyenv_root()
    pattern = "versions/{}.{}*/bin/{}".format(*version, name)
    built = [("pyenv", str(path), "") for path in sorted(pyenv_root.glob(pattern))]
    candidates = [(f"{name} on PATH", shutil.which(name), "not found"),
                  (ENV_VAR, os.environ.get(ENV_VAR) or None, "unset"),
                  *(built or [(f"pyenv ({pyenv_root / pattern})", None, "not found")])]
    tried = []
    for label, path, absent in candidates:
        note = f"{label}: {absent}" if path is None else _runs_as(label, path, version)
        if note is None:
            return path, tried
        tried.append(note)
    return None, tried


def _newest_python() -> tuple[str | None, list[str]]:
    """The pyenv-built CPython of the highest ``X.Y.Z`` at or above the
    floor version, and a note on what was tried when it does not run."""
    versions = _pyenv_root() / "versions"
    built = {tuple(int(part) for part in path.parents[1].name.split(".")): str(path)
             for path in versions.glob("*/bin/python3")
             if re.fullmatch(r"\d+\.\d+\.\d+", path.parents[1].name)}
    newest = max((v for v in built if v[:2] >= _oldest_python()), default=None)
    if newest is None:
        return None, [f"pyenv ({versions}/X.Y.Z/bin/python3): none at or above the floor"]
    note = _runs_as("pyenv", built[newest], newest[:2])
    return (built[newest], []) if note is None else (None, [note])


def _assert_pinned_bytes(python: str, tmp_path: Path) -> None:
    code = ("import json, sys\n"
            "from pathlib import Path\n"
            "from test_command_digests import command_outcomes\n"
            "json.dump(command_outcomes(Path(sys.argv[1])), sys.stdout)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([python, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = json.loads(proc.stdout)
    assert list(actual) == list(expected)
    for label in expected:
        assert actual[label] == expected[label], label


def test_the_floor_python_writes_the_pinned_bytes(tmp_path):
    python, tried = _floor_python()
    if python is None:
        pytest.skip("no Python {}.{} to run: ".format(*_oldest_python()) + "; ".join(tried))
    _assert_pinned_bytes(python, tmp_path)


def test_the_newest_python_writes_the_pinned_bytes(tmp_path):
    python, tried = _newest_python()
    if python is None:
        pytest.skip("no newest Python to run: " + "; ".join(tried))
    _assert_pinned_bytes(python, tmp_path)

"""The byte pins of ``tests/test_command_digests.py`` on the oldest Python
that ``pyproject.toml`` declares, where a runtime difference (a regex form
or a library function the older version lacks) would show. Parsing every
file at that version (``tests/test_syntax_floor.py``) cannot see those.

The interpreter is ``python3.10`` on ``PATH``, else the one that
``BIBSHIFT_FLOOR_PYTHON`` names, else a ``python3.10`` that pyenv built
(``<pyenv root>/versions/3.10*/bin``, the root from ``PYENV_ROOT`` or
``~/.pyenv``); a candidate counts only if it runs and reports that
version. With none, the test is skipped and says what it tried.
``test_command_digests`` imports only the standard library and
``bibshift``, so the floor interpreter needs no test packages.
"""
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from test_syntax_floor import _oldest_python

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "command_digests.json"
ENV_VAR = "BIBSHIFT_FLOOR_PYTHON"


def _floor_python() -> tuple[str | None, list[str]]:
    """The first candidate that runs as the floor version, and a note on
    each candidate tried."""
    version = _oldest_python()
    name = "python{}.{}".format(*version)
    pyenv_root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    pattern = "versions/{}.{}*/bin/{}".format(*version, name)
    built = [("pyenv", str(path), "") for path in sorted(pyenv_root.glob(pattern))]
    candidates = [(f"{name} on PATH", shutil.which(name), "not found"),
                  (ENV_VAR, os.environ.get(ENV_VAR) or None, "unset"),
                  *(built or [(f"pyenv ({pyenv_root / pattern})", None, "not found")])]
    tried = []
    for label, path, absent in candidates:
        if path is None:
            tried.append(f"{label}: {absent}")
            continue
        try:
            proc = subprocess.run([path, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
                                  capture_output=True, text=True, timeout=60)
        except OSError as exc:
            tried.append(f"{label} ({path}): {exc.strerror}")
            continue
        if proc.returncode != 0:
            tried.append(f"{label} ({path}): exit {proc.returncode}")
        elif proc.stdout.strip() != str(version):
            tried.append(f"{label} ({path}): Python {proc.stdout.strip()}")
        else:
            return path, tried
    return None, tried


def test_the_floor_python_writes_the_pinned_bytes(tmp_path):
    python, tried = _floor_python()
    if python is None:
        pytest.skip("no Python {}.{} to run: ".format(*_oldest_python()) + "; ".join(tried))
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

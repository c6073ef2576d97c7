"""Every Python file of the project parses as the oldest Python that
``pyproject.toml`` declares (``requires-python``), so syntax newer than that
fails here even on a newer interpreter.

``ast.parse(..., feature_version=...)`` is best effort: it rejects the newer
syntax that CPython's parser checks the version for (``except*`` groups, say),
not every newer form. It cannot catch runtime-only differences at all, such
as a regex with atomic groups ``(?>...)`` or a library function that the
older version lacks; only a run on that version shows those.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "tests", "scripts")
               for path in (ROOT / folder).rglob("*.py"))


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_the_file_parses_as_the_oldest_declared_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_oldest_python())


def test_the_oldest_declared_python_refuses_newer_syntax():
    assert _oldest_python() == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))

"""Every Python file of the project parses as the oldest Python that
``pyproject.toml`` declares (``requires-python``), so syntax newer than that
fails here even on a newer interpreter.

``ast.parse(..., feature_version=...)`` is best effort: it rejects the newer
syntax that CPython's parser checks the version for (``except*`` groups, say),
not every newer form. It cannot catch runtime-only differences at all, such
as a library function that the older version lacks; only a run on that
version shows those. Regex syntax is one runtime difference checked here:
every compiled module-level pattern of ``bibshift`` is parsed, and an atomic
group ``(?>...)`` or a possessive quantifier (``*+``, ``++``, ``?+``,
``{m,n}+``), both new in Python 3.11, fails the test.
"""
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bibshift

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


# the parser's names for the regex forms that Python 3.11 added
_NEWER_REGEX_FORMS = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def _regex_forms(tree) -> set[str]:
    """The name of every opcode in a parsed pattern, nested ones included."""
    forms: set[str] = set()
    for item in tree:
        if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
            forms.add(item[0].name)
            item = item[1]
        if isinstance(item, (tuple, list)) or hasattr(item, "data"):
            forms |= _regex_forms(getattr(item, "data", item))
    return forms


def _newer_regex_forms(pattern: re.Pattern) -> set[str]:
    # re._parser is sre_parse, renamed in 3.11; the old name warns there
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    return _regex_forms(parser.parse(pattern.pattern, pattern.flags)) & _NEWER_REGEX_FORMS


def _module_patterns() -> dict[str, re.Pattern]:
    """Every compiled pattern a ``bibshift`` module binds at module level,
    as itself or through a bound method such as ``.fullmatch``."""
    found = {}
    for info in pkgutil.iter_modules(bibshift.__path__, "bibshift."):
        for name, value in vars(importlib.import_module(info.name)).items():
            pattern = value if isinstance(value, re.Pattern) else getattr(value, "__self__", None)
            if isinstance(pattern, re.Pattern):
                found[f"{info.name}.{name}"] = pattern
    return found


def test_no_module_pattern_uses_regex_syntax_newer_than_the_oldest_python():
    patterns = _module_patterns()
    assert {"bibshift.refkey._CANONICAL", "bibshift.ingest._INDEX_TAG_RE",
            "bibshift.records._ESCAPE_RE", "bibshift.textmetrics._TOKEN_RE"} <= set(patterns)
    assert {name: _newer_regex_forms(pattern) for name, pattern in patterns.items()
            if _newer_regex_forms(pattern)} == {}


@pytest.mark.parametrize("text", ["(?>a)", "a*+", "x(?:a++)", "a?+", "a{1,2}+", "[b]|(a*+)"])
def test_the_regex_check_refuses_3_11_forms(text):
    try:
        pattern = re.compile(text)
    except re.error:  # an older Python refuses the form itself
        return
    assert _newer_regex_forms(pattern)


@pytest.mark.parametrize("text", [r"\*+", "[*+?]+", r"a{2}\+", "(?:a)+", "(?=a)b"])
def test_the_regex_check_passes_look_alikes(text):
    assert not _newer_regex_forms(re.compile(text))

"""Callers outside ``src/`` that no other test runs: the README's Library
example, the tables of functions the benchmark's tracer wraps, and the
names through which ``ingest`` and the title commands reach the layers the
tracer times. Also guards that every public name in ``src/`` has one of
these callers or a caller in ``src/``, that the commands call every
function the tracer wraps, that no module imports a name it never reads,
that ``reports`` imports only classes from the analyses, that only
``records`` and ``ingest`` import ``refkey``, and that only ``cli._commit``
changes the file system."""
import ast
import contextlib
import enum
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bibshift import cli, ingest
from bibshift.cli import run
from bibshift.records import Source
from conftest import write_index_export, write_medline_export

ROOT = Path(__file__).resolve().parents[1]


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    exports = tmp_path / "exports"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_synthetic_corpus.py"),
         "--out-dir", str(exports), "--papers-per-year", "24"],
        check=True, capture_output=True, timeout=120,
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ingest", "--cache", str(tmp_path / "corpus_cache.tsv"),
                    "--out-dir", str(tmp_path / "reports"),
                    "--index", str(exports / "citation_index.txt"),
                    "--medline", str(exports / "medline.txt")]) == 0
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), "README.md", "exec"), {})
    consensus = ast.literal_eval(out.getvalue().strip())
    assert consensus and all(len(interval) == 2 for interval in consensus)


def test_demo_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_shift_detection.py"),
         "--work-dir", str(tmp_path), "--papers-per-year", "24"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    [line] = [line for line in proc.stdout.splitlines()
              if line.startswith("Consensus dip interval(s)")]
    assert not line.endswith("None")


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter with ``src`` on its path."""
    proc = subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return proc.stdout


def test_importing_the_cli_leaves_dataclasses_out():
    """No value type is a dataclass: importing ``dataclasses``, and the
    ``inspect`` it pulls in, would add to every command's start-up."""
    code = "import sys, bibshift.cli; print('dataclasses' in sys.modules)"
    assert _fresh_python(code) == "False\n"


def test_importing_the_cli_leaves_out_what_only_some_commands_run():
    """``json`` is for ``--config``, ``fractions`` (with ``decimal``) for an
    RSI, and ``bibshift.ingest`` for ``ingest``: every other command would
    pay for loading them at start-up."""
    code = "import sys, bibshift.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    assert _fresh_python(code, "json", "fractions", "decimal", "bibshift.ingest") == "[]\n"


def test_an_ingest_run_loads_every_module_the_tracer_wraps(tmp_path):
    """The tracer reads each module of its tables from ``sys.modules`` right
    after the untraced ``ingest`` run; a module that run left unloaded would
    end a ``--trace 1`` run in a ``KeyError``."""
    write_index_export(tmp_path / "index.txt", [("IDX:1", 1970, "A title", ["X, 1960"])])
    write_medline_export(tmp_path / "medline.txt", [("1", 1970, "A title")])
    code = ("import contextlib, io, sys\n"
            "from bibshift import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(sys.argv[2:]) == 0\n"
            "print(sorted(name for name in sys.argv[1].split(',')\n"
            "             if f'bibshift.{name}' not in sys.modules))\n")
    wrapped = {module for table in _tracer_tables().values() for module in table}
    assert wrapped >= {"ingest", "records", "refkey", "cocitation", "stability",
                       "textmetrics", "reports"}
    assert _fresh_python(code, ",".join(sorted(wrapped)), "ingest",
                         "--index", str(tmp_path / "index.txt"),
                         "--medline", str(tmp_path / "medline.txt"),
                         "--cache", str(tmp_path / "cache.tsv"),
                         "--out-dir", str(tmp_path / "out")) == "[]\n"


def test_every_public_class_is_an_exception_an_enum_or_a_named_tuple():
    """What README's Library section says of the value types."""
    others = []
    for path in sorted((ROOT / "src" / "bibshift").glob("[!_]*.py")):
        module = importlib.import_module(f"bibshift.{path.stem}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and not name.startswith("_")
                    and not issubclass(value, (Exception, enum.Enum))
                    and not (issubclass(value, tuple) and hasattr(value, "_fields"))):
                others.append(f"{path.stem}.{name}")
    assert others == []


def _tracer_tables() -> dict[str, dict[str, tuple[str, ...]]]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "HOT")
    }


def test_every_function_the_tracer_wraps_exists():
    tables = _tracer_tables()
    assert set(tables) == {"SPANNED", "HOT"}
    for table in tables.values():
        for module_name, names in table.items():
            module = importlib.import_module(f"bibshift.{module_name}")
            for name in names:
                assert callable(getattr(module, name, None)), f"bibshift.{module_name}.{name}"


def _used_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, as a name, an attribute or an import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _public_top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    """A public top-level name of ``src/bibshift`` that nothing in ``src/``
    uses, the tracer does not wrap and the Library example does not show
    is dead API: delete it, or use it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "bibshift").glob("*.py"))}
    used = set().union(*map(_used_names, trees.values()))
    used |= _used_names(ast.parse(_library_example()))
    wrapped = {(module, name) for table in _tracer_tables().values()
               for module, names in table.items() for name in names}
    dead = [f"{module}.{name}" for module, tree in trees.items()
            for name in _public_top_level_names(tree)
            if name not in used and (module, name) not in wrapped]
    assert dead == []


def _word_class_patterns(tree: ast.Module) -> list[str]:
    """Each pattern of ``tree`` given to a ``re`` function that holds
    ``\\W`` or ``\\w``, by the name it is bound to (its line when unbound)."""
    def holds_word_class(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and bool(node.args) and isinstance(node.args[0], ast.Constant)
                and re.search(r"\\[Ww]", str(node.args[0].value)) is not None)

    bound = {id(node.value): node.targets[0].id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return [bound.get(id(node), f"line {node.lineno}") for node in ast.walk(tree)
            if holds_word_class(node)]


def test_one_pattern_holds_the_word_rule():
    """Title words are split by ``textmetrics.title_token_sequence`` alone;
    a second word pattern would be a second word rule to keep in step."""
    found = [f"{path.stem}.{name}"
             for path in sorted((ROOT / "src" / "bibshift").glob("*.py"))
             for name in _word_class_patterns(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["textmetrics._TOKEN_RE"]


def test_the_word_pattern_guard_sees_each_kind_of_call():
    tree = ast.parse('import re\nA = re.compile(r"[^\\W_]+")\nB = re.compile(r"\\s+")\n'
                     're.sub(r"\\w+", "", "x")\n')
    assert _word_class_patterns(tree) == ["A", "line 4"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import statement of ``tree`` binds that no expression
    of ``tree`` reads, with the line of its import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", [
    *sorted((ROOT / "src" / "bibshift").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))
], ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_reads(path):
    """No linter runs on this code, so an import left behind by an edit
    would stay unnoticed."""
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_unused_import_guard_sees_each_kind_of_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\nfrom a import b, c as d\n"
                     "from e import f\nf(os)\n")
    assert _unused_imports(tree) == ["regex (line 3)", "b (line 4)", "d (line 4)"]


def _non_class_imports(tree: ast.Module, siblings: dict[str, ast.Module]) -> list[str]:
    """Each name ``tree`` imports from a sibling module in ``siblings`` that
    is not a class there, as ``module.name``; a sibling imported whole is
    listed by its name, since every name of it is then in reach."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is None:  # from . import module
            found += [alias.name for alias in node.names if alias.name in siblings]
        elif node.module in siblings:
            classes = {n.name for n in siblings[node.module].body if isinstance(n, ast.ClassDef)}
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name not in classes]
    return found


def test_reports_imports_only_classes_from_the_analyses():
    """The analyses return values and ``reports`` words them: a function
    ``reports`` took from ``stability`` or ``textmetrics`` would be report
    text written outside ``reports``."""
    def parse(name: str) -> ast.Module:
        return ast.parse((ROOT / "src" / "bibshift" / f"{name}.py").read_text(encoding="utf-8"))

    siblings = {name: parse(name) for name in ("stability", "textmetrics")}
    assert _non_class_imports(parse("reports"), siblings) == []


def test_the_class_import_guard_sees_each_kind_of_name():
    siblings = {"stability": ast.parse("class A:\n    pass\ndef f():\n    pass\nB = 1\n"),
                "textmetrics": ast.parse("class C:\n    pass\n")}
    tree = ast.parse("from .stability import A, f, B as b\nfrom .textmetrics import C\n"
                     "from .records import g\nfrom stability import f\n"
                     "from . import textmetrics, records\n")
    assert _non_class_imports(tree, siblings) == ["stability.f", "stability.B", "textmetrics"]


def _modules_importing(name: str, trees: dict[str, ast.Module]) -> list[str]:
    """Each module of ``trees`` that imports module ``name`` or a name from
    it, by a relative or an absolute import."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(path == name or path.endswith("." + name) for path in dotted):
                found.append(module)
                break
    return found


def test_only_records_and_ingest_import_refkey():
    """A cited reference is its spelling, a plain ``str``: only the two
    readers of reference text, the export parser and the cache reader,
    parse one, and the analyses and reports never need ``refkey``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "bibshift").glob("*.py"))}
    assert _modules_importing("refkey", trees) == ["ingest", "records"]


def test_the_refkey_import_guard_sees_each_kind_of_import():
    sources = {"a": "from .refkey import parse_cited_ref\n", "b": "from . import refkey\n",
               "c": "import bibshift.refkey\n", "d": "from bibshift import refkey as r\n",
               "e": "from .records import refkeys\nimport refkeyx\n"}
    trees = {name: ast.parse(code) for name, code in sources.items()}
    assert _modules_importing("refkey", trees) == ["a", "b", "c", "d"]


_PATH_WRITES = {"mkdir", "rmdir", "unlink", "touch", "write_text", "write_bytes", "symlink_to"}
_OS_WRITES = {"replace", "rename", "remove", "makedirs"}


def _file_system_change(call: ast.Call) -> str | None:
    """What ``call`` is when it makes, removes, renames or writes a file or
    directory: a ``Path`` method by its name (``.mkdir``), an ``os``
    function by its dotted name, and an ``open`` or ``.open`` whose mode
    is not a literal read mode. ``os.open`` takes flags, not a mode, so
    every ``os.open`` counts."""
    func = call.func
    owner = func.value.id if (isinstance(func, ast.Attribute)
                              and isinstance(func.value, ast.Name)) else None
    if owner == "os" and func.attr in _OS_WRITES | {"open"}:
        return f"os.{func.attr}"
    if isinstance(func, ast.Attribute) and func.attr in _PATH_WRITES:
        return f".{func.attr}"
    if isinstance(func, ast.Name) and func.id == "open":
        name, position = "open", 1  # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        name, position = ".open", 0  # path.open(mode)
    else:
        return None
    if len(call.args) > position:
        mode = call.args[position]
    else:
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    reads = mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                             and not set(mode.value) & set("wxa+"))
    return None if reads else name


def _file_system_changes(tree: ast.Module) -> list[tuple[str, str]]:
    """Each call of ``tree`` that changes the file system, as the top-level
    function or class it is in (``<module>`` outside one) and what it is,
    in line order."""
    found = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (change := _file_system_change(node)):
                found.append((node.lineno, node.col_offset, where, change))
    return [(where, change) for *_, where, change in sorted(found)]


def test_only_the_commit_changes_the_file_system():
    """A failed run changes no file because ``cli._commit`` checks every
    target before it makes a directory, and removes its temp files and the
    directories it made on any failure; a write anywhere else would escape
    both. The one exception is ``_to_devnull``'s ``os.open(os.devnull,
    ...)``, which retargets a standard stream that failed and names no
    output."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "bibshift").glob("*.py"))}
    outside = [f"{module}.{where}: {change}" for module, tree in trees.items()
               for where, change in _file_system_changes(tree)
               if (module, where) != ("cli", "_commit")]
    assert outside == ["cli._to_devnull: os.open"]


def test_the_file_system_guard_sees_each_kind_of_call():
    tree = ast.parse(
        "import os\n"
        "def writes(p, q, m):\n"
        "    p.mkdir(); p.rmdir(); p.unlink(); p.touch(); p.write_text(''); p.write_bytes(b'')\n"
        "    p.symlink_to(q); os.replace(p, q); os.rename(p, q); os.remove(p); os.makedirs(p)\n"
        "    open(p, 'w'); open(p, mode='xb'); open(p, 'a'); p.open('r+'); open(p, m)\n"
        "def reads(p, text):\n"
        "    open(p); open(p, 'rb'); p.open(); p.open(encoding='utf-8'); p.read_text()\n"
        "    text.replace('a', 'b'); [p].remove(p); os.path.exists(p); os.stat(p)\n"
        "class C:\n"
        "    def method(self, p):\n"
        "        os.open(p, os.O_RDONLY)\n"
        "p.unlink()\n")
    assert _file_system_changes(tree) == [
        ("writes", ".mkdir"), ("writes", ".rmdir"), ("writes", ".unlink"), ("writes", ".touch"),
        ("writes", ".write_text"), ("writes", ".write_bytes"), ("writes", ".symlink_to"),
        ("writes", "os.replace"), ("writes", "os.rename"), ("writes", "os.remove"),
        ("writes", "os.makedirs"), ("writes", "open"), ("writes", "open"), ("writes", "open"),
        ("writes", ".open"), ("writes", "open"), ("C", "os.open"), ("<module>", ".unlink")]


def _counting(calls: dict[str, int], label: str, original):
    """``original``, counting each call in ``calls[label]``."""
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return original(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Calls made to each of ``names`` through ``module``'s binding."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    return calls


def test_ingest_calls_each_traced_layer_through_the_cli_binding(tmp_path, monkeypatch):
    """The tracer times ingest's layers by wrapping the names that bind
    them: ``cli`` binds ``write_cache``, and ``cmd_ingest`` reads the three
    export layers from ``bibshift.ingest`` when it runs. A layer ingest
    reached some other way would read 0 without a warning."""
    parsing = ("parse_citation_index_export", "parse_medline_export", "link_records")
    parse_calls = _count_calls(monkeypatch, ingest, parsing)
    write_calls = _count_calls(monkeypatch, cli, ["write_cache"])
    write_index_export(tmp_path / "index.txt", [("IDX:1", 1970, "A title", ["X, 1960"])])
    write_medline_export(tmp_path / "medline.txt", [("1", 1970, "A title")])
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ingest", "--index", str(tmp_path / "index.txt"),
                    "--medline", str(tmp_path / "medline.txt"),
                    "--cache", str(tmp_path / "cache.tsv"),
                    "--out-dir", str(tmp_path / "out")]) == 0
    assert {**parse_calls, **write_calls} == dict.fromkeys([*parsing, "write_cache"], 1)


@pytest.mark.parametrize("command, analysis, table", [
    (["words", "--years", "1970:1971"], "new_terms", "words_table"),
    (["cowords", "--years", "1970:1971"], "new_coword_pairs", "cowords_table"),
    (["phrase", "--head", "reverse", "--stem", "transcr"], "phrase_trend", "phrase_table"),
])
def test_title_commands_call_each_traced_layer_through_the_cli_binding(
        tmp_path, monkeypatch, command, analysis, table):
    """The tracer times the title commands' analysis once per source and
    their table once, by wrapping the names ``cli`` and ``cli.reports``
    bind; a call made some other way would read 0 without a warning."""
    analysis_calls = _count_calls(monkeypatch, cli, [analysis])
    table_calls = _count_calls(monkeypatch, cli.reports, [table])
    titles = ["virus growth", "reverse transcriptase"]
    write_index_export(tmp_path / "index.txt",
                       [(f"IDX:{i}", 1970 + i, title, []) for i, title in enumerate(titles)])
    write_medline_export(tmp_path / "medline.txt",
                         [(str(i), 1970 + i, title) for i, title in enumerate(titles)])
    cache = tmp_path / "cache.tsv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["ingest", "--index", str(tmp_path / "index.txt"),
                    "--medline", str(tmp_path / "medline.txt"),
                    "--cache", str(cache), "--out-dir", str(tmp_path / "out")]) == 0
        assert run([*command, "--cache", str(cache), "--out-dir", str(tmp_path / "out")]) == 0
    assert analysis_calls == {analysis: len(Source)}
    assert table_calls == {table: 1}


def test_the_commands_call_every_function_the_tracer_wraps(tmp_path, monkeypatch):
    """Each wrapped function, replaced in every ``bibshift`` namespace that
    binds it (as the tracer does), runs in some command; a traced layer no
    command reaches would read 0 in every trace without a warning."""
    modules = [module for name, module in sys.modules.items()
               if module is not None and (name == "bibshift" or name.startswith("bibshift."))]
    calls = {}
    for table in _tracer_tables().values():
        for module_name, names in table.items():
            for name in names:
                label = f"{module_name}.{name}"
                calls[label] = 0
                original = getattr(sys.modules[f"bibshift.{module_name}"], name)
                wrapper = _counting(calls, label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapper)

    pool = ["KAPLAN A, 1950, J ONE, V1, P1", "LODGE B, 1951, J TWO, V2, P2"]
    titles = ["reverse transcriptase assay", "virus growth study", "tumor virus notes"]
    # Each record also cites six references no other record cites. Under
    # 2/1 a year's candidates are the pool, and its cores come from row
    # masks; under 1/1 every one-off is a candidate too, and the year's
    # cores come from pair counts (``cocitation_counts``).
    write_index_export(tmp_path / "index.txt", [
        (f"IDX:{year}{i}", year, title,
         pool + [f"ONEOFF C{year}{i}{j}, 1940, J THREE, V3, P{j}" for j in range(6)])
        for year in (1970, 1971, 1972) for i, title in enumerate(titles)])
    write_medline_export(tmp_path / "medline.txt", [
        (f"{year}{i}", year, title) for year in (1970, 1971, 1972)
        for i, title in enumerate(titles)])
    (tmp_path / "stop.txt").write_text("virus\n", encoding="utf-8")
    files = ["--cache", str(tmp_path / "cache.tsv"), "--out-dir", str(tmp_path / "out")]
    commands = [
        ["ingest", "--index", str(tmp_path / "index.txt"),
         "--medline", str(tmp_path / "medline.txt")],
        ["summary"],
        ["rsi", "--thresholds", "2/1", "--gaps", "1"],
        ["core-refs", "--thresholds", "2/1"],
        ["core-refs", "--thresholds", "1/1"],
        ["words", "--years", "1970:1972"],
        ["words", "--years", "1970:1972", "--stopwords", str(tmp_path / "stop.txt")],
        ["cowords", "--years", "1970:1972"],
        ["phrase", "--head", "reverse", "--stem", "transcr"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert run([*argv, *files]) == 0, argv
    assert [label for label, n in calls.items() if n == 0] == []

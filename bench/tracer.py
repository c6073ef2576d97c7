"""Traced in-process pass: per-layer spans and counts for one workload.

Run as ``python3 bench/tracer.py SPEC.json`` from the checkout root, with
``src`` on ``PYTHONPATH``. The spec names the commands (argv lists, in
order), the result file and the span file. Each command runs untraced and
then traced, back to back; the tracing overhead is the sum of the traced
wall times minus the sum of the untraced ones.

Wrappers are installed from outside the package: each traced function is
replaced in *every* ``bibshift`` module namespace that bound it, because
``from ... import`` copies the name (``cli`` binds ``read_cache``,
``stability`` binds ``core_references``, ``records`` and ``ingest`` bind
``parse_cited_ref``). Nothing under ``src/`` changes.

Spans (name, start, end, parent, thread) stay in memory and are written at
exit. Functions called ~10^5 times per command only get a call counter and
an aggregate time, attributed to the innermost open span of their thread.
A thread with no open span (a ``--workers`` pool thread) hangs its spans
under the running command's root span. Overlapping spans from several
threads are merged before they are measured: a layer's busy time is the
union of its intervals, never their sum.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from outputs import signature  # noqa: E402

SPANNED = {
    "ingest": ("parse_citation_index_export", "parse_medline_export", "link_records"),
    "records": ("read_cache", "write_cache", "build_corpus"),
    "cocitation": ("core_references", "citation_counts", "cocitation_counts",
                   "distinct_ref_count"),
    "stability": ("rsi_series", "groove_detect"),
    "textmetrics": ("default_stopwords", "load_stopwords", "new_terms",
                    "new_coword_pairs", "phrase_trend"),
    "reports": ("summary_table", "core_membership_table", "core_size_matrix",
                "rsi_long_table", "rsi_matrix", "words_table", "cowords_table",
                "phrase_table", "phrase_series", "write_report"),
}
HOT = {
    "refkey": ("parse_cited_ref",),
    "textmetrics": ("tokenize_title", "title_token_sequence"),
}
RENDERERS = tuple(f"reports.{name}" for name in SPANNED["reports"] if name != "write_report")


def _sized(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


def _info(name: str, args, result) -> dict | None:
    """Counts taken at a span's boundary from its arguments and result."""
    if name in ("ingest.parse_citation_index_export", "ingest.parse_medline_export"):
        return {"records": len(result.records)}
    if name == "cocitation.cocitation_counts":
        return {"candidates": _sized(args[1]), "pairs": len(result)}
    if name in ("textmetrics.new_terms", "textmetrics.new_coword_pairs"):
        return {"titles": len(args[0]) + len(args[1])}
    if name == "reports.write_report":
        return {"bytes": len(args[1].encode("utf-8"))}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, thread, info]
        self.lock = threading.Lock()
        self.local = threading.local()
        self.accumulators: list[dict] = []  # one per thread
        self.root: int | None = None
        self.bindings: list[tuple] = []  # (module, attribute, original)

    def _thread_state(self):
        local = self.local
        if not hasattr(local, "stack"):
            local.stack = []
            local.acc = {}  # (name, span) -> [calls, seconds, distinct args]
            with self.lock:
                self.accumulators.append(local.acc)
        return local.stack, local.acc

    def open(self, name: str, info: dict | None = None) -> int:
        stack, _ = self._thread_state()
        parent = stack[-1] if stack else self.root
        with self.lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), info])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.local.stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index)
                if result is not None or name == "reports.write_report":
                    self.spans[index][5] = _info(name, args, result)
        wrapper.__wrapped__ = fn
        return wrapper

    def hot(self, name: str, fn, keep_args: bool):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack, acc = self._thread_state()
                key = (name, stack[-1] if stack else self.root)
                entry = acc.get(key)
                if entry is None:
                    entry = acc[key] = [0, 0.0, set()]
                entry[0] += 1
                entry[1] += elapsed
                if keep_args:
                    entry[2].add(args[0])
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every namespace bound to it."""
        import bibshift  # noqa: F401  (loads every module)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bibshift" or n.startswith("bibshift."))]
        for table, make in ((SPANNED, self.spanned), (HOT, None)):
            for module_name, names in table.items():
                home = sys.modules[f"bibshift.{module_name}"]
                for name in names:
                    original = getattr(home, name)
                    label = f"{module_name}.{name}"
                    wrapper = (make(label, original) if make
                               else self.hot(label, original, name == "parse_cited_ref"))
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self.bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self.bindings:
            setattr(module, attr, original)
        self.bindings.clear()

    def hot_totals(self) -> dict[tuple[str, int], list]:
        merged: dict[tuple[str, int], list] = {}
        for acc in self.accumulators:
            for key, (calls, seconds, args) in list(acc.items()):
                entry = merged.setdefault(key, [0, 0.0, set()])
                entry[0] += calls
                entry[1] += seconds
                entry[2] |= args
        return merged


# ── interval arithmetic ──────────────────────────────────────────────────────

def union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [tuple(iv) for iv in merged]


def length(merged) -> float:
    return sum(end - start for start, end in merged)


def overlap(a, b) -> float:
    """Total length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        total += max(0.0, hi - lo)
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(tracer: Tracer, byte_sizes: int) -> dict[str, float]:
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for index, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent is not None:
            children.setdefault(parent, []).append(index)

    def ivs(indices):
        return union((spans[i][1], spans[i][2]) for i in indices)

    def busy(*names):
        return length(ivs(i for n in names for i in by_name.get(n, ())))

    def self_time(indices):
        own = ivs(indices)
        kids = ivs(k for i in indices for k in children.get(i, ()))
        return length(own) - overlap(own, kids)

    def info_sum(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ()))

    roots = by_name.get("cli.run", [])
    root_of = {}
    for index in range(len(spans)):
        walk = index
        while spans[walk][3] is not None:
            walk = spans[walk][3]
        root_of[index] = spans[walk][5]["command"]

    hot = tracer.hot_totals()

    def hot_calls(name, command=None):
        return sum(v[0] for (n, span), v in hot.items()
                   if n == name and (command is None or root_of[span] == command))

    loads = by_name.get("records.read_cache", [])
    per_load = [(hot.get(("refkey.parse_cited_ref", i), [0, 0.0, set()]), i) for i in loads]
    parse_calls = statistics.median(e[0] for e, _ in per_load) if loads else 0
    distinct = statistics.median(len(e[2]) for e, _ in per_load) if loads else 0
    core_calls = {}
    for i in by_name.get("cocitation.core_references", []):
        core_calls[root_of[i]] = core_calls.get(root_of[i], 0) + 1
    titles_in = info_sum("textmetrics.new_terms", "titles") + \
        info_sum("textmetrics.new_coword_pairs", "titles")
    tokenize_calls = hot_calls("textmetrics.tokenize_title")
    return {
        "cli.self_s": sum(self_time([r]) for r in roots),
        "cli.stopwords_s": busy("textmetrics.default_stopwords", "textmetrics.load_stopwords"),
        "ingest.parse_index_s": busy("ingest.parse_citation_index_export"),
        "ingest.parse_medline_s": busy("ingest.parse_medline_export"),
        "ingest.link_s": busy("ingest.link_records"),
        "ingest.records": info_sum("ingest.parse_citation_index_export", "records")
        + info_sum("ingest.parse_medline_export", "records"),
        "ingest.bytes_in": byte_sizes,
        "refkey.parse_calls": parse_calls,
        "refkey.distinct_raw": distinct,
        "refkey.unique_share": distinct / parse_calls if parse_calls else 0.0,
        "refkey.parse_s": statistics.median(e[1] for e, _ in per_load) if loads else 0.0,
        "records.read_cache_s": statistics.median(
            spans[i][2] - spans[i][1] - e[1] for e, i in per_load) if loads else 0.0,
        "records.write_cache_s": busy("records.write_cache"),
        "records.build_corpus_s": busy("records.build_corpus"),
        "cocitation.core_calls": core_calls.get("rsi", 0),
        "cocitation.core_calls_core_refs": core_calls.get("core-refs", 0),
        "cocitation.core_s": busy("cocitation.core_references"),
        "cocitation.citation_counts_s": busy("cocitation.citation_counts"),
        "cocitation.cocitation_counts_s": busy("cocitation.cocitation_counts"),
        "cocitation.qualifying_refs": info_sum("cocitation.cocitation_counts", "candidates"),
        "cocitation.pairs": info_sum("cocitation.cocitation_counts", "pairs"),
        "cocitation.distinct_refs_s": busy("cocitation.distinct_ref_count"),
        "stability.rsi_series_self_s": self_time(by_name.get("stability.rsi_series", [])),
        "stability.groove_s": busy("stability.groove_detect"),
        "textmetrics.tokenize_calls": tokenize_calls,
        "textmetrics.titles_in": titles_in,
        "textmetrics.tokenize_per_title": tokenize_calls / titles_in if titles_in else 0.0,
        "textmetrics.sequence_calls": hot_calls("textmetrics.title_token_sequence", "phrase"),
        "textmetrics.new_terms_s": busy("textmetrics.new_terms"),
        "textmetrics.new_coword_pairs_s": busy("textmetrics.new_coword_pairs"),
        "textmetrics.phrase_trend_s": busy("textmetrics.phrase_trend"),
        "reports.render_s": busy(*RENDERERS),
        "reports.write_s": busy("reports.write_report"),
        "reports.bytes": info_sum("reports.write_report", "bytes"),
    }


def run_command(cli, argv: list[str], tracer: Tracer | None) -> dict:
    """Run one command in this process; its wall time and signature."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
        tracer.root = tracer.open("cli.run", {"command": argv[0]})
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except BaseException:  # noqa: BLE001 - any escape is a failed invocation
        err.write(traceback.format_exc())
        code = -1
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(tracer.root)
            tracer.root = None
            tracer.uninstall()
    return {"command": argv[0], "wall": wall, "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "signature": signature(code, out.getvalue(), err.getvalue())}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from bibshift import cli

    tracer = Tracer()
    invocations, plain_wall, traced_wall = [], 0.0, 0.0
    for argv in spec["commands"]:
        plain = run_command(cli, argv, None)
        traced = run_command(cli, argv, tracer)
        plain_wall += plain["wall"]
        traced_wall += traced["wall"]
        invocations += [plain, traced]

    metrics = layer_metrics(tracer, sum(os.path.getsize(p) for p in spec["inputs"]))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    Path(spec["spans"]).write_text(json.dumps({
        "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                   "thread": s[4], "info": s[5]} for s in tracer.spans],
        "hot": [{"name": n, "span": i, "calls": v[0], "seconds": v[1]}
                for (n, i), v in tracer.hot_totals().items()],
    }), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps({
        "invocations": invocations, "metrics": metrics}), encoding="utf-8")


if __name__ == "__main__":
    main()

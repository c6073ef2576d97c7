#!/usr/bin/env python3
"""bibshift benchmark: wall time per subcommand, and a per-layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper --seed 1 --seconds 35 --trace 0

``--trace 0`` times every subcommand the way a user runs it: each in its own
``python`` process, back to back in the demo's order, as a closed loop with
one client. It ingests ``SETUP_REPEATS`` times (``setup_s``), then runs
whole passes of the analysis commands until the next pass would end after
``--seconds``; there is always at least one pass. Each wall time is scaled
to the host's nominal speed, measured while the command ran (``HostSpeed``),
and timings are medians over the run; raw wall-time medians are printed
beside them.

``--trace 1`` runs the same commands in one process through
``bibshift.cli.run``, each once untraced and once with the public functions
of every module wrapped from outside (see ``tracer.py``), and reports
per-layer times and counts.

Every invocation is checked byte for byte (see ``outputs.py``). The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check failed and 2
when the checkout cannot be benchmarked at all. ``--pin`` records the
run's output digests in ``digests.json`` for its workload and seed once
every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import outputs  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
RUNNER = "import sys; sys.argv[0] = 'bibshift'; from bibshift.cli import main; main()"
ANALYSIS = ("summary", "rsi", "core-refs", "words", "cowords", "phrase")
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
DEADLINE_S = 170.0
PROBE_ITEMS, PROBE_DUTY = 400, 0.1
# Every bibshift process and the probe thread share this CPU.
PROBE_CPU = max(os.sched_getaffinity(0))
# Probe chunk time taken as the host's nominal speed: its typical value in
# a quiet moment on a 2-vCPU 2.1 GHz Xeon VM with Python 3.11.
PROBE_NOMINAL_S = 0.0006
END_TO_END = {
    "setup_s": "s", "summary_s": "s", "rsi_s": "s", "core_refs_s": "s",
    "words_s": "s", "cowords_s": "s", "phrase_s": "s", "analysis_s": "s",
    "peak_rss_mb": "MB", "cache_mb": "MB", "success_rate": "ratio",
}
# On ``titles`` no year reaches any citation threshold, so every RSI point
# is undefined and ``rsi`` must stop with ``error:`` and exit 1.
EXPECT_ERROR = {("titles", "rsi")}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


class Gate:
    """Checks every invocation and counts attempted and failed ones."""

    def __init__(self, workload: str, seed: int, corpus: workloads.Corpus):
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        self.pinned = pinned.get(workload, {}).get(str(seed))
        self.reference = dict(self.pinned or {})
        self.workload, self.seed = workload, seed
        self.summary = corpus.expected_summary()
        self.records = len(corpus.index_rows) + len(corpus.medline_rows)
        self.phrase = corpus.expected_phrase()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.grooves: dict[str, dict[str, str]] = {}

    def check(self, command: str, code: int, stdout: str, stderr: str,
              sig: dict | None = None, label: str = "") -> None:
        self.attempted += 1
        problems = []
        want = 1 if (self.workload, command) in EXPECT_ERROR else 0
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if code != want:
            problems.append(f"exit code {code}, expected {want}")
        elif want and not stderr.startswith("error: "):
            problems.append("failure without an 'error:' line")
        sig = sig or outputs.signature(code, stdout, stderr)
        if sig != self.reference.setdefault(command, sig):
            problems.append("outputs differ from the "
                            + ("pinned digests" if self.pinned else "run's first invocation"))
        if not problems:
            problems = self._semantic(command, stdout)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}{command}: {'; '.join(problems)}")

    def _read(self, stdout: str, name: str) -> str:
        path = outputs.written(stdout, name)
        if path is None:
            raise FileNotFoundError(name)
        return path.read_text(encoding="utf-8")

    def _semantic(self, command: str, stdout: str) -> list[str]:
        """Report columns the generator knows; the rsi groove."""
        try:
            if command == "ingest":
                return outputs.check_summary(self._read(stdout, "ingest_report.tsv"),
                                             self.summary, self.records)
            if command == "summary":
                return outputs.check_summary(self._read(stdout, "summary.tsv"), self.summary)
            if command == "phrase":
                return outputs.check_phrase(
                    self._read(stdout, "phrase_reverse_transcr.tsv"), self.phrase)
            if command == "rsi" and (self.workload, command) not in EXPECT_ERROR:
                for gap in ("1", "2"):
                    self.grooves[gap] = outputs.groove(
                        self._read(stdout, f"rsi_matrix_gap{gap}.tsv"))
                # heavy-tail switches reference pools in 1971, so the 1970
                # and 1972 cores share only the classic in every series.
                if self.workload == "heavy-tail" and \
                        self.grooves["2"]["CONSENSUS"] != "1970/1972":
                    return [f"gap-2 consensus {self.grooves['2']['CONSENSUS']}, "
                            "expected 1970/1972"]
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"unreadable report: {exc!r}"]
        return []


class HostSpeed:
    """How fast the host runs Python right now.

    While a bibshift process runs, a thread of this process, pinned to the
    same CPU, times a fixed sub-millisecond chunk of Python work (split,
    strip, upper, tuple hashing, dict updates over a 50,000-key table) at a
    10 % duty cycle. On a shared host both slow down together when
    neighbours load that CPU, so the mean chunk time during an invocation
    measures the speed that invocation got.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.pool = [f"{rng.choice(('ADLER', 'BERG', 'COHN', 'DUNN'))} {rng.randint(1, 999)}, "
                     f"{rng.randint(1900, 1999)}, NATURE, V{rng.randint(1, 300)}, "
                     f"P{rng.randint(1, 2000)}" for _ in range(50000)]
        self.counts: dict[tuple, int] = {}
        self.position = 0
        for _ in range(len(self.pool) // PROBE_ITEMS + 1):
            self.chunk()

    def chunk(self) -> float:
        start = time.perf_counter()
        pool, counts, position = self.pool, self.counts, self.position
        for i in range(PROBE_ITEMS):
            text = pool[(position + i) % len(pool)]
            key = tuple(part.strip().upper() for part in text.split(","))
            counts[key] = counts.get(key, 0) + 1
        self.position = (position + PROBE_ITEMS) % len(pool)
        return time.perf_counter() - start

    def start(self) -> tuple[threading.Event, list[float], threading.Thread]:
        stop, chunks = threading.Event(), []

        def probe() -> None:
            os.sched_setaffinity(0, {PROBE_CPU})
            while not stop.is_set():
                chunks.append(self.chunk())
                stop.wait(chunks[-1] * (1 / PROBE_DUTY - 1))

        thread = threading.Thread(target=probe, daemon=True)
        thread.start()
        return stop, chunks, thread

    def finish(self, probe) -> float:
        """Mean chunk seconds while the probe ran."""
        stop, chunks, thread = probe
        stop.set()
        thread.join()
        return sum(chunks) / len(chunks) if chunks else self.chunk()


class Runner:
    """Starts bibshift processes, one at a time, on ``PROBE_CPU``, inside the
    run's directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.perf_counter()
        self.speed = HostSpeed()

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def invoke(self, argv: list[str], code_args: tuple[str, ...] = ("-c", RUNNER)):
        """(wall seconds, probe chunk seconds, peak RSS in KiB, exit code,
        stdout, stderr)."""
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            timer = None
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *code_args, *argv], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            os.sched_setaffinity(proc.pid, {PROBE_CPU})
            probe = self.speed.start()
            try:
                timer = threading.Timer(self.remaining(), proc.kill)
                timer.start()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                chunk = self.speed.finish(probe)
                if timer is not None:
                    timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            return (wall, chunk, usage.ru_maxrss, proc.returncode,
                    out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed(wl: workloads.Workload, cmds: dict, gate: Gate, runner: Runner,
          cache: Path, seconds: float) -> tuple[dict, dict, dict]:
    """Host-normalised medians, sample counts, raw wall-time medians."""
    log: list[tuple[str, float, float]] = []  # (metric, wall, probe chunk)
    peak_kib = 0

    def measure(command: str, metric: str) -> None:
        nonlocal peak_kib
        wall, chunk, kib, code, out, err = runner.invoke(cmds[command])
        gate.check(command, code, out, err)
        log.append((metric, wall, chunk))
        peak_kib = max(peak_kib, kib)

    for _ in range(SETUP_REPEATS):
        measure("ingest", "setup_s")
    start, last_pass = time.perf_counter(), 0.0
    while len(log) == SETUP_REPEATS or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for command in ANALYSIS:
            measure(command, command.replace("-", "_") + "_s")
        last_pass = time.perf_counter() - pass_start
    (WORK / f"samples-{wl.name}-{gate.seed}.json").write_text(
        json.dumps({"metric_wall_chunk": log}), encoding="utf-8")

    normalised: dict[str, list[float]] = {name: [] for name in END_TO_END}
    raw: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for metric, wall, chunk in log:
        raw[metric].append(wall)
        normalised[metric].append(wall * PROBE_NOMINAL_S / chunk)
    for table in (normalised, raw):
        per_pass = zip(*(table[c.replace("-", "_") + "_s"] for c in ANALYSIS))
        table["analysis_s"] = [sum(times) for times in per_pass]
    metrics = {name: median(values) for name, values in normalised.items() if values}
    metrics["peak_rss_mb"] = peak_kib * 1024 / 1e6
    metrics["cache_mb"] = cache.stat().st_size / 1e6
    counts = {name: len(values) for name, values in normalised.items() if values}
    return metrics, counts, {name: median(values) for name, values in raw.items() if values}


def import_seconds(runner: Runner) -> float:
    """Fresh-process ``import bibshift.cli`` minus a bare interpreter start,
    medians over alternating repeats."""
    bare, loaded = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(runner.invoke([], ("-c", "pass"))[0])
        loaded.append(runner.invoke([], ("-c", "import bibshift.cli"))[0])
    return median(loaded) - median(bare)


def traced(wl: workloads.Workload, cmds: dict, gate: Gate, runner: Runner,
           inputs: list[Path], seed: int) -> dict:
    spec = runner.work / "trace_spec.json"
    result = runner.work / "layers.json"
    spec.write_text(json.dumps({
        "commands": [cmds["ingest"]] + [cmds[c] for c in ANALYSIS],
        "inputs": [str(p) for p in inputs],
        "result": str(result),
        "spans": str(WORK / f"spans-{wl.name}-{seed}.json"),
    }), encoding="utf-8")
    import_s = import_seconds(runner)
    code, err = runner.invoke([str(spec)], (str(BENCH / "tracer.py"),))[3::2]
    if code != 0:
        raise BenchError(f"traced pass crashed:\n{err}")
    data = json.loads(result.read_text(encoding="utf-8"))
    for inv in data["invocations"]:
        gate.check(inv["command"], inv["signature"]["exit"], inv["stdout"], inv["stderr"],
                   sig=inv["signature"], label="in-process ")
    return {"cli.import_s": import_s, **data["metrics"]}


def check_workers_one(cmds: dict, gate: Gate, runner: Runner) -> None:
    """Untimed: ``--workers 1`` must reproduce the ``--workers N`` bytes."""
    for command in ANALYSIS:
        argv = list(cmds[command])
        argv[argv.index("--workers") + 1] = "1"
        code, out, err = runner.invoke(argv)[3:]
        gate.check(command, code, out, err, label="--workers 1 ")


def run(args) -> tuple[dict, dict, dict, Gate, dict]:
    """Metrics, their sample counts, raw wall-time medians, gate, corpus size."""
    for required in (ROOT / "src" / "bibshift" / "cli.py",
                     ROOT / "scripts" / "make_synthetic_corpus.py"):
        if not required.is_file():
            raise BenchError(f"{required.relative_to(ROOT)} not found; "
                             "run from the root of a bibshift checkout")
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=WORK))
    try:
        gen = workloads.load_generator(ROOT)
        corpus = wl.make(gen, args.seed)
        index, medline = workloads.write_exports(gen, corpus, work / "exports")
        cache = work / "corpus_cache.tsv"
        cmds = workloads.commands(index, medline, cache, work / "reports", wl.workers)
        gate = Gate(wl.name, args.seed, corpus)
        runner = Runner(work)
        if args.trace:
            metrics, counts, raw = traced(wl, cmds, gate, runner, [index, medline],
                                          args.seed), {}, {}
        else:
            metrics, counts, raw = timed(wl, cmds, gate, runner, cache, args.seconds)
        if wl.workers > 1:
            check_workers_one(cmds, gate, runner)
        if not args.trace:
            metrics["success_rate"] = 1.0 - gate.failed / gate.attempted
        return metrics, counts, raw, gate, corpus.size()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def units() -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (BENCH.parent / "BENCHMARK.json").is_file() else {}
    table = {m["name"]: m["unit"] for m in spec.get("per_layer", [])}
    table.update(END_TO_END)
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests in digests.json")
    args = parser.parse_args()
    try:
        metrics, counts, raw, gate, size = run(args)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    unit_of = units()
    print(f"workload {args.workload} seed {args.seed}: "
          + ", ".join(f"{k}={v}" for k, v in size.items()))
    print("output gate: " + ("pinned digests" if gate.pinned else
                             "no pinned digests for this seed; first invocation is the reference"))
    for name, value in metrics.items():
        line = f"  {name:34s} {value:14.6f} {unit_of.get(name, '')}"
        if name in raw:
            line += f"  (median of {counts[name]}; raw wall {raw[name]:.6f} s)"
        print(line)
    for gap, rows in sorted(gate.grooves.items()):
        print(f"  groove gap {gap}: " + "; ".join(f"{k} {v}" for k, v in rows.items()))
    for problem in gate.problems:
        print(f"  FAILED {problem}")

    correct = gate.failed == 0
    if args.pin and correct:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
        pinned.setdefault(args.workload, {})[str(args.seed)] = gate.reference
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit_of.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Traced run: per-layer times of the same ops, run in the harness process.

The public functions of `xpdc.config`, `events`, `listmode` and
`analysis` that the command line calls are replaced, for the traced ops
only, by wrappers that record a span (op, name, start, end, parent)
around each call; every `cli.main` call is a root span named after its
subcommand.  Spans stay in memory and are written to
`spans-<workload>-<seed>.json` when the run ends.

The run reconciles against the untraced ops: `trace.op_s` is their
median time as child processes, and `cli.self_s` is that minus the time
inside the traced layers, i.e. interpreter start, imports, argument
parsing and the CLI's own code.  `trace.overhead_s` is the time the
wrappers spend outside the calls they wrap, per op.  One more op, not
timed, traces the allocations made inside `simulate_run` and
`read_listmode` with tracemalloc, for their peak bytes per event.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from ops import SRC, OpRunner

# Functions the command line calls, by module (= layer).
LAYERS = {
    "config": ("load_config_file", "env_overrides", "merge_settings",
               "build_run_config", "config_hash", "canonical_text"),
    "events": ("simulate_run",),
    "listmode": ("merge_streams", "write_listmode", "write_events_csv",
                 "write_manifest", "read_listmode", "split_streams", "read_manifest"),
    "analysis": ("select_candidates", "find_coincidence_pairs", "build_correlation_map",
                 "fit_time_profile", "fit_energy_profile", "energy_peak_centroid",
                 "roi_rate", "fit_misalignment_scan"),
}

# Per-layer metrics reported, with units; function times are inclusive,
# <layer>.self_s excludes time in nested spans.
TIMED = (
    "config.build_run_config", "events.simulate_run",
    "listmode.write_events_csv", "listmode.merge_streams", "listmode.write_listmode",
    "listmode.read_listmode", "listmode.split_streams",
    "analysis.select_candidates", "analysis.find_coincidence_pairs",
    "analysis.build_correlation_map", "analysis.fit_time_profile",
    "analysis.fit_energy_profile", "analysis.fit_misalignment_scan",
)
COUNTED = ("events.events_recorded", "analysis.candidates", "analysis.pairs",
           "analysis.fit_failures")
MEMORY = {"events.simulate_run": "events.peak_bytes_per_event",
          "listmode.read_listmode": "listmode.read_peak_bytes_per_event"}

IMPORT_PROBE = "import time; t = time.perf_counter(); import xpdc.cli; print(time.perf_counter() - t)"
IMPORT_REPEATS = 3


class Tracer:
    """Spans and work counts of the in-process ops."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.peak_bytes_per_event: dict[str, float] = {}
        self.overhead: Counter = Counter()  # seconds per op spent in wrappers
        self.op = 0
        self.memory = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"op": self.op, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn, analysis_error):
        label = f"{layer}.{name}"
        counts = self.counts

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            traced_memory = self.memory and label in MEMORY
            if traced_memory:
                tracemalloc.start()
            try:
                with self.span(label) as record:
                    result = fn(*args, **kwargs)
            except analysis_error:
                if name.startswith("fit_"):
                    counts[self.op]["analysis.fit_failures"] += 1
                raise
            finally:
                if traced_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            events = None
            if name == "simulate_run":
                events = len(result[0]) + len(result[1])
                counts[self.op]["events.events_recorded"] += events
            elif name == "read_listmode":
                events = len(result[0])
            elif name == "select_candidates":
                counts[self.op]["analysis.candidates"] += len(result)
            elif name == "find_coincidence_pairs":
                counts[self.op]["analysis.pairs"] += len(result)
                every = result
                if self.memory and kwargs.get("exclusive"):
                    every = fn(*args, **dict(kwargs, exclusive=False))
                counts[self.op]["analysis.pairs_all"] += len(every)
            if traced_memory and events:
                self.peak_bytes_per_event[label] = max(
                    peak / events, self.peak_bytes_per_event.get(label, 0.0))
            self.overhead[self.op] += (
                time.perf_counter() - entered - (record["end"] - record["start"]))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route the command line's calls into each layer through wrappers."""
        import xpdc.analysis

        originals = []
        for layer, names in LAYERS.items():
            module = sys.modules[f"xpdc.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals.append((module, name, fn))
                setattr(module, name, self.wrap(layer, name, fn, xpdc.analysis.AnalysisError))
        try:
            yield
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def op_times(self, op: int) -> Counter:
        """Inclusive time per function, self time per layer, and the total
        time inside layers (children of the root spans) of one op."""
        ids = [i for i, s in enumerate(self.spans) if s["op"] == op]
        child_time: Counter = Counter()
        for i in ids:
            s = self.spans[i]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for i in ids:
            s = self.spans[i]
            if s["parent"] is None:
                out["layers"] += child_time[i]
                continue
            duration = s["end"] - s["start"]
            out[s["name"]] += duration
            out[s["name"].split(".")[0] + ".self_s"] += duration - child_time[i]
        return out


def _import_seconds(env: dict[str, str]) -> float:
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def _inprocess_op(runner: OpRunner, tracer: Tracer | None) -> None:
    """One op through `xpdc.cli.main` in this process."""
    import xpdc.cli

    shutil.rmtree(runner.out, ignore_errors=True)
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in runner.commands():
            if tracer is None:
                code = xpdc.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = xpdc.cli.main(argv)
            codes.append(code)
            if code:
                break
    runner.finish_op([f"exit code {c}" for c in codes if c])


def measure(runner: OpRunner, seconds: float, out_dir: str) -> dict[str, tuple[float, str]]:
    runner.set_up()
    import_s = statistics.median(_import_seconds(runner.env) for _ in range(IMPORT_REPEATS))
    cli_times = []
    deadline = time.perf_counter() + seconds / 2
    while not cli_times or time.perf_counter() < deadline:
        cli_times.append(runner.run_op()[0])

    sys.path.insert(0, SRC)
    tracer = Tracer()
    _inprocess_op(runner, None)  # first-call costs stay out of the figures
    deadline = time.perf_counter() + seconds / 2
    while tracer.op == 0 or time.perf_counter() < deadline:
        tracer.op += 1
        with tracer.patched():
            _inprocess_op(runner, tracer)
    traced_ops = range(1, tracer.op + 1)

    tracer.op += 1
    tracer.memory = True
    with tracer.patched():
        _inprocess_op(runner, tracer)
    memory_counts = tracer.counts[tracer.op]

    name = f"spans-{runner.workload.name}-{runner.seed}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)

    per_op = [tracer.op_times(op) for op in traced_ops]

    def median_of(key: str, source=per_op) -> float:
        return statistics.median(entry.get(key, 0) for entry in source)

    op_s = statistics.median(cli_times)
    metrics: dict[str, tuple[float, str]] = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (op_s - median_of("layers"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median_of(f"{layer}.self_s"), "s")
    for label in TIMED:
        metrics[f"{label}_s"] = (median_of(label), "s")
    counts = [tracer.counts[op] for op in traced_ops]
    for label in COUNTED:
        metrics[label] = (median_of(label, counts), "count")
    simulate_s = metrics["events.simulate_run_s"][0]
    metrics["events.events_per_s"] = (
        metrics["events.events_recorded"][0] / simulate_s if simulate_s else 0.0, "1/s")
    for label, metric in MEMORY.items():
        metrics[metric] = (tracer.peak_bytes_per_event.get(label, 0.0), "B/event")
    all_pairs = memory_counts["analysis.pairs_all"]
    metrics["analysis.exclusive_keep_frac"] = (
        memory_counts["analysis.pairs"] / all_pairs if all_pairs else 1.0, "fraction")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(tracer.overhead[op] for op in traced_ops), "s")
    return metrics

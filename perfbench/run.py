"""Benchmark of the `xpdc` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from its
`src/` directory.  Set-up writes the workload's configs and inputs into
`.perfbench_out/work/` and runs one untimed warm-up op; it is repeated
SETUP_REPEATS times and `setup_s` is the median.  Then ops run one at a
time, each as a sequence of `xpdc` child processes, for S seconds.
Every op's outputs are checked against ground truth and must be
byte-identical to the first checked op's.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics (`op_s`, `peak_rss_mb`, `setup_s`: medians over
the ops and set-ups; op times are divided by the host slowdown the
probe of ops.py measured while they ran); with
--trace 1 the in-process traced run of tracing.py gives the per-layer
metrics and writes its spans to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

from ops import ROOT, SRC, OpRunner
from workloads import WORKLOADS

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def measure(runner: OpRunner, seconds: float) -> dict[str, tuple[float, str]]:
    setup = [runner.set_up() for _ in range(SETUP_REPEATS)]
    times, slowdowns, rss = [], [], []
    deadline = time.perf_counter() + seconds
    # Start another op if one as fast as the fastest yet would end nearer
    # the deadline than stopping now, so runs measure about S seconds.
    while not times or time.perf_counter() + min(times) / 2 <= deadline:
        op_s, peak_mb, slowdown = runner.run_op()
        times.append(op_s)
        slowdowns.append(slowdown)
        rss.append(peak_mb)
    print(f"{len(times)} timed ops: op_s {['%.3f' % t for t in times]}, "
          f"host slowdown {['%.3f' % f for f in slowdowns]}, "
          f"peak_rss_mb {['%.1f' % m for m in rss]}, "
          f"setup_s {['%.3f' % t for t in setup]}", file=sys.stderr)
    return {
        "op_s": (statistics.median(t / f for t, f in zip(times, slowdowns)), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "xpdc", "cli.py")):
        print(f"error: no xpdc sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("seed must be in [0, 2**63)")

    # The program sees the caller's environment without XPDC_ config
    # overrides; the harness itself runs no extra threads, numpy's included.
    for key in [k for k in os.environ if k.startswith("XPDC_")]:
        del os.environ[key]
    env = dict(os.environ, PYTHONPATH=SRC)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, "work")
    runner = OpRunner(WORKLOADS[args.workload], args.seed, work, env)
    try:
        if args.trace:
            import tracing

            metrics = tracing.measure(runner, args.seconds, OUT_DIR)
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

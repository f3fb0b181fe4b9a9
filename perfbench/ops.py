"""Running one op of a workload as `xpdc` child processes, and checking it."""

from __future__ import annotations

import hashlib
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Host speed probe.  The virtual machine's kernel reports no steal time,
# yet other tenants of the host slow its vCPUs by up to half, for seconds
# to minutes at a time.  While an op's process runs, the harness times a
# fixed pure-Python loop on its own CPU clock every PROBE_GAP_MS; the
# loop's mean time over PROBE_REFERENCE_S, its time on an unloaded host
# (a 2.1 GHz Xeon vCPU), is how much the host slowed the op.  CPU time,
# not wall time, so that time the probe waits for the program's own
# threads on its CPU does not count as a slower host.
PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.00104
PROBE_GAP_MS = 50


def probe_s() -> float:
    """CPU seconds the probe loop takes now."""
    start = time.process_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.process_time() - start


def wait_probing(pid: int, probes: list[float]):
    """Reap child `pid`, probing the host until it exits; wait4's result."""
    fd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        probes.append(probe_s())
        while not poller.poll(PROBE_GAP_MS):
            probes.append(probe_s())
    finally:
        os.close(fd)
    return os.wait4(pid, 0)


def output_digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file an op wrote, by name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
        digests[name] = h.hexdigest()
    return digests


class OpRunner:
    """Runs a workload's ops as child processes and checks their outputs."""

    def __init__(self, workload, seed: int, work: str, env: dict[str, str]):
        self.workload = workload
        self.env = env
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "op")
        self.log_path = os.path.join(work, "xpdc.log")
        self.truth: dict = {}
        self.reference_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> float:
        """Write configs and inputs and run the warm-up op; return seconds,
        with the warm-up op's share divided by the host slowdown."""
        start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        for name, text in self.workload.configs:
            with open(os.path.join(self.work, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        if self.workload.make_input is not None:
            self.truth = self.workload.make_input(self.work, self.seed)
        op_s, _, slowdown = self.run_op(warm_up=True)
        return time.perf_counter() - start - op_s + op_s / slowdown

    def commands(self) -> list[list[str]]:
        return self.workload.commands(self.seed, self.work, self.out)

    def run_op(self, warm_up: bool = False) -> tuple[float, float, float]:
        """One timed op from spawning its first process to reaping its last.

        A warm-up op runs the workload's own warm-up commands if it has
        them; then only their exit codes are checked.  Returns (seconds,
        highest peak RSS of its processes in MB, host slowdown: the mean
        probe time over PROBE_REFERENCE_S).
        """
        own_warm_up = warm_up and self.workload.warm_up is not None
        commands = (self.workload.warm_up(self.seed, self.work, self.out) if own_warm_up
                    else self.commands())
        shutil.rmtree(self.out, ignore_errors=True)
        codes = []
        peak_kb = 0
        probes: list[float] = []
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            for argv in commands:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "xpdc.cli", *argv],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                )
                try:
                    _, status, usage = wait_probing(proc.pid, probes)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                proc.returncode = os.waitstatus_to_exitcode(status)
                peak_kb = max(peak_kb, usage.ru_maxrss)
                codes.append(proc.returncode)
                if proc.returncode:
                    break
            seconds = time.perf_counter() - start
        problems = [f"exit code {c}" for c in codes if c]
        self.finish_op(problems, check=not own_warm_up)
        return seconds, peak_kb / 1024.0, statistics.mean(probes) / PROBE_REFERENCE_S

    def finish_op(self, problems: list[str], check: bool = True) -> None:
        """Check the op's outputs, count it, and report any failure."""
        if check and not problems:
            problems = self.workload.check(self.out, self.truth)
            digests = output_digests(self.out)
            if self.reference_digests is None:
                self.reference_digests = digests
            elif digests != self.reference_digests:
                changed = sorted(
                    k for k in digests.keys() | self.reference_digests.keys()
                    if digests.get(k) != self.reference_digests.get(k)
                )
                problems.append(f"outputs differ from the first op's: {changed}")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)

"""Shared plumbing: the checkout, op accounting, host probes, result line."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: Scratch space inside the checkout; listed in the root ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench-work"

#: Clock ticks per second, for reading ``/proc/<pid>/stat``.
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation)."""


def require_checkout() -> None:
    """Refuse to run outside a checkout that holds the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources under {SRC}: run the benchmark from the "
            f"root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class WorkDir:
    """A per-run scratch directory under the checkout, removed on close."""

    def __init__(self, label: str) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def child_env(self) -> Dict[str, str]:
        """Environment for program processes: sources on the path, temp here."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.tmp)
        return env

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Op:
    kind: str
    latency_s: float
    ok: bool
    detail: str = ""

    def fail(self, detail: str) -> None:
        """Mark the op failed after the fact (a check found a wrong output)."""
        if self.ok:
            self.ok = False
            self.detail = detail


@dataclass
class OpLog:
    """Every timed operation of a run, with per-kind failure accounting."""

    ops: List[Op] = field(default_factory=list)
    loop_seconds: float = 0.0

    def record(self, kind: str, latency_s: float, ok: bool,
               detail: str = "") -> Op:
        op = Op(kind, latency_s, ok, detail)
        self.ops.append(op)
        return op

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def by_kind(self) -> Dict[str, List[int]]:
        counts: Dict[str, List[int]] = {}
        for op in self.ops:
            entry = counts.setdefault(op.kind, [0, 0])
            entry[0] += 1
            entry[1] += 0 if op.ok else 1
        return counts

    def latencies_ms(self) -> List[float]:
        return [op.latency_s * 1000.0 for op in self.ops]

    def report(self, stream=sys.stderr) -> None:
        for kind, (attempted, failed) in sorted(self.by_kind().items()):
            median = statistics.median(op.latency_s * 1000.0 for op in self.ops
                                       if op.kind == kind)
            print(f"ops {kind}: attempted {attempted} failed {failed} "
                  f"p50_ms {median:.2f}", file=stream)
        shown = 0
        for op in self.ops:
            if not op.ok and shown < 5:
                print(f"failed {op.kind}: {op.detail[:400]}", file=stream)
                shown += 1


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("percentile of no samples")
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ref_loop_ms() -> float:
    """CPU time of a fixed pure-Python loop: the host's speed right now."""
    started = time.process_time()
    total = 0
    table = {}
    for index in range(300_000):
        total += index * 7 % 13
        table[index & 1023] = total
    return (time.process_time() - started) * 1000.0


def python_start_ms(env: Dict[str, str]) -> float:
    """Median wall time of five bare ``python -c pass`` runs on this host."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    # fields[11] and fields[12] are utime and stime (stat fields 14 and 15).
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class EndToEnd:
    """The raw measurements behind the end-to-end metrics of one run."""

    setup_seconds: List[float]
    log: OpLog
    cpu_seconds: float
    peak_rss_mb: float
    reductions: List[float]

    def metrics(self) -> Dict[str, Dict[str, float]]:
        latencies = self.log.latencies_ms()
        ops = len(latencies)
        if not ops or not self.reductions:
            raise BenchmarkError("a run needs timed ops and served reports")
        values = {
            "setup_s": (statistics.median(self.setup_seconds), "s"),
            "ops_per_s": (ops / self.log.loop_seconds, "1/s"),
            "op_p50_ms": (percentile(latencies, 0.5), "ms"),
            "op_p90_ms": (percentile(latencies, 0.9), "ms"),
            "cpu_ms_per_op": (self.cpu_seconds * 1000.0 / ops, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "reachable_reduction_pct": (
                100.0 * statistics.fmean(self.reductions), "%"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()}


def result_line(correct: bool, log: OpLog,
                metrics: Dict[str, Dict[str, float]]) -> str:
    return json.dumps({"correct": correct, "attempted": log.attempted,
                       "failed": log.failed, "metrics": metrics})


def rounds_for(seconds: int, round_seconds: float) -> int:
    """Whole rounds that fill about ``seconds`` on the reference host.

    A run is a fixed sequence of rounds, not a time budget, so garbage
    collections land on the same ops in every run; the round count is set
    from ``--seconds`` and the nominal length of one round.
    """
    return max(1, round(seconds / round_seconds))


def stop_process(process: Optional[subprocess.Popen]) -> None:
    """Terminate a child and wait for it; kill it if it does not exit."""
    if process is None or process.poll() is not None:
        return
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)

"""``daemon-edit``: edit rounds against ``repro serve``.

One client streams ops to one daemon, closed loop, one request at a time.
Three sessions are opened on seeded Table 1 specs of about 60 methods.
The client visits them in turn; each visit is one op:

* an edit op queues two ``update`` edit steps (a new type variant, or a new
  guarded module on the fourth op of a cycle; then a new dispatch site) and
  sends the ``analyze`` that pays for them, all timed together;
* after ``CYCLE`` edit ops a session is re-opened cold (``open`` with
  ``replace`` plus ``analyze``), so programs stay bounded.

Re-opens are one op in five (20%): clearly more than the 10% above the
90th percentile, so the median sits inside the warm edit ops and the 90th
percentile inside the cold re-opens, each away from the boundary between
them, where scheduling delays and garbage collections would move it.

The daemon has room for every session (``--max-sessions 8``), so nothing
spills: the ops are warm resumes, delta application, report serialization
and HTTP.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import checks
import common
from tracer import Tracer

IN_PROCESS = True

SESSIONS = 3
MAX_SESSIONS = 8

#: Nominal length of one round (one op per session) on the reference host.
ROUND_SECONDS = 0.088

#: Edit ops between two cold re-opens of a session.
CYCLE = 4

#: Benchmark scale of the opened specs (methods per thousand in the paper).
SCALE = 1.0


def draw_specs(seed: int) -> List[str]:
    """Seeded Table 1 specs of 60-70 methods with the minimal guarded share."""
    from repro.workloads.suites import all_suites

    pool = sorted(spec.name for suite in all_suites(scale=SCALE).values()
                  for spec in suite
                  if 60 <= spec.expected_total_methods <= 70
                  and spec.paper_reduction_percent < 10)
    return random.Random(f"daemon:{seed}").sample(pool, SESSIONS)


def edit_steps(op: int) -> List[dict]:
    """The two edit steps of edit op ``op`` (0-based within a cycle)."""
    first = "add-guarded-module" if op % 4 == 3 else "add-variant"
    return [{"kind": first, "index": 2 * op},
            {"kind": "add-dispatch", "index": 2 * op + 1}]


class Daemon:
    """A ``repro serve`` child process, ready once it printed its port."""

    def __init__(self, work: common.WorkDir, label: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-sessions", str(MAX_SESSIONS),
             "--spill-dir", str(work.sub(f"spill-{label}"))],
            env=work.child_env(), cwd=common.ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        banner = self.process.stdout.readline()
        if "listening on http://" not in banner:
            self.stop()
            raise common.BenchmarkError(f"repro serve did not start: {banner!r}")
        self.url = banner.split("listening on ")[1].split()[0]

    def stop(self) -> None:
        common.stop_process(self.process)
        self.process.stdout.close()


def run(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]):
    work = common.WorkDir(workload)
    daemon = None
    try:
        if tracer:
            return _run_in_process(work, seed, seconds, tracer)
        setup_seconds = []
        names = draw_specs(seed)
        for attempt in range(3):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            daemon = Daemon(work, str(attempt))
            client = _client(daemon.url)
            _open_all(client, names)
            setup_seconds.append(time.perf_counter() - started)
        pid = daemon.process.pid
        cpu_before = common.proc_cpu_seconds(pid)
        stream = Stream(client, names, seconds)
        stream.run(None)
        cpu = common.proc_cpu_seconds(pid) - cpu_before
        peak = common.proc_peak_rss_mb(pid)
        result, selftest = stream.finish(setup_seconds, cpu, peak)
        return result, selftest, {"host.ref_loop_ms": stream.ref_ms}
    finally:
        if daemon is not None:
            daemon.stop()
        work.close()


def _run_in_process(work, seed, seconds, tracer):
    """The traced run: the daemon is hosted in this process."""
    from repro.service import SessionManager, serving

    manager = SessionManager(max_live_sessions=MAX_SESSIONS,
                             spill_dir=work.sub("spill"))
    with serving(manager) as server:
        host, port = server.server_address
        client = _client(f"http://{host}:{port}")
        names = draw_specs(seed)
        started = time.perf_counter()
        _open_all(client, names)
        setup = time.perf_counter() - started
        stream = Stream(client, names, seconds)
        stream.run(tracer)
        tracer.uninstall()
        result, selftest = stream.finish([setup], 0.0, 0.0)
    served = len(stream.server_ms)
    measured = {
        "host.ref_loop_ms": stream.ref_ms,
        "service.server_analyze_ms": sum(stream.server_ms) / served,
        "service.wire_overhead_ms": (sum(stream.client_ms)
                                     - sum(stream.server_ms)) / served,
        "service.warm_served_ratio": stream.modes.count("warm") / served,
    }
    return result, selftest, measured


def _client(url: str):
    from repro.service import ServiceClient

    return ServiceClient(url, timeout=60.0)


def _open_all(client, names: List[str]) -> None:
    for slot, name in enumerate(names):
        client.open(f"s{slot}", benchmark=name, scale=SCALE, replace=True)


class Stream:
    """The op stream of one run, and what it served."""

    def __init__(self, client, names: List[str], seconds: int) -> None:
        self.client = client
        self.names = names
        self.rounds = common.rounds_for(seconds, ROUND_SECONDS)
        self.log = common.OpLog()
        #: Client and daemon-reported latency of every op that succeeded.
        self.client_ms: List[float] = []
        self.server_ms: List[float] = []
        self.modes: List[str] = []
        self.steps_paid: List[int] = []
        #: (slot, position) -> (first served call graph, its digest, op ids)
        self.served: Dict[Tuple[int, int], list] = {}
        self.ref_ms = 0.0

    def run(self, tracer: Optional[Tracer]) -> None:
        from repro.service import ServiceClientError

        ref = [common.ref_loop_ms()]
        positions = [0] * len(self.names)
        loop_started = time.perf_counter()
        for index in range(self.rounds):
            for slot, name in enumerate(self.names):
                position = positions[slot]
                session = f"s{slot}"
                if tracer:
                    tracer.op = self.log.attempted
                started = time.perf_counter()
                try:
                    if position == 0:
                        self.client.open(session, benchmark=name, scale=SCALE,
                                         replace=True)
                    else:
                        for step in edit_steps(position - 1):
                            self.client.update(session, edit=step)
                    response = self.client.analyze(session, "skipflow")
                except ServiceClientError as error:
                    self.log.record("reopen" if position == 0 else "edit",
                                    time.perf_counter() - started, False,
                                    str(error))
                    positions[slot] = (position + 1) % (CYCLE + 1)
                    continue
                latency = time.perf_counter() - started
                self.log.record("reopen" if position == 0 else "edit",
                                latency, True)
                self.client_ms.append(latency * 1000.0)
                self._keep(slot, position, len(self.log.ops) - 1, response)
                positions[slot] = (position + 1) % (CYCLE + 1)
            if tracer:
                tracer.op = None
            if index == self.rounds // 2:
                ref.append(common.ref_loop_ms())
            if time.perf_counter() - loop_started > 120:
                break
        self.log.loop_seconds = time.perf_counter() - loop_started
        ref.append(common.ref_loop_ms())
        self.ref_ms = sorted(ref)[1]

    def _keep(self, slot: int, position: int, op_index: int,
              response: dict) -> None:
        graph = response["report"]["call_graph"]
        digest = hashlib.sha1(
            json.dumps(graph, sort_keys=True).encode()).hexdigest()
        self.server_ms.append(response["latency_ms"])
        self.modes.append(response["mode"])
        self.steps_paid.append(response["steps_paid"])
        entry = self.served.setdefault((slot, position), [graph, digest, []])
        entry[2].append((op_index, digest))

    def finish(self, setup_seconds: List[float], cpu: float, peak: float):
        """The fixpoint checks, which also give the reductions."""
        if self.steps_paid:
            print(f"counts: core.steps_per_op="
                  f"{sum(self.steps_paid) / self.log.attempted:.1f} "
                  f"service.warm_served_ratio="
                  f"{self.modes.count('warm') / len(self.modes):.4f}",
                  file=sys.stderr)
        reductions = self._check_fixpoints()
        graphs = [entry[0] for entry in self.served.values()]
        selftest = checks.selftest_fixpoint(graphs[0]) if graphs else [
            "self-test: no served fixpoint to plant a wrong answer in"]
        result = common.EndToEnd(setup_seconds, self.log, cpu, peak,
                                 reductions)
        return result, selftest

    def _check_fixpoints(self) -> List[float]:
        """Every served fixpoint against a cold solve of the same program.

        Returns (PTA - SkipFlow) / PTA for every program state the loop
        served: the SkipFlow count is the one the daemon served, the PTA
        count a cold PTA solve of the same program through the program's
        own ``AnalysisSession``.
        """
        from repro.api import AnalysisSession
        from repro.workloads.edits import EditStepSpec, build_edit_delta
        from repro.workloads.generator import generate_benchmark
        from repro.workloads.suites import extended_suites

        reductions = []
        specs = {spec.name: spec for suite in extended_suites(
            scale=SCALE).values() for spec in suite}
        for slot, name in enumerate(self.names):
            spec = specs[name]
            program = generate_benchmark(spec)
            last = max((position for (owner, position) in self.served
                        if owner == slot), default=-1)
            for position in range(last + 1):
                if position > 0:
                    for step in edit_steps(position - 1):
                        build_edit_delta(spec, EditStepSpec(**step)).apply_to(
                            program)
                entry = self.served.get((slot, position))
                if entry is None:
                    continue
                graph, digest, served_ops = entry
                session = AnalysisSession(program, name=name)
                cold = session.run("skipflow")
                pta = session.run("pta").reachable_method_count
                reductions.append(
                    (pta - len(graph["reachable_methods"])) / pta)
                problems = checks.check_fixpoint(
                    cold.to_dict()["call_graph"], graph)
                for op_index, op_digest in served_ops:
                    if op_digest != digest:
                        self.log.ops[op_index].fail(
                            "served a different fixpoint for the same program")
                    elif problems:
                        self.log.ops[op_index].fail("; ".join(problems))
        return reductions

"""``cli-oneshot``: one fresh ``python -m repro`` process per operation.

A round writes seven seeded sources and runs eight commands over them
(``analyze --json``, ``analyze --compare``, ``compare cha rta pta
skipflow``, ``check --audit``): one on ``examples/app.java``, one on each
of five sources of 150 methods and ``check --audit`` on each of two sources
of 400 methods.  The five medium commands (5/8 of the ops) form one dense
cluster around the median; the two 400-method audits (1/4 of the ops) form
the cluster that holds the 90th percentile, 15 points above its lower
edge, so neither percentile sits between two kinds of op.  An op's kind is
its command and source size (``compare@150``), so the per-kind medians on
standard error show the clusters.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import checks
import common
import layers
from sources import GeneratedSource, app_java, generate_source
from tracer import Tracer

#: Work runs in child processes; the traced run wraps them with launcher.py.
IN_PROCESS = False

#: Nominal length of one round on the reference host (see README).
ROUND_SECONDS = 4.0

#: Sizes (methods) of the generated sources of one round, besides app.java.
SIZES = {"m1": 150, "m2": 150, "m3": 150, "m4": 150, "m5": 150,
         "l1": 400, "l2": 400}

#: (source, command) of one round; the order is shuffled per round.
PLAN = (
    ("app", "analyze-compare"),
    ("m1", "compare"), ("m2", "analyze-compare"), ("m3", "check-audit"),
    ("m4", "analyze-json"), ("m5", "compare"),
    ("l1", "check-audit"), ("l2", "check-audit"),
)

ARGS = {
    "analyze-json": ["analyze", "{path}", "--json"],
    "analyze-compare": ["analyze", "{path}", "--compare"],
    "compare": ["compare", "{path}", "cha", "rta", "pta", "skipflow"],
    "check-audit": ["check", "{path}", "--audit", "--json"],
}


def _sources(seed: int, round_index: int) -> Dict[str, GeneratedSource]:
    rng = random.Random(f"cli-oneshot:{seed}:{round_index}")
    sources = {"app": app_java((common.ROOT / "examples" / "app.java").read_text())}
    for name, size in SIZES.items():
        sources[name] = generate_source(rng, f"r{round_index}-{name}", size)
    return sources


def _write(work: common.WorkDir, rounds: List[Dict[str, GeneratedSource]]):
    paths = {}
    folder = work.sub("sources")
    for index, sources in enumerate(rounds):
        for name, source in sources.items():
            path = folder / f"r{index}-{name}.java"
            path.write_text(source.text)
            paths[(index, name)] = path
    return paths


def _parse_blocks(text: str) -> Dict[str, int]:
    """``[PTA]`` / ``[SkipFlow]`` blocks of ``analyze --compare``."""
    counts, current = {}, None
    for line in text.splitlines():
        header = re.match(r"^\[(\w+)\]", line)
        if header:
            current = header.group(1).lower()
        match = re.match(r"^\s+reachable methods:\s+(\d+)", line)
        if match and current:
            counts[current] = int(match.group(1))
    return counts


def _parse_ladder(text: str) -> Dict[str, int]:
    """The ``reachable methods`` row of the ``compare`` table."""
    for line in text.splitlines():
        if line.startswith("reachable methods"):
            values = re.sub(r"\([^)]*\)", "", line[len("reachable methods"):])
            return dict(zip(checks.LADDER, (int(v) for v in values.split())))
    return {}


def verify(command: str, source: GeneratedSource,
           stdout: str) -> Tuple[List[str], Optional[Tuple[int, int]]]:
    """Problems with one command's output, plus its (PTA, SkipFlow) counts."""
    try:
        if command == "analyze-json":
            payload = json.loads(stdout)
            return checks.check_skipflow_set(
                source, payload["call_graph"]["reachable_methods"]), None
        if command == "analyze-compare":
            counts = _parse_blocks(stdout)
            pair = (counts["pta"], counts["skipflow"])
            return checks.check_counts(source, *pair), pair
        if command == "compare":
            counts = _parse_ladder(stdout)
            pair = (counts["pta"], counts["skipflow"])
            return (checks.check_ladder(counts)
                    + checks.check_counts(source, *pair)), pair
        payload = json.loads(stdout)
        errors = [diag for diag in payload["diagnostics"]
                  if diag.get("severity") == "error"]
        return [f"audit error: {diag}" for diag in errors[:2]], None
    except (KeyError, ValueError, TypeError) as error:
        return [f"unparseable {command} output: {error!r}"], None


def run(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]):
    work = common.WorkDir(workload)
    try:
        return _run(work, seed, seconds, tracer)
    finally:
        work.close()


def _run(work, seed, seconds, tracer):
    trace = tracer is not None
    env = work.child_env()
    rounds = common.rounds_for(seconds, ROUND_SECONDS)
    ref = [common.ref_loop_ms()]

    setup_seconds = []
    for _ in range(3):
        started = time.perf_counter()
        round_sources = [_sources(seed, index) for index in range(rounds)]
        paths = _write(work, round_sources)
        subprocess.run(
            [sys.executable, "-m", "repro", "analyze",
             str(paths[(0, "app")]), "--compare"],
            env=env, cwd=common.ROOT, check=True, capture_output=True)
        setup_seconds.append(time.perf_counter() - started)

    log = common.OpLog()
    outputs = []
    cpu_before = common.children_cpu_seconds()
    loop_started = time.perf_counter()
    for index in range(rounds):
        plan = list(PLAN)
        random.Random(f"cli-order:{seed}:{index}").shuffle(plan)
        for name, command in plan:
            path = str(paths[(index, name)])
            argv = [arg.format(path=path) for arg in ARGS[command]]
            spans_file = work.path / f"spans-{log.attempted}.json"
            if trace:
                argv = [sys.executable, str(common.BENCH_DIR / "launcher.py"),
                        str(spans_file)] + argv
            else:
                argv = [sys.executable, "-m", "repro"] + argv
            started = time.perf_counter()
            process = subprocess.Popen(argv, env=env, cwd=common.ROOT,
                                       stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
            stdout, stderr = process.communicate()
            latency = time.perf_counter() - started
            kind = f"{command}@{SIZES.get(name, name)}"
            op = log.record(kind, latency, process.returncode == 0,
                            stderr[-400:])
            outputs.append((op, command, round_sources[index][name], stdout))
            if trace:
                layers.merge_child_spans(tracer, spans_file,
                                         log.attempted - 1, process.pid)
        if index == rounds // 2:
            ref.append(common.ref_loop_ms())
        if time.perf_counter() - loop_started > 120:
            break
    log.loop_seconds = time.perf_counter() - loop_started
    cpu = common.children_cpu_seconds() - cpu_before
    ref.append(common.ref_loop_ms())

    reductions = []
    for op, command, source, stdout in outputs:
        if not op.ok:
            continue
        problems, pair = verify(command, source, stdout)
        if problems:
            op.fail("; ".join(problems))
        elif pair is not None:
            reductions.append((pair[0] - pair[1]) / pair[0])
    selftest = []
    for sources in round_sources:
        for source in sources.values():
            selftest += checks.selftest_source(source)
    planted = json.dumps({"diagnostics": [{"severity": "error"}]})
    if not verify("check-audit", round_sources[0]["app"], planted)[0]:
        selftest.append("self-test: check-audit verification accepted an "
                        "error diagnostic")

    measured = {"host.ref_loop_ms": sorted(ref)[1]}
    result = common.EndToEnd(setup_seconds, log, cpu,
                             common.children_peak_rss_mb(), reductions)
    return result, selftest, measured

"""``table1-matrix``: serial ``run_config_matrix`` rows over Table 1 specs.

A run draws twelve of the 35 Table 1 specs in fixed bands of paper
reduction and paper size: sunflow, two of the three large specs at 15-16%
(als, dec-tree, log-regression), one of the four smaller specs at 12-18%,
and eight of the 27 specs below 10%.  So the mean reduction and the shape
of the latency distribution barely move between seeds: the eight small
specs hold the median and the two large ones the 90th percentile.  The seed
also jitters every spec's size by up to 10% and sets the row order.

Every round runs one PTA/SkipFlow row (``jobs=1``, no result cache) per
drawn spec, in that order.  The program store is filled in set-up; twelve
programs exceed the engine's 8-program per-process memo, so every row loads
its program from the store and only its second half hits the memo.
"""

from __future__ import annotations

import random
import shutil
import sys
import time
from typing import List, Optional

import checks
import common
from tracer import Tracer

IN_PROCESS = True

#: Nominal length of one round on the reference host (see README).
ROUND_SECONDS = 2.2

#: Synthetic methods per thousand methods the paper reports.
SCALE = 0.3

#: Draw bands: (paper reduction %, paper size in thousands, how many).
BANDS = (
    ((40.0, 100.0), (0.0, 1e9), 1),
    ((10.0, 40.0), (300.0, 1e9), 2),
    ((10.0, 40.0), (0.0, 300.0), 1),
    ((0.0, 10.0), (0.0, 1e9), 8),
)

#: Specs whose sets, ladder and execution are checked after each run.
SET_CHECKS = 4


def draw_specs(seed: int):
    from repro.workloads.generator import spec_from_reduction
    from repro.workloads.suites import all_suites

    rng = random.Random(f"table1-matrix:{seed}")
    table1 = [spec for suite in all_suites(scale=SCALE).values()
              for spec in suite]
    drawn = []
    for (low, high), (small, large), count in BANDS:
        band = [spec for spec in table1
                if low <= spec.paper_reduction_percent < high
                and small <= spec.paper_reachable_thousands < large]
        drawn += rng.sample(band, count)
    specs = []
    for spec in drawn:
        thousands = spec.paper_reachable_thousands
        total = round(thousands * SCALE * rng.uniform(0.9, 1.1))
        specs.append(spec_from_reduction(
            name=spec.name, suite=spec.suite, total_methods=max(total, 60),
            reduction_percent=spec.paper_reduction_percent,
            paper_reachable_thousands=thousands))
    rng.shuffle(specs)
    return specs


def run(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]):
    work = common.WorkDir(workload)
    try:
        return _run(work, seed, seconds, tracer)
    finally:
        work.close()


def _run(work, seed, seconds, tracer):
    from repro.core.analysis import AnalysisConfig
    from repro.engine import ProgramStore, run_config_matrix
    from repro.workloads.generator import generate_benchmark

    rounds = common.rounds_for(seconds, ROUND_SECONDS)
    configs = [AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()]
    ref = [common.ref_loop_ms()]
    specs = draw_specs(seed)

    setup_seconds = []
    store = None
    for attempt in range(1 if tracer else 3):
        if store is not None:
            shutil.rmtree(store.directory)
        started = time.perf_counter()
        store = ProgramStore(work.sub(f"programs-{attempt}"))
        for spec in specs:
            store.store(spec, generate_benchmark(spec))
        setup_seconds.append(time.perf_counter() - started)

    log = common.OpLog()
    rows = []
    cpu_before = time.process_time()
    loop_started = time.perf_counter()
    for index in range(rounds):
        for spec in specs:
            if tracer:
                tracer.op = log.attempted
            started = time.perf_counter()
            try:
                row, = run_config_matrix([spec], configs,
                                         names=("pta", "skipflow"), jobs=1,
                                         program_store=store)
            except Exception as error:  # noqa: BLE001 - an op that failed
                log.record("matrix-row", time.perf_counter() - started,
                           False, repr(error))
                continue
            op = log.record("matrix-row", time.perf_counter() - started, True)
            rows.append((op, spec, row))
        if tracer:
            tracer.op = None
        if index == rounds // 2:
            ref.append(common.ref_loop_ms())
        if time.perf_counter() - loop_started > 120:
            break
    log.loop_seconds = time.perf_counter() - loop_started
    cpu = time.process_time() - cpu_before
    peak = common.self_peak_rss_mb()
    ref.append(common.ref_loop_ms())
    if tracer:
        tracer.uninstall()

    reductions = {}
    for op, spec, row in rows:
        pta = row.report("pta").reachable_methods
        skipflow = row.report("skipflow").reachable_methods
        problems = checks.check_table1_row(spec, pta, skipflow)
        if problems:
            op.fail("; ".join(problems))
        else:
            reductions[spec.name] = (pta - skipflow) / pta
            op.detail = f"{pta}/{skipflow}"

    if rows:
        reports = [row.report(name) for _, _, row in rows
                   for name in ("pta", "skipflow")]
        print("counts: core.steps_per_op=%.1f core.joins_per_op=%.1f "
              "core.transfers_per_op=%.1f" % tuple(
                  sum(getattr(report, field) for report in reports)
                  / log.attempted
                  for field in ("solver_steps", "solver_joins",
                                "solver_transfers")), file=sys.stderr)
    selftest = _set_checks(seed, specs, store, rows)
    result = common.EndToEnd(setup_seconds, log, cpu, peak,
                             list(reductions.values()))
    return result, selftest, {"host.ref_loop_ms": sorted(ref)[1]}


def _set_checks(seed, specs, store, rows) -> List[str]:
    """Sets, ladder and a real execution for a seeded sample of specs.

    A problem marks every row of that spec failed; the self-tests plant
    wrong answers into the first sampled spec's real sets.
    """
    from repro.api import AnalysisSession
    from repro.ir.interpreter import Interpreter

    sample = random.Random(f"table1-sets:{seed}").sample(specs, SET_CHECKS)
    selftest = []
    for spec in sample:
        program = store.load(spec)
        session = AnalysisSession(program, name=spec.name)
        reports = {name: session.run(name) for name in checks.LADDER}
        pta = frozenset(reports["pta"].reachable_methods)
        skipflow = frozenset(reports["skipflow"].reachable_methods)
        executed = frozenset(Interpreter(program).try_run().executed_methods)
        cha = reports["cha"].reachable_method_count
        rta = reports["rta"].reachable_method_count
        problems = checks.check_table1_sets(spec, pta, skipflow, cha, rta,
                                           executed)
        for op, row_spec, row in rows:
            if row_spec is not spec:
                continue
            if row.report("pta").reachable_methods != len(pta):
                problems.append(f"{spec.name}: matrix and session disagree")
            if problems:
                op.fail("; ".join(problems))
        if spec is sample[0]:
            selftest = checks.selftest_table1(spec, pta, skipflow, cha, rta,
                                              executed)
    return selftest

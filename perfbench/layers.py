"""The layer probes of the traced run and the per-layer metrics they give.

Each probe wraps one public function (or method) of a layer; the metric
table below turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``.  Time metrics are the mean time per call of the layer's
entry points over the whole traced run (set-up and timed loop), so a layer
that is only busy in set-up still reports; counters are per timed op.
"""

from __future__ import annotations

import importlib
import json as _json
import os
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Probe, Span, Tracer, self_times

#: Modules imported before wrapping, so every binding of a probed function
#: is loaded and patched (lazy ``from repro.checks import ...`` calls then
#: find the patched attribute).
MODULES = (
    "repro.cli", "repro.checks", "repro.checks.audit", "repro.engine",
    "repro.engine.runner", "repro.service", "repro.service.manager",
    "repro.service.daemon",
)


def _solve_name(args, kwargs):
    return "core.cold_solve" if args[0].state is None else "core.warm_solve"


def _solve_enter(args, kwargs):
    state = args[0].state
    return state.counters() if state is not None else None


def _solve_leave(args, kwargs, result, before):
    stats = result.stats
    before = before or {"steps": 0, "joins": 0, "transfers": 0}
    return {"steps": stats.steps - before["steps"],
            "joins": stats.joins - before["joins"],
            "transfers": stats.transfers - before["transfers"]}


def _size_leave(args, kwargs, result, context):
    return {"bytes": len(result)}


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _program_store_leave(args, kwargs, result, context):
    from repro.ir.arena import ArenaProgram

    store, spec, program = args[0], args[1], args[2]
    written = _file_size(store.arena_path_for(spec))
    if not isinstance(program, ArenaProgram):
        written += _file_size(store.path_for(spec))
    return {"bytes": written}


def _snapshot_store_leave(args, kwargs, result, context):
    store, spec, config = args[0], args[1], args[2]
    return {"bytes": _file_size(store.path_for(spec, config))}


PROBES: List[Probe] = [
    Probe("repro.lang.api:compile_source", "lang.compile"),
    Probe("repro.workloads.generator:generate_benchmark", "workloads.generate"),
    Probe("repro.workloads.edits:build_edit_delta", "workloads.edit_delta"),
    Probe("repro.ir.delta:ProgramDelta.apply_to", "ir.delta_apply"),
    Probe("repro.ir.arena:freeze", "arena.freeze", leave=_size_leave),
    Probe("repro.ir.arena:open_program", "arena.attach"),
    Probe("repro.ir.arena:thaw", "arena.thaw"),
    Probe("repro.core.analysis:SkipFlowAnalysis.run", _solve_name,
          enter=_solve_enter, leave=_solve_leave),
    Probe("repro.core.state:SolverState.to_bytes", "core.snapshot_encode",
          leave=_size_leave),
    Probe("repro.core.state:SolverState.from_bytes", "core.snapshot_decode"),
    Probe("repro.baselines.cha:ClassHierarchyAnalysis.run", "baselines.cha"),
    Probe("repro.baselines.rta:RapidTypeAnalysis.run", "baselines.rta"),
    Probe("repro.image.builder:NativeImageBuilder.build", "image.build"),
    Probe("repro.checks.audit:audit_result", "checks.audit"),
    Probe("repro.checks.audit:audit_state", "checks.audit"),
    Probe("repro.api.report:AnalysisReport.to_dict", "api.report_dict"),
    Probe("repro.engine.program_store:ProgramStore.load", "engine.program_load"),
    Probe("repro.engine.program_store:ProgramStore.store", "engine.store_write",
          leave=_program_store_leave),
    Probe("repro.engine.snapshots:SnapshotStore.store", "engine.snapshot_write",
          leave=_snapshot_store_leave),
    Probe("repro.engine.runner:_program_for", "engine.program_for"),
]


class _JsonProxy:
    """Stands in for ``json`` in the CLI and daemon modules: times ``dumps``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def dumps(self, *args, **kwargs):
        span = self._tracer.begin("api.json_encode")
        try:
            return _json.dumps(*args, **kwargs)
        finally:
            self._tracer.end(span)

    def __getattr__(self, name):
        return getattr(_json, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer probe, the JSON encoders, and watch the collector."""
    for name in MODULES:
        importlib.import_module(name)
    tracer.install(PROBES)
    proxy = _JsonProxy(tracer)
    for name in ("repro.cli", "repro.service.daemon"):
        tracer.patch(importlib.import_module(name), "json", proxy)
    tracer.watch_gc()


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
#: Per-call time metrics: metric -> (span names, use self time).
CALL_TIMES = {
    "cli.import_ms": (("cli.import",), False),
    "lang.compile_ms": (("lang.compile",), False),
    "workloads.generate_ms": (("workloads.generate",), False),
    "workloads.edit_delta_ms": (("workloads.edit_delta",), False),
    "ir.delta_apply_ms": (("ir.delta_apply",), False),
    "arena.freeze_ms": (("arena.freeze",), False),
    "arena.attach_ms": (("arena.attach",), False),
    "arena.thaw_ms": (("arena.thaw",), False),
    "core.cold_solve_ms": (("core.cold_solve",), False),
    "core.warm_solve_ms": (("core.warm_solve",), False),
    "core.snapshot_encode_ms": (("core.snapshot_encode",), False),
    "core.snapshot_decode_ms": (("core.snapshot_decode",), False),
    "baselines.cha_rta_ms": (("baselines.cha", "baselines.rta"), False),
    "image.build_self_ms": (("image.build",), True),
    "checks.audit_ms": (("checks.audit",), False),
    "engine.program_load_ms": (("engine.program_load",), False),
    "engine.spill_write_ms": (("engine.store_write", "engine.snapshot_write"),
                              False),
}

#: Mean size of what a call produced: metric -> span names carrying bytes.
CALL_SIZES = {
    "arena.buffer_kb": ("arena.freeze",),
    "core.snapshot_kb": ("core.snapshot_encode",),
    "engine.spill_kb": ("engine.store_write", "engine.snapshot_write"),
}

#: Metrics the workload measures itself (host probes, service responses).
WORKLOAD_MEASURED = (
    "host.ref_loop_ms", "host.python_start_ms", "service.server_analyze_ms",
    "service.wire_overhead_ms", "service.warm_served_ratio",
)

UNITS = {"_ms_per_op": "ms", "_ms": "ms", "_kb": "KB", "_per_op": "count", "_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def _top_level(spans: List[Span], names) -> List[Span]:
    """Spans of ``names`` not nested in another span of the same names."""
    ids = {span.id: span for span in spans}
    chosen = []
    for span in spans:
        if span.name not in names:
            continue
        parent = ids.get(span.parent)
        if parent is not None and parent.name in names:
            continue
        chosen.append(span)
    return chosen


def _report_encodes(spans: List[Span], reports: List[Span]) -> List[Span]:
    """The JSON encodes that serialise a report, one per ``to_dict`` at most.

    That is the encode a report's ``to_dict`` runs inside, or else the next
    encode beside it (same process, thread and parent) that starts after it
    ends.  Encodes of other responses (daemon ``open``/``update`` replies,
    CLI diagnostics) are left out.
    """
    encodes = sorted((span for span in spans
                      if span.name == "api.json_encode"),
                     key=lambda span: span.start)
    by_id = {span.id: span for span in encodes}
    chosen: Dict[int, Span] = {}
    for report in reports:
        match = by_id.get(report.parent)
        if match is None:
            match = next((span for span in encodes
                          if span.start >= report.end
                          and (span.pid, span.tid, span.parent)
                          == (report.pid, report.tid, report.parent)), None)
        if match is not None:
            chosen[match.id] = match
    return list(chosen.values())


def layer_metrics(spans: List[Span], gc_spans: List[Span], ops: int,
                  measured: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric from one traced run's spans."""
    selfs = self_times(spans)
    values: Dict[str, float] = {}
    for metric, (names, use_self) in CALL_TIMES.items():
        chosen = _top_level(spans, names)
        if use_self:
            total = sum(selfs[span.id] for span in spans if span.name in names)
        else:
            total = sum(span.duration for span in chosen)
        values[metric] = 1000.0 * total / len(chosen) if chosen else 0.0
    for metric, names in CALL_SIZES.items():
        chosen = [span for span in spans if span.name in names]
        total = sum(span.args.get("bytes", 0) for span in chosen)
        values[metric] = total / 1024.0 / len(chosen) if chosen else 0.0

    reports = [span for span in spans if span.name == "api.report_dict"]
    encodes = _report_encodes(spans, reports)
    values["api.report_dict_ms"] = (
        1000.0 * sum(span.duration for span in reports + encodes)
        / len(reports) if reports else 0.0)

    loop = [span for span in spans if span.op is not None]
    solves = [span for span in loop
              if span.name in ("core.cold_solve", "core.warm_solve")]
    for counter in ("steps", "joins", "transfers"):
        values[f"core.{counter}_per_op"] = (
            sum(span.args.get(counter, 0) for span in solves) / ops)

    children = {span.parent for span in spans if span.parent is not None}
    lookups = [span for span in spans if span.name == "engine.program_for"]
    hits = sum(1 for span in lookups if span.id not in children)
    values["engine.memo_hit_ratio"] = hits / len(lookups) if lookups else 0.0

    loop_gc = [span for span in gc_spans if span.op is not None]
    values["gc.pause_ms_per_op"] = (
        1000.0 * sum(span.duration for span in loop_gc) / ops)
    values["gc.gen2_per_op"] = (
        sum(1 for span in loop_gc if span.args.get("generation") == 2) / ops)

    for metric in WORKLOAD_MEASURED:
        values[metric] = float(measured.get(metric, 0.0))
    return {metric: {"value": value, "unit": unit_of(metric)}
            for metric, value in sorted(values.items())}


def merge_child_spans(tracer: Tracer, path: Path, op: Optional[int],
                      pid: int) -> None:
    """Adopt the spans a traced child process wrote to ``path``."""
    payload = _json.loads(path.read_text())
    os.unlink(path)
    spans = [Span.from_json(row) for row in payload["spans"]]
    gc_spans = [Span.from_json(row) for row in payload["gc"]]
    for span in spans + gc_spans:
        span.op = op
        span.pid = pid
    tracer.adopt(spans, gc_spans)

"""The analyzer's benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 20 --trace 0

Workloads: ``cli-oneshot``, ``table1-matrix``, ``daemon-edit`` (see
README.md).  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` the same work runs with the layer
probes on and the result carries the per-layer metrics, while the spans go
to ``.perfbench-work/traces/`` as Chrome trace-event JSON.  The last line of
standard output is the result; per-kind op counts and failures go to
standard error.  The exit code is 0 whenever the run completed, whatever
the number of failed ops.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import statistics
import sys
import time

import common

WORKLOADS = {
    "cli-oneshot": "wl_cli",
    "table1-matrix": "wl_table1",
    "daemon-edit": "wl_daemon",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_checkout()
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        from tracer import Tracer, write_chrome_trace

        tracer = Tracer()
        if module.IN_PROCESS:
            import layers

            started = time.perf_counter()
            import repro.cli  # noqa: F401 - timed: the first import of the CLI

            tracer.record("cli.import", started, time.perf_counter())
            layers.install(tracer)
    result, selftest, measured = module.run(args.workload, args.seed,
                                            args.seconds, tracer)
    log = result.log
    log.report()
    for problem in selftest:
        print(problem, file=sys.stderr)
    print(f"host: ref_loop_ms={measured['host.ref_loop_ms']:.2f}",
          file=sys.stderr)
    if tracer is None:
        metrics = result.metrics()
    else:
        import layers

        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        measured["host.python_start_ms"] = common.python_start_ms(env)
        metrics = layers.layer_metrics(tracer.spans, tracer.gc_spans,
                                       log.attempted, measured)
        traces = common.WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        p50 = statistics.median(log.latencies_ms())
        write_chrome_trace(path, tracer.spans, tracer.gc_spans,
                           {"workload": args.workload, "seed": args.seed,
                            "traced_op_p50_ms": p50})
        print(f"trace: {path} (traced op_p50_ms {p50:.3f})", file=sys.stderr)
    print(common.result_line(not selftest, log, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

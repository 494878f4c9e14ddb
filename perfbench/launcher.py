"""Run one ``repro`` CLI command in this process with the layer probes on.

Usage: ``python perfbench/launcher.py SPANS_OUT <repro arguments...>``.
Times ``import repro.cli``, wraps the layer probes, calls
``repro.cli.main`` and writes the spans to ``SPANS_OUT`` for the parent
benchmark process to adopt.  The exit code is the CLI's.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

started = time.perf_counter()
import repro.cli  # noqa: E402

imported = time.perf_counter()

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.record("cli.import", started, imported)
    layers.install(tracer)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))


if __name__ == "__main__":
    sys.exit(main())

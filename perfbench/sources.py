"""Seeded surface-language sources whose analysis results are known up front.

Every source has the shape of ``examples/app.java``: a ``Config`` class whose
flag methods return boolean constants, one feature library per flag that is
only started inside ``if (config.isXEnabled())``, and an always-reachable
core.  Because the generator decides every flag, it knows both answers
without running an analysis:

* PTA (flow-insensitive) keeps every method: the guarded ``start`` calls
  are taken on both branches;
* SkipFlow tracks the constant returned by each flag method and removes
  exactly the features whose flag is ``false`` (their ``start`` method and
  every library method behind it).

Core code mixes static call chains, a small virtual hierarchy with field
traffic and ``while`` loops, so parsing and lowering see realistic
statements; every core method is called unconditionally, so it is live
under both analyses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List

#: ``examples/app.java`` hand-counted: 8 methods, 4 behind the false flag.
APP_JAVA_PTA = 8
APP_JAVA_SKIPFLOW = 4


@dataclass(frozen=True)
class GeneratedSource:
    """One source plus the reachable sets both analyses must compute."""

    name: str
    text: str
    methods: FrozenSet[str]     # every method: the PTA reachable set
    disabled: FrozenSet[str]    # methods behind false flags

    @property
    def pta_count(self) -> int:
        return len(self.methods)

    @property
    def skipflow_set(self) -> FrozenSet[str]:
        return self.methods - self.disabled

    @property
    def skipflow_count(self) -> int:
        return len(self.skipflow_set)


def app_java(text: str) -> GeneratedSource:
    """``examples/app.java`` with its hand-counted reachable sets."""
    methods = frozenset({
        "Config.isTelemetryEnabled", "TelemetryService.start",
        "MetricsLibrary.initialize", "MetricsLibrary.connect",
        "MetricsLibrary.handshake", "Application.run",
        "Application.serveRequests", "Main.main"})
    disabled = frozenset({
        "TelemetryService.start", "MetricsLibrary.initialize",
        "MetricsLibrary.connect", "MetricsLibrary.handshake"})
    assert len(methods) == APP_JAVA_PTA
    assert len(methods - disabled) == APP_JAVA_SKIPFLOW
    return GeneratedSource("app", text, methods, disabled)


def _chain(lines: List[str], methods: set, cls: str, count: int,
           rng: random.Random) -> None:
    """A class of ``count`` static methods, each calling the next."""
    lines.append(f"class {cls} {{")
    for index in range(count):
        name = f"m{index}"
        methods.add(f"{cls}.{name}")
        lines.append(f"    static int {name}(int x) {{")
        lines.append(f"        int y = x + {rng.randint(1, 9)};")
        if index + 1 < count:
            lines.append(f"        y = {cls}.m{index + 1}(y * 2);")
        lines.append("        return y;")
        lines.append("    }")
    lines.append("}")


def _hierarchy(lines: List[str], methods: set, prefix: str, kinds: int,
               rng: random.Random) -> None:
    """A base class, ``kinds`` subclasses overriding ``work``, and a runner."""
    base = f"{prefix}Shape"
    lines.append(f"class {base} {{")
    lines.append("    int size;")
    lines.append("    int work(int x) { this.size = x; return x; }")
    lines.append("}")
    methods.add(f"{base}.work")
    for kind in range(kinds):
        lines.append(f"class {prefix}Kind{kind} extends {base} {{")
        lines.append("    int work(int x) {")
        lines.append(f"        int n = x + {rng.randint(1, 5)};")
        lines.append("        while (n > 100) { n = n - 7; }")
        lines.append("        this.size = n;")
        lines.append("        return this.size;")
        lines.append("    }")
        lines.append("}")
        methods.add(f"{prefix}Kind{kind}.work")
    runner = f"{prefix}Runner"
    lines.append(f"class {runner} {{")
    lines.append("    static int drive(int seed) {")
    lines.append("        int total = 0;")
    lines.append(f"        {base} shape = new {base}();")
    lines.append("        total = total + shape.work(seed);")
    for kind in range(kinds):
        lines.append(f"        shape = new {prefix}Kind{kind}();")
        lines.append("        total = total + shape.work(total);")
    lines.append("        return total;")
    lines.append("    }")
    lines.append("}")
    methods.add(f"{runner}.drive")


def generate_source(rng: random.Random, name: str,
                    target_methods: int) -> GeneratedSource:
    """A source of about ``target_methods`` methods.

    Half of the flags are ``false``, so roughly half of the library methods
    sit behind them; which features are off, the library sizes and the
    constants are drawn from ``rng``.
    """
    lines: List[str] = []
    methods: set = set()
    disabled: set = set()
    library_budget = max(int(target_methods * 0.6), 4)
    features = max(1, library_budget // 24)
    per_feature = max(2, library_budget // features)
    flags = [index < round(features / 2) for index in range(features)]
    rng.shuffle(flags)
    if features > 1 and all(flags):
        flags[rng.randrange(features)] = False

    lines.append("class Config {")
    for index, enabled in enumerate(flags):
        lines.append(f"    boolean isFeature{index}Enabled() {{")
        lines.append(f"        return {'true' if enabled else 'false'};")
        lines.append("    }")
        methods.add(f"Config.isFeature{index}Enabled")
    lines.append("}")

    for index, enabled in enumerate(flags):
        size = max(2, per_feature + rng.randint(-2, 2))
        library = f"Feature{index}Lib"
        service = f"Feature{index}Service"
        behind = {f"{service}.start"}
        lines.append(f"class {service} {{")
        lines.append("    int calls;")
        lines.append("    void start() {")
        lines.append("        this.calls = this.calls + 1;")
        lines.append(f"        {library}.m0(this.calls);")
        lines.append("    }")
        lines.append("}")
        library_methods: set = set()
        _chain(lines, library_methods, library, size, rng)
        behind |= library_methods
        methods |= behind
        if not enabled:
            disabled |= behind

    core_budget = max(target_methods - len(methods) - 3, 2)
    hierarchies = max(1, core_budget // 40)
    kinds = 4
    chain_budget = max(core_budget - hierarchies * (kinds + 2), 1)
    chains = max(1, chain_budget // 30)
    chain_sizes = [chain_budget // chains] * chains
    chain_sizes[0] += chain_budget - sum(chain_sizes)
    for index in range(hierarchies):
        _hierarchy(lines, methods, f"Core{index}", kinds, rng)
    for index, size in enumerate(chain_sizes):
        _chain(lines, methods, f"CoreChain{index}", size, rng)

    lines.append("class Application {")
    lines.append("    void run(Config config) {")
    for index in range(features):
        lines.append(f"        if (config.isFeature{index}Enabled()) {{")
        lines.append(f"            Feature{index}Service s{index} = "
                     f"new Feature{index}Service();")
        lines.append(f"            s{index}.start();")
        lines.append("        }")
    lines.append("        this.serveRequests(1);")
    lines.append("    }")
    lines.append("    int serveRequests(int seed) {")
    lines.append("        int total = seed;")
    for index in range(hierarchies):
        lines.append(f"        total = total + Core{index}Runner.drive(total);")
    for index in range(chains):
        lines.append(f"        total = total + CoreChain{index}.m0(total);")
    lines.append("        return total;")
    lines.append("    }")
    lines.append("}")
    methods |= {"Application.run", "Application.serveRequests"}

    lines.append("class Main {")
    lines.append("    static void main() {")
    lines.append("        Application app = new Application();")
    lines.append("        app.run(new Config());")
    lines.append("    }")
    lines.append("}")
    methods.add("Main.main")
    return GeneratedSource(name, "\n".join(lines) + "\n",
                           frozenset(methods), frozenset(disabled))

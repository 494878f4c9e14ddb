"""Output checks computed apart from the analyzer, and their self-tests.

Every check returns a list of problems (empty when the output is right).
The expected answers come from what the benchmark built: the source
generator's flags, the benchmark spec's guarded modules, the interpreter's
concrete execution, or a cold solve of the same edited program.  Each
self-test plants one wrong answer into a real observed output and requires
the check to reject it, so a check that cannot fail is caught.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Sequence

from sources import GeneratedSource

LADDER = ("cha", "rta", "pta", "skipflow")


def check_counts(source: GeneratedSource, pta: int, skipflow: int) -> List[str]:
    problems = []
    if pta != source.pta_count:
        problems.append(f"{source.name}: PTA reaches {pta} methods, "
                        f"expected {source.pta_count}")
    if skipflow != source.skipflow_count:
        problems.append(f"{source.name}: SkipFlow reaches {skipflow} methods, "
                        f"expected {source.skipflow_count}")
    return problems


def check_skipflow_set(source: GeneratedSource,
                       reachable: Iterable[str]) -> List[str]:
    reachable = frozenset(reachable)
    missing = sorted(source.skipflow_set - reachable)
    extra = sorted(reachable - source.skipflow_set)
    if not missing and not extra:
        return []
    return [f"{source.name}: SkipFlow set differs: missing {missing[:3]}, "
            f"extra {extra[:3]}"]


def check_ladder(counts: Dict[str, int]) -> List[str]:
    values = [counts[name] for name in LADDER]
    if all(left >= right for left, right in zip(values, values[1:])):
        return []
    return [f"reachable counts are not a precision ladder: {counts}"]


def sanitize(name: str) -> str:
    """The class-name prefix the benchmark generator derives from a spec name."""
    cleaned = "".join(ch if ch.isalnum() else "_" for ch in name)
    return cleaned[:1].upper() + cleaned[1:]


def check_table1_row(spec, pta: int, skipflow: int) -> List[str]:
    if pta - skipflow == spec.guarded_methods:
        return []
    return [f"{spec.name}: PTA - SkipFlow = {pta - skipflow}, expected the "
            f"spec's {spec.guarded_methods} guarded methods"]


def check_table1_sets(spec, pta: FrozenSet[str], skipflow: FrozenSet[str],
                      cha: int, rta: int,
                      executed: Iterable[str]) -> List[str]:
    """Set-level properties of one spec's analyses and one real execution."""
    problems = []
    library = re.compile(rf"^{re.escape(sanitize(spec.name))}Lib\d+")
    removed = pta - skipflow
    outside = sorted(name for name in removed if not library.match(name))
    if outside:
        problems.append(f"{spec.name}: SkipFlow removes methods outside the "
                        f"guarded libraries: {outside[:3]}")
    if len(removed) != spec.guarded_methods:
        problems.append(f"{spec.name}: {len(removed)} methods removed, "
                        f"expected {spec.guarded_methods}")
    if not skipflow <= pta:
        problems.append(f"{spec.name}: SkipFlow reaches methods PTA does not")
    unsound = sorted(set(executed) - skipflow)
    if unsound:
        problems.append(f"{spec.name}: executed methods missing from the "
                        f"SkipFlow set: {unsound[:3]}")
    problems += check_ladder({"cha": cha, "rta": rta, "pta": len(pta),
                              "skipflow": len(skipflow)})
    return problems


def check_fixpoint(expected: dict, served: dict) -> List[str]:
    """A served call graph against a cold solve of the same program."""
    problems = []
    for key in ("reachable_methods", "stub_methods", "call_edges"):
        want = {tuple(item) if isinstance(item, list) else item
                for item in expected[key]}
        got = {tuple(item) if isinstance(item, list) else item
               for item in served[key]}
        if want != got:
            problems.append(
                f"served {key} differ from a cold solve: missing "
                f"{sorted(want - got)[:2]}, extra {sorted(got - want)[:2]}")
    return problems


# ---------------------------------------------------------------------- #
# Self-tests: each check must reject a planted wrong answer
# ---------------------------------------------------------------------- #
def _rejects(problems: Sequence[str], label: str) -> List[str]:
    return [] if problems else [f"self-test: {label} accepted a wrong answer"]


def selftest_source(source: GeneratedSource) -> List[str]:
    live = sorted(source.skipflow_set)
    dropped = frozenset(live[1:])
    ladder = {"cha": source.pta_count, "rta": source.pta_count,
              "pta": source.skipflow_count, "skipflow": source.pta_count}
    return (_rejects(check_skipflow_set(source, dropped),
                     "check_skipflow_set with one live method dropped")
            + _rejects(check_counts(source, source.pta_count,
                                    source.skipflow_count - 1),
                       "check_counts with one method short")
            + _rejects(check_ladder(ladder),
                       "check_ladder with an inverted ladder"))


def selftest_table1(spec, pta: FrozenSet[str], skipflow: FrozenSet[str],
                    cha: int, rta: int, executed: FrozenSet[str]) -> List[str]:
    core = sorted(name for name in skipflow if name != "Main.main")
    dropped = skipflow - {core[0]}
    return (_rejects(check_table1_row(spec, len(pta), len(skipflow) + 1),
                     "check_table1_row with one method too many")
            + _rejects(check_table1_sets(spec, pta, dropped, cha, rta,
                                         executed | {core[0]}),
                       "check_table1_sets with one live method dropped"))


def selftest_fixpoint(served: dict) -> List[str]:
    planted = dict(served)
    planted["call_edges"] = list(served["call_edges"])[1:]
    return _rejects(check_fixpoint(served, planted),
                    "check_fixpoint with one edge removed")

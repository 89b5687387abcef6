"""check_tree: ``repro.check.run_checks`` over the shipped ``src/`` tree.

Cold runs each get a fresh cache directory; warm runs then reuse the
last cold run's cache, as a second ``repro check`` on an unchanged tree
would.  The item is one cold run: its wall is what CI pays.
"""

from __future__ import annotations

import statistics
import time

from repro.check import ALL_RULES, CheckResult, run_checks

from harness import Run
from tracing import durations

#: Cold runs at the nominal run length (never fewer than three).
COLD_RUNS = 5
WARM_RUNS = 3
#: Rule ids timed alone in a traced run; an id the program no longer
#: registers reads 0.
RULE_IDS = (
    "no-wallclock", "no-unseeded-random", "no-unstable-order", "no-float-eq",
    "schema-drift", "lock-discipline", "identity-completeness",
    "contract-version", "process-boundary", "unused-suppression",
)


def check_results(cold: list[CheckResult], warm: list[CheckResult]) -> list[str]:
    """No diagnostics, and every warm run saw the tree the cold runs saw."""
    problems = []
    for result in cold + warm:
        for diagnostic in result.diagnostics[:3]:
            problems.append(f"diagnostic: {diagnostic.format()}")
    files = {result.files_checked for result in cold + warm}
    if len(files) != 1:
        problems.append(f"runs disagree on files checked: {sorted(files)}")
    return problems


def measure(run: Run) -> None:
    tracer = run.tracer
    cold: list[CheckResult] = []
    warm: list[CheckResult] = []
    walls: list[float] = []
    cold_runs = max(3, run.scaled(COLD_RUNS))
    start = time.perf_counter()
    with tracer.span("workload") as root:
        for i in range(cold_runs):
            began = time.perf_counter()
            with tracer.span("check.cold"):
                cold.append(run_checks(run.src, cache_dir=run.tmp / f"cache{i}"))
            walls.append(time.perf_counter() - began)
        for _ in range(WARM_RUNS):
            with tracer.span("check.warm"):
                warm.append(run_checks(run.src, cache_dir=run.tmp / f"cache{cold_runs - 1}"))
        if run.traced:
            with tracer.span("check.parse_only"):
                run_checks(run.src, rules=[])
            registered = {rule.id: rule for rule in ALL_RULES}
            for rule_id in RULE_IDS:
                if rule_id in registered:
                    with tracer.span("check.rule", rule=rule_id):
                        run_checks(run.src, rules=[registered[rule_id]])
    wall = time.perf_counter() - start
    run.attempted = len(cold) + len(warm)
    run.problems += check_results(cold, warm)
    if not run.traced:
        run.record_items(walls, len(walls), wall)
        return
    run.record_trace(root)
    spans = tracer.spans
    parse_s = durations(spans, "check.parse_only")[0]
    rule_s = {s.attrs["rule"]: s.duration - parse_s for s in spans if s.name == "check.rule"}
    run.per_layer.update({
        "check.cold_s": statistics.median(durations(spans, "check.cold")),
        "check.warm_s": statistics.median(durations(spans, "check.warm")),
        "check.files": cold[0].files_checked,
    })
    for rule_id in RULE_IDS:
        run.per_layer[f"check.rule_s.{rule_id}"] = rule_s.get(rule_id, 0.0)


"""Determinism rules: keep the simulator bit-for-bit reproducible.

The parallel executor's contract (parallel == serial, restart == first
run) only holds if simulation code never reads ambient state.  These
rules ban the ways ambient state usually leaks in:

* ``no-wallclock`` — ``time.time()``/``perf_counter()``/``monotonic()``
  and datetime "now" reads.  Wall-clock belongs in the host-side
  profiling layers (:mod:`repro.obs.spans`, :mod:`repro.obs.telemetry`),
  never in cycle accounting.
* ``no-unseeded-random`` — RNG constructors without an explicit seed
  and the module-level ``random.*``/``numpy.random.*`` convenience
  functions (which draw from hidden global state).
* ``no-unstable-order`` — ``id()`` (allocation-order dependent) and
  direct iteration over set displays/calls (hash-order dependent).
* ``no-float-eq`` — ``==``/``!=`` against float literals or ``float()``
  results in cycle-accounting code; exact comparisons flip with
  compiler/fma differences.  The one legitimate case — the exact-zero
  operand test at the heart of SAVE's sparsity detection — carries a
  suppression comment where it happens.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.check.engine import (
    CheckedFile,
    Diagnostic,
    Rule,
    dotted_call_name,
    import_map,
)

__all__ = [
    "DETERMINISM_RULES",
    "NoFloatEqRule",
    "NoUnseededRandomRule",
    "NoUnstableOrderRule",
    "NoWallClockRule",
]

#: Simulation code: everything that feeds cycle counts or results.
SIM_SCOPE: tuple[str, ...] = (
    "repro/core/",
    "repro/memory/",
    "repro/model/",
    "repro/kernels/",
    "repro/sparsity/",
    "repro/isa/",
    "repro/experiments/",
    "repro/fastsim/",
)

#: Cycle-accounting code proper (the ISSUE's float-eq scope).
CYCLE_SCOPE: tuple[str, ...] = (
    "repro/core/",
    "repro/memory/",
    "repro/model/",
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: RNG constructors that are deterministic *when given a seed*.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
    }
)

#: ``numpy.random`` attributes that are types/protocols, not draws.
_NUMPY_RANDOM_NON_DRAWS = frozenset(
    {"Generator", "RandomState", "SeedSequence", "BitGenerator", "default_rng"}
)


class NoWallClockRule(Rule):
    id = "no-wallclock"
    description = (
        "wall-clock reads in simulation/observability code (allowed only "
        "in repro.obs.spans and repro.obs.telemetry)"
    )
    include = SIM_SCOPE + ("repro/obs/",)
    exclude = (
        "repro/obs/spans.py",
        # The serve-path telemetry layer *is* the wall-clock layer:
        # request latency, ring timestamps, worker-side spans.
        "repro/obs/telemetry.py",
    )

    def check_file(self, checked: CheckedFile) -> Iterable[Diagnostic]:
        names = import_map(checked.tree)
        for node in ast.walk(checked.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, names)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    checked,
                    node,
                    f"wall-clock read {dotted}() in deterministic code; "
                    "cycle accounting must not depend on host time",
                )


class NoUnseededRandomRule(Rule):
    id = "no-unseeded-random"
    description = (
        "RNG use without an explicit seed (global random state or "
        "seedless constructors)"
    )
    include = SIM_SCOPE

    def check_file(self, checked: CheckedFile) -> Iterable[Diagnostic]:
        names = import_map(checked.tree)
        for node in ast.walk(checked.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_call_name(node.func, names)
            if dotted is None:
                continue
            if dotted in _SEEDABLE_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.diagnostic(
                        checked,
                        node,
                        f"{dotted}() without a seed draws entropy from the "
                        "OS; pass an explicit seed",
                    )
                continue
            head, _, tail = dotted.rpartition(".")
            if head == "random" or (
                head == "numpy.random" and tail not in _NUMPY_RANDOM_NON_DRAWS
            ):
                yield self.diagnostic(
                    checked,
                    node,
                    f"{dotted}() uses hidden global RNG state; use a "
                    "seeded Generator instead",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class NoUnstableOrderRule(Rule):
    id = "no-unstable-order"
    description = (
        "allocation/hash-order dependent logic: id() keys and direct "
        "set iteration"
    )
    include = SIM_SCOPE

    def check_file(self, checked: CheckedFile) -> Iterable[Diagnostic]:
        for node in ast.walk(checked.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                yield self.diagnostic(
                    checked,
                    node,
                    "id() values depend on allocation order; key on a "
                    "stable identifier (seq number, name) instead",
                )
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.diagnostic(
                        checked,
                        it,
                        "iterating a set directly has hash-dependent "
                        "order; iterate sorted(...) or a list",
                    )


def _is_float_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


class NoFloatEqRule(Rule):
    id = "no-float-eq"
    description = (
        "float ==/!= in cycle-accounting code (use tolerance comparisons, "
        "or suppress the intentional exact-zero sparsity test)"
    )
    include = CYCLE_SCOPE

    def check_file(self, checked: CheckedFile) -> Iterable[Diagnostic]:
        for node in ast.walk(checked.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_expr(left) or _is_float_expr(right):
                    yield self.diagnostic(
                        checked,
                        node,
                        "exact float equality in cycle-accounting code; "
                        "results flip with fma/rounding differences",
                    )
                    break


#: Catalogue order: as documented in docs/architecture.md.
DETERMINISM_RULES: tuple[Rule, ...] = (
    NoWallClockRule(),
    NoUnseededRandomRule(),
    NoUnstableOrderRule(),
    NoFloatEqRule(),
)

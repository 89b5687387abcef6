"""Golden exact-tier timing cases: definitions, digests and the fixture writer.

Timing tests elsewhere are inequalities and transparency tests compare
only final state, so a change that moves one µop to the next slot can
pass both.  This module pins the exact tier instead: for each case it
records every :class:`~repro.core.pipeline.SimResult` field except
``metrics`` and ``final_state``, plus a sha256 over the final state's
float32 bit patterns.  For an instrumented subset it also records the
metrics snapshot and a digest of the sorted multiset of trace events
per event type, because counters alone miss tie-order changes in HC
merges.

``tests/core/test_golden_exact.py`` compares against
``golden_exact.json``.  Rewrite the fixture only by hand, and only for a
change that is meant to alter exact timing::

    PYTHONPATH=src python -m tests.core.golden_exact
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.core import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, SimResult, simulate
from repro.core.config import CoalescingScheme, MachineConfig
from repro.isa.semantics import ReferenceExecutor
from repro.isa.uops import UopKind
from repro.kernels.library import generate_trace, get_kernel
from repro.kernels.stream import stream_uops
from repro.kernels.tiling import Precision
from repro.kernels.trace import KernelTrace
from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.obs import Instrumentation, ListSink
from tests.core.test_fuzz_transparency import MACHINES, random_machine, random_trace

FIXTURE = Path(__file__).with_name("golden_exact.json")

#: The machines of the library cases, by label.
LIBRARY_MACHINES: dict[str, MachineConfig] = {
    "baseline": BASELINE_2VPU,
    "save-2vpu": SAVE_2VPU,
    "save-1vpu": SAVE_1VPU,
    "hc": SAVE_2VPU.with_save(coalescing=CoalescingScheme.HORIZONTAL),
    "vc-lwd": SAVE_2VPU.with_save(coalescing=CoalescingScheme.VERTICAL),
    "vc-no-lwd": SAVE_2VPU.with_save(
        coalescing=CoalescingScheme.VERTICAL, lane_wise_dependence=False
    ),
    "no-mp": SAVE_2VPU.with_save(mixed_precision_technique=False),
    "naive": SAVE_2VPU.with_save(coalescing=CoalescingScheme.NAIVE),
    "bcache-mask": SAVE_2VPU.with_save(broadcast_cache=BroadcastCacheKind.MASK),
    "no-bcache": SAVE_2VPU.with_save(broadcast_cache=BroadcastCacheKind.NONE),
    "mgu1": SAVE_2VPU.with_save(mgu_count=1),
}

#: The Fig. 15, 17 and 19 kernels.
LIBRARY_KERNELS = ("resnet2_2_fwd", "resnet3_2_bwd_weights", "resnet4_1a_bwd_input")

#: Every machine runs the middle point; the three presets also run the
#: dense and the skewed corner.
ALL_MACHINE_POINT = (0.5, 0.5)
PRESET_POINTS = ((0.0, 0.0), (0.9, 0.3))
PRESETS = ("baseline", "save-2vpu", "save-1vpu")

#: Instrumented cases: (kernel, precision, write masks, machine label).
INSTRUMENTED = {
    ("resnet2_2_fwd", "mixed", False, "save-2vpu"),
    ("resnet2_2_fwd", "mixed", True, "hc"),
    ("resnet3_2_bwd_weights", "fp32", True, "hc"),
    ("resnet3_2_bwd_weights", "fp32", False, "vc-no-lwd"),
    ("resnet4_1a_bwd_input", "mixed", True, "naive"),
    ("resnet4_1a_bwd_input", "fp32", False, "bcache-mask"),
}

FUZZ_SEEDS = range(6)
RANDOM_MACHINE_SEEDS = range(10)
K_STEPS = 4
SEED = 1

#: ``SimResult`` fields the fixture records, in row order.
RESULT_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(SimResult)
    if f.name not in ("metrics", "final_state")
)


@dataclasses.dataclass(frozen=True)
class GoldenCase:
    """One fixture row: a trace on a machine."""

    id: str
    trace_key: tuple
    machine: MachineConfig
    instrumented: bool = False


def _library_cases() -> list[GoldenCase]:
    cases = []
    for kernel in LIBRARY_KERNELS:
        for precision in ("fp32", "mixed"):
            for masks in (False, True):
                points = [(ALL_MACHINE_POINT, tuple(LIBRARY_MACHINES))]
                points += [(point, PRESETS) for point in PRESET_POINTS]
                for (bs, nbs), labels in points:
                    for label in labels:
                        cases.append(
                            GoldenCase(
                                id=(
                                    f"{kernel}-{precision}-{'wm' if masks else 'nowm'}"
                                    f"-bs{bs}-nbs{nbs}-{label}"
                                ),
                                trace_key=("library", kernel, precision, masks, bs, nbs),
                                machine=LIBRARY_MACHINES[label],
                                instrumented=(kernel, precision, masks, label)
                                in INSTRUMENTED
                                and (bs, nbs) == ALL_MACHINE_POINT,
                            )
                        )
    return cases


def _fuzz_cases() -> list[GoldenCase]:
    cases = []
    for seed in FUZZ_SEEDS:
        for param in MACHINES:
            (machine,) = param.values
            cases.append(
                GoldenCase(
                    id=f"fuzz{seed}-{param.id}",
                    trace_key=("fuzz", seed, 140),
                    machine=machine,
                    instrumented=seed == 0 and param.id in ("save-hc", "save-2vpu"),
                )
            )
    for seed in RANDOM_MACHINE_SEEDS:
        cases.append(
            GoldenCase(
                id=f"random-machine{seed}",
                trace_key=("fuzz", seed + 500, 120),
                machine=random_machine(seed),
            )
        )
    return cases


CASES: list[GoldenCase] = _library_cases() + _fuzz_cases()


@lru_cache(maxsize=None)
def build_trace(key: tuple) -> KernelTrace:
    """The trace a case key names (cached: several machines share one)."""
    if key[0] == "fuzz":
        return random_trace(key[1], length=key[2])
    _, kernel, precision, masks, bs, nbs = key
    config = get_kernel(kernel).config(
        bs,
        nbs,
        precision=Precision.MIXED if precision == "mixed" else Precision.FP32,
        k_steps=K_STEPS,
        use_write_masks=masks,
        seed=SEED,
    )
    return generate_trace(config)


_VECTOR_WRITERS = (
    UopKind.VFMA,
    UopKind.VDPBF16,
    UopKind.VLOAD,
    UopKind.VBCAST,
    UopKind.VZERO,
)


def reference_stays_finite(trace: KernelTrace) -> bool:
    """True if the in-order reference never holds a non-finite value."""
    state = trace.fresh_state()
    if not np.isfinite(list(state.memory.snapshot().values())).all():
        return False
    executor = ReferenceExecutor(state)
    for uop in stream_uops(trace):
        executor.execute(uop)
        if uop.kind in _VECTOR_WRITERS and not np.isfinite(state.vregs[uop.dst]).all():
            return False
    return True


def state_digest(state) -> str:
    """sha256 over the float32 bit patterns of vregs, kregs and memory."""
    digest = hashlib.sha256()
    for reg in range(32):
        value = np.asarray(state.read_vreg(reg), dtype="<f4")
        digest.update(len(value).to_bytes(1, "little"))
        digest.update(value.tobytes())
    for kreg in range(8):
        digest.update(int(state.read_kreg(kreg)).to_bytes(4, "little"))
    memory = state.memory.snapshot()
    for addr in sorted(memory):
        digest.update(int(addr).to_bytes(8, "little"))
        digest.update(np.float32(memory[addr]).astype("<f4").tobytes())
    return digest.hexdigest()


def _event_digests(events: list[dict[str, Any]]) -> dict[str, list]:
    """Per event type: count and sha256 of the sorted event multiset."""
    by_type: dict[str, list[str]] = {}
    for event in events:
        by_type.setdefault(event["event"], []).append(json.dumps(event, sort_keys=True))
    return {
        name: [len(lines), hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()]
        for name, lines in sorted(by_type.items())
    }


def run_case(case: GoldenCase) -> dict[str, Any]:
    """Simulate one case and return its fixture record."""
    trace = build_trace(case.trace_key)
    sink = ListSink()
    obs: Optional[Instrumentation] = Instrumentation(sink=sink) if case.instrumented else None
    result = simulate(trace, case.machine, obs=obs)
    record: dict[str, Any] = {
        "result": [getattr(result, name) for name in RESULT_FIELDS],
        "state": state_digest(result.final_state),
    }
    if case.instrumented:
        # A JSON round trip gives the snapshot the fixture's key types.
        record["metrics"] = json.loads(json.dumps(result.metrics, sort_keys=True))
        record["events"] = _event_digests(sink.events)
    return record


def _git_head() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_fixture(path: Path = FIXTURE) -> None:
    """Regenerate the fixture from the current tree (run by hand only)."""
    cases = {}
    for case in CASES:
        if not reference_stays_finite(build_trace(case.trace_key)):
            raise SystemExit(f"{case.id}: the reference run reaches a non-finite value")
        cases[case.id] = run_case(case)
    payload = {
        "generated_from": _git_head(),
        "k_steps": K_STEPS,
        "fields": list(RESULT_FIELDS),
        "cases": cases,
    }
    lines = ["{"]
    for key in ("generated_from", "k_steps", "fields"):
        lines.append(f"  {json.dumps(key)}: {json.dumps(payload[key])},")
    lines.append('  "cases": {')
    rows = [
        f"    {json.dumps(case_id)}: {json.dumps(record, sort_keys=True)}"
        for case_id, record in cases.items()
    ]
    lines.append(",\n".join(rows))
    lines.append("  }")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {path}")


if __name__ == "__main__":
    write_fixture()

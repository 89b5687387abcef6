"""Bound-and-bottleneck fast engine over :class:`TraceArrays`.

Instead of stepping a cycle loop, the fast tier computes four
whole-trace occupancy bounds directly from the structure-of-arrays
representation and predicts cycles from them:

* **front-end** — total allocated µops over the 5-wide alloc width;
* **VPU** — issue-slot demand after SAVE's coalescing.  For vertical
  and rotate-vertical schemes this uses a *rolling-window* occupancy:
  combination is limited to µops co-resident in the RS, so per-slot
  entry counts are maximised over windows of ``rs_entries //
  uops_per_step`` reduction steps, with rotation applied per logical
  accumulator register exactly as in the exact scheduler;
* **L1 bandwidth** — vector loads plus broadcast traffic through the
  configured B$ design over the L1 read ports;
* **dependence chain** — the longest serialized accumulator chain
  (lane-wise or vector-wise, matching the machine's dependence model)
  times the VFMA latency.

The raw estimate is ``max(bounds)``; the calibrated estimate is a
per-kernel-class linear blend of the bounds fitted against the exact
model (see :mod:`repro.fastsim.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CoalescingScheme, MachineConfig
from repro.core.pipeline import SimResult
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.fastsim.soa import TraceArrays
from repro.isa.datatypes import FP32_LANES
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.stream import TraceStream
from repro.kernels.tiling import BroadcastPattern
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace
from repro.memory.broadcast_cache import BroadcastCacheKind

__all__ = [
    "ENGINES",
    "ENGINE_EXACT",
    "ENGINE_FAST",
    "FASTSIM_MODEL_VERSION",
    "FEATURE_NAMES",
    "BoundBreakdown",
    "bounds",
    "class_key",
    "features",
    "simulate_arrays",
    "simulate_config",
    "simulate_stream",
    "simulate_trace",
    "validate_engine",
]

ENGINE_EXACT = "exact"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_EXACT, ENGINE_FAST)

#: Bump when the bound model or feature vector changes shape/meaning —
#: invalidates committed calibration artifacts.
FASTSIM_MODEL_VERSION = 1

#: Calibration feature vector, in order.
FEATURE_NAMES = ("const", "frontend", "vpu", "l1", "chain", "bound_max")

#: Uncalibrated ramp-up allowance (alloc fill + first-load latency).
_STARTUP_CYCLES = 30.0


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def class_key(tile, precision, machine: MachineConfig) -> str:
    """Calibration class of a (kernel shape, machine) pair.

    Sparsity levels and ``k_steps`` deliberately stay *out* of the key:
    one set of per-class weights must interpolate across the whole
    sparsity grid and transfer across reduction depths.
    """
    from repro.model.surface import machine_label

    return (
        f"{tile.rows}x{tile.col_vectors}"
        f":{tile.pattern.value}:{precision.value}"
        f"|{machine_label(machine)}"
    )


@dataclass(frozen=True)
class BoundBreakdown:
    """The four whole-trace occupancy bounds, in cycles."""

    frontend: float
    vpu: float
    l1: float
    chain: float

    @property
    def bound_max(self) -> float:
        return max(self.frontend, self.vpu, self.l1, self.chain)

    @property
    def bottleneck(self) -> str:
        pairs = [
            ("frontend", self.frontend),
            ("vpu", self.vpu),
            ("l1", self.l1),
            ("chain", self.chain),
        ]
        return max(pairs, key=lambda pair: pair[1])[0]


def _frontend_bound(arrays: TraceArrays, machine: MachineConfig) -> float:
    return arrays.uop_count / machine.core.issue_width


def _slot_indices(arrays: TraceArrays, machine: MachineConfig) -> np.ndarray:
    """Temp-slot index per (row, col_vector, lane) under rotation."""
    rows, cv = arrays.tile.rows, arrays.tile.col_vectors
    offsets = np.zeros((rows, cv), dtype=np.int64)
    if machine.save.coalescing == CoalescingScheme.ROTATE_VERTICAL:
        for r in range(rows):
            for j in range(cv):
                # Accumulator registers are allocated row-major by the
                # trace builder, so (r, j) accumulates into register
                # r * col_vectors + j.
                offsets[r, j] = rotation_offset(
                    r * cv + j, machine.save.rotation_states
                )
    lanes = np.arange(FP32_LANES, dtype=np.int64)
    slots = (lanes[None, None, :] + offsets[:, :, None]) % FP32_LANES
    assert slot_for_lane(0, int(offsets[0, 0])) == int(slots[0, 0, 0])
    return slots


def _vpu_bound(arrays: TraceArrays, machine: MachineConfig) -> float:
    core, save = machine.core, machine.save
    if not save.enabled:
        return arrays.fma_count / core.num_vpus
    if save.coalescing == CoalescingScheme.NAIVE:
        # No cross-instruction combining: every non-BS-skipped VFMA is
        # a whole VPU op.
        return (arrays.fma_count - arrays.skipped_fmas) / core.num_vpus
    mp_chains = arrays.mixed and save.mixed_precision_technique
    if save.coalescing == CoalescingScheme.HORIZONTAL:
        # Perfect compression across all 16 slots.
        if mp_chains:
            totals = arrays.ml_count.sum(axis=0, dtype=np.int64)
            entries = float(np.ceil(totals / 2.0).sum())
        else:
            entries = float(np.count_nonzero(arrays.effectual))
        return entries / (FP32_LANES * core.num_vpus)
    # Vertical / rotate-vertical: per temp-slot demand, maximised over
    # RS-co-residency windows.  Entries in different windows can never
    # combine, so their slot demands add.
    window = max(1, min(arrays.k_steps, core.rs_entries // arrays.uops_per_step))
    slot_idx = _slot_indices(arrays, machine).ravel()
    cycles = 0.0
    for start in range(0, arrays.k_steps, window):
        block = slice(start, start + window)
        if mp_chains:
            # ML chains drain two reduction levels per slot entry.
            totals = arrays.ml_count[block].sum(axis=0, dtype=np.int64)
            counts = np.ceil(totals / 2.0)
        else:
            counts = arrays.effectual[block].sum(axis=0, dtype=np.int64)
        per_slot = np.bincount(
            slot_idx, weights=counts.ravel().astype(np.float64),
            minlength=FP32_LANES,
        )
        # A VPU op consumes at most one entry per slot per cycle, and at
        # most 16 entries total — whichever is tighter.
        cycles += max(float(per_slot.max()), float(counts.sum()) / FP32_LANES)
    return cycles / core.num_vpus


def _l1_bound(arrays: TraceArrays, machine: MachineConfig) -> float:
    save = machine.save
    loads = arrays.k_steps * arrays.loads_per_step
    reads_per_broadcast = (
        1
        if arrays.tile.pattern == BroadcastPattern.EXPLICIT
        else arrays.tile.col_vectors
    )
    total_broadcasts = arrays.k_steps * arrays.tile.rows * reads_per_broadcast
    kind = save.broadcast_cache if save.enabled else BroadcastCacheKind.NONE
    elements_per_line = 64 // arrays.element_bytes
    lines_per_row = -(-arrays.k_depth // elements_per_line)
    if kind == BroadcastCacheKind.DATA:
        # Each broadcast row is read from L1 once per resident line;
        # every further broadcast hits the B$.
        broadcast_l1 = arrays.tile.rows * lines_per_row
    elif kind == BroadcastCacheKind.MASK:
        # Mask hits only elide *zero* broadcasts; non-zero ones still
        # read the L1.
        nonzero = int(np.count_nonzero(arrays.broadcast_nonzero))
        broadcast_l1 = arrays.tile.rows * lines_per_row + nonzero * reads_per_broadcast
    else:
        broadcast_l1 = total_broadcasts
    return (loads + broadcast_l1) / machine.hierarchy.l1_read_ports


def _chain_bound(arrays: TraceArrays, machine: MachineConfig) -> float:
    save = machine.save
    latency = machine.fma_latency(arrays.mixed)
    if not save.enabled:
        return float(arrays.k_steps * latency)
    if arrays.mixed and save.mixed_precision_technique:
        totals = arrays.ml_count.sum(axis=0, dtype=np.int64)
        depth = float(np.ceil(totals / 2.0).max()) if totals.size else 0.0
        return depth * latency
    if save.coalescing == CoalescingScheme.NAIVE or not save.lane_wise_dependence:
        # Vector-wise dependence: every non-skipped step serializes the
        # whole accumulator.
        depth = int(arrays.effectual.any(axis=3).sum(axis=0).max())
    else:
        # Lane-wise dependence: only effectual steps of the *same lane*
        # serialize.
        depth = int(arrays.effectual.sum(axis=0, dtype=np.int64).max())
    return float(depth) * latency


def bounds(arrays: TraceArrays, machine: MachineConfig) -> BoundBreakdown:
    """Compute all four occupancy bounds for one trace/machine pair."""
    return BoundBreakdown(
        frontend=_frontend_bound(arrays, machine),
        vpu=_vpu_bound(arrays, machine),
        l1=_l1_bound(arrays, machine),
        chain=_chain_bound(arrays, machine),
    )


def features(breakdown: BoundBreakdown) -> np.ndarray:
    """Calibration feature vector (order matches ``FEATURE_NAMES``)."""
    return np.array(
        [
            1.0,
            breakdown.frontend,
            breakdown.vpu,
            breakdown.l1,
            breakdown.chain,
            breakdown.bound_max,
        ],
        dtype=np.float64,
    )


def predict_cycles(
    breakdown: BoundBreakdown, weights: np.ndarray | None
) -> float:
    """Cycles from bounds: calibrated blend, or raw max when unfitted."""
    if weights is None:
        return breakdown.bound_max + _STARTUP_CYCLES
    return max(1.0, float(features(breakdown) @ np.asarray(weights)))


# ---------------------------------------------------------------------------
# SimResult assembly
# ---------------------------------------------------------------------------


def _static_counters(
    arrays: TraceArrays, machine: MachineConfig
) -> tuple[int, int, int]:
    """(effectual_lanes, pass_through_lanes, skipped_fmas), matching the
    exact pipeline's counter semantics for this machine."""
    if not machine.save.enabled:
        return 0, 0, 0
    if arrays.mixed and machine.save.mixed_precision_technique:
        effectual = arrays.effectual_lanes  # ML count per chain append
    else:
        effectual = int(np.count_nonzero(arrays.effectual))
    return effectual, arrays.pass_through_lanes, arrays.skipped_fmas


def _assemble(
    arrays: TraceArrays,
    machine: MachineConfig,
    cycles: float,
    breakdown: BoundBreakdown,
    engine: str,
) -> SimResult:
    core = machine.core
    effectual, pass_through, skipped = _static_counters(arrays, machine)
    vpu_cycles = breakdown.vpu * core.num_vpus
    if machine.save.enabled:
        lane_slots = effectual
        mgu_processed = arrays.fma_count
    else:
        lane_slots = arrays.fma_count * FP32_LANES
        mgu_processed = 0
    return SimResult(
        name=arrays.name,
        cycles=max(1, int(round(cycles))),
        freq_ghz=core.freq_ghz,
        uop_count=arrays.uop_count,
        fma_count=arrays.fma_count,
        vpu_ops=int(round(vpu_cycles)),
        vpu_lane_slots=lane_slots,
        effectual_lanes=effectual,
        pass_through_lanes=pass_through,
        skipped_fmas=skipped,
        stall_rob_cycles=0,
        stall_rs_cycles=0,
        mgu_processed=mgu_processed,
        l1_port_accesses=int(round(breakdown.l1 * machine.hierarchy.l1_read_ports)),
        b_cache_hit_rate=0.0,
        b_cache_reads_saved=0,
        engine=engine,
    )


def simulate_arrays(
    arrays: TraceArrays,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
    *,
    config: GemmKernelConfig | None = None,
) -> SimResult:
    """Estimate one point from its structure-of-arrays form.

    ``config`` is unused: the estimate reads everything from ``arrays``.
    It stays so that callers which pass it keep working.
    """
    validate_engine(engine)
    if engine == ENGINE_EXACT:
        raise ValueError("the exact engine needs a µop trace; use repro.core")
    from repro.fastsim.calibration import weights_for

    breakdown = bounds(arrays, machine)
    key = class_key(arrays.tile, arrays.precision, machine)
    cycles = predict_cycles(breakdown, weights_for(key))
    return _assemble(arrays, machine, cycles, breakdown, engine)


def simulate_config(
    config: GemmKernelConfig,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> SimResult:
    """Estimate one seeded kernel config without building a µop trace."""
    return simulate_arrays(TraceArrays.from_config(config), machine, engine)


def simulate_trace(
    trace: KernelTrace,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> SimResult:
    """Estimate one already-generated trace (same arrays as the config).

    Accepts any :class:`repro.kernels.stream.TraceStream` as well — the
    arrays come from the generator metadata, which both traces and
    streams carry up front.
    """
    return simulate_arrays(TraceArrays.from_trace(trace), machine, engine)


def simulate_stream(
    stream: TraceStream,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
    chunk: int = DEFAULT_CHUNK,
) -> SimResult:
    """Estimate a chunked trace stream by decoding its µops incrementally.

    Unlike :func:`simulate_trace` (which shortcuts through the
    generator metadata), this path builds the structure-of-arrays by
    walking the µop stream chunk-by-chunk
    (:meth:`TraceArrays.from_stream`) — the route for producers whose
    matrices are not carried in metadata.
    """
    return simulate_arrays(TraceArrays.from_stream(stream, chunk), machine, engine)

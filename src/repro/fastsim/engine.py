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

Each bound has one implementation, over a :class:`TraceBatch`'s leading
point axis: :func:`simulate_configs` evaluates a whole run of grid
points per numpy pass, and the single-point functions
(:func:`bounds`, :func:`simulate_arrays`, :func:`simulate_config`) are
batches of one.  Per-slot and per-chain sums are integer-valued, so the
batched sums are exact; the calibrated blend and the rounding to cycles
stay per point, in the same arithmetic as a single-point call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import CoalescingScheme, MachineConfig
from repro.core.pipeline import SimResult
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.fastsim.soa import TraceArrays, TraceBatch
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
    "config_bounds",
    "features",
    "simulate_arrays",
    "simulate_config",
    "simulate_configs",
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


# Each bound returns one value per point of the batch, or a float when
# the bound does not depend on the sparsity pattern.


def _frontend_bound(batch: TraceBatch, machine: MachineConfig) -> float:
    return batch.uop_count / machine.core.issue_width


def _slot_index(batch: TraceBatch, machine: MachineConfig) -> np.ndarray:
    """Temp slot of every (point, accumulator, lane) under rotation,
    numbered ``point * 16 + slot``: ``np.bincount`` over it sums each
    point's per-lane counts into its 16 slots."""
    offsets = [0] * batch.accumulators
    if machine.save.coalescing == CoalescingScheme.ROTATE_VERTICAL:
        # Accumulator registers are allocated row-major by the trace
        # builder, so (r, j) accumulates into register r * col_vectors
        # + j, the accumulator axis order of ``effectual``.
        offsets = [
            rotation_offset(register, machine.save.rotation_states)
            for register in range(batch.accumulators)
        ]
    slots = slot_for_lane(np.arange(FP32_LANES), np.array(offsets)[:, None])
    first = np.arange(0, FP32_LANES * len(batch), FP32_LANES)
    return np.add.outer(first, slots.ravel()).ravel()


def _chain_entries(ml_count: np.ndarray) -> np.ndarray:
    """Slot entries of each lane's ML chain over the steps on axis 1: a
    chain drains two reduction levels per entry."""
    return (ml_count.sum(axis=1, dtype=np.int64) + 1) // 2


def _vpu_bound(batch: TraceBatch, machine: MachineConfig) -> np.ndarray | float:
    core, save = machine.core, machine.save
    if not save.enabled:
        return batch.fma_count / core.num_vpus
    if save.coalescing == CoalescingScheme.NAIVE:
        # No cross-instruction combining: every non-BS-skipped VFMA is
        # a whole VPU op.
        return batch.live_fmas / core.num_vpus
    mp_chains = batch.mixed and save.mixed_precision_technique
    if save.coalescing == CoalescingScheme.HORIZONTAL:
        # Perfect compression across all 16 slots.
        if mp_chains:
            entries = _chain_entries(batch.ml_count).sum(axis=(1, 2, 3))
        else:
            entries = batch.live_lanes
        return entries / (FP32_LANES * core.num_vpus)
    # Vertical / rotate-vertical: per temp-slot demand, maximised over
    # RS-co-residency windows.  Entries in different windows can never
    # combine, so their slot demands add.
    window = max(1, min(batch.k_steps, core.rs_entries // batch.uops_per_step))
    source = batch.ml_count if mp_chains else batch.effectual
    points = len(batch)
    source = source.reshape(points, batch.k_steps, -1)
    slot_index = _slot_index(batch, machine)
    demand = []
    for start in range(0, batch.k_steps, window):
        block = source[:, start : start + window]
        if mp_chains:
            counts = _chain_entries(block)
        else:
            counts = block.sum(axis=1, dtype=np.int64)
        # Integer-valued sums, so exact in any summation order.
        per_slot = np.bincount(
            slot_index, weights=counts.ravel(), minlength=FP32_LANES * points
        ).reshape(points, FP32_LANES)
        # A VPU op consumes at most one entry per slot per cycle, and at
        # most 16 entries total — whichever is tighter.
        demand.append(
            np.maximum(per_slot.max(axis=1), per_slot.sum(axis=1) / FP32_LANES)
        )
    return sum(demand) / core.num_vpus


def _l1_bound(batch: TraceBatch, machine: MachineConfig) -> np.ndarray | float:
    save = machine.save
    loads = batch.k_steps * batch.loads_per_step
    reads_per_broadcast = (
        1
        if batch.tile.pattern == BroadcastPattern.EXPLICIT
        else batch.tile.col_vectors
    )
    total_broadcasts = batch.k_steps * batch.tile.rows * reads_per_broadcast
    kind = save.broadcast_cache if save.enabled else BroadcastCacheKind.NONE
    elements_per_line = 64 // batch.element_bytes
    lines_per_row = -(-batch.k_depth // elements_per_line)
    if kind == BroadcastCacheKind.DATA:
        # Each broadcast row is read from L1 once per resident line;
        # every further broadcast hits the B$.
        broadcast_l1 = batch.tile.rows * lines_per_row
    elif kind == BroadcastCacheKind.MASK:
        # Mask hits only elide *zero* broadcasts; non-zero ones still
        # read the L1.
        nonzero = batch.broadcast_nonzero.sum(axis=(1, 2))
        broadcast_l1 = batch.tile.rows * lines_per_row + nonzero * reads_per_broadcast
    else:
        broadcast_l1 = total_broadcasts
    return (loads + broadcast_l1) / machine.hierarchy.l1_read_ports


def _chain_bound(batch: TraceBatch, machine: MachineConfig) -> np.ndarray | float:
    save = machine.save
    latency = machine.fma_latency(batch.mixed)
    if not save.enabled:
        return float(batch.k_steps * latency)
    if batch.mixed and save.mixed_precision_technique:
        depth = _chain_entries(batch.ml_count).max(axis=(1, 2, 3))
        return depth * float(latency)
    if save.coalescing == CoalescingScheme.NAIVE or not save.lane_wise_dependence:
        # Vector-wise dependence: every non-skipped step serializes the
        # whole accumulator.
        depth = batch.effectual.any(axis=4).sum(axis=1).max(axis=(1, 2))
    else:
        # Lane-wise dependence: only effectual steps of the *same lane*
        # serialize.
        depth = batch.effectual.sum(axis=1, dtype=np.int64).max(axis=(1, 2, 3))
    return depth * float(latency)


def _bounds(batch: TraceBatch, machine: MachineConfig) -> list[BoundBreakdown]:
    """The four occupancy bounds of every point in ``batch``."""
    columns = []
    for bound in (_frontend_bound, _vpu_bound, _l1_bound, _chain_bound):
        value = bound(batch, machine)
        columns.append(
            value.tolist() if isinstance(value, np.ndarray) else [value] * len(batch)
        )
    return [BoundBreakdown(*row) for row in zip(*columns)]


def bounds(arrays: TraceArrays, machine: MachineConfig) -> BoundBreakdown:
    """Compute all four occupancy bounds for one trace/machine pair."""
    return _bounds(TraceBatch.of(arrays), machine)[0]


def config_bounds(
    configs: Sequence[GemmKernelConfig], machine: MachineConfig
) -> list[BoundBreakdown]:
    """:func:`bounds` of many seeded configs, a batch at a time."""
    return [
        breakdown
        for batch in TraceBatch.batches(configs)
        for breakdown in _bounds(batch, machine)
    ]


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
    batch: TraceBatch, machine: MachineConfig
) -> list[tuple[int, int, int]]:
    """(effectual_lanes, pass_through_lanes, skipped_fmas) per point,
    matching the exact pipeline's counter semantics for this machine."""
    if not machine.save.enabled:
        return [(0, 0, 0)] * len(batch)
    fmas = batch.fma_count
    live = batch.live_lanes.tolist()
    if batch.mixed and machine.save.mixed_precision_technique:
        effectual = batch.effectual_lanes.tolist()  # ML count per chain append
    else:
        effectual = live
    return [
        (lanes, fmas * FP32_LANES - live_lanes, fmas - live_fmas)
        for lanes, live_lanes, live_fmas in zip(
            effectual, live, batch.live_fmas.tolist()
        )
    ]


def _simulate_batch(
    batch: TraceBatch, machine: MachineConfig, engine: str
) -> list[SimResult]:
    """The estimate of every point in ``batch``."""
    from repro.fastsim.calibration import weights_for

    core, enabled = machine.core, machine.save.enabled
    weights = weights_for(class_key(batch.tile, batch.precision, machine))
    uop_count, fma_count = batch.uop_count, batch.fma_count
    return [
        SimResult(
            name=batch.name,
            cycles=max(1, int(round(predict_cycles(breakdown, weights)))),
            freq_ghz=core.freq_ghz,
            uop_count=uop_count,
            fma_count=fma_count,
            vpu_ops=int(round(breakdown.vpu * core.num_vpus)),
            vpu_lane_slots=effectual if enabled else fma_count * FP32_LANES,
            effectual_lanes=effectual,
            pass_through_lanes=pass_through,
            skipped_fmas=skipped,
            stall_rob_cycles=0,
            stall_rs_cycles=0,
            mgu_processed=fma_count if enabled else 0,
            l1_port_accesses=int(round(breakdown.l1 * machine.hierarchy.l1_read_ports)),
            b_cache_hit_rate=0.0,
            b_cache_reads_saved=0,
            engine=engine,
        )
        for breakdown, (effectual, pass_through, skipped) in zip(
            _bounds(batch, machine), _static_counters(batch, machine)
        )
    ]


def _check_fast_engine(engine: str) -> None:
    validate_engine(engine)
    if engine == ENGINE_EXACT:
        raise ValueError("the exact engine needs a µop trace; use repro.core")


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
    _check_fast_engine(engine)
    return _simulate_batch(TraceBatch.of(arrays), machine, engine)[0]


def simulate_configs(
    configs: Sequence[GemmKernelConfig],
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> list[SimResult]:
    """Estimate many seeded kernel configs, in order, without µop traces.

    Runs of consecutive configs that differ only in sparsity levels and
    seed are evaluated as one numpy pass each (see
    :meth:`TraceBatch.batches`); every result is bit-identical to
    :func:`simulate_config` on that config alone.  Raises
    :class:`repro.fastsim.soa.UnsupportedConfigError` for a config that
    is not a :class:`GemmKernelConfig`.
    """
    _check_fast_engine(engine)
    return [
        result
        for batch in TraceBatch.batches(configs)
        for result in _simulate_batch(batch, machine, engine)
    ]


def simulate_config(
    config: GemmKernelConfig,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> SimResult:
    """Estimate one seeded kernel config without building a µop trace:
    :func:`simulate_configs` on a batch of one."""
    _check_fast_engine(engine)
    (batch,) = TraceBatch.batches([config])
    return _simulate_batch(batch, machine, engine)[0]


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

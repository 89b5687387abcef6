"""Structure-of-arrays view of a GEMM inner-loop kernel.

The exact pipeline walks a list of µop *objects*; everything the fast
engine needs from that stream is a handful of dense numpy tensors:

* the non-zero masks of the two input matrices (``a_nz``, ``b_nz``),
* the per-(step, row, column-vector, lane) **effectual tensor** — the
  vectorised Effectual Lane Mask of every VFMA in the trace (a lane is
  effectual iff both multiplicand elements are non-zero; mixed
  precision is per accumulator lane over its two multiplicand pairs).
  :func:`repro.core.save.elm.compute_elm` also counts a lane with a
  non-finite multiplicand as effectual; these masks come from finite
  draws, where the two rules agree,
* per-µop-class counts (loads, broadcasts, kmovs, FMAs, scalar
  overhead) for front-end accounting.

:meth:`TraceBatch.batches` rebuilds the masks of many configs by
replaying the trace builder's seeded RNG calls, so the arrays match a
generated trace bit-for-bit *without* materialising a single µop
object, stacked on a leading point axis; :meth:`TraceArrays.from_config`
is a batch of one.
:meth:`TraceArrays.from_trace` reads the same matrices out of an
already-built :class:`repro.kernels.trace.KernelTrace`, and
:meth:`TraceArrays.from_stream` appends chunk-by-chunk from any
:class:`repro.kernels.stream.TraceStream` — decoding the µops against
the stream's memory image — so the structure-of-arrays can be built
without a materialized µop list in memory.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from repro.isa.datatypes import BF16_LANES, FP32_LANES
from repro.isa.uops import UopKind
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.stream import TraceStream
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace
from repro.sparsity.generators import operand_masks

__all__ = ["TraceArrays", "TraceBatch", "UnsupportedConfigError", "check_fast_config"]

#: FMA provenance tag written by the GEMM generators:
#: ``k{step}r{row}c{col_vector}``.
_FMA_TAG = re.compile(r"k(\d+)r(\d+)c(\d+)")

#: Points per batch.  Bounds the working set of one numpy pass: whole
#: 2048-point sweep batches evaluated at once doubled a fast sweep's
#: peak RSS, while per-point cost is flat from 64 points up.
_MAX_BATCH_POINTS = 128

#: The config fields every point of a batch shares: all but the
#: sparsity levels and the seed.
_shared_fields = attrgetter(
    *(
        field.name
        for field in fields(GemmKernelConfig)
        if field.name not in ("broadcast_sparsity", "nonbroadcast_sparsity", "seed")
    )
)

_ARRAY_FIELDS = ("a_nz", "b_nz", "effectual", "ml_count", "broadcast_nonzero")


class UnsupportedConfigError(ValueError):
    """A kernel config the fast tier has no model or calibration for."""


def check_fast_config(config: object) -> GemmKernelConfig:
    """``config`` if the fast tier can estimate it, else raise.

    The fast tier replays the unstructured generator of
    :class:`GemmKernelConfig` and is calibrated on those kernels only;
    an N:M config would silently get the wrong operand pattern.
    """
    if not isinstance(config, GemmKernelConfig):
        raise UnsupportedConfigError(
            f"the fast tier models unstructured GEMM kernels only; "
            f"{getattr(config, 'name', config)!r} is a "
            f"{type(config).__name__}, which has no fast-tier calibration "
            "(use --engine exact)"
        )
    return config


@dataclass(frozen=True)
class _Layout:
    """The µop structure of a kernel trace."""

    name: str
    tile: RegisterTile
    k_steps: int
    precision: Precision
    use_write_masks: bool
    scalar_overhead_per_step: int

    @property
    def mixed(self) -> bool:
        return self.precision == Precision.MIXED

    @property
    def element_bytes(self) -> int:
        return 2 if self.mixed else 4

    @property
    def k_depth(self) -> int:
        return self.k_steps * (2 if self.mixed else 1)

    @property
    def accumulators(self) -> int:
        return self.tile.accumulators

    @property
    def fma_count(self) -> int:
        """VFMAs in the trace (one per step per accumulator)."""
        return self.k_steps * self.accumulators

    @property
    def loads_per_step(self) -> int:
        return self.tile.col_vectors

    @property
    def uops_per_step(self) -> int:
        """Allocated µops per reduction step."""
        count = (
            self.scalar_overhead_per_step
            + self.loads_per_step
            + self.accumulators
        )
        if self.tile.pattern == BroadcastPattern.EXPLICIT:
            count += self.tile.rows  # VBCAST µops
        if self.use_write_masks:
            count += self.tile.col_vectors  # KMOVs
        return count

    @property
    def uop_count(self) -> int:
        """Total µops: VZEROs + K steps + accumulator VSTOREs."""
        return 2 * self.accumulators + self.k_steps * self.uops_per_step


@dataclass(frozen=True)
class _Arrays(_Layout):
    a_nz: np.ndarray
    b_nz: np.ndarray
    effectual: np.ndarray
    ml_count: np.ndarray
    broadcast_nonzero: np.ndarray

    def _reindexed(self, cls: type, index):
        """``cls`` with this layout and every array indexed by ``index``."""
        return cls(
            **{field.name: getattr(self, field.name) for field in fields(_Layout)},
            **{name: getattr(self, name)[index] for name in _ARRAY_FIELDS},
        )


@dataclass(frozen=True)
class TraceArrays(_Arrays):
    """Dense-array equivalent of one generated kernel trace.

    ``a_nz`` is bool ``(rows, k_depth)`` and ``b_nz`` bool ``(k_depth,
    col_vectors * 16)``: the operands' non-zero masks.  ``effectual``
    has shape ``(k_steps, rows, col_vectors, 16)`` and is True where the
    VFMA of reduction step ``k`` on accumulator ``(row, j)`` does real
    work in accumulator lane ``l``.  ``ml_count`` (int8, same shape) is
    the per-lane effectual multiplicand-lane count — identical to
    ``effectual`` for FP32, and in ``{0, 1, 2}`` for mixed precision
    (two reduction levels per accumulator lane).  ``broadcast_nonzero``
    is bool ``(k_steps, rows)``.
    """

    @classmethod
    def from_config(cls, config: GemmKernelConfig) -> TraceArrays:
        """Build the arrays straight from a seeded trace config.

        A batch of one: see :meth:`TraceBatch.batches`.
        """
        (batch,) = TraceBatch.batches([config])
        return batch[0]

    @classmethod
    def from_trace(cls, trace: KernelTrace) -> TraceArrays:
        """Build the arrays from an already-generated trace's metadata."""
        meta = trace.meta
        # Exact-zero operand test — same sparsity-detection semantics as
        # the hardware model (generators guarantee zeros are exact).
        return TraceBatch.from_masks(
            _layout_of(trace.name, meta),
            (np.asarray(meta["a_matrix"]) != 0)[None],
            (np.asarray(meta["b_matrix"]) != 0)[None],
        )[0]

    @classmethod
    def from_stream(
        cls, stream: TraceStream, chunk: int = DEFAULT_CHUNK
    ) -> TraceArrays:
        """Append into the structure-of-arrays chunk-by-chunk.

        Decodes the µop stream itself (not the generator's metadata
        matrices): VLOAD/VBCAST µops establish the register→address map,
        and each VFMA's ``k{step}r{row}c{j}`` tag plus its operand
        addresses — resolved against the stream's memory image — yield
        the operand elements it multiplies.  Only one chunk of µops is
        resident at a time, so arbitrarily long traces build in
        O(arrays) memory.
        """
        layout = _layout_of(stream.name, stream.meta)
        tile, mixed = layout.tile, layout.mixed
        elem_bytes = layout.element_bytes
        lanes = BF16_LANES if mixed else FP32_LANES
        a_nz = np.zeros((tile.rows, layout.k_depth), dtype=bool)
        b_nz = np.zeros((layout.k_depth, tile.col_vectors * FP32_LANES), dtype=bool)

        memory = stream.memory
        reg_addr: dict[int, int] = {}
        for block in stream.iter_uops(chunk):
            for uop in block:
                kind = uop.kind
                if kind in (UopKind.VLOAD, UopKind.VBCAST):
                    reg_addr[uop.dst] = uop.src_a.addr
                    continue
                if not uop.is_fma():
                    continue
                tag = _FMA_TAG.fullmatch(uop.tag or "")
                if tag is None:
                    raise ValueError(
                        f"FMA µop without a k/r/c provenance tag: {uop.tag!r}"
                    )
                k_i, r_i, j_i = (int(g) for g in tag.groups())
                mem_op = uop.memory_operand()
                a_addr = mem_op.addr if mem_op is not None else reg_addr[uop.src_a.reg]
                b_vec = memory.read_vector(reg_addr[uop.src_b.reg], lanes, elem_bytes)
                cols = slice(j_i * FP32_LANES, (j_i + 1) * FP32_LANES)
                if mixed:
                    # VNNI layout: even lanes are level 2k, odd 2k + 1.
                    for pair in (0, 1):
                        level = 2 * k_i + pair
                        a_nz[r_i, level] = memory.read(a_addr + pair * elem_bytes) != 0
                        b_nz[level, cols] = b_vec[pair::2] != 0
                else:
                    a_nz[r_i, k_i] = memory.read(a_addr) != 0
                    b_nz[k_i, cols] = b_vec != 0
        return TraceBatch.from_masks(layout, a_nz[None], b_nz[None])[0]

    # -- counters ----------------------------------------------------------

    @property
    def skipped_fmas(self) -> int:
        """VFMAs whose whole ELM is zero (BS-skippable)."""
        return self.fma_count - int(TraceBatch.of(self).live_fmas[0])

    @property
    def effectual_lanes(self) -> int:
        """Total effectual multiplicand work items across the trace."""
        return int(TraceBatch.of(self).effectual_lanes[0])

    @property
    def pass_through_lanes(self) -> int:
        """Accumulator lanes that pass through with no VPU work."""
        return self.fma_count * FP32_LANES - int(TraceBatch.of(self).live_lanes[0])


def _layout_of(name: str, meta: dict) -> _Layout:
    """The layout a generated trace's metadata describes."""
    return _Layout(
        name=name,
        tile=meta["tile"],
        k_steps=int(meta["k_steps"]),
        precision=meta["precision"],
        use_write_masks=bool(meta.get("use_write_masks", False)),
        scalar_overhead_per_step=int(meta.get("scalar_overhead_per_step", 2)),
    )


@dataclass(frozen=True)
class TraceBatch(_Arrays):
    """The :class:`TraceArrays` of points that share one layout, stacked.

    Every array has a leading point axis; ``batch[i]`` is point ``i``'s
    :class:`TraceArrays`.  Each counter property holds one value per
    point.
    """

    @classmethod
    def batches(cls, configs: Sequence[GemmKernelConfig]) -> Iterator[TraceBatch]:
        """Batches of ``configs``, in order, each one numpy pass.

        A batch is a run of consecutive configs that differ only in
        sparsity levels and seed, capped at :data:`_MAX_BATCH_POINTS`.
        Its masks replay the trace builder's RNG calls through
        :func:`repro.sparsity.generators.operand_masks` (one generator
        per seed, A first, then B), so the non-zero structure is
        identical to the trace the exact engine would simulate.

        Raises :class:`UnsupportedConfigError` for any config that is
        not a :class:`GemmKernelConfig`.
        """
        run: list[GemmKernelConfig] = []
        for config in configs:
            key = _shared_fields(check_fast_config(config))
            if run and (key != _shared_fields(run[0]) or len(run) == _MAX_BATCH_POINTS):
                yield cls._from_configs(run)
                run = []
            run.append(config)
        if run:
            yield cls._from_configs(run)

    @classmethod
    def _from_configs(cls, configs: list[GemmKernelConfig]) -> TraceBatch:
        first = configs[0]
        tile, k_depth = first.tile, first.k_depth
        a_nz, b_nz = operand_masks(
            (tile.rows, k_depth),
            (k_depth, tile.col_vectors * FP32_LANES),
            [(c.seed, c.broadcast_sparsity, c.nonbroadcast_sparsity) for c in configs],
        )
        return cls.from_masks(first, a_nz, b_nz)

    @classmethod
    def from_masks(cls, layout, a_nz: np.ndarray, b_nz: np.ndarray) -> TraceBatch:
        """The arrays of stacked operand masks, laid out as ``layout``
        (a :class:`GemmKernelConfig` or a trace's layout)."""
        tile = layout.tile
        points = len(a_nz)
        rows, cv = tile.rows, tile.col_vectors
        k = layout.k_steps
        a_steps = a_nz.transpose(0, 2, 1)  # [P, k_depth, r]
        if layout.precision == Precision.MIXED:
            # ELM semantics per accumulator lane over pairs p in (0, 1):
            # pair p effectual iff A[r, 2k+p] != 0 and B[2k+p, j*16+l] != 0.
            a_pair = a_steps.reshape(points, k, 2, rows)  # [P, k, p, r]
            b_pair = b_nz.reshape(points, k, 2, cv, FP32_LANES)  # [P, k, p, j, l]
            even, odd = (
                a_pair[:, :, p, :, None, None] & b_pair[:, :, p, None, :, :]
                for p in (0, 1)
            )  # [P, k, r, j, l]
            ml_count = even.view(np.int8) + odd.view(np.int8)
            effectual = even | odd
            broadcast_nonzero = a_pair[:, :, 0] | a_pair[:, :, 1]  # [P, k, r]
        else:
            b_steps = b_nz.reshape(points, k, cv, FP32_LANES)  # [P, k, j, l]
            effectual = a_steps[:, :, :, None, None] & b_steps[:, :, None, :, :]
            ml_count = effectual.view(np.int8)
            broadcast_nonzero = a_steps
        return cls(
            name=layout.name,
            tile=tile,
            k_steps=k,
            precision=layout.precision,
            use_write_masks=layout.use_write_masks,
            scalar_overhead_per_step=layout.scalar_overhead_per_step,
            a_nz=a_nz,
            b_nz=b_nz,
            effectual=effectual,
            ml_count=ml_count,
            broadcast_nonzero=broadcast_nonzero,
        )

    @classmethod
    def of(cls, arrays: TraceArrays) -> TraceBatch:
        """One point's arrays as a batch of one."""
        return arrays._reindexed(cls, None)

    def __len__(self) -> int:
        return len(self.effectual)

    def __getitem__(self, index: int) -> TraceArrays:
        return self._reindexed(TraceArrays, index)

    @property
    def live_fmas(self) -> np.ndarray:
        """VFMAs with at least one effectual lane (not BS-skippable)."""
        return self.effectual.any(axis=4).sum(axis=(1, 2, 3))

    @property
    def effectual_lanes(self) -> np.ndarray:
        """Total effectual multiplicand work items across the trace."""
        return self.ml_count.sum(axis=(1, 2, 3, 4), dtype=np.int64)

    @property
    def live_lanes(self) -> np.ndarray:
        """Accumulator lanes with VPU work (``effectual`` set)."""
        return self.effectual.sum(axis=(1, 2, 3, 4))

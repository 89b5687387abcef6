"""The :class:`KernelTrace` container produced by the generators.

A trace bundles the µop stream with the functional memory image it runs
against, the address regions of the matrices, and summary statistics.
Both the reference executor and the pipeline consume the same object.

Since the streaming redesign, consumers should treat a trace as a
*chunked µop stream* (:meth:`KernelTrace.iter_uops`) rather than a
materialized list: the pipeline, the reference executor and the fast
engine all pull chunks incrementally, so out-of-core sweeps never hold
more than one chunk of µops per in-flight point.  Call
:meth:`KernelTrace.materialize` when a plain list is genuinely needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from collections.abc import Iterable, Iterator

import numpy as np

from repro.isa.registers import ArchState, Memory
from repro.isa.uops import Uop, UopKind
from repro.memory.address import Region

#: Default µop-chunk size for :meth:`KernelTrace.iter_uops` and the
#: generator-backed streams.  Large enough to amortise per-chunk
#: bookkeeping, small enough that an in-flight point holds ~one ROB's
#: worth of µops rather than the whole trace.
DEFAULT_CHUNK = 1024


@dataclass
class TraceStats:
    """µop-count breakdown of a trace.

    For a streaming trace the stats object is updated *incrementally*
    as chunks are yielded — after a full pass it equals
    :func:`count_uops` over the materialized list.
    """

    fmas: int = 0
    vector_loads: int = 0
    broadcasts: int = 0
    embedded_broadcasts: int = 0
    stores: int = 0
    scalars: int = 0
    kmovs: int = 0
    vzeros: int = 0

    @property
    def total(self) -> int:
        return (
            self.fmas
            + self.vector_loads
            + self.broadcasts
            + self.stores
            + self.scalars
            + self.kmovs
            + self.vzeros
        )

    def add(self, uop: Uop) -> None:
        """Tally one µop into this breakdown."""
        if uop.is_fma():
            self.fmas += 1
            mem = uop.memory_operand()
            if mem is not None and mem.broadcast:
                self.embedded_broadcasts += 1
        elif uop.kind == UopKind.VLOAD:
            self.vector_loads += 1
        elif uop.kind == UopKind.VBCAST:
            self.broadcasts += 1
        elif uop.kind == UopKind.VSTORE:
            self.stores += 1
        elif uop.kind == UopKind.SCALAR:
            self.scalars += 1
        elif uop.kind == UopKind.KMOV:
            self.kmovs += 1
        elif uop.kind == UopKind.VZERO:
            self.vzeros += 1


def count_uops(trace: Iterable[Uop]) -> TraceStats:
    """Tally any µop iterable into a :class:`TraceStats`."""
    stats = TraceStats()
    for uop in trace:
        stats.add(uop)
    return stats


class KernelTrace:
    """A generated kernel: µops + data + layout + metadata.

    Attributes:
        name: kernel label.
        memory: functional memory image holding A, B (and C space).
        regions: matrix name → address region.
        stats: µop counts.
        meta: generator-specific metadata (tile geometry, sparsity
            levels, reduction depth, ...).

    The µop list itself is reached through :meth:`iter_uops` (chunked,
    the streaming contract) or :meth:`materialize` (the full list).
    """

    def __init__(
        self,
        name: str,
        uops: list[Uop],
        memory: Memory,
        regions: dict[str, Region],
        stats: TraceStats,
        meta: Optional[dict[str, object]] = None,
    ) -> None:
        self.name = name
        self._uops = uops
        self.memory = memory
        self.regions = regions
        self.stats = stats
        self.meta: dict[str, object] = meta if meta is not None else {}

    def __len__(self) -> int:
        return len(self._uops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelTrace(name={self.name!r}, uops={len(self._uops)})"

    def materialize(self) -> list[Uop]:
        """The full µop list in program order (already resident)."""
        return self._uops

    def iter_uops(self, chunk: int = DEFAULT_CHUNK) -> Iterator[list[Uop]]:
        """Yield the µop list in program-order chunks of ``<= chunk``.

        This is the :class:`repro.kernels.stream.TraceStream` contract;
        a materialized trace serves it with zero-copy slices, so
        consumers written against streams work unchanged on traces.
        """
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        uops = self._uops
        for start in range(0, len(uops), chunk):
            yield uops[start : start + chunk]

    def fresh_state(self) -> ArchState:
        """An architectural state over a *copy* of the memory image.

        Each consumer (reference run, pipeline run) gets its own memory
        so stores from one run cannot leak into another.
        """
        clone = Memory()
        for addr, value in self.memory.snapshot().items():
            clone.write(addr, value)
        return ArchState(clone)

    def reference_result(self) -> ArchState:
        """Run the in-order reference executor over the trace."""
        # Imported here: semantics imports nothing from this module, but
        # keeping the import local preserves the historical layering.
        from repro.isa.semantics import execute_trace

        return execute_trace(self._uops, self.fresh_state())

    def result_matrix(self, state: ArchState) -> np.ndarray:
        """Extract the stored C tile from a finished state.

        Requires the generator to have recorded ``c_rows`` /
        ``c_cols`` in :attr:`meta`.
        """
        rows = int(self.meta["c_rows"])
        cols = int(self.meta["c_cols"])
        region = self.regions["C"]
        out = np.zeros((rows, cols), dtype=np.float32)
        for row in range(rows):
            base = region.base + row * cols * 4
            out[row] = state.memory.read_vector(base, cols, 4)
        return out

"""Mixed-precision accumulator-chain compression (Sec. V).

For VDPBF16-style µops, two BF16 multiplicand lanes (MLs) map to one
FP32 accumulator lane (AL).  Plain vertical coalescing can only skip an
AL when *both* its MLs are ineffectual, exploiting just the square of
the sparsity.  SAVE instead horizontally compresses effectual MLs from
VFMAs *sharing an accumulator*: each VPU AL slot processes up to two
MLs drawn in program order from the accumulator chain, preserving the
accumulation order (Fig. 10b) and therefore FP determinism.

:class:`ChainLane` tracks one (accumulator chain, AL lane) pair: the
FIFO of pending effectual MLs, the forwarded partial accumulator value,
and the busy state that serialises chain ops (the partial result of one
VPU op is forwarded as the accumulation base of the next, Fig. 11).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.core.dynuop import DynUop

#: One pending multiplicand-lane: (owning µop, ML index within the AL).
MlRef = tuple[DynUop, int]


class ChainLane:
    """Pending-ML queue and forwarding state for one (chain, lane)."""

    def __init__(self, root: DynUop, lane: int, slot: int) -> None:
        #: The chain root's sequence number (not the root itself, which
        #: holds this record: no reference cycle).
        self.root_seq = root.seq
        self.lane = lane
        self.slot = slot
        self.queue: deque[MlRef] = deque()
        #: Forwarded partial accumulator; None until the chain's initial
        #: accumulator value is available.
        self.acc_value: Optional[np.float32] = None
        self.busy = False
        #: True while the chain lane sits in a scheduler queue.
        self.enqueued = False

    def append(self, dyn: DynUop, ml_index: int) -> None:
        """Append one effectual ML (must be called in program order)."""
        self.queue.append((dyn, ml_index))

    def ready(self) -> bool:
        """Can a VPU op be issued for this chain lane this cycle?"""
        return bool(self.queue) and not self.busy and self.acc_value is not None

    def head_seq(self) -> int:
        """Program-order priority of the oldest pending ML."""
        return self.queue[0][0].seq

    def take(self, max_mls: int = 2) -> list[MlRef]:
        """Dequeue up to ``max_mls`` MLs for one VPU AL slot."""
        taken: list[MlRef] = []
        while self.queue and len(taken) < max_mls:
            taken.append(self.queue.popleft())
        return taken


class ChainManager:
    """Creates accumulator-chain lanes; each root keeps its own 16."""

    def __init__(self) -> None:
        #: Chain-lane records ever created (observability).
        self.created = 0
        #: Effectual MLs appended across all chain lanes (observability).
        self.mls_appended = 0

    def lane(self, root: DynUop, lane: int, slot: int) -> ChainLane:
        """Get or create the chain-lane record."""
        lanes = root.chain_lanes
        if lanes is None:
            lanes = root.chain_lanes = [None] * 16
        chain = lanes[lane]
        if chain is None:
            chain = lanes[lane] = ChainLane(root, lane, slot)
            self.created += 1
        return chain

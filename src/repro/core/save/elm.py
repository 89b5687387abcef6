"""Effectual Lane Mask generation (Sec. III, Fig. 4).

A VFMA's lane is effectual iff both multiplicand elements are non-zero
and the write-mask bit (if any) is set.  For mixed-precision VFMAs the
mask is per *accumulator lane*: an AL is effectual iff at least one of
its two multiplicand-lane pairs is effectual (Sec. V).

The paper's rule tests for non-zero only.  A lane whose multiplicand is
inf or NaN is also effectual here: ``0 * inf`` is NaN, so skipping it
would break software transparency.  For finite operands the two rules
agree.

MGUs are simple and replicated to match the issue width, so their
throughput is never the bottleneck — but we model the per-cycle budget
anyway so the claim is checkable (and ablatable).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.dynuop import DynUop

#: Weights packing 16 per-lane booleans into a lane mask.
_LANE_WEIGHTS = 1 << np.arange(16, dtype=np.int64)
#: Columns pack a mixed µop's 32 ML booleans into the ML 0 / ML 1 masks.
_ML_WEIGHTS = np.zeros((32, 2), dtype=np.int64)
_ML_WEIGHTS[0::2, 0] = _LANE_WEIGHTS
_ML_WEIGHTS[1::2, 1] = _LANE_WEIGHTS


def compute_elm(dyn: DynUop) -> tuple[int, int, int, np.ndarray]:
    """Compute the ELM with one vectorised compare over the µop's lanes.

    Requires the µop's multiplicands and write mask to be resolved.

    Returns:
        ``(elm, ml0, ml1, prod)``: ``elm`` has one bit per accumulator
        lane; for mixed µops ``ml0`` / ``ml1`` hold the accumulator
        lanes whose multiplicand lane 0 / 1 is effectual (both 0 for
        FP32); ``prod`` is the float32 product vector ``a * b`` the VPU
        accumulates.  Write-masked lanes are clear in every mask.
    """
    if not dyn.multiplicands_ready():
        raise RuntimeError("ELM requested before multiplicands resolved")
    a = dyn.a_value
    b = dyn.b_value
    prod = a * b
    # Both non-zero, or a non-finite operand: a zero lane's product is
    # NaN exactly when the other operand is inf or NaN.
    effectual = np.logical_and(a, b) | np.isnan(prod)
    wm = dyn.write_mask()
    if not dyn.mixed:
        return int(effectual @ _LANE_WEIGHTS) & wm, 0, 0, prod
    ml0, ml1 = (effectual @ _ML_WEIGHTS).tolist()
    ml0 &= wm
    ml1 &= wm
    return ml0 | ml1, ml0, ml1, prod


class MguStage:
    """FIFO of VFMAs awaiting ELM generation, with a per-cycle budget."""

    def __init__(self, mgus_per_cycle: int) -> None:
        if mgus_per_cycle <= 0:
            raise ValueError("mgus_per_cycle must be positive")
        self.mgus_per_cycle = mgus_per_cycle
        self._queue: deque[DynUop] = deque()
        self.processed = 0
        #: Peak backlog of VFMAs awaiting ELM generation (observability
        #: check of the paper's "MGUs are never the bottleneck" claim).
        self.peak_queue = 0

    def enqueue(self, dyn: DynUop) -> None:
        """Queue a VFMA whose multiplicands just became ready."""
        self._queue.append(dyn)
        if len(self._queue) > self.peak_queue:
            self.peak_queue = len(self._queue)

    def step(self) -> list[DynUop]:
        """Process up to the per-cycle budget; returns activated µops."""
        activated: list[DynUop] = []
        for _ in range(min(self.mgus_per_cycle, len(self._queue))):
            dyn = self._queue.popleft()
            dyn.elm, dyn.ml0, dyn.ml1, dyn.prod = compute_elm(dyn)
            self.processed += 1
            activated.append(dyn)
        return activated

    def __len__(self) -> int:
        return len(self._queue)

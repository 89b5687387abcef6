"""Dynamic µop state for the out-of-order pipeline.

A :class:`DynUop` wraps one trace µop with everything the pipeline
tracks at run time: renamed source producers, resolved operand values,
the Effectual Lane Mask, per-lane completion, and consumer links for
wake-up.  Values are carried so the pipeline *functionally executes*
the trace in its own (SAVE-reordered) schedule — which is what the
software-transparency property tests compare against the in-order
reference.

Lane sets are 16-bit integer masks throughout (bit ``l`` is lane
``l``); :func:`lanes_of` and :func:`popcount` read them through
per-byte tables.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.uops import Uop, UopKind

#: Consumer roles for wake-up routing.
ROLE_A = "a"
ROLE_B = "b"
ROLE_ACC = "acc"
ROLE_MASK = "mask"
ROLE_STORE = "store"

_BYTE_LANES = tuple(
    tuple(lane for lane in range(8) if byte >> lane & 1) for byte in range(256)
)
_HIGH_LANES = tuple(tuple(lane + 8 for lane in lanes) for lanes in _BYTE_LANES)
_BYTE_POPCOUNT = bytes(len(lanes) for lanes in _BYTE_LANES)


def lanes_of(mask: int) -> tuple[int, ...]:
    """The set lanes of a 16-bit lane mask, ascending."""
    return _BYTE_LANES[mask & 255] + _HIGH_LANES[mask >> 8]


def popcount(mask: int) -> int:
    """Set bits of a 16-bit lane mask (``int.bit_count`` is 3.10+)."""
    return _BYTE_POPCOUNT[mask & 255] + _BYTE_POPCOUNT[mask >> 8]


class DynUop:
    """One in-flight µop."""

    __slots__ = (
        "uop",
        "seq",
        "is_fma",
        "mixed",
        # Source producers (DynUop) or immediate values.
        "acc_src",
        "acc_init",
        "a_src",
        "a_value",
        "b_src",
        "b_value",
        "mask_src",
        "mask_bits",
        "mem_request",
        # SAVE state.
        "elm",
        "ml0",
        "ml1",
        "ml_pending",
        "prod",
        "chain_lanes",
        "rotation",
        "active",
        "appended",
        "mgu_queued",
        "baseline_queued",
        "chain_root",
        "queued_lanes",
        "in_cw",
        # Per-lane progress.
        "out",
        "lanes_done_mask",
        "lanes_dispatched_mask",
        "full_mask",
        # Bookkeeping.
        "consumers",
        "completed",
        "retired",
        "rs_freed",
        "alloc_cycle",
        "activate_cycle",
        "complete_cycle",
    )

    def __init__(self, uop: Uop, seq: int, lanes: int = 16) -> None:
        self.uop = uop
        self.seq = seq
        self.is_fma = uop.is_fma()
        self.mixed = uop.kind == UopKind.VDPBF16

        self.acc_src: Optional["DynUop"] = None
        self.acc_init: Optional[np.ndarray] = None
        self.a_src: Optional["DynUop"] = None
        self.a_value: Optional[np.ndarray] = None
        self.b_src: Optional["DynUop"] = None
        self.b_value: Optional[np.ndarray] = None
        self.mask_src: Optional["DynUop"] = None
        self.mask_bits: Optional[int] = None
        self.mem_request = None

        self.elm: Optional[int] = None
        #: Mixed: accumulator lanes whose multiplicand lane 0 / 1 is
        #: effectual (``elm == ml0 | ml1``); 0 for FP32.
        self.ml0 = 0
        self.ml1 = 0
        #: Mixed technique: MLs appended but not yet processed, bit
        #: ``2 * lane + p``.
        self.ml_pending = 0
        #: Per-element float32 products ``a * b``, formed at ELM time.
        self.prod: Optional[np.ndarray] = None
        #: Chain root only: its 16 chain lanes (mixed technique).
        self.chain_lanes: Optional[list] = None
        self.rotation = 0
        self.active = False  # operands + ELM ready, participates in CW
        self.appended = False  # mixed technique: MLs appended to chain
        self.mgu_queued = False
        self.baseline_queued = False
        self.chain_root: Optional["DynUop"] = None
        #: Effectual lanes currently sitting in scheduler queues
        #: (combination-window gauge bookkeeping).
        self.queued_lanes = 0
        self.in_cw = False

        self.out: Optional[np.ndarray] = None
        self.lanes_done_mask = 0
        self.lanes_dispatched_mask = 0
        self.full_mask = (1 << lanes) - 1

        self.consumers: list[tuple["DynUop", str]] = []
        self.completed = False
        self.retired = False
        self.rs_freed = False
        self.alloc_cycle = -1
        #: Cycle the ELM became ready (µop entered the CW); -1 if never.
        self.activate_cycle = -1
        self.complete_cycle = -1

    # ------------------------------------------------------------------
    # Operand readiness
    # ------------------------------------------------------------------

    def multiplicands_ready(self) -> bool:
        """A, B and write mask resolved (prerequisite for the MGU)."""
        return (
            self.a_value is not None
            and self.b_value is not None
            and (self.uop.wmask is None or self.mask_bits is not None)
        )

    def acc_lane_available(self, lane: int) -> bool:
        """Is the accumulator input for ``lane`` available?"""
        if self.acc_src is None:
            return True
        return bool(self.acc_src.lanes_done_mask & (1 << lane))

    def acc_fully_available(self) -> bool:
        """Vector-wise accumulator availability."""
        return self.acc_src is None or self.acc_src.completed

    def acc_lane_value(self, lane: int) -> np.float32:
        """Accumulator input value for ``lane`` (must be available)."""
        if self.acc_src is None:
            return np.float32(self.acc_init[lane])
        return np.float32(self.acc_src.out[lane])

    # ------------------------------------------------------------------
    # Lane progress
    # ------------------------------------------------------------------

    def all_lanes_dispatched(self) -> bool:
        return self.lanes_dispatched_mask == self.full_mask

    def mark_lanes_done(self, mask: int) -> bool:
        """Record finished lanes (values already in :attr:`out`).

        Returns True if the µop just completed.
        """
        self.lanes_done_mask |= mask
        if self.lanes_done_mask == self.full_mask and not self.completed:
            self.completed = True
            return True
        return False

    def set_output(self, value: np.ndarray) -> None:
        """Whole-vector completion (loads, baseline FMAs, ...)."""
        self.out = np.asarray(value, dtype=np.float32).copy()
        self.lanes_done_mask = self.full_mask
        self.lanes_dispatched_mask = self.full_mask
        self.completed = True

    def write_mask(self) -> int:
        """Effective write mask bits (all-ones when unmasked)."""
        if self.uop.wmask is None:
            return self.full_mask
        return self.mask_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DynUop #{self.seq} {self.uop.kind.name} done={self.completed}>"

"""VPU operations: temp assembly records and result computation.

A :class:`TempOp` is one issued VPU operation — either a whole VFMA
(baseline), a set of coalesced ``(µop, lane)`` entries (SAVE vertical /
rotate-vertical / horizontal), or a mixed-precision chain op processing
up to two MLs per accumulator-lane slot.

Results are formed as :func:`repro.isa.semantics.mac` forms them: a
float32 product, then a float32 add, two roundings.  The products are
one elementwise ``a * b`` per µop, the same IEEE float32 multiply per
element, so SAVE schedules that preserve per-lane program order produce
bit-identical architectural results.
"""

from __future__ import annotations

from enum import Enum, auto

import numpy as np

from repro.core.dynuop import DynUop, lanes_of
from repro.core.save.mixed import ChainLane, MlRef
from repro.isa.datatypes import FP32_LANES


class TempOpKind(Enum):
    """What an issued VPU operation carries."""

    WHOLE = auto()  # baseline: one complete VFMA
    LANES = auto()  # coalesced single lanes from multiple VFMAs
    CHAIN = auto()  # mixed-precision chain slots (ML pairs)


class TempOp:
    """One VPU operation in flight.

    A plain ``__slots__`` class (not a dataclass): the scheduler builds
    one per VPU per busy cycle, so construction cost is hot-loop cost.
    """

    __slots__ = ("kind", "issue_cycle", "latency", "whole", "lane_entries",
                 "chain_entries")

    def __init__(
        self,
        kind: TempOpKind,
        issue_cycle: int,
        latency: int,
        whole: DynUop = None,
    ) -> None:
        self.kind = kind
        self.issue_cycle = issue_cycle
        self.latency = latency
        #: WHOLE: the µop.
        self.whole = whole
        #: LANES: (µop, lane) pairs.
        self.lane_entries: list[tuple[DynUop, int]] = []
        #: CHAIN: (chain lane, MLs taken, acc base at issue) triples.
        self.chain_entries: list[tuple[ChainLane, list[MlRef], np.float32]] = []

    @property
    def complete_cycle(self) -> int:
        return self.issue_cycle + self.latency

    def is_empty(self) -> bool:
        """True if nothing was assembled into this op."""
        if self.kind == TempOpKind.WHOLE:
            return self.whole is None
        if self.kind == TempOpKind.LANES:
            return not self.lane_entries
        return not self.chain_entries

    def lane_count(self) -> int:
        """Occupied temp slots (VPU lane utilisation accounting)."""
        if self.kind == TempOpKind.WHOLE:
            return FP32_LANES
        if self.kind == TempOpKind.LANES:
            return len(self.lane_entries)
        return len(self.chain_entries)

    def uop_count(self) -> int:
        """Distinct µops contributing to this op (coalescing degree)."""
        if self.kind == TempOpKind.WHOLE:
            return 1
        if self.kind == TempOpKind.LANES:
            return len({dyn.seq for dyn, _lane in self.lane_entries})
        return len(
            {dyn.seq for _chain, mls, _acc in self.chain_entries for dyn, _p in mls}
        )

    def describe(self) -> dict:
        """Flat summary for ``issue`` trace events."""
        return {
            "kind": self.kind.name.lower(),
            "lanes": self.lane_count(),
            "uops": self.uop_count(),
            "latency": self.latency,
        }


def compute_whole(dyn: DynUop) -> np.ndarray:
    """Architectural result of a whole VFMA (baseline issue)."""
    acc = dyn.acc_init if dyn.acc_src is None else dyn.acc_src.out
    prod = dyn.a_value * dyn.b_value
    if dyn.mixed:
        out = acc + prod[0::2] + prod[1::2]
    else:
        out = acc + prod
    for lane in lanes_of(~dyn.write_mask() & dyn.full_mask):
        out[lane] = acc[lane]
    return out


def compute_lane(dyn: DynUop, lane: int) -> np.float32:
    """Architectural result of one coalesced effectual lane.

    FP32: a single MAC.  Mixed without the MP technique: the µop's own
    effectual MLs, chained in order — skipping ineffectual MLs is exact
    because their product is a true zero.
    """
    acc = dyn.acc_lane_value(lane)
    prod = dyn.prod
    if not dyn.mixed:
        return acc + prod[lane]
    if dyn.ml0 >> lane & 1:
        acc = acc + prod[2 * lane]
    if dyn.ml1 >> lane & 1:
        acc = acc + prod[2 * lane + 1]
    return acc

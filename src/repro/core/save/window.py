"""Combination-window scheduling structures.

The combination window is the set of ready VFMAs in the reservation
stations (Sec. III).  Three schedulers model the paper's design points:

* :class:`SlotScheduler` — (rotate-)vertical coalescing: one priority
  queue per temp *slot*; entries are ``(seq, item)`` so selection is
  oldest-(program-order)-first, matching conventional select logic.
* :class:`HorizontalScheduler` — 16-lane horizontal compression: one
  global priority queue; a VPU op takes the oldest 16 pending lanes.
* :class:`BaselineScheduler` — no SAVE: whole instructions issue.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional


class SlotScheduler:
    """Per-slot ready queues for vertical coalescing.

    Items are opaque to the scheduler; callers push ``(seq, item)``
    into a slot and pop the oldest per slot.
    """

    def __init__(self, slots: int = 16) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        self.slots = slots
        self._heaps: list[list[tuple[int, int, Any]]] = [[] for _ in range(slots)]
        self._tiebreak = 0
        self._pending = 0
        #: Bit ``s`` is set while slot ``s`` has queued items.
        self.occupied = 0
        #: Peak total queue depth over the run (observability).
        self.peak_pending = 0

    def insert(self, slot: int, seq: int, item: Any) -> None:
        """Queue ``item`` (priority = program order ``seq``) at ``slot``."""
        self._tiebreak += 1
        self._pending += 1
        if self._pending > self.peak_pending:
            self.peak_pending = self._pending
        heapq.heappush(self._heaps[slot], (seq, self._tiebreak, item))
        self.occupied |= 1 << slot

    def pop_oldest(self, slot: int) -> Optional[Any]:
        """Remove and return the oldest pending item at ``slot``."""
        heap = self._heaps[slot]
        if not heap:
            return None
        self._pending -= 1
        item = heapq.heappop(heap)[2]
        if not heap:
            self.occupied &= ~(1 << slot)
        return item

    def pending(self) -> int:
        """Total queued items across all slots (O(1))."""
        return self._pending

    def slot_occupancy(self) -> list[int]:
        """Queued items per slot (lane-imbalance diagnostics)."""
        return [len(heap) for heap in self._heaps]


class HorizontalScheduler:
    """Single global ready queue for 16-lane horizontal compression."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._tiebreak = 0
        #: Peak queue depth over the run (observability).
        self.peak_pending = 0

    def insert(self, seq: int, item: Any) -> None:
        self._tiebreak += 1
        heapq.heappush(self._heap, (seq, self._tiebreak, item))
        if len(self._heap) > self.peak_pending:
            self.peak_pending = len(self._heap)

    def pop_oldest(self) -> Optional[Any]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def pending(self) -> int:
        return len(self._heap)


class BaselineScheduler:
    """Whole-instruction ready queue (the non-SAVE machine)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[int, Any]] = []

    def insert(self, seq: int, item: Any) -> None:
        heapq.heappush(self._heap, (seq, item))

    def pop_oldest(self) -> Optional[Any]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[1]

    def pending(self) -> int:
        return len(self._heap)

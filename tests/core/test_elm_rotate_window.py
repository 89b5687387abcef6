"""Tests for ELM generation, rotation states, and scheduler structures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynuop import DynUop
from repro.core.save.elm import MguStage, compute_elm
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.core.save.window import (
    BaselineScheduler,
    HorizontalScheduler,
    SlotScheduler,
)
from repro.isa.uops import RegOperand, vdpbf16, vfma


def fma_dyn(a, b, mask_bits=None, mixed=False, wmask=None):
    uop = (vdpbf16 if mixed else vfma)(0, RegOperand(1), RegOperand(2), wmask=wmask)
    dyn = DynUop(uop, 0)
    dyn.a_value = np.asarray(a, dtype=np.float32)
    dyn.b_value = np.asarray(b, dtype=np.float32)
    if mask_bits is not None:
        dyn.mask_bits = mask_bits
    return dyn


class TestComputeElm:
    def test_dense_all_effectual(self):
        dyn = fma_dyn(np.ones(16), np.ones(16))
        elm, ml0, ml1, prod = compute_elm(dyn)
        assert elm == 0xFFFF and ml0 == ml1 == 0
        assert prod.dtype == np.float32 and prod.tolist() == [1.0] * 16

    def test_zero_in_a_kills_lane(self):
        a = np.ones(16)
        a[3] = 0
        dyn = fma_dyn(a, np.ones(16))
        elm, *_ = compute_elm(dyn)
        assert not elm & (1 << 3)
        assert elm & (1 << 2)

    def test_zero_in_b_kills_lane(self):
        b = np.ones(16)
        b[7] = 0
        elm, *_ = compute_elm(fma_dyn(np.ones(16), b))
        assert not elm & (1 << 7)

    def test_broadcast_zero_is_all_ineffectual(self):
        elm, *_ = compute_elm(fma_dyn(np.zeros(16), np.ones(16)))
        assert elm == 0

    def test_write_mask_clears_lanes(self):
        dyn = fma_dyn(np.ones(16), np.ones(16), mask_bits=0x00FF, wmask=1)
        elm, *_ = compute_elm(dyn)
        assert elm == 0x00FF

    def test_requires_operands(self):
        uop = vfma(0, RegOperand(1), RegOperand(2))
        with pytest.raises(RuntimeError):
            compute_elm(DynUop(uop, 0))

    def test_mixed_al_effectual_if_any_ml(self):
        a = np.ones(32)
        b = np.ones(32)
        b[0] = 0  # AL 0 ML 0 dead, ML 1 alive
        b[2] = b[3] = 0  # AL 1 both dead
        elm, ml0, ml1, _ = compute_elm(fma_dyn(a, b, mixed=True))
        assert elm & 1
        assert not elm & 2
        assert (ml0 & 1, ml1 & 1) == (0, 1)
        assert (ml0 >> 1 & 1, ml1 >> 1 & 1) == (0, 0)
        assert (ml0 >> 2 & 1, ml1 >> 2 & 1) == (1, 1)
        assert elm == ml0 | ml1

    def test_mixed_write_mask_empties_ml_list(self):
        dyn = fma_dyn(np.ones(32), np.ones(32), mask_bits=0xFFFE, wmask=1, mixed=True)
        elm, ml0, ml1, _ = compute_elm(dyn)
        assert not (ml0 | ml1) & 1
        assert not elm & 1

    def test_non_finite_multiplicand_is_effectual(self):
        # 0 * inf is NaN, so the lane cannot be skipped.
        a = np.zeros(16)
        b = np.ones(16)
        b[3] = np.inf
        b[5] = np.nan
        with np.errstate(invalid="ignore"):
            elm, *_ = compute_elm(fma_dyn(a, b))
        assert elm == (1 << 3) | (1 << 5)


def _reference_elm(a, b, wm, mixed):
    """Per-lane loop form of the ELM rule: both multiplicands non-zero,
    or either one non-finite; write-masked lanes are ineffectual."""

    def effectual(x, y):
        return (x != 0 and y != 0) or not (math.isfinite(x) and math.isfinite(y))

    elm = ml0 = ml1 = 0
    for lane in range(16):
        if not wm >> lane & 1:
            continue
        if not mixed:
            elm |= effectual(a[lane], b[lane]) << lane
            continue
        ml0 |= effectual(a[2 * lane], b[2 * lane]) << lane
        ml1 |= effectual(a[2 * lane + 1], b[2 * lane + 1]) << lane
    return (ml0 | ml1, ml0, ml1) if mixed else (elm, 0, 0)


_ELEMENTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-45, 3e38, np.inf, -np.inf, np.nan])


class TestComputeElmProperties:
    @settings(max_examples=200)
    @given(
        st.booleans(),
        st.lists(_ELEMENTS, min_size=32, max_size=32),
        st.lists(_ELEMENTS, min_size=32, max_size=32),
        st.one_of(st.none(), st.integers(0, 0xFFFF)),
    )
    def test_matches_per_lane_loop(self, mixed, a, b, mask_bits):
        width = 32 if mixed else 16
        dyn = fma_dyn(
            a[:width],
            b[:width],
            mask_bits=mask_bits,
            wmask=None if mask_bits is None else 1,
            mixed=mixed,
        )
        wm = 0xFFFF if mask_bits is None else mask_bits
        with np.errstate(all="ignore"):
            elm, ml0, ml1, prod = compute_elm(dyn)
            expected_prod = [np.float32(x) * np.float32(y) for x, y in zip(a, b)]
        assert (elm, ml0, ml1) == _reference_elm(
            dyn.a_value.tolist(), dyn.b_value.tolist(), wm, mixed
        )
        assert prod.view(np.uint32).tolist() == (
            np.array(expected_prod[:width], dtype=np.float32).view(np.uint32).tolist()
        )


class TestMguStage:
    def test_budget_limits_throughput(self):
        mgu = MguStage(2)
        dyns = [fma_dyn(np.ones(16), np.ones(16)) for _ in range(5)]
        for dyn in dyns:
            mgu.enqueue(dyn)
        assert len(mgu.step()) == 2
        assert len(mgu.step()) == 2
        assert len(mgu.step()) == 1
        assert mgu.processed == 5

    def test_step_sets_elm(self):
        mgu = MguStage(4)
        dyn = fma_dyn(np.ones(16), np.ones(16))
        mgu.enqueue(dyn)
        mgu.step()
        assert dyn.elm == 0xFFFF

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            MguStage(0)


class TestRotation:
    def test_three_states(self):
        offsets = {rotation_offset(reg) for reg in range(6)}
        assert offsets == {-1, 0, 1}

    def test_keyed_on_accumulator_mod3(self):
        assert rotation_offset(0) == rotation_offset(3) == rotation_offset(27)
        assert rotation_offset(1) == rotation_offset(4)

    def test_disabled(self):
        assert rotation_offset(5, rotation_states=1) == 0

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            rotation_offset(0, rotation_states=2)

    def test_slot_wraps(self):
        assert slot_for_lane(15, 1) == 0
        assert slot_for_lane(0, -1) == 15
        assert slot_for_lane(5, 0) == 5

    def test_rotation_breaks_conflicts(self):
        # Three µops with accumulators 0, 1, 2 sharing one effectual
        # lane map to three distinct slots.
        lane = 4
        slots = {slot_for_lane(lane, rotation_offset(reg)) for reg in (0, 1, 2)}
        assert len(slots) == 3


class TestSchedulers:
    def test_slot_scheduler_oldest_first(self):
        sched = SlotScheduler()
        sched.insert(0, seq=5, item="young")
        sched.insert(0, seq=2, item="old")
        assert sched.pop_oldest(0) == "old"
        assert sched.pop_oldest(0) == "young"
        assert sched.pop_oldest(0) is None

    def test_slot_scheduler_isolated_slots(self):
        sched = SlotScheduler()
        sched.insert(0, 1, "a")
        assert sched.pop_oldest(1) is None
        assert sched.pending() == 1

    def test_slot_occupancy(self):
        sched = SlotScheduler(slots=4)
        sched.insert(0, 1, "a")
        sched.insert(0, 2, "b")
        sched.insert(3, 3, "c")
        assert sched.slot_occupancy() == [2, 0, 0, 1]

    def test_slot_scheduler_fifo_ties(self):
        sched = SlotScheduler()
        sched.insert(0, 1, "first")
        sched.insert(0, 1, "second")
        assert sched.pop_oldest(0) == "first"

    def test_horizontal_scheduler_global_order(self):
        sched = HorizontalScheduler()
        sched.insert(9, "b")
        sched.insert(1, "a")
        assert sched.pop_oldest() == "a"
        assert sched.pending() == 1

    def test_baseline_scheduler(self):
        sched = BaselineScheduler()
        sched.insert(3, "c")
        sched.insert(1, "a")
        assert sched.pop_oldest() == "a"
        assert sched.pop_oldest() == "c"
        assert sched.pop_oldest() is None

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            SlotScheduler(slots=0)

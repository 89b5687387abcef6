"""Tests for architectural state and memory."""

import numpy as np
import pytest

from repro.isa.datatypes import BF16_LANES, FP32_LANES
from repro.isa.registers import NUM_MASK_REGS, NUM_VREGS, ArchState, Memory


class TestMemory:
    def test_unwritten_reads_zero(self):
        mem = Memory()
        assert mem.read(0x1000) == 0.0

    def test_write_read_roundtrip(self):
        mem = Memory()
        mem.write(0x40, 3.5)
        assert mem.read(0x40) == np.float32(3.5)

    def test_write_quantises_to_fp32(self):
        mem = Memory()
        mem.write(0, 0.1)
        assert mem.read(0) == np.float32(0.1)

    def test_vector_roundtrip_fp32(self):
        mem = Memory()
        values = np.arange(16, dtype=np.float32)
        mem.write_vector(0x100, values, stride=4)
        assert np.array_equal(mem.read_vector(0x100, 16, 4), values)

    def test_vector_roundtrip_bf16_stride(self):
        mem = Memory()
        values = np.arange(32, dtype=np.float32)
        mem.write_vector(0x200, values, stride=2)
        assert np.array_equal(mem.read_vector(0x200, 32, 2), values)

    def test_write_array_bf16_rounds(self):
        mem = Memory()
        mem.write_array(0, [1.0 + 2**-12], stride=2, bf16=True)
        assert mem.read(0) == np.float32(1.0)

    def test_snapshot_is_copy(self):
        mem = Memory()
        mem.write(0, 1.0)
        snap = mem.snapshot()
        mem.write(0, 2.0)
        assert snap[0] == 1.0

    def test_copy_equals_image_and_is_independent(self):
        mem = Memory()
        mem.write_array(0x100, [0.1, -0.0, float("inf"), float("nan")], stride=4)
        mem.write_array(0x200, [1.5, 0.3], stride=2, bf16=True)
        clone = mem.copy()
        rewritten = Memory()
        for addr, value in mem.snapshot().items():
            rewritten.write(addr, value)

        def bits(memory):
            return {
                addr: np.float32(value).view(np.uint32)
                for addr, value in memory.snapshot().items()
            }

        assert bits(clone) == bits(mem) == bits(rewritten)
        clone.write(0x100, 9.0)
        clone.write(0x300, 1.0)
        assert mem.read(0x100) == np.float32(0.1)
        assert 0x300 not in mem.snapshot()

    def test_len_counts_elements(self):
        mem = Memory()
        mem.write_array(0, range(10), stride=4)
        assert len(mem) == 10


class TestArchState:
    def test_initial_registers_zero(self):
        state = ArchState()
        assert len(state.vregs) == NUM_VREGS
        for reg in range(NUM_VREGS):
            assert not state.read_vreg(reg).any()

    def test_initial_masks_all_ones(self):
        state = ArchState()
        assert len(state.kregs) == NUM_MASK_REGS
        assert state.read_kreg(0) == (1 << FP32_LANES) - 1

    def test_vreg_write_read(self):
        state = ArchState()
        value = np.arange(FP32_LANES, dtype=np.float32)
        state.write_vreg(3, value)
        assert np.array_equal(state.read_vreg(3), value)

    def test_vreg_read_returns_copy(self):
        state = ArchState()
        state.write_vreg(0, np.ones(FP32_LANES, dtype=np.float32))
        view = state.read_vreg(0)
        view[0] = 99.0
        assert state.read_vreg(0)[0] == 1.0

    def test_vreg_accepts_bf16_payload_width(self):
        state = ArchState()
        state.write_vreg(1, np.zeros(BF16_LANES, dtype=np.float32))
        assert state.read_vreg(1).shape == (BF16_LANES,)

    def test_vreg_rejects_bad_width(self):
        state = ArchState()
        with pytest.raises(ValueError):
            state.write_vreg(0, np.zeros(7, dtype=np.float32))

    def test_kreg_write_read(self):
        state = ArchState()
        state.write_kreg(2, 0b1010)
        assert state.read_kreg(2) == 0b1010

    def test_registers_snapshot_is_deep(self):
        state = ArchState()
        state.write_vreg(0, np.ones(FP32_LANES, dtype=np.float32))
        snap = state.registers_snapshot()
        state.write_vreg(0, np.zeros(FP32_LANES, dtype=np.float32))
        assert snap[0][0] == 1.0

"""Fuzz testing of SAVE's software transparency on *arbitrary* traces.

The GEMM-based transparency tests exercise the code shapes DNN kernels
produce; this fuzzer generates random-but-valid µop traces (loads,
broadcasts, stores, mask writes, FP32 and mixed FMAs with random
register dependences and random sparse data) and asserts that every
SAVE configuration still reproduces the in-order reference state
bit-for-bit.
"""

import random

import numpy as np
import pytest

from repro.core import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, simulate
from repro.core.config import CoalescingScheme
from repro.isa.datatypes import BF16_LANES, FP32_LANES
from repro.isa.registers import Memory
from repro.isa.uops import (
    MemOperand,
    RegOperand,
    kmov,
    scalar_op,
    vbcast,
    vdpbf16,
    vfma,
    vload,
    vstore,
    vzero,
)
from repro.kernels.trace import KernelTrace, count_uops
from repro.validate import compare_states

FP32_BASE = 0x1000
BF16_BASE = 0x9000
STORE_BASE = 0x20000
N_REGS = 12


def random_trace(seed: int, length: int = 140) -> KernelTrace:
    """A random valid µop trace over sparse data."""
    rng = random.Random(seed)
    memory = Memory()
    # Sparse FP32 pool (50% zeros) and BF16-exact pool.
    for i in range(512):
        value = 0.0 if rng.random() < 0.5 else rng.choice([0.5, 1.5, -2.0, 3.0])
        memory.write(FP32_BASE + i * 4, value)
    for i in range(512):
        value = 0.0 if rng.random() < 0.5 else rng.choice([0.25, 1.0, -4.0])
        memory.write(BF16_BASE + i * 2, value)

    width = {}  # register -> 16 or 32 (lanes of its last producer)
    uops = []
    store_slot = 0

    def regs_with(lanes):
        return [r for r, w in width.items() if w == lanes]

    def fp32_operand():
        if regs_with(16) and rng.random() < 0.5:
            return RegOperand(rng.choice(regs_with(16)))
        if rng.random() < 0.5:
            return MemOperand(FP32_BASE + rng.randrange(496) * 4, broadcast=True)
        return MemOperand(FP32_BASE + rng.randrange(480) * 4)

    def bf16_operand():
        if regs_with(32) and rng.random() < 0.5:
            return RegOperand(rng.choice(regs_with(32)))
        if rng.random() < 0.5:
            return MemOperand(
                BF16_BASE + rng.randrange(480) * 2, broadcast=True, bf16=True
            )
        return MemOperand(BF16_BASE + rng.randrange(448) * 2, bf16=True)

    for _ in range(length):
        kind = rng.random()
        reg = rng.randrange(N_REGS)
        if kind < 0.10:
            uops.append(vzero(reg))
            width[reg] = 16
        elif kind < 0.22:
            bf16 = rng.random() < 0.4
            base = BF16_BASE if bf16 else FP32_BASE
            step = 2 if bf16 else 4
            uops.append(vload(reg, base + rng.randrange(400) * step, bf16=bf16))
            width[reg] = 32 if bf16 else 16
        elif kind < 0.30:
            bf16 = rng.random() < 0.4
            if bf16:
                uops.append(vbcast(reg, BF16_BASE + rng.randrange(480) * 2, bf16=True))
                width[reg] = 32
            else:
                uops.append(vbcast(reg, FP32_BASE + rng.randrange(500) * 4))
                width[reg] = 16
        elif kind < 0.35:
            uops.append(kmov(rng.randrange(1, 8), rng.randrange(1 << 16)))
        elif kind < 0.72 and regs_with(16):
            accum = rng.choice(regs_with(16))
            wmask = rng.randrange(1, 8) if rng.random() < 0.3 else None
            uops.append(vfma(accum, fp32_operand(), fp32_operand(), wmask=wmask))
        elif kind < 0.88 and regs_with(16):
            accum = rng.choice(regs_with(16))
            wmask = rng.randrange(1, 8) if rng.random() < 0.3 else None
            uops.append(vdpbf16(accum, bf16_operand(), bf16_operand(), wmask=wmask))
        elif kind < 0.95 and width:
            src = rng.choice(list(width))
            bf16 = width[src] == 32
            uops.append(vstore(src, STORE_BASE + store_slot * 64, bf16=bf16))
            store_slot += 1
        else:
            uops.append(scalar_op())

    return KernelTrace(
        name=f"fuzz-{seed}",
        uops=uops,
        memory=memory,
        regions={},
        stats=count_uops(uops),
        meta={},
    )


def assert_transparent(trace: KernelTrace, machine) -> None:
    result = simulate(trace, machine, warm_level=None)
    mismatches = compare_states(trace.reference_result(), result.final_state)
    assert not mismatches, f"{trace.name} diverged: {mismatches[:8]}"


MACHINES = [
    pytest.param(BASELINE_2VPU, id="baseline"),
    pytest.param(SAVE_2VPU, id="save-2vpu"),
    pytest.param(SAVE_1VPU, id="save-1vpu"),
    pytest.param(
        SAVE_2VPU.with_save(coalescing=CoalescingScheme.HORIZONTAL), id="save-hc"
    ),
    pytest.param(
        SAVE_2VPU.with_save(
            coalescing=CoalescingScheme.VERTICAL, lane_wise_dependence=False
        ),
        id="save-vc",
    ),
    pytest.param(
        SAVE_2VPU.with_save(mixed_precision_technique=False), id="save-no-mp"
    ),
    pytest.param(
        SAVE_2VPU.with_save(coalescing=CoalescingScheme.NAIVE), id="save-naive"
    ),
]


class TestFuzzTransparency:
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, machine, seed):
        assert_transparent(random_trace(seed), machine)

    def test_longer_trace(self):
        assert_transparent(random_trace(99, length=400), SAVE_2VPU)

    def test_trace_has_interesting_content(self):
        # Sanity: the generator actually produces FMAs and stores.
        trace = random_trace(0, length=300)
        assert trace.stats.fmas > 20
        assert trace.stats.stores > 3

    @pytest.mark.parametrize("seed", range(6, 14))
    def test_more_seeds_default_config(self, seed):
        assert_transparent(random_trace(seed), SAVE_2VPU)


def zero_times_inf_trace() -> KernelTrace:
    """``z0 += bcast(0.0) * z1`` where lane 3 of ``z1`` is inf: 0 * inf is NaN."""
    memory = Memory()
    values = [1.0] * FP32_LANES
    values[3] = float("inf")
    for lane, value in enumerate(values):
        memory.write(FP32_BASE + 4 * lane, value)
    memory.write(FP32_BASE + 0x100, 0.0)
    uops = [
        vzero(0),
        vload(1, FP32_BASE),
        vfma(0, MemOperand(FP32_BASE + 0x100, broadcast=True), RegOperand(1)),
        vstore(0, STORE_BASE),
    ]
    return KernelTrace(
        name="zero-times-inf",
        uops=uops,
        memory=memory,
        regions={},
        stats=count_uops(uops),
        meta={},
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteTransparency:
    """A non-finite multiplicand makes its lane effectual (0 * inf is NaN)."""

    def test_zero_times_inf_reaches_nan(self):
        state = zero_times_inf_trace().reference_result()
        assert np.isnan(state.read_vreg(0)[3])
        assert not np.isnan(state.read_vreg(0)[2])

    @pytest.mark.parametrize("machine", MACHINES)
    def test_zero_times_inf(self, machine):
        assert_transparent(zero_times_inf_trace(), machine)

    @pytest.mark.parametrize("machine", MACHINES)
    def test_overflowing_random_trace(self, machine):
        # This trace overflows to inf and then multiplies it by zero.
        assert_transparent(random_trace(35, length=200), machine)


def random_machine(seed: int):
    """A random-but-valid machine configuration."""
    import random as _random

    from repro.core.config import CoreConfig, MachineConfig, SaveConfig
    from repro.memory.broadcast_cache import BroadcastCacheKind

    rng = _random.Random(seed)
    scheme = rng.choice(list(CoalescingScheme))
    return MachineConfig(
        core=CoreConfig(
            issue_width=rng.choice([2, 4, 5, 6]),
            rs_entries=rng.choice([12, 48, 97]),
            rob_entries=rng.choice([32, 128, 224]),
            num_vpus=rng.choice([1, 2, 3]),
            freq_ghz=rng.choice([1.0, 1.7, 2.1]),
            scalar_ports=rng.choice([1, 3]),
        ),
        save=SaveConfig(
            enabled=True,
            coalescing=scheme,
            lane_wise_dependence=rng.random() < 0.5,
            rotation_states=rng.choice([1, 3]),
            mixed_precision_technique=rng.random() < 0.5,
            broadcast_cache=rng.choice(list(BroadcastCacheKind)),
            broadcast_cache_entries=rng.choice([4, 32]),
            mgu_count=rng.choice([1, 3, 5]),
        ),
    )


class TestFuzzMachineConfigs:
    """Transparency must hold for ANY machine configuration."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_machine_random_trace(self, seed):
        machine = random_machine(seed)
        assert_transparent(random_trace(seed + 500, length=120), machine)

    @pytest.mark.parametrize("seed", range(10, 16))
    def test_random_machine_gemm_trace(self, seed):
        from repro.kernels.gemm import GemmKernelConfig, generate_gemm_trace
        from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile

        import random as _random

        rng = _random.Random(seed)
        machine = random_machine(seed)
        trace = generate_gemm_trace(
            GemmKernelConfig(
                name="fuzz-gemm",
                tile=RegisterTile(
                    rng.choice([1, 3, 7]),
                    rng.choice([1, 2, 3]),
                    rng.choice(list(BroadcastPattern)),
                ),
                k_steps=6,
                precision=rng.choice(list(Precision)),
                broadcast_sparsity=rng.choice([0.0, 0.4, 0.9]),
                nonbroadcast_sparsity=rng.choice([0.0, 0.5, 0.9]),
                use_write_masks=rng.random() < 0.3,
                seed=seed,
            )
        )
        reference = trace.reference_result()
        result = simulate(trace, machine)
        for reg in range(32):
            assert np.array_equal(
                reference.read_vreg(reg), result.final_state.read_vreg(reg)
            )

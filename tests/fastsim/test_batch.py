"""Batched fast tier: one numpy pass per run of grid points.

The contract: ``simulate_configs`` equals ``simulate_config`` on each
config alone, bit for bit, whatever the mix of layouts, seeds and
machines; batches hold one layout and stay bounded in size and memory;
and configs the fast tier has no model for are rejected, not estimated.
"""

import random
import tracemalloc

import pytest

from repro.core.config import (
    BASELINE_2VPU,
    SAVE_1VPU,
    SAVE_2VPU,
    CoalescingScheme,
)
from repro.fastsim import (
    TraceArrays,
    TraceBatch,
    UnsupportedConfigError,
    bounds,
    simulate_config,
    simulate_configs,
)
from repro.fastsim.calibration import calibration_classes
from repro.fastsim.engine import config_bounds
from repro.kernels.library import get_kernel
from repro.memory.broadcast_cache import BroadcastCacheKind

#: SAVE variants beyond the calibration presets: each selects a
#: different branch of the VPU or chain bound.
SAVE_VARIANTS = {
    "vc": SAVE_2VPU.with_save(coalescing=CoalescingScheme.VERTICAL),
    "hc": SAVE_2VPU.with_save(coalescing=CoalescingScheme.HORIZONTAL),
    "naive": SAVE_2VPU.with_save(coalescing=CoalescingScheme.NAIVE),
    "mask_bcache": SAVE_2VPU.with_save(broadcast_cache=BroadcastCacheKind.MASK),
    "no_lwd": SAVE_2VPU.with_save(lane_wise_dependence=False),
}

#: (kernel, machine) pairs: every calibration class, then each SAVE
#: variant on a mixed-precision explicit and an FP32 embedded kernel.
CASES = [
    (spec.name, machine) for spec, machine in calibration_classes().values()
] + [
    (kernel, machine)
    for machine in SAVE_VARIANTS.values()
    for kernel in ("resnet2_2_fwd", "resnet3_2_bwd_weights")
]


def _grid(kernel, rng, points=24, k_steps=4):
    """Seeded random points, two seeds, with repeated sparsity levels so
    that points share operand-RNG prefixes."""
    spec = get_kernel(kernel)
    levels = [0.0, 1.0] + [round(rng.uniform(0.0, 1.0), 3) for _ in range(4)]
    return [
        spec.config(
            rng.choice(levels), rng.choice(levels),
            k_steps=k_steps, seed=rng.choice((0, 11)),
        )
        for _ in range(points)
    ]


class TestSimulateConfigs:
    @pytest.mark.parametrize("kernel,machine", CASES)
    def test_equals_per_point_simulation(self, kernel, machine):
        configs = _grid(kernel, random.Random(f"{kernel}|{machine}"))
        assert simulate_configs(configs, machine) == [
            simulate_config(config, machine) for config in configs
        ]

    def test_mixed_layouts_come_back_in_order(self):
        rng = random.Random(3)
        configs = (
            _grid("resnet2_2_fwd", rng, points=150)
            + _grid("resnet3_2_bwd_input", rng, points=5, k_steps=3)
            + _grid("resnet2_2_fwd", rng, points=7)
        )
        rng.shuffle(configs)
        assert simulate_configs(configs, SAVE_2VPU) == [
            simulate_config(config, SAVE_2VPU) for config in configs
        ]

    def test_config_bounds_equal_per_point_bounds(self):
        configs = _grid("resnet4_1a_bwd_input", random.Random(5))
        assert config_bounds(configs, SAVE_1VPU) == [
            bounds(TraceArrays.from_config(config), SAVE_1VPU)
            for config in configs
        ]

    def test_empty(self):
        assert simulate_configs([], SAVE_2VPU) == []

    def test_exact_engine_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            simulate_configs(_grid("resnet2_2_fwd", random.Random(0)), SAVE_2VPU, "exact")


class TestBatches:
    def test_batches_split_on_layout_and_size(self):
        spec = get_kernel("resnet2_2_fwd")
        configs = [spec.config(0.5, 0.5, k_steps=2, seed=s) for s in range(300)]
        configs += [spec.config(0.5, 0.5, k_steps=3, seed=0)]
        sizes = [len(batch) for batch in TraceBatch.batches(configs)]
        assert sum(sizes) == len(configs)
        assert max(sizes) < len(configs) - 1  # the size cap splits the run
        assert sizes[-1] == 1  # a new k_steps starts a new batch

    def test_batch_points_are_trace_arrays(self):
        configs = _grid("resnet2_2_fwd", random.Random(9), points=4)
        (batch,) = TraceBatch.batches(configs)
        for index, config in enumerate(configs):
            point, alone = batch[index], TraceArrays.from_config(config)
            assert point.effectual.shape == alone.effectual.shape == (4, 4, 6, 16)
            assert (point.effectual == alone.effectual).all()
            assert (point.ml_count == alone.ml_count).all()
            assert point.skipped_fmas == alone.skipped_fmas

    def test_working_set_is_bounded(self):
        # One stream_sweep batch of the fast_sweep kernel: evaluated in
        # capped sub-batches, its peak allocation stays far below what
        # 2048 points' arrays and temporaries would take at once.
        spec = get_kernel("resnet2_2_fwd")
        rng = random.Random(1)
        configs = [
            spec.config(rng.random() * 0.9, rng.random() * 0.9, k_steps=8, seed=0)
            for _ in range(2048)
        ]
        simulate_configs(configs[:2], SAVE_2VPU)  # warm imports and caches
        tracemalloc.start()
        try:
            simulate_configs(configs, SAVE_2VPU)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestStructuredKernelsRejected:
    """N:M kernels have no fast-tier model: replaying the unstructured
    generator for them would estimate the wrong operand pattern."""

    def _nm_config(self):
        return get_kernel("nm24_fwd").config(0.5, 0.5, k_steps=8)

    def test_simulate_config_rejects(self):
        with pytest.raises(UnsupportedConfigError, match="--engine exact"):
            simulate_config(self._nm_config(), SAVE_2VPU)

    def test_simulate_configs_rejects(self):
        spec = get_kernel("resnet2_2_fwd")
        configs = [spec.config(k_steps=8), self._nm_config()]
        with pytest.raises(UnsupportedConfigError, match="NMKernelConfig"):
            simulate_configs(configs, SAVE_2VPU)

    def test_from_config_rejects(self):
        with pytest.raises(UnsupportedConfigError):
            TraceArrays.from_config(self._nm_config())

    def test_point_job_rejects(self):
        from repro.experiments.executor import PointJob

        job = PointJob(self._nm_config(), BASELINE_2VPU, engine="fast")
        with pytest.raises(UnsupportedConfigError):
            job.run()

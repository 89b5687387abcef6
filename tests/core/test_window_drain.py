"""Combination-window statistics and precise-state-at-prefix tests.

* The paper (Sec. III): "for a large enough GEMM, with 32 ISA vector
  registers, the CW is often 24-28" — the pipeline's CW gauge must
  reproduce that on a 28-accumulator kernel.
* DESIGN.md invariant 3: executing any *prefix* of a trace yields the
  same architectural state as the in-order reference over that prefix —
  SAVE never lets younger work corrupt state needed at a drain point.
"""

import numpy as np
import pytest

from repro.core import BASELINE_2VPU, SAVE_2VPU, simulate
from repro.kernels.gemm import GemmKernelConfig, generate_gemm_trace
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import KernelTrace, count_uops
from repro.validate import check_transparency


def kernel(rows=28, cols=1, pattern=BroadcastPattern.EMBEDDED, k_steps=24,
           bs=0.0, nbs=0.0, precision=Precision.FP32, seed=0):
    return generate_gemm_trace(
        GemmKernelConfig(
            name="cw",
            tile=RegisterTile(rows, cols, pattern),
            k_steps=k_steps,
            precision=precision,
            broadcast_sparsity=bs,
            nonbroadcast_sparsity=nbs,
            seed=seed,
        )
    )


class TestCombinationWindow:
    def test_cw_tracks_accumulator_count(self):
        # 28 accumulators, long RAW distance: the window fills to the
        # accumulator-count scale (paper: "often 24-28"; our gauge is
        # lane-granular, so under lane-wise dependences staggered lanes
        # of adjacent generations can both be pending, reading up to
        # ~2x the vector-wise window).
        result = simulate(kernel(rows=28, cols=1, nbs=0.5), SAVE_2VPU, keep_state=False)
        assert 14 <= result.mean_cw <= 2 * 28

    def test_vector_wise_cw_bounded_by_accumulators(self):
        # With vector-wise dependences, at most one generation per
        # accumulator can be ready: the paper's bound applies directly.
        machine = SAVE_2VPU.with_save(lane_wise_dependence=False)
        result = simulate(kernel(rows=28, cols=1, nbs=0.5), machine, keep_state=False)
        assert result.mean_cw <= 29

    def test_small_tile_small_window(self):
        result = simulate(
            kernel(rows=2, cols=2, pattern=BroadcastPattern.EXPLICIT, nbs=0.5),
            SAVE_2VPU,
            keep_state=False,
        )
        assert result.mean_cw < 9

    def test_baseline_reports_no_cw(self):
        result = simulate(kernel(), BASELINE_2VPU, keep_state=False)
        assert result.mean_cw == 0.0

    def test_cw_cannot_exceed_rs(self):
        result = simulate(kernel(nbs=0.7), SAVE_2VPU, keep_state=False)
        assert result.mean_cw <= SAVE_2VPU.core.rs_entries


def prefix_trace(trace: KernelTrace, n: int) -> KernelTrace:
    """A new trace containing the first ``n`` µops."""
    return KernelTrace(
        name=f"{trace.name}[:{n}]",
        uops=trace.materialize()[:n],
        memory=trace.memory,
        regions=trace.regions,
        stats=count_uops(trace.materialize()[:n]),
        meta=dict(trace.meta),
    )


class TestPrefixDrain:
    """Invariant 3: any drain point leaves precise architectural state."""

    @pytest.mark.parametrize("fraction", [0.1, 0.33, 0.5, 0.77])
    def test_fp32_prefixes(self, fraction):
        trace = kernel(rows=4, cols=3, pattern=BroadcastPattern.EXPLICIT,
                       k_steps=12, bs=0.3, nbs=0.4)
        n = max(1, int(len(trace) * fraction))
        report = check_transparency(prefix_trace(trace, n), SAVE_2VPU)
        report.raise_if_failed()

    @pytest.mark.parametrize("fraction", [0.25, 0.6])
    def test_mixed_prefixes(self, fraction):
        trace = kernel(rows=3, cols=2, pattern=BroadcastPattern.EXPLICIT,
                       k_steps=8, precision=Precision.MIXED, bs=0.2, nbs=0.5)
        n = max(1, int(len(trace) * fraction))
        report = check_transparency(prefix_trace(trace, n), SAVE_2VPU)
        report.raise_if_failed()

    def test_single_uop_prefix(self):
        trace = kernel(rows=2, cols=1, pattern=BroadcastPattern.EXPLICIT, k_steps=2)
        report = check_transparency(prefix_trace(trace, 1), SAVE_2VPU)
        report.raise_if_failed()


class TestValidateApi:
    def test_report_fields(self):
        trace = kernel(rows=2, cols=2, pattern=BroadcastPattern.EXPLICIT, k_steps=4)
        report = check_transparency(trace, SAVE_2VPU)
        assert report.transparent
        assert not report.mismatches
        assert report.result is not None
        assert "save" in report.machine_label

    def test_raise_if_failed_passes_when_clean(self):
        trace = kernel(rows=2, cols=2, pattern=BroadcastPattern.EXPLICIT, k_steps=4)
        check_transparency(trace, SAVE_2VPU).raise_if_failed()

    def test_compare_states_detects_divergence(self):
        from repro.isa.registers import ArchState
        from repro.validate import compare_states

        a = ArchState()
        b = ArchState()
        b.write_vreg(3, np.ones(16, dtype=np.float32))
        b.write_kreg(1, 0)
        b.memory.write(0x40, 7.0)
        mismatches = compare_states(a, b)
        assert "zmm3" in mismatches
        assert "k1" in mismatches
        assert "mem[0x40]" in mismatches

    def test_compare_states_is_bitwise(self):
        from repro.isa.registers import ArchState
        from repro.validate import compare_states

        a = ArchState()
        b = ArchState()
        nan = np.full(16, np.nan, dtype=np.float32)
        a.write_vreg(1, nan)
        b.write_vreg(1, nan)
        negative_zero = np.zeros(16, dtype=np.float32)
        negative_zero[5] = -0.0
        b.write_vreg(2, negative_zero)
        a.memory.write(0x80, float("nan"))
        b.memory.write(0x80, float("nan"))
        b.memory.write(0xC0, -0.0)
        assert compare_states(a, b) == ["zmm2", "mem[0xc0]"]

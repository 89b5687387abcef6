"""Fast engine behavior: tags, validation, determinism."""

import pytest

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU
from repro.core.pipeline import simulate
from repro.fastsim import (
    ENGINES,
    TraceArrays,
    bounds,
    simulate_config,
    simulate_trace,
    validate_engine,
)
from repro.fastsim.engine import predict_cycles
from repro.kernels.gemm import generate_gemm_trace
from repro.kernels.library import get_kernel


def _config(bs=0.5, nbs=0.5, k_steps=4, name="resnet3_2_bwd_input"):
    return get_kernel(name).config(
        broadcast_sparsity=bs,
        nonbroadcast_sparsity=nbs,
        k_steps=k_steps,
        seed=0,
    )


class TestValidation:
    def test_engines_tuple(self):
        assert ENGINES == ("exact", "fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("turbo")

    def test_analytic_tier_is_retired(self):
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("analytic")

    def test_exact_engine_needs_a_trace(self):
        with pytest.raises(ValueError, match="exact"):
            simulate_config(_config(), SAVE_2VPU, "exact")


class TestEngineTag:
    def test_fast_result_tagged(self):
        assert simulate_config(_config(), SAVE_2VPU, "fast").engine == "fast"

    def test_exact_result_tagged_by_default(self):
        result = simulate(generate_gemm_trace(_config()), SAVE_2VPU)
        assert result.engine == "exact"

    def test_pipeline_dispatches_fast_tier(self):
        trace = generate_gemm_trace(_config())
        result = simulate(trace, SAVE_2VPU, engine="fast")
        assert result.engine == "fast"
        assert result.cycles == simulate_trace(trace, SAVE_2VPU).cycles


class TestDeterminism:
    def test_repeated_runs_identical(self):
        config = _config()
        first = simulate_config(config, SAVE_2VPU, "fast")
        second = simulate_config(config, SAVE_2VPU, "fast")
        assert first == second

    def test_trace_and_config_paths_agree(self):
        config = _config()
        via_config = simulate_config(config, SAVE_2VPU, "fast")
        via_trace = simulate_trace(generate_gemm_trace(config), SAVE_2VPU)
        assert via_config.cycles == via_trace.cycles


class TestBounds:
    @pytest.mark.parametrize("machine", [BASELINE_2VPU, SAVE_2VPU, SAVE_1VPU])
    def test_bounds_positive(self, machine):
        breakdown = bounds(TraceArrays.from_config(_config()), machine)
        assert breakdown.frontend > 0
        assert breakdown.vpu > 0
        assert breakdown.l1 > 0
        assert breakdown.chain > 0
        assert breakdown.bound_max == max(
            breakdown.frontend, breakdown.vpu, breakdown.l1, breakdown.chain
        )
        assert breakdown.bottleneck in ("frontend", "vpu", "l1", "chain")

    def test_sparsity_reduces_save_vpu_demand(self):
        dense = bounds(TraceArrays.from_config(_config(0.0, 0.0)), SAVE_2VPU)
        sparse = bounds(TraceArrays.from_config(_config(0.8, 0.8)), SAVE_2VPU)
        assert sparse.vpu < dense.vpu

    def test_uncalibrated_prediction_is_bound_max_plus_startup(self):
        breakdown = bounds(TraceArrays.from_config(_config()), SAVE_2VPU)
        assert predict_cycles(breakdown, None) == pytest.approx(
            breakdown.bound_max + 30.0
        )


class TestAccuracySpot:
    """One cheap spot check per machine; the calibration harness owns
    the full-grid budget."""

    @pytest.mark.parametrize("machine", [BASELINE_2VPU, SAVE_2VPU])
    def test_fast_near_exact(self, machine):
        config = _config(k_steps=24)
        exact = simulate(generate_gemm_trace(config), machine)
        fast = simulate_config(config, machine, "fast")
        rel = abs(fast.cycles - exact.cycles) / exact.cycles
        assert rel < 0.20, (fast.cycles, exact.cycles)

"""The streaming trace contract: streams equal materialized traces.

The tentpole invariant is bit-for-bit equivalence — simulating a
chunked :class:`GeneratorTraceStream` must produce exactly the result
of simulating the fully materialized :class:`KernelTrace`, on every
generator and every engine tier.  These tests also pin the contract's
edges: restartable passes, per-pass stats, chunk sizing, protocol
conformance, and the removal of the old ``.uops`` property.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.core.pipeline import simulate
from repro.fastsim import TraceArrays, simulate_arrays, simulate_stream
from repro.kernels import (
    GemmKernelConfig,
    KernelTrace,
    count_uops,
    generate_gemm_stream,
    generate_trace,
    trace_stream,
)
from repro.kernels.gemm import generate_gemm_trace
from repro.kernels.sparsetrain import SparseTrainConfig
from repro.kernels.library import get_kernel
from repro.kernels.stream import GeneratorTraceStream, TraceStream, ensure_stream
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile


def gemm_config(**overrides):
    defaults = dict(
        name="stream-t",
        tile=RegisterTile(2, 2, BroadcastPattern.EXPLICIT),
        k_steps=6,
        broadcast_sparsity=0.4,
        nonbroadcast_sparsity=0.5,
        seed=11,
    )
    defaults.update(overrides)
    return GemmKernelConfig(**defaults)


GEMM_CONFIGS = [
    pytest.param(gemm_config(), id="gemm-explicit"),
    pytest.param(
        gemm_config(
            tile=RegisterTile(2, 2, BroadcastPattern.EMBEDDED),
            precision=Precision.MIXED,
        ),
        id="gemm-embedded-mixed",
    ),
    pytest.param(gemm_config(use_write_masks=True), id="gemm-masked"),
]

#: All generators; the fast tier only accepts GEMM configs.
CONFIGS = GEMM_CONFIGS + [
    pytest.param(SparseTrainConfig(gemm=gemm_config()), id="sparsetrain"),
]


def result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("final_state", None)
    return fields


class TestStreamEqualsMaterialized:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize(
        "machine", [SAVE_2VPU, BASELINE_2VPU], ids=["save", "baseline"]
    )
    def test_exact_engine_bit_for_bit(self, config, machine):
        stream = trace_stream(config)
        trace = trace_stream(config).to_trace()
        streamed = simulate(stream, machine, keep_state=True)
        materialized = simulate(trace, machine, keep_state=True)
        assert result_fields(streamed) == result_fields(materialized)
        np.testing.assert_array_equal(
            trace.result_matrix(streamed.final_state),
            trace.result_matrix(materialized.final_state),
        )

    @pytest.mark.parametrize("config", GEMM_CONFIGS)
    def test_fast_engine_bit_for_bit(self, config):
        from_stream = TraceArrays.from_stream(trace_stream(config))
        from_trace = TraceArrays.from_config(config)
        assert simulate_stream(
            trace_stream(config), SAVE_2VPU
        ) == simulate_arrays(from_trace, SAVE_2VPU)
        np.testing.assert_array_equal(from_stream.a_nz, from_trace.a_nz)
        np.testing.assert_array_equal(from_stream.b_nz, from_trace.b_nz)
        np.testing.assert_array_equal(
            from_stream.ml_count, from_trace.ml_count
        )

    @pytest.mark.parametrize("chunk", [1, 3, 37, 10_000])
    def test_any_chunk_size_same_uops(self, chunk):
        config = gemm_config()
        reference = trace_stream(config).materialize()
        chunked = [
            u for c in trace_stream(config).iter_uops(chunk) for u in c
        ]
        assert chunked == reference

    def test_generate_trace_matches_legacy_generator(self):
        config = gemm_config()
        via_registry = generate_trace(config)
        direct = generate_gemm_trace(config)
        assert via_registry.materialize() == direct.materialize()
        assert via_registry.memory.snapshot() == direct.memory.snapshot()


class TestRestartability:
    def test_two_passes_identical(self):
        stream = trace_stream(gemm_config())
        first = [u for c in stream.iter_uops(64) for u in c]
        second = [u for c in stream.iter_uops(64) for u in c]
        assert first == second

    def test_stats_reset_per_pass(self):
        stream = trace_stream(gemm_config())
        list(stream.iter_uops(64))
        once = dataclasses.asdict(stream.stats)
        list(stream.iter_uops(64))
        assert dataclasses.asdict(stream.stats) == once

    def test_sparsetrain_mispredictions_deterministic(self):
        config = SparseTrainConfig(gemm=gemm_config(broadcast_sparsity=0.7))
        a = trace_stream(config).materialize()
        b = trace_stream(config).materialize()
        assert a == b


class TestStreamProtocol:
    def test_kernel_trace_satisfies_protocol(self):
        trace = generate_trace(gemm_config())
        assert isinstance(trace, TraceStream)

    def test_generator_stream_satisfies_protocol(self):
        assert isinstance(
            generate_gemm_stream(gemm_config()), GeneratorTraceStream
        )
        assert isinstance(generate_gemm_stream(gemm_config()), TraceStream)

    def test_ensure_stream_passthrough(self):
        trace = generate_trace(gemm_config())
        assert ensure_stream(trace) is trace

    def test_ensure_stream_rejects_non_streams(self):
        with pytest.raises(TypeError, match="TraceStream"):
            ensure_stream(object())

    def test_to_trace_preserves_identity(self):
        stream = generate_gemm_stream(gemm_config())
        trace = stream.to_trace()
        assert isinstance(trace, KernelTrace)
        assert trace.name == stream.name
        assert trace.regions == stream.regions
        assert dataclasses.asdict(trace.stats) == dataclasses.asdict(
            count_uops(stream.materialize())
        )

    def test_invalid_chunk_rejected(self):
        stream = generate_gemm_stream(gemm_config())
        with pytest.raises(ValueError):
            next(stream.iter_uops(0))
        trace = generate_trace(gemm_config())
        with pytest.raises(ValueError):
            next(trace.iter_uops(-1))


class TestCountUopsIterable:
    def test_accepts_generator(self):
        trace = generate_trace(gemm_config())
        lazy = count_uops(u for u in trace.materialize())
        eager = count_uops(trace.materialize())
        assert dataclasses.asdict(lazy) == dataclasses.asdict(eager)


class TestDeprecatedUopsProperty:
    def test_uops_property_is_removed(self):
        assert not hasattr(generate_trace(gemm_config()), "uops")

    def test_materialize_does_not_warn(self):
        trace = generate_trace(gemm_config())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trace.materialize()


class TestRegistryDispatch:
    def test_get_kernel_by_name(self):
        assert get_kernel("resnet2_2_fwd").name == "resnet2_2_fwd"

    def test_get_kernel_spec_passthrough(self):
        spec = get_kernel("resnet2_2_fwd")
        assert get_kernel(spec) is spec

    def test_get_kernel_unknown_name_lists_library(self):
        with pytest.raises(KeyError, match="resnet2_2_fwd"):
            get_kernel("no_such_kernel")

    def test_get_kernel_rejects_other_types(self):
        with pytest.raises(TypeError):
            get_kernel(42)

    def test_trace_stream_rejects_unknown_config(self):
        with pytest.raises(TypeError, match="GemmKernelConfig"):
            trace_stream(object())

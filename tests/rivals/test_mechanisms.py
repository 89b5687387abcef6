"""Tests for the mechanism axis: resolution, variants, IndexMAC stream."""

import numpy as np
import pytest

from repro.core.config import (
    BASELINE_2VPU,
    SAVE_2VPU,
    CoalescingScheme,
)
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.rivals.indexmac import IndexMACConfig, generate_indexmac_stream
from repro.rivals.mechanisms import (
    MECHANISMS,
    MechanismError,
    resolve_mechanism,
    sparce_save_config,
    validate_mechanism,
)
from repro.rivals.nm import NMKernelConfig, generate_nm_stream


def nm_config(pattern="2:4", precision=Precision.FP32, bs=0.6, nbs=0.4, k_steps=12):
    return NMKernelConfig(
        name="mech-test",
        tile=RegisterTile(3, 2, BroadcastPattern.EXPLICIT),
        k_steps=k_steps,
        pattern=pattern,
        precision=precision,
        broadcast_sparsity=bs,
        nonbroadcast_sparsity=nbs,
        seed=0,
    )


def gemm_config():
    return GemmKernelConfig(
        name="dense-test",
        tile=RegisterTile(2, 2, BroadcastPattern.EXPLICIT),
        k_steps=8,
    )


class TestValidation:
    def test_known_mechanisms(self):
        assert MECHANISMS == ("save", "sparce", "indexmac")
        for mechanism in MECHANISMS:
            assert validate_mechanism(mechanism) == mechanism

    def test_unknown_mechanism(self):
        with pytest.raises(MechanismError, match="available"):
            validate_mechanism("sparta")

    @pytest.mark.parametrize("mechanism", ["sparce", "indexmac"])
    @pytest.mark.parametrize("engine", ["fast"])
    def test_rivals_are_exact_only(self, mechanism, engine):
        with pytest.raises(MechanismError, match="exact"):
            resolve_mechanism(mechanism, nm_config(), SAVE_2VPU, engine)

    def test_save_passes_any_engine(self):
        config = nm_config()
        for engine in ("exact", "fast"):
            out_config, out_machine = resolve_mechanism(
                "save", config, SAVE_2VPU, engine
            )
            assert out_config is config
            assert out_machine is SAVE_2VPU


class TestSparce:
    def test_machine_is_naive_whole_instruction_skip(self):
        save = sparce_save_config()
        assert save.enabled
        assert save.coalescing == CoalescingScheme.NAIVE
        assert not save.lane_wise_dependence
        assert save.rotation_states == 1
        assert not save.mixed_precision_technique
        assert save.broadcast_cache == BroadcastCacheKind.NONE
        assert save.mgu_count == 1

    def test_resolution_keeps_config_swaps_machine(self):
        config = nm_config()
        out_config, out_machine = resolve_mechanism(
            "sparce", config, SAVE_2VPU, "exact"
        )
        assert out_config is config
        assert out_machine.save == sparce_save_config()
        assert out_machine.core == SAVE_2VPU.core

    def test_applies_to_unstructured_kernels_too(self):
        config = gemm_config()
        out_config, _ = resolve_mechanism("sparce", config, SAVE_2VPU, "exact")
        assert out_config is config


class TestIndexMAC:
    def test_resolution_wraps_nm_config_disables_save(self):
        out_config, out_machine = resolve_mechanism(
            "indexmac", nm_config(), SAVE_2VPU, "exact"
        )
        assert isinstance(out_config, IndexMACConfig)
        assert not out_machine.save.enabled

    def test_existing_wrapper_passes_through(self):
        wrapped = IndexMACConfig(nm=nm_config())
        out_config, _ = resolve_mechanism(
            "indexmac", wrapped, SAVE_2VPU, "exact"
        )
        assert out_config is wrapped

    def test_rejects_unstructured_kernels(self):
        with pytest.raises(MechanismError, match="structured"):
            resolve_mechanism("indexmac", gemm_config(), SAVE_2VPU, "exact")

    def test_wrapper_rejects_non_nm_config(self):
        with pytest.raises(TypeError, match="NMKernelConfig"):
            IndexMACConfig(nm=gemm_config())

    def test_functional_result_matches_nm_stream(self):
        config = nm_config(bs=0.75, nbs=0.5, k_steps=16)
        nm_stream = generate_nm_stream(config)
        ix_stream = generate_indexmac_stream(IndexMACConfig(nm=config))
        np.testing.assert_allclose(
            ix_stream.result_matrix(ix_stream.reference_result()),
            nm_stream.result_matrix(nm_stream.reference_result()),
            rtol=1e-5,
            atol=1e-5,
        )

    def test_fully_masked_steps_elided(self):
        config = nm_config(pattern="2:4", bs=0.9, k_steps=16)
        stream = generate_indexmac_stream(IndexMACConfig(nm=config))
        mask = stream.meta["level_mask"]
        kept = stream.meta["kept_steps"]
        assert kept == int(np.sum([mask[k] for k in range(config.k_steps)]))
        assert kept < config.k_steps
        # Elided steps drop their loop overhead too: the compressed
        # stream is strictly shorter than the dense N:M schedule.
        dense = generate_nm_stream(config)
        assert len(stream.materialize()) < len(dense.materialize())

    def test_mixed_precision_step_elided_only_when_both_levels_masked(self):
        config = nm_config(
            pattern="4:8", precision=Precision.MIXED, bs=0.75, k_steps=8
        )
        stream = generate_indexmac_stream(IndexMACConfig(nm=config))
        mask = stream.meta["level_mask"]
        expected = sum(
            1
            for k in range(config.k_steps)
            if mask[2 * k : 2 * k + 2].any()
        )
        assert stream.meta["kept_steps"] == expected

    def test_index_overhead_charged_per_group(self):
        config = nm_config(bs=0.9, k_steps=16)
        stream = generate_indexmac_stream(
            IndexMACConfig(nm=config, index_overhead_uops=2)
        )
        tags = [
            uop.tag
            for uop in stream.materialize()
            if (getattr(uop, "tag", None) or "").startswith("index-g")
        ]
        groups = config.k_depth // 4
        assert len(tags) == 2 * groups

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            IndexMACConfig(nm=nm_config(), index_overhead_uops=-1)


class TestTimingOrdering:
    """Sanity: the variants' timing relationships hold at high sparsity."""

    def test_indexmac_beats_dense_issue_and_sparce_trails_save(self):
        from repro.experiments.executor import PointJob, SimExecutor

        config = nm_config(bs=0.75, nbs=0.3, k_steps=16)
        jobs = [PointJob(config=config, machine=BASELINE_2VPU, engine="exact")]
        jobs += [
            PointJob(
                config=config, machine=SAVE_2VPU, engine="exact",
                mechanism=mechanism,
            )
            for mechanism in MECHANISMS
        ]
        dense, save, sparce, indexmac = SimExecutor(jobs=1).map(jobs)
        assert indexmac < dense
        assert save < dense
        assert save < sparce

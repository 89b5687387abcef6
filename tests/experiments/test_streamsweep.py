"""Out-of-core streaming sweeps into the columnar store.

The acceptance contract: a streamed sweep's stored rows are identical
to direct per-point simulation, invariant under batch size, and equal
to the in-memory surface on a shared grid.
"""

import numpy as np
import pytest

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.experiments.streamsweep import stream_sweep
from repro.fastsim import UnsupportedConfigError, simulate_config
from repro.kernels.library import get_kernel
from repro.kernels.tiling import Precision
from repro.model.surface import SparsitySurface, machine_label
from repro.store import SweepStore

LEVELS = (0.0, 0.4, 0.8)


class TestStreamSweep:
    def test_rows_match_direct_simulation(self, tmp_path):
        spec = get_kernel("resnet2_2_fwd")
        summary = stream_sweep(
            "resnet2_2_fwd",
            SAVE_2VPU,
            LEVELS,
            LEVELS,
            tmp_path,
            engine="fast",
            metric="time_ns",
            k_steps=6,
        )
        assert summary["points"] == len(LEVELS) ** 2
        rows = list(SweepStore(tmp_path).query())
        assert len(rows) == len(LEVELS) ** 2
        for row in rows:
            config = spec.config(
                broadcast_sparsity=row["bs"],
                nonbroadcast_sparsity=row["nbs"],
                k_steps=6,
                seed=0,
            )
            expected = simulate_config(config, SAVE_2VPU, "fast").time_ns
            assert row["value"] == pytest.approx(expected)

    def test_batch_size_does_not_change_rows(self, tmp_path):
        kwargs = dict(engine="fast", metric="time_ns", k_steps=6)
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path / "small",
            batch_points=2, segment_rows=3, **kwargs,
        )
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path / "large",
            batch_points=1000, **kwargs,
        )
        small = list(SweepStore(tmp_path / "small").query())
        large = list(SweepStore(tmp_path / "large").query())
        assert small == large

    def test_row_major_grid_order(self, tmp_path):
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, (0.0, 0.5), (0.0, 0.5), tmp_path,
            engine="fast", k_steps=4,
        )
        rows = list(SweepStore(tmp_path).query())
        assert [(r["bs"], r["nbs"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5),
        ]

    def test_summary_identity(self, tmp_path):
        summary = stream_sweep(
            "resnet2_2_fwd", BASELINE_2VPU, (0.0,), (0.0,), tmp_path,
            engine="fast", k_steps=4,
        )
        assert summary["kernel"] == "resnet2_2_fwd"
        assert summary["machine"] == machine_label(BASELINE_2VPU)
        assert summary["engine"] == "fast"
        described = SweepStore(tmp_path).describe()
        assert described[0]["fingerprint"] == summary["fingerprint"]

    def test_rejects_nonpositive_batch(self, tmp_path):
        with pytest.raises(ValueError, match="batch_points"):
            stream_sweep(
                "resnet2_2_fwd", SAVE_2VPU, (0.0,), (0.0,), tmp_path,
                batch_points=0,
            )

    def test_fast_nm_kernel_rejected_before_store_exists(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(UnsupportedConfigError, match="--engine exact"):
            stream_sweep(
                "nm24_fwd", SAVE_2VPU, (0.5,), (0.5,), store,
                engine="fast", k_steps=8,
            )
        assert not store.exists()

    def test_streamed_sweep_equals_surface_grid(self, tmp_path):
        # Same grid, same machine, same tier: the out-of-core path and
        # the in-memory surface must agree point for point.  The
        # explicit_wide library kernel shares the surface config's
        # tile/precision; only the trace's display name differs.
        levels = (0.0, 0.3, 0.6)
        tile = get_kernel("explicit_wide").tile
        surface = SparsitySurface.build(
            tile, Precision.FP32, SAVE_2VPU,
            levels=levels, k_steps=6, engine="fast",
        )
        stream_sweep(
            "explicit_wide", SAVE_2VPU, levels, levels, tmp_path,
            engine="fast", k_steps=6,
        )
        values = np.array(
            [r["value"] for r in SweepStore(tmp_path).query()]
        ).reshape(len(levels), len(levels))
        np.testing.assert_allclose(values, surface.ns_per_fma)

"""Batched fast-path simulation tiers.

Two engine tiers, selected by the ``engine=`` parameter threaded
through :func:`repro.core.pipeline.simulate`, :class:`PointJob`,
:class:`RunContext`, surfaces, sweeps, ``repro.serve`` and the CLI:

* ``"exact"`` — the cycle-level out-of-order pipeline in
  :mod:`repro.core` (bit-for-bit reference, unchanged);
* ``"fast"`` — structure-of-arrays bound-and-bottleneck estimation
  (:mod:`repro.fastsim.engine`), vectorised over batches of grid points
  (:func:`simulate_configs`), calibrated per kernel class against
  the exact model (:mod:`repro.fastsim.calibration`); error budget
  ≤ 5% median / ≤ 15% p95 relative cycle error on the full grid.
  Unstructured GEMM kernels only: any other config raises
  :class:`UnsupportedConfigError`.

Every :class:`repro.core.pipeline.SimResult` carries an ``engine`` tag
so tiers never mix silently in surfaces or stores.
"""

from repro.fastsim.engine import (
    ENGINE_EXACT,
    ENGINE_FAST,
    ENGINES,
    FASTSIM_MODEL_VERSION,
    BoundBreakdown,
    bounds,
    class_key,
    simulate_arrays,
    simulate_config,
    simulate_configs,
    simulate_stream,
    simulate_trace,
    validate_engine,
)
from repro.fastsim.soa import (
    TraceArrays,
    TraceBatch,
    UnsupportedConfigError,
    check_fast_config,
)

__all__ = [
    "ENGINES",
    "ENGINE_EXACT",
    "ENGINE_FAST",
    "FASTSIM_MODEL_VERSION",
    "BoundBreakdown",
    "TraceArrays",
    "TraceBatch",
    "UnsupportedConfigError",
    "bounds",
    "check_fast_config",
    "class_key",
    "simulate_arrays",
    "simulate_config",
    "simulate_configs",
    "simulate_stream",
    "simulate_trace",
    "validate_engine",
]

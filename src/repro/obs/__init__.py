"""Observability layer: metrics, tracing, spans, analytics.

The simulator answers *how fast*; this package answers *why*.  The raw
layer (see ``docs/architecture.md`` § Observability):

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  :class:`MetricsRegistry`, with picklable snapshots that merge
  deterministically across worker processes.
* :mod:`repro.obs.trace` — per-cycle structured events (dispatch, ELM
  generation, BS skip, VC/RVC merges with rotation state, LWD stalls,
  B$ hits/misses, retire) through a pluggable :class:`TraceSink`;
  :class:`JsonlTraceSink` writes schema-validated JSONL.
* :class:`Instrumentation` — the bundle a simulation carries.  Pass
  one to :func:`repro.core.pipeline.simulate` (or set ``metrics`` /
  ``trace_sink`` on a :class:`repro.experiments.executor.SimExecutor`)
  to turn observation on; when absent, every hook in the hot path
  reduces to a single ``is None`` check.

And the analysis layer on top of it:

* :mod:`repro.obs.spans` — nestable host wall-clock spans attributing
  pipeline time to build / simulate / merge / report phases.
* :mod:`repro.obs.analyze` — offline trace analytics (timelines,
  distributions, bottleneck attribution); ``repro trace-report``.
* :mod:`repro.obs.chrometrace` — Chrome trace-event export (Perfetto).
* :mod:`repro.obs.telemetry` — serve-path request-lifecycle telemetry:
  the versioned request log (trace IDs from HTTP ingress through the
  process-pool boundary), exact latency percentiles, the bounded
  on-disk metrics ring, and Prometheus text exposition.
* :mod:`repro.obs.servereport` — offline request-log analytics
  (per-phase percentiles, coalescing effectiveness, backpressure
  episodes, bottleneck verdict); ``repro serve-report``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
    hist_stats,
    log2_bucket,
)
from repro.obs.spans import SpanRecord, SpanRecorder, maybe_span, phase_table
from repro.obs.telemetry import (
    LATENCY_PHASES,
    LATENCY_QUANTILES,
    NULL_REQUEST_LOG,
    REQLOG_SCHEMA_VERSION,
    REQUEST_EVENT_FIELDS,
    LatencyRecorder,
    NullRequestLog,
    RequestLog,
    ServeTelemetry,
    exact_percentile,
    new_trace_id,
    read_request_log,
    render_prometheus,
    validate_request_event,
    wants_prometheus,
)
from repro.obs.trace import (
    EVENT_FIELDS,
    NULL_SINK,
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    ListSink,
    NullSink,
    TraceFormatError,
    TraceSink,
    read_jsonl,
    validate_event,
)

__all__ = [
    "Counter",
    "EVENT_FIELDS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "JsonlTraceSink",
    "LATENCY_PHASES",
    "LATENCY_QUANTILES",
    "LatencyRecorder",
    "ListSink",
    "MetricsRegistry",
    "NULL_REQUEST_LOG",
    "NULL_SINK",
    "NullRequestLog",
    "NullSink",
    "REQLOG_SCHEMA_VERSION",
    "REQUEST_EVENT_FIELDS",
    "RequestLog",
    "ServeTelemetry",
    "SpanRecord",
    "SpanRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceFormatError",
    "TraceSink",
    "exact_percentile",
    "format_metrics",
    "hist_stats",
    "log2_bucket",
    "maybe_span",
    "new_trace_id",
    "phase_table",
    "read_jsonl",
    "read_request_log",
    "render_prometheus",
    "validate_event",
    "validate_request_event",
    "wants_prometheus",
]


class Instrumentation:
    """Everything one simulation records into.

    Attributes:
        metrics: the registry counters/histograms go to.
        sink: structured-event consumer.
        tracing: precomputed "is the sink real" flag — the pipeline
            guards event assembly behind it so a metrics-only run never
            pays event-dict construction.
        kernel: label stamped on every emitted event (set by the
            pipeline to the trace name).
        mechanism: skip-mechanism label stamped on every emitted event
            (set by the caller that knows the mechanism axis, e.g.
            :meth:`repro.experiments.executor.PointJob.run_instrumented`).
    """

    __slots__ = ("metrics", "sink", "tracing", "kernel", "mechanism")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        sink: Optional[TraceSink] = None,
        kernel: str = "",
        mechanism: str = "save",
    ) -> None:
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.sink = NULL_SINK if sink is None else sink
        self.tracing = not isinstance(self.sink, NullSink)
        self.kernel = kernel
        self.mechanism = mechanism

    def emit(self, cycle: int, event: str, **fields: Any) -> None:
        """Stamp the common fields and forward one event to the sink."""
        fields["cycle"] = cycle
        fields["event"] = event
        fields["kernel"] = self.kernel
        fields["mechanism"] = self.mechanism
        self.sink.emit(fields)

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot (picklable plain dict)."""
        return self.metrics.snapshot()

"""Request-lifecycle telemetry for the serving layer.

The simulator side of the observability stack (:mod:`repro.obs.trace`)
answers "where do the *cycles* go"; this module answers the same
question for the *service*: where does a request's wall time go between
``POST /v1/submit`` and the stored payload?  Three pieces:

* **The request log** — a structured, versioned JSONL stream with the
  same ``validate_event`` discipline as the cycle trace.  Every request
  gets a trace ID at HTTP ingress; the service stamps it on ``ingress``
  / ``phase`` / ``sim`` / ``complete`` events as the request moves
  through dedup, the bounded queue, micro-batch formation, the executor
  (worker-side spans carry the originating trace IDs across the
  process-pool boundary) and the result-store write.  HTTP access lines
  (``access``) ride the same stream.
* **The latency recorder** — exact p50/p95/p99 percentiles per phase
  and end-to-end, computed over a bounded window of the most recent
  samples and exported as ``serve.latency.<phase>.<q>_ms`` gauges on
  ``/metrics`` (JSON and Prometheus text exposition alike).
* **The metrics ring** — a bounded on-disk ring of periodic
  ``snapshot`` events (queue depth, oldest-request age, ``serve.*``
  counters) written by the service's sampler thread.  Retention is
  two-segment: the live segment plus one rotated ``.old`` segment, so
  disk usage is bounded at ~2x the configured capacity regardless of
  uptime.

Wall-clock reads are legitimate here (this *is* the wall-clock layer),
so the file sits on the ``no-wallclock`` rule's exclude list next to
``spans.py`` and ``bench.py``.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
import uuid
from collections import deque
from typing import Any, Optional, TextIO, Union
from collections.abc import Iterator, Sequence

from repro.obs.trace import read_jsonl

__all__ = [
    "LATENCY_PHASES",
    "LATENCY_QUANTILES",
    "NULL_REQUEST_LOG",
    "REQLOG_COMMON_FIELDS",
    "REQLOG_SCHEMA_VERSION",
    "REQUEST_EVENT_FIELDS",
    "LatencyRecorder",
    "NullRequestLog",
    "RequestLog",
    "ServeTelemetry",
    "exact_percentile",
    "new_trace_id",
    "read_request_log",
    "render_prometheus",
    "run_chunk_timed",
    "validate_request_event",
    "wants_prometheus",
]

#: Bump on incompatible request-log schema changes; stamped per line.
REQLOG_SCHEMA_VERSION = 1

#: Required event-specific fields, per request-log event type.
REQUEST_EVENT_FIELDS: dict[str, tuple] = {
    # One per submit, at service ingress.  ``outcome`` is accepted /
    # dedup / cached / rejected / draining.
    "ingress": ("trace_id", "key", "outcome"),
    # One wall-clock span per lifecycle phase (see LATENCY_PHASES).
    "phase": ("trace_id", "phase", "wall_s"),
    # One per simulated grid point, measured *inside* the executor
    # worker; ``trace_ids`` lists every request that owns the point
    # (micro-batching coalesces overlapping points into one span).
    "sim": ("trace_ids", "point", "wall_s", "engine"),
    # Terminal record per job: status is done / cached / failed.
    "complete": ("trace_id", "key", "status", "wall_s"),
    # One per HTTP response (the access log, ex-``log_message``).
    "access": ("trace_id", "method", "path", "status", "wall_s"),
    # Periodic sampler output into the bounded metrics ring.
    "snapshot": ("queue_depth", "active", "oldest_age_s", "counters"),
}

#: Fields common to every request-log event (stamped by the writer).
REQLOG_COMMON_FIELDS = ("ts", "event")

#: Request lifecycle phases with latency percentiles; ``e2e`` is
#: submit-to-finish.  Consumers (serve-report, the Prometheus
#: exposition) import this tuple rather than restating it.
LATENCY_PHASES = ("queue_wait", "batch_form", "simulate", "store_write", "e2e")

#: Exact quantiles exported per phase.
LATENCY_QUANTILES = ("p50", "p95", "p99")


def new_trace_id() -> str:
    """A fresh request trace ID (16 hex chars, collision-safe enough)."""
    return uuid.uuid4().hex[:16]


def validate_request_event(event: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``event`` matches the request-log schema."""
    for name in REQLOG_COMMON_FIELDS:
        if name not in event:
            raise ValueError(
                f"request-log event missing common field {name!r}: {event}"
            )
    kind = event["event"]
    required = REQUEST_EVENT_FIELDS.get(kind)
    if required is None:
        raise ValueError(f"unknown request-log event type {kind!r}")
    ts = event["ts"]
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        raise ValueError(
            f"request-log event ts must be a non-negative number: {event}"
        )
    for name in required:
        if name not in event:
            raise ValueError(
                f"request-log event {kind!r} missing required field "
                f"{name!r}: {event}"
            )


class RequestLog:
    """Thread-safe JSONL writer for request-lifecycle events.

    Every line carries a ``v`` schema stamp and a wall-clock ``ts``.
    With ``ring_limit`` set the log becomes a bounded on-disk ring:
    after ``ring_limit`` records the live segment rotates to
    ``<path>.old`` (replacing the previous rotation), so at most
    ``2 * ring_limit`` records exist on disk at any time.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        ring_limit: Optional[int] = None,
    ) -> None:
        if ring_limit is not None and ring_limit <= 0:
            raise ValueError("ring_limit must be positive")
        self.path = str(path)
        self.ring_limit = ring_limit
        self.events_written = 0
        self._segment_count = 0
        self._lock = threading.Lock()
        # The log outlives __init__ and owns the handle; callers close
        # via close() or the context-manager protocol.
        self._file: TextIO = open(self.path, "w", encoding="utf-8")  # noqa: SIM115

    @property
    def enabled(self) -> bool:
        return True

    @property
    def rotated_path(self) -> str:
        """Where the previous ring segment lives after a rotation."""
        return self.path + ".old"

    def log_event(self, event: str, **fields: Any) -> None:
        """Stamp ``v``/``ts``/``event`` and append one JSONL line."""
        record: dict[str, Any] = {
            "v": REQLOG_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self._file.closed:
                return
            # One write call per line: a crash mid-run must not leave a
            # line without its terminator for readers to choke on.
            self._file.write(line)
            self.events_written += 1
            self._segment_count += 1
            if self.ring_limit is not None and self._segment_count >= self.ring_limit:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        self._file.flush()
        self._file.close()
        os.replace(self.path, self.rotated_path)
        self._file = open(self.path, "w", encoding="utf-8")  # noqa: SIM115
        self._segment_count = 0

    def flush(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> RequestLog:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullRequestLog(RequestLog):
    """Discards everything; the default when request logging is off."""

    def __init__(self) -> None:  # noqa: B027 - deliberately no super()
        self.path = ""
        self.ring_limit = None
        self.events_written = 0

    @property
    def enabled(self) -> bool:
        return False

    def log_event(self, event: str, **fields: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared no-op log; identity-compared to detect "logging off" cheaply.
NULL_REQUEST_LOG = NullRequestLog()


def read_request_log(path: str) -> Iterator[dict[str, Any]]:
    """Yield events from a request log (rotated ring segment first).

    Raises :class:`repro.obs.trace.TraceFormatError` on unparseable
    lines or a ``v`` stamp that is not :data:`REQLOG_SCHEMA_VERSION`.
    """
    rotated = str(path) + ".old"
    if os.path.exists(rotated):
        yield from read_jsonl(rotated, expected_version=REQLOG_SCHEMA_VERSION)
    yield from read_jsonl(str(path), expected_version=REQLOG_SCHEMA_VERSION)


# ---------------------------------------------------------------------------
# Exact latency percentiles
# ---------------------------------------------------------------------------


def exact_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile over raw samples (no bucketing).

    Unlike :class:`repro.obs.metrics.Histogram` (whose log2 buckets
    trade resolution for bounded bins), latency SLOs need the exact
    sample value at the rank — a p99 of 130ms and 250ms land in the
    same log2 bucket but are different promises.
    """
    if not samples:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class LatencyRecorder:
    """Per-phase latency samples with exact percentile readout.

    Retention: the most recent ``max_samples`` observations per phase
    (a bounded deque) — percentiles describe recent behaviour, and
    memory stays bounded over unbounded uptime.  Thread-safe: the
    dispatcher records while HTTP threads read.
    """

    _QUANTILE_VALUES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._samples: dict[str, deque] = {
            phase: deque(maxlen=max_samples) for phase in LATENCY_PHASES
        }

    def record(self, phase: str, wall_s: float) -> None:
        bucket = self._samples.get(phase)
        if bucket is None:
            raise ValueError(
                f"unknown latency phase {phase!r} (phases: {LATENCY_PHASES})"
            )
        with self._lock:
            bucket.append(float(wall_s))

    def count(self, phase: str) -> int:
        with self._lock:
            return len(self._samples.get(phase, ()))

    def percentiles(self, phase: str) -> Optional[dict[str, float]]:
        """``{"p50": ms, "p95": ms, "p99": ms}`` or ``None`` when empty."""
        with self._lock:
            samples = list(self._samples.get(phase, ()))
        if not samples:
            return None
        ordered = sorted(samples)
        out: dict[str, float] = {}
        for name in LATENCY_QUANTILES:
            value = exact_percentile(ordered, self._QUANTILE_VALUES[name])
            assert value is not None  # samples is non-empty
            out[name] = round(value * 1000.0, 3)
        return out

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Percentiles for every phase that has samples."""
        out: dict[str, dict[str, float]] = {}
        for phase in LATENCY_PHASES:
            pcts = self.percentiles(phase)
            if pcts is not None:
                out[phase] = pcts
        return out

    def update_gauges(self, metrics: Any) -> None:
        """Publish ``serve.latency.<phase>.<q>_ms`` gauges into a registry."""
        for phase, pcts in self.snapshot().items():
            for name, value in pcts.items():
                metrics.gauge(f"serve.latency.{phase}.{name}_ms").set(value)


# ---------------------------------------------------------------------------
# The bundle the service carries
# ---------------------------------------------------------------------------


class ServeTelemetry:
    """Request log + bounded metrics ring + latency recorder, as one unit.

    The default construction (no arguments) is the "off" configuration:
    a :data:`NULL_REQUEST_LOG`, no ring, but a live latency recorder —
    percentile gauges on ``/metrics`` cost a few floats per request and
    are always worth having.
    """

    def __init__(
        self,
        log: Optional[RequestLog] = None,
        ring: Optional[RequestLog] = None,
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        self.log = NULL_REQUEST_LOG if log is None else log
        self.ring = ring
        self.latency = latency if latency is not None else LatencyRecorder()

    @property
    def enabled(self) -> bool:
        """Whether any on-disk output (log or ring) is configured."""
        return self.log.enabled or self.ring is not None

    def record_phase(self, trace_id: str, phase: str, wall_s: float) -> None:
        """One lifecycle span: feed the recorder, append a log event."""
        wall_s = max(0.0, wall_s)
        self.latency.record(phase, wall_s)
        self.log.log_event(
            "phase", trace_id=trace_id, phase=phase, wall_s=round(wall_s, 6)
        )

    def close(self) -> None:
        self.log.close()
        if self.ring is not None:
            self.ring.close()

    def __enter__(self) -> ServeTelemetry:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker-side timed runners (imported lazily by SimExecutor.map_timed)
# ---------------------------------------------------------------------------


def run_chunk_timed(chunk: list) -> list:
    """Worker entry point: run (index, job) pairs with per-job wall spans.

    Returns ``[(index, (value, wall_s)), ...]``.  The span is measured
    *inside* the worker process, so a parallel service batch gets true
    per-point simulation time rather than pool round-trip time; the
    dispatcher joins the spans back to request trace IDs when it emits
    ``sim`` events.  Jobs run a run at a time
    (:func:`repro.experiments.executor.job_runs`): a job that runs alone,
    such as every exact job, is timed alone, and each point of a
    fast-tier batch gets the batch's wall divided by its size.
    """
    # Lazy: the executor imports this package.
    from repro.experiments.executor import job_runs, run_jobs

    results = []
    for run in job_runs(chunk):
        start = time.perf_counter()
        values = run_jobs([job for _, job in run])
        wall = (time.perf_counter() - start) / len(run)
        results.extend(
            (index, (value, wall)) for (index, _), value in zip(run, values)
        )
    return results


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_BAD_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def wants_prometheus(accept: Optional[str]) -> bool:
    """Content negotiation for ``/metrics``: text exposition iff the
    client asks for ``text/plain`` explicitly (``*/*`` and absent
    headers keep the JSON default — existing consumers parse JSON)."""
    return bool(accept) and "text/plain" in str(accept)


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text exposition.

    Counters render as ``counter``, gauges as ``gauge``, and the
    dict-of-bins histograms as cumulative ``_bucket{le=...}`` series
    plus ``_sum``/``_count`` — the standard histogram layout, with each
    bin's upper bound as its ``le`` label.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        metric = _prom_name(name)
        hist = snapshot["histograms"][name]
        bins = hist.get("bins", {})
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for key in sorted(int(k) for k in bins):
            cumulative += bins[key] if key in bins else bins[str(key)]
            lines.append(f'{metric}_bucket{{le="{key}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f"{metric}_sum {hist.get('total', 0)}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"

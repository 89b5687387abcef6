"""What every workload shares: the run context, run-length scaling and
the end-to-end numbers derived from per-item latencies."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from pathlib import Path

from stats import nearest_rank, tail
from tracing import Span, Tracer, coverage, span_cost

#: Run length the nominal workload sizes are tuned for (the committed
#: ``run_seconds``): at ``--seconds 10`` each workload does its nominal
#: amount of work, and the amount scales linearly with ``--seconds``.
#: The work is fixed by the arguments, never by the clock, so two
#: commits compared at one ``--seconds`` do identical work.
NOMINAL_SECONDS = 10


@dataclass
class Run:
    """One benchmark run: its inputs, its tracer and what it measured."""

    workload: str
    seed: int
    seconds: int
    traced: bool
    #: Root of the checkout (holds ``src/`` and ``bench/``).
    root: Path
    #: Scratch directory inside the checkout, removed after the run.
    tmp: Path
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    #: Output checks that failed, one message each.
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)

    @property
    def src(self) -> Path:
        return self.root / "src"

    def scaled(self, nominal: float) -> int:
        """``nominal`` work units stretched to this run's ``--seconds``."""
        return max(1, round(nominal * self.seconds / NOMINAL_SECONDS))

    def record_items(self, walls: list[float], items: int, wall_s: float) -> None:
        """Throughput over ``wall_s`` and the latency of one item."""
        value, quantile = tail(walls)
        self.end_to_end["items_per_s"] = items / wall_s
        self.end_to_end["p50_ms"] = nearest_rank(walls, 0.5) * 1000.0
        self.end_to_end["tail_ms"] = value * 1000.0
        # The sample count and the quantile the tail stands for go into
        # the run report beside the metrics.
        self.end_to_end["samples"] = len(walls)
        self.end_to_end["tail_quantile"] = quantile

    def record_trace(self, root: Span, lanes: int = 1) -> None:
        """Coverage of ``root`` by layer self time, and tracing's own cost."""
        spans = self.tracer.spans
        self.per_layer["coverage_frac"] = coverage(spans, root.index, lanes)
        self.per_layer["trace_overhead_frac"] = (
            len(spans) * span_cost() / (lanes * root.duration)
        )


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0

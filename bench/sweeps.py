"""exact_figs and fast_sweep: the figure path and the fast-tier scale path.

exact_figs runs the Fig. 15 and Fig. 17 sweeps through ``sweep_kernel``
with a fresh two-worker ``SimExecutor`` per figure, as ``repro fig15
--jobs 2`` does.  fast_sweep streams a large fast-tier grid into a
columnar store with ``stream_sweep`` and reads it back.

Traced runs replay the same points with a span around each call into a
layer: exact_figs runs every point serially as ``generate_trace`` then
``simulate`` and then once more through ``sweep_kernel`` with a timed
executor; fast_sweep replays ``stream_sweep``'s batches through
``spec.config``, ``TraceArrays.from_config``, ``simulate_arrays`` and
``append_batch``.  Both must reproduce the untraced values exactly.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, MachineConfig
from repro.core.pipeline import simulate
from repro.experiments import fig17
from repro.experiments.executor import METRIC_NS_PER_FMA, PointJob, SimExecutor
from repro.experiments.streamsweep import DEFAULT_BATCH_POINTS, stream_sweep
from repro.experiments.sweeps import PAPER_SWEEP_LEVELS, SweepResult, sweep_kernel
from repro.fastsim import TraceArrays, simulate_arrays, simulate_config
from repro.kernels.library import generate_trace, get_kernel, trace_stream
from repro.model.surface import machine_label
from repro.store import SweepStore, SweepWriter

from harness import NOMINAL_SECONDS, Run
from stats import nearest_rank
from tracing import Tracer, durations, total

EXACT_K_STEPS = 24
EXACT_JOBS = 2
#: Points of the exact figures re-run in-process as the output check.
EXACT_SAMPLES = 8

FAST_KERNEL = "resnet2_2_fwd"
FAST_MACHINE = SAVE_2VPU
FAST_K_STEPS = 8
#: Grid side at the nominal run length: 170 x 170 = 28.9k points.
FAST_SIDE = 170
#: Grid rows (BS levels) per fast_sweep item: about half a second of
#: work, long enough that sub-second host jitter does not set the tail.
SLAB_ROWS = 10
FAST_SAMPLES = 32
#: Off-grid points the fast tier's error against exact is measured on.
HELD_OUT = 24


@dataclass(frozen=True)
class Figure:
    """One figure's sweep: a kernel under several machines on a grid."""

    name: str
    kernel: str
    machines: dict[str, MachineConfig]
    bs_levels: tuple[float, ...]
    nbs_levels: tuple[float, ...]


FIGURES = (
    Figure(
        "fig15",
        "resnet2_2_fwd",
        {"2 VPUs @1.7GHz": SAVE_2VPU, "1 VPU @2.1GHz": SAVE_1VPU},
        PAPER_SWEEP_LEVELS,
        PAPER_SWEEP_LEVELS,
    ),
    Figure(
        "fig17",
        "resnet3_2_bwd_weights",
        dict(fig17.CONFIGS),
        (0.0, 0.4),
        PAPER_SWEEP_LEVELS,
    ),
)


class TimedExecutor(SimExecutor):
    """A ``SimExecutor`` whose ``map`` runs through ``map_timed``.

    Values, chunking and pool lifetime are those of ``map``; each
    point's in-worker wall is kept as that item's latency, and in a
    traced run every map is one ``executor.map`` span.
    """

    def __init__(self, jobs: int, tracer: Tracer) -> None:
        super().__init__(jobs=jobs)
        self.tracer = tracer
        self.walls: list[float] = []

    def map(self, jobs):
        with self.tracer.span("executor.map", points=len(jobs)):
            values, walls = self.map_timed(jobs)
        self.walls.extend(walls)
        return values


def run_figure(
    figure: Figure, seed: int, executor: SimExecutor, k_steps: int = EXACT_K_STEPS
) -> dict[str, SweepResult]:
    return sweep_kernel(
        get_kernel(figure.kernel),
        figure.machines,
        figure.bs_levels,
        figure.nbs_levels,
        k_steps=k_steps,
        seed=seed,
        executor=executor,
    )


def figure_jobs(figure: Figure, seed: int, k_steps: int = EXACT_K_STEPS) -> list[PointJob]:
    """The points ``sweep_kernel`` simulates for ``figure``, in its order."""
    spec = get_kernel(figure.kernel)
    jobs = [PointJob(spec.config(k_steps=k_steps, seed=seed), BASELINE_2VPU)]
    for machine in figure.machines.values():
        for bs in figure.bs_levels:
            for nbs in figure.nbs_levels:
                config = spec.config(bs, nbs, k_steps=k_steps, seed=seed)
                jobs.append(PointJob(config, machine))
    return jobs


def speedups_from_times(figure: Figure, times: list[float]) -> dict[str, dict]:
    """``sweep_kernel``'s speedup tables from its points' times, in job order."""
    base, points = times[0], times[1:]
    per_machine = len(figure.bs_levels) * len(figure.nbs_levels)
    out = {}
    for m, label in enumerate(figure.machines):
        grid = [(bs, nbs) for bs in figure.bs_levels for nbs in figure.nbs_levels]
        out[label] = {
            (round(bs, 2), round(nbs, 2)): base / points[m * per_machine + p]
            for p, (bs, nbs) in enumerate(grid)
        }
    return out


def check_exact(
    results: dict[str, dict[str, SweepResult]],
    seed: int,
    figures: tuple[Figure, ...] = FIGURES,
    k_steps: int = EXACT_K_STEPS,
    samples: int = EXACT_SAMPLES,
) -> list[str]:
    """Seeded sample points re-run in-process must match bit for bit."""
    rng = random.Random(seed)
    candidates = [
        (figure, label, bs, nbs)
        for figure in figures
        for label in figure.machines
        for bs in figure.bs_levels
        for nbs in figure.nbs_levels
    ]
    problems = []
    base: dict[str, float] = {}
    for figure, label, bs, nbs in rng.sample(candidates, min(samples, len(candidates))):
        spec = get_kernel(figure.kernel)
        if figure.name not in base:
            base[figure.name] = PointJob(
                spec.config(k_steps=k_steps, seed=seed), BASELINE_2VPU
            ).run()
        point = PointJob(
            spec.config(bs, nbs, k_steps=k_steps, seed=seed), figure.machines[label]
        ).run()
        want = base[figure.name] / point
        got = results[figure.name][label].speedups.get((round(bs, 2), round(nbs, 2)))
        if got != want:
            problems.append(
                f"{figure.name} {label} bs={bs} nbs={nbs}: sweep gave {got!r}, "
                f"PointJob.run gives {want!r}"
            )
    return problems


def grid_levels(side: int) -> list[float]:
    step = 0.9 / max(side - 1, 1)
    return [round(i * step, 6) for i in range(side)]


def read_back(store_root: Path) -> tuple[dict[tuple[float, float], float], int]:
    """One full query scan: ``{(bs, nbs): value}`` and the rows seen."""
    rows: dict[tuple[float, float], float] = {}
    count = 0
    for row in SweepStore(store_root).query():
        rows[(row["bs"], row["nbs"])] = row["value"]
        count += 1
    return rows, count


def fast_job(bs: float, nbs: float, seed: int, k_steps: int = FAST_K_STEPS) -> PointJob:
    config = get_kernel(FAST_KERNEL).config(bs, nbs, k_steps=k_steps, seed=seed)
    return PointJob(config, FAST_MACHINE, metric=METRIC_NS_PER_FMA, engine="fast")


def check_fast(
    rows: dict[tuple[float, float], float],
    count: int,
    groups: int,
    levels: list[float],
    seed: int,
    k_steps: int = FAST_K_STEPS,
    samples: int = FAST_SAMPLES,
) -> list[str]:
    """The store holds the grid once per point and aggregates to one group
    per BS level; sampled rows match ``PointJob.run()``."""
    grid = sorted((bs, nbs) for bs in levels for nbs in levels)
    problems = []
    if count != len(grid) or set(rows) != set(grid):
        problems.append(
            f"store returned {count} rows over {len(rows)} points; "
            f"the grid has {len(grid)} points"
        )
    if groups != len(levels):
        problems.append(f"aggregate gave {groups} bs groups, expected {len(levels)}")
    for bs, nbs in random.Random(seed).sample(grid, min(samples, len(grid))):
        want = fast_job(bs, nbs, seed, k_steps).run()
        got = rows.get((bs, nbs))
        if got != want:
            problems.append(f"row bs={bs} nbs={nbs}: store has {got!r}, PointJob.run gives {want!r}")
    return problems


def _store_layout(store_root: Path) -> tuple[int, int]:
    files = [p for p in store_root.rglob("*") if p.is_file()]
    segments = sum(1 for p in files if p.suffix == ".npz")
    return segments, sum(p.stat().st_size for p in files)


# -- exact_figs -------------------------------------------------------------


def exact_figs(run: Run) -> None:
    if run.traced:
        _exact_traced(run)
        return
    results: dict[str, dict[str, SweepResult]] = {}
    walls: list[float] = []
    start = time.perf_counter()
    for _ in range(run.scaled(1)):
        for figure in FIGURES:
            executor = TimedExecutor(EXACT_JOBS, run.tracer)
            results[figure.name] = run_figure(figure, run.seed, executor)
            walls += executor.walls
    wall = time.perf_counter() - start
    run.attempted = len(walls)
    run.record_items(walls, len(walls), wall)
    run.problems += check_exact(results, run.seed)


def _pool_probe_jobs() -> list[PointJob]:
    """Two cheap points: a map over them is mostly pool start-up."""
    return [fast_job(0.0, 0.0, 0, k_steps=1), fast_job(0.5, 0.5, 0, k_steps=1)]


def _exact_traced(run: Run) -> None:
    tracer = run.tracer
    counts: Counter = Counter()
    serial: dict[str, list[float]] = {}
    results: dict[str, dict[str, SweepResult]] = {}
    executors: list[TimedExecutor] = []
    with tracer.span("workload") as root:
        with tracer.span("executor.pool_start"):
            SimExecutor(jobs=EXACT_JOBS).map(_pool_probe_jobs())
        for figure in FIGURES:
            with tracer.span("experiments.job_build"):
                jobs = figure_jobs(figure, run.seed)
            times = []
            for job in jobs:
                with tracer.span("kernels.generate_trace"):
                    trace = generate_trace(job.config)
                with tracer.span("core.simulate"):
                    result = simulate(trace, job.machine, keep_state=False)
                counts["uops"] += len(trace)
                for name in (
                    "cycles", "fma_count", "skipped_fmas", "effectual_lanes",
                    "pass_through_lanes", "stall_rob_cycles", "stall_rs_cycles",
                    "l1_port_accesses", "b_cache_reads_saved",
                ):
                    counts[name] += getattr(result, name)
                times.append(result.time_ns)
            serial[figure.name] = times
        for figure in FIGURES:
            executor = TimedExecutor(EXACT_JOBS, tracer)
            with tracer.span("experiments.sweep_kernel"):
                results[figure.name] = run_figure(figure, run.seed, executor)
            executors.append(executor)
    run.record_trace(root)
    run.attempted = sum(len(times) for times in serial.values())

    for figure in FIGURES:
        replayed = speedups_from_times(figure, serial[figure.name])
        swept = {label: r.speedups for label, r in results[figure.name].items()}
        if replayed != swept:
            run.problems.append(f"{figure.name}: serial replay differs from sweep_kernel")
    run.problems += check_exact(results, run.seed)

    spans = tracer.spans
    trace_s = total(spans, "kernels.generate_trace")
    simulate_s = total(spans, "core.simulate")
    map_s = total(spans, "executor.map")
    busy_s = sum(sum(executor.walls) for executor in executors)
    run.per_layer.update({
        "kernels.trace_s": trace_s,
        "kernels.uops": counts["uops"],
        "core.simulate_s": simulate_s,
        "core.us_per_sim_cycle": simulate_s / counts["cycles"] * 1e6,
        "core.us_per_uop": simulate_s / counts["uops"] * 1e6,
        "core.sim_cycles": counts["cycles"],
        "core.fmas": counts["fma_count"],
        "core.skipped_fmas": counts["skipped_fmas"],
        "core.effectual_lanes": counts["effectual_lanes"],
        "core.pass_through_lanes": counts["pass_through_lanes"],
        "core.stall_rob_cycles": counts["stall_rob_cycles"],
        "core.stall_rs_cycles": counts["stall_rs_cycles"],
        "core.skip_frac": counts["skipped_fmas"] / counts["fma_count"],
        "memory.l1_port_accesses": counts["l1_port_accesses"],
        "memory.bcache_reads_saved": counts["b_cache_reads_saved"],
        "executor.map_s": map_s,
        "executor.busy_s": busy_s,
        "executor.idle_s": EXACT_JOBS * map_s - busy_s,
        "executor.utilization": busy_s / (EXACT_JOBS * map_s),
        "executor.pool_start_s": total(spans, "executor.pool_start"),
        "executor.maps": len(durations(spans, "executor.map")),
        "experiments.assemble_s": total(spans, "experiments.sweep_kernel") - map_s,
        "experiments.job_build_s": total(spans, "experiments.job_build"),
    })


# -- fast_sweep -------------------------------------------------------------


def fast_side(run: Run) -> int:
    return max(8, round(FAST_SIDE * math.sqrt(run.seconds / NOMINAL_SECONDS)))


def sweep_meta(seed: int, k_steps: int = FAST_K_STEPS) -> dict:
    """The store identity ``stream_sweep`` gives the fast_sweep grid."""
    spec = get_kernel(FAST_KERNEL)
    return {
        "kernel": spec.name,
        "machine": machine_label(FAST_MACHINE),
        "engine": "fast",
        "mechanism": "save",
        "metric": METRIC_NS_PER_FMA,
        "precision": spec.default_precision.value,
        "k_steps": k_steps,
        "seed": seed,
    }


def fast_sweep(run: Run) -> None:
    """The item is a slab of ``SLAB_ROWS`` grid rows (BS levels) across
    every NBS level; its latency is the summed wall of its points."""
    levels = grid_levels(fast_side(run))
    store_root = run.tmp / "sweep"
    if run.traced:
        _fast_traced(run, levels, store_root)
        return
    executor = TimedExecutor(1, run.tracer)
    start = time.perf_counter()
    summary = stream_sweep(
        FAST_KERNEL, FAST_MACHINE, levels, levels, store_root,
        engine="fast", metric=METRIC_NS_PER_FMA, k_steps=FAST_K_STEPS,
        seed=run.seed, executor=executor,
    )
    rows, count = read_back(store_root)
    groups = SweepStore(store_root).aggregate(group_by=("bs",))
    wall = time.perf_counter() - start
    slab, walls = SLAB_ROWS * len(levels), executor.walls
    slab_walls = [sum(walls[i : i + slab]) for i in range(0, len(walls), slab)]
    run.attempted = summary["points"]
    run.record_items(slab_walls, len(slab_walls), wall)
    run.problems += check_fast(rows, count, len(groups), levels, run.seed)


def _fast_traced(run: Run, levels: list[float], store_root: Path) -> None:
    tracer = run.tracer
    spec = get_kernel(FAST_KERNEL)
    grid = [(bs, nbs) for bs in levels for nbs in levels]
    with tracer.span("workload") as root:
        with tracer.span("store.open"):
            writer = SweepWriter(store_root, sweep_meta(run.seed))
        for first in range(0, len(grid), DEFAULT_BATCH_POINTS):
            batch = grid[first : first + DEFAULT_BATCH_POINTS]
            with tracer.span("experiments.job_build"):
                configs = [
                    spec.config(bs, nbs, k_steps=FAST_K_STEPS, seed=run.seed)
                    for bs, nbs in batch
                ]
            values = []
            for config in configs:
                with tracer.span("fastsim.soa"):
                    arrays = TraceArrays.from_config(config)
                with tracer.span("fastsim.estimate"):
                    result = simulate_arrays(arrays, FAST_MACHINE, "fast", config=config)
                values.append(result.time_ns / result.fma_count)
            with tracer.span("store.append_batch"):
                writer.append_batch([bs for bs, _ in batch], [nbs for _, nbs in batch], values)
        with tracer.span("store.close"):
            writer.close()
        with tracer.span("store.query"):
            rows, count = read_back(store_root)
        with tracer.span("store.aggregate"):
            groups = SweepStore(store_root).aggregate(group_by=("bs",))
    run.record_trace(root)
    run.attempted = len(grid)
    run.problems += check_fast(rows, count, len(groups), levels, run.seed)

    spans = tracer.spans
    soa_s = total(spans, "fastsim.soa")
    estimate_s = total(spans, "fastsim.estimate")
    query_s = total(spans, "store.query")
    segments, size = _store_layout(store_root)
    run.per_layer.update({
        "fastsim.soa_s": soa_s,
        "fastsim.estimate_s": estimate_s,
        "fastsim.us_per_point": (soa_s + estimate_s) / len(grid) * 1e6,
        "fastsim.err_p95_pct": held_out_error_pct(run.seed),
        "store.append_s": total(spans, "store.append_batch") + total(spans, "store.close"),
        "store.segments": segments,
        "store.bytes": size,
        "store.query_s": query_s,
        "store.query_rows_per_s": count / query_s,
        "store.aggregate_s": total(spans, "store.aggregate"),
        "experiments.job_build_s": total(spans, "experiments.job_build"),
    })


def held_out_error_pct(seed: int, points: int = HELD_OUT) -> float:
    """p95 relative cycle error of fast against exact on off-grid points."""
    rng = random.Random(seed + 7)
    spec = get_kernel(FAST_KERNEL)
    errors = []
    for _ in range(points):
        bs, nbs = round(rng.uniform(0.0, 0.9), 4), round(rng.uniform(0.0, 0.9), 4)
        config = spec.config(bs, nbs, k_steps=FAST_K_STEPS, seed=seed)
        exact = simulate(trace_stream(config), FAST_MACHINE, keep_state=False).cycles
        fast = simulate_config(config, FAST_MACHINE, "fast").cycles
        errors.append(abs(fast - exact) / exact)
    return nearest_rank(errors, 0.95) * 100.0


def measure(run: Run) -> None:
    {"exact_figs": exact_figs, "fast_sweep": fast_sweep}[run.workload](run)

"""Fast-tier batching in the executor is invisible in its results.

Runs of consecutive fast jobs that share a machine and metric are
evaluated as one ``simulate_configs`` batch on every backend; the
values must equal each job's own ``run()`` bit for bit, whatever the
interleaving with exact jobs and however chunking splits the runs.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.config import SAVE_2VPU, CoalescingScheme
from repro.experiments.executor import (
    METRIC_NS_PER_FMA,
    METRIC_TIME_NS,
    PointJob,
    SimExecutor,
    job_runs,
)
from repro.fastsim.calibration import calibration_classes
from repro.kernels.library import get_kernel
from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.obs import telemetry

SAVE_VARIANTS = (
    SAVE_2VPU.with_save(coalescing=CoalescingScheme.VERTICAL),
    SAVE_2VPU.with_save(coalescing=CoalescingScheme.HORIZONTAL),
    SAVE_2VPU.with_save(coalescing=CoalescingScheme.NAIVE),
    SAVE_2VPU.with_save(broadcast_cache=BroadcastCacheKind.MASK),
    SAVE_2VPU.with_save(lane_wise_dependence=False),
)


def _mixed_jobs():
    """Fast runs for every calibration class and SAVE variant, two tile
    shapes and two seeds, interleaved with cheap exact jobs."""
    rng = random.Random(15)
    cases = [(spec, machine) for spec, machine in calibration_classes().values()]
    cases += [
        (get_kernel(kernel), machine)
        for machine in SAVE_VARIANTS
        for kernel in ("resnet2_2_fwd", "resnet3_2_bwd_weights")
    ]
    levels = (0.0, 0.25, 0.5, 0.9)
    jobs = []
    for index, (spec, machine) in enumerate(cases):
        metric = (METRIC_TIME_NS, METRIC_NS_PER_FMA)[index % 2]
        for _ in range(rng.randint(3, 9)):
            config = spec.config(
                rng.choice(levels), rng.random(), k_steps=3, seed=rng.choice((0, 4))
            )
            jobs.append(PointJob(config, machine, metric=metric, engine="fast"))
        if index % 6 == 0:
            exact = get_kernel("resnet3_2_bwd_input").config(
                rng.random(), rng.random(), k_steps=2, seed=index
            )
            jobs.append(PointJob(exact, machine, metric=metric))
    return jobs


@pytest.fixture(scope="module")
def mixed():
    jobs = _mixed_jobs()
    return jobs, [job.run() for job in jobs]


class TestBatchedIdentity:
    def test_jobs_do_batch(self, mixed):
        jobs, _ = mixed
        runs = job_runs(list(enumerate(jobs)))
        assert max(len(run) for run in runs) > 1
        assert sum(len(run) for run in runs) == len(jobs)

    def test_serial_map(self, mixed):
        jobs, expected = mixed
        assert SimExecutor(jobs=1).map(jobs) == expected

    def test_serial_map_timed(self, mixed):
        jobs, expected = mixed
        values, walls = SimExecutor(jobs=1).map_timed(jobs)
        assert values == expected
        assert len(walls) == len(jobs)

    def test_pool_map_with_chunks_splitting_runs(self, mixed):
        jobs, expected = mixed
        assert SimExecutor(jobs=2, chunksize=7).map(jobs) == expected

    def test_pool_map_timed_with_chunks_splitting_runs(self, mixed):
        jobs, expected = mixed
        values, walls = SimExecutor(jobs=2, chunksize=5).map_timed(jobs)
        assert values == expected
        assert len(walls) == len(jobs)


class TestRuns:
    def _fast(self, seed, machine=SAVE_2VPU, metric=METRIC_TIME_NS, mechanism="save"):
        config = get_kernel("resnet2_2_fwd").config(0.5, 0.5, k_steps=2, seed=seed)
        return PointJob(config, machine, metric=metric, engine="fast", mechanism=mechanism)

    def test_batch_key(self):
        exact = PointJob(get_kernel("resnet2_2_fwd").config(k_steps=2), SAVE_2VPU)
        nm = PointJob(get_kernel("nm24_fwd").config(k_steps=2), SAVE_2VPU, engine="fast")
        jobs = [
            self._fast(0), self._fast(1),  # one run
            self._fast(2, metric=METRIC_NS_PER_FMA),  # new metric
            self._fast(3, machine=SAVE_2VPU.with_save(mgu_count=1)),  # new machine
            exact, exact,  # exact jobs run alone
            nm, nm,  # so do configs the fast tier does not batch
            self._fast(4), self._fast(5),
        ]
        runs = job_runs(list(enumerate(jobs)))
        assert [[index for index, _ in run] for run in runs] == [
            [0, 1], [2], [3], [4], [5], [6], [7], [8, 9],
        ]


class TestTimedWalls:
    """``map_timed``: an exact job's wall is its own; a fast batch's
    points share the batch's wall evenly."""

    def test_fast_batch_walls_sum_to_its_wall(self, monkeypatch):
        ticks = iter(range(1000))
        monkeypatch.setattr(
            telemetry, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks)))
        )
        spec = get_kernel("resnet2_2_fwd")
        fast = [
            PointJob(spec.config(0.1 * i, 0.5, k_steps=2), SAVE_2VPU, engine="fast")
            for i in range(5)
        ]
        exact = PointJob(spec.config(0.5, 0.5, k_steps=1), SAVE_2VPU)
        values, walls = SimExecutor(jobs=1).map_timed(fast + [exact] + fast[:3])
        # Each run spans exactly one tick of the fake clock.
        assert walls[5] == 1.0
        assert sum(walls[:5]) == pytest.approx(1.0)
        assert walls[:5] == [walls[0]] * 5
        assert sum(walls[6:]) == pytest.approx(1.0)
        assert len(walls) == len(values) == 9

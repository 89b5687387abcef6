"""Each workload's output check passes on real output and bites on bad output."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.check import CheckResult, run_checks
from repro.core.config import SAVE_2VPU
from repro.experiments.executor import SimExecutor
from repro.experiments.streamsweep import stream_sweep
from repro.serve.schema import parse_request

import checktree
import served
import sweeps
from harness import Run
from tracing import Tracer

TINY = sweeps.Figure("tiny", "resnet2_2_fwd", {"save": SAVE_2VPU}, (0.0, 0.5), (0.0, 0.5))
K = 2


@pytest.fixture(scope="module")
def tiny_results():
    return {"tiny": sweeps.run_figure(TINY, 5, SimExecutor(jobs=1), k_steps=K)}


def test_exact_check_passes_on_sweep_output(tiny_results):
    assert sweeps.check_exact(tiny_results, 5, (TINY,), K, samples=4) == []


def test_exact_check_catches_a_changed_value(tiny_results):
    speedups = tiny_results["tiny"]["save"].speedups
    key = next(iter(speedups))
    original = speedups[key]
    speedups[key] = math.nextafter(original, math.inf)
    try:
        problems = sweeps.check_exact(tiny_results, 5, (TINY,), K, samples=4)
    finally:
        speedups[key] = original
    assert len(problems) == 1


def test_serial_replay_reproduces_sweep_kernel(tiny_results):
    times = [job.run() for job in sweeps.figure_jobs(TINY, 5, K)]
    replayed = sweeps.speedups_from_times(TINY, times)
    assert replayed == {label: r.speedups for label, r in tiny_results["tiny"].items()}


def test_timed_executor_returns_map_values():
    jobs = sweeps.figure_jobs(TINY, 5, K)
    executor = sweeps.TimedExecutor(1, Tracer(enabled=False))
    assert executor.map(jobs) == SimExecutor(jobs=1).map(jobs)
    assert len(executor.walls) == len(jobs)


def test_fast_check_catches_a_dropped_store_row(tmp_path):
    levels = sweeps.grid_levels(4)
    meta = sweeps.sweep_meta(3, K)
    summary = stream_sweep(
        sweeps.FAST_KERNEL, sweeps.FAST_MACHINE, levels, levels, tmp_path,
        engine="fast", metric=meta["metric"], k_steps=K, seed=3,
    )
    rows, count = sweeps.read_back(tmp_path)
    assert sweeps.check_fast(rows, count, len(levels), levels, 3, K, samples=16) == []

    segment = next((tmp_path / summary["fingerprint"]).glob("seg-*.npz"))
    with np.load(segment) as data:
        columns = {name: data[name][:-1] for name in data.files}
    np.savez_compressed(segment, **columns)
    rows, count = sweeps.read_back(tmp_path)
    assert sweeps.check_fast(rows, count, len(levels), levels, 3, K, samples=16)


def test_fast_traced_replay_writes_the_untraced_rows(tmp_path):
    stores = {}
    for traced in (False, True):
        scratch = tmp_path / str(traced)
        scratch.mkdir()
        run = Run(
            workload="fast_sweep", seed=2, seconds=1, traced=traced,
            root=Path(__file__).resolve().parents[2], tmp=scratch,
            tracer=Tracer(enabled=traced),
        )
        sweeps.fast_sweep(run)
        assert run.problems == []
        fingerprints = sorted(p.name for p in (scratch / "sweep").iterdir())
        stores[traced] = fingerprints, sweeps.read_back(scratch / "sweep")
    assert stores[False] == stores[True]


def _served_payloads(requests):
    return {
        i: {"values": [job.run() for job in parse_request(body).jobs()]}
        for i, body in enumerate(requests)
    }


@pytest.mark.parametrize("workload", ["serve_hot", "serve_scan", "serve_cold"])
def test_serve_check_catches_a_perturbed_payload(workload):
    requests = served.build_mix(workload, 12, seed=4)
    payloads = _served_payloads(requests)
    assert served.check_served(requests, payloads) == []
    payloads[7]["values"][0] *= 1.0 + 1e-12
    assert len(served.check_served(requests, payloads)) == 1


def test_serve_mixes_are_valid_and_shaped_as_described():
    hot = served.build_mix("serve_hot", 40, seed=1)
    assert len({tuple(r["point"]) for r in hot}) == served.HOT_POINTS
    scan = [parse_request(r) for r in served.build_mix("serve_scan", 1000, seed=1)]
    assert len({r.fingerprint() for r in scan}) == 1000
    assert len({r.batch_key() for r in scan}) == 1
    cold = [parse_request(r) for r in served.build_mix("serve_cold", 200, seed=1)]
    assert len({r.batch_key() for r in cold}) == 200
    assert served.build_mix("serve_scan", 30, seed=9) == served.build_mix("serve_scan", 30, seed=9)
    assert served.build_mix("serve_scan", 30, seed=9) != served.build_mix("serve_scan", 30, seed=8)


def test_check_tree_check_catches_a_diagnostic(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n    pass\n")
    result = run_checks(tmp_path)
    assert result.diagnostics
    assert checktree.check_results([result], [result])


def test_check_tree_check_catches_a_warm_run_on_another_tree(tmp_path):
    cold = CheckResult(root=tmp_path, diagnostics=[], files_checked=10, suppressed=0)
    warm = CheckResult(root=tmp_path, diagnostics=[], files_checked=9, suppressed=0)
    assert checktree.check_results([cold], [cold]) == []
    assert checktree.check_results([cold], [warm])

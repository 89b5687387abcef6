"""BENCHMARK.json's shape, and run.py end to end on short runs."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_names_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC["workloads"]) == 6
    assert len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_workloads_are_the_runner_workloads():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_serve_run_reports_every_metric_of_its_mode(trace):
    proc = _run(ROOT, "--workload", "serve_cold", "--seed", "6", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 100 and result["failed"] == 0
    section = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["serve.requests"]["value"] == 100
        assert result["metrics"]["coverage_frac"]["value"] >= 0.95


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("runs"))
    proc = _run(tmp_path, "--workload", "check_tree", "--seed", "0", "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload serve_cold --seed 3 --seconds 10 --trace 0

prints every metric as ``workload metric value unit`` and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics from a separate
traced run.  Without ``--workload`` every workload runs, each in its
own process.  The exit code is 0 only when every output check passed.

The run's report, with the traced run's spans and their self times,
is written to ``--out`` (default ``bench/runs/<workload>-seed<N>-trace<T>.json``).
Scratch stores live in ``bench/runs/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"

#: Workload -> the bench module that runs it.
WORKLOADS = {
    "exact_figs": "sweeps",
    "fast_sweep": "sweeps",
    "serve_hot": "served",
    "serve_scan": "served",
    "serve_cold": "served",
    "check_tree": "checktree",
}

#: Process launches timed for ``setup_s`` when the workload runs
#: in-process (serve workloads time their server starts instead).
SETUP_PROBES = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="where to write the run report")
    # Internal: import the workload's modules, print "ready" and exit.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def _argv(args: argparse.Namespace, workload: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]


def _probe_setup(args: argparse.Namespace) -> float:
    """Median seconds from launching a process to its workload being ready."""
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            _argv(args, args.workload) + ["--probe"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({line.strip()!r})")
    return statistics.median(walls)


def _report(run, spec: dict) -> dict:
    """The run's metrics for its mode, in BENCHMARK.json's order and units."""
    from tracing import self_times, summarize

    if run.traced:
        # A layer the workload does not exercise reads 0.
        metrics = {
            m["name"]: {"value": run.per_layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in run.end_to_end]
        if missing:
            raise RuntimeError(f"{run.workload} did not measure {missing}")
        metrics = {
            m["name"]: {"value": run.end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    spans = run.tracer.spans
    origin = spans[0].start if spans else 0.0
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "end_to_end": run.end_to_end,
        "per_layer": run.per_layer,
        "span_summary": summarize(spans),
        # [name, start, duration, parent, self time, attributes]
        "spans": [
            [s.name, s.start - origin, s.duration, s.parent, own, s.attrs]
            for s, own in zip(spans, self_times(spans))
        ],
    }


def run_one(args: argparse.Namespace) -> int:
    from harness import Run, peak_rss_mb
    from tracing import Tracer

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.probe:
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=RUNS) as tmp:
        run = Run(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            traced=bool(args.trace), root=ROOT, tmp=Path(tmp),
            tracer=Tracer(enabled=bool(args.trace)),
        )
        if not run.traced and WORKLOADS[args.workload] != "served":
            run.end_to_end["setup_s"] = _probe_setup(args)
        module.measure(run)
    run.end_to_end["peak_rss_mb"] = peak_rss_mb()
    report = _report(run, spec)
    out = args.out or RUNS / f"{run.workload}-seed{run.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report))
    for name, metric in report["metrics"].items():
        print(f"{run.workload} {name} {metric['value']!r} {metric['unit']}")
    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(run.problems) > 10:
        print(f"... and {len(run.problems) - 10} more failed checks", file=sys.stderr)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process of its own; worst exit code wins."""
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, subprocess.run(_argv(args, workload)).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {src}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

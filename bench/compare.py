"""Judge a change against its parent from benchmark run files.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each argument is a run report written by ``bench/run.py --out``, a
directory of them, or a JSON list of them (``--bundle`` writes one).
Runs pair up per workload after a stable sort by seed, so run the
parent and the change alternately, at least ten pairs, on the same
seeds.  For every workload and end-to-end metric it prints each side's
median and quartiles, the change's wins and a verdict: improved,
unchanged, regressed or unresolved (see ``stats.verdict``).  Per-layer
medians of traced runs follow, without verdicts.  Exits 1 if any
metric regressed.

    python3 bench/compare.py --summary RUNS...

prints each metric's median and quartile spread per workload, and the
bound the spread supports: ``max(default, 2 x spread)``, capped at 0.25.

    python3 bench/compare.py --bundle OUT RUNS...

writes the runs, without their raw spans, as one JSON list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import MIN_PAIRS, quartiles, relative_spread, verdict

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MAX_BOUND = 0.25


def load_runs(paths: list[Path]) -> list[dict]:
    runs: list[dict] = []
    for path in paths:
        if path.is_dir():
            runs += load_runs(sorted(path.glob("*.json")))
            continue
        data = json.loads(path.read_text())
        runs += data if isinstance(data, list) else [data]
    return runs


def by_workload(runs: list[dict], traced: bool) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        if bool(run["trace"]) == traced:
            out[run["workload"]].append(run)
    for group in out.values():
        group.sort(key=lambda run: run["seed"])
    return out


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    regressed = 0
    base, new = by_workload(parent, False), by_workload(change, False)
    for workload in sorted(set(base) & set(new)):
        pairs = min(len(base[workload]), len(new[workload]))
        note = "" if pairs >= MIN_PAIRS else f" (only {pairs} pairs: no gain can be claimed)"
        print(f"{workload}: {pairs} pairs{note}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = values(base[workload][:pairs], name)
            c = values(new[workload][:pairs], name)
            result = verdict(p, c, metric["better"], metric["bound"])
            regressed += result["verdict"] == "regressed"
            p1, _, p3 = quartiles(p)
            c1, _, c3 = quartiles(c)
            print(
                f"  {name:<12} parent {result['parent_median']:.6g} [{p1:.6g}, {p3:.6g}]"
                f"  change {result['change_median']:.6g} [{c1:.6g}, {c3:.6g}]"
                f"  {result['change_share']:+.1%}  wins {result['wins']}/{pairs}"
                f"  bound {metric['bound']:.0%}  {result['verdict']}"
            )
    base, new = by_workload(parent, True), by_workload(change, True)
    for workload in sorted(set(base) & set(new)):
        print(f"{workload} per layer (traced medians, no bound):")
        for metric in spec["per_layer"]:
            p = statistics.median(values(base[workload], metric["name"]))
            c = statistics.median(values(new[workload], metric["name"]))
            if p or c:
                share = f"{(c - p) / abs(p):+.1%}" if p else "new"
                print(f"  {metric['name']:<36} {p:.6g} -> {c:.6g} {metric['unit']} {share}")
    return 1 if regressed else 0


def summary(runs: list[dict], spec: dict) -> None:
    groups = by_workload(runs, False)
    for metric in spec["end_to_end"]:
        name, default = metric["name"], metric["bound"]
        supported = default
        for workload, group in sorted(groups.items()):
            v = values(group, name)
            spread = relative_spread(v) if len(v) > 1 else 0.0
            supported = max(supported, 2 * spread)
            print(
                f"{workload:<11} {name:<12} n={len(v)} median {statistics.median(v):.6g}"
                f" {metric['unit']}  spread {spread:.2%}"
            )
        print(f"{name}: bound {default:.0%} in BENCHMARK.json; runs support "
              f"{min(supported, MAX_BOUND):.0%}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path)
    parser.add_argument("--change", nargs="+", type=Path)
    parser.add_argument("--summary", nargs="+", type=Path)
    parser.add_argument("--bundle", nargs="+", type=Path, metavar=("OUT", "RUNS"))
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.bundle:
        out, sources = args.bundle[0], args.bundle[1:]
        runs = [{k: v for k, v in run.items() if k != "spans"} for run in load_runs(sources)]
        out.write_text(json.dumps(runs, indent=1) + "\n")
        return 0
    if args.summary:
        summary(load_runs(args.summary), spec)
        return 0
    if not (args.parent and args.change):
        parser.error("give --parent and --change runs, --summary or --bundle")
    return compare(load_runs(args.parent), load_runs(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())

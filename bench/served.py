"""serve_hot, serve_scan and serve_cold: traffic mixes against ``repro serve``.

Each run starts ``repro serve --port 0 --jobs 2`` as a subprocess with a
store in the run's scratch directory and drives one mix through the
HTTP API from two client threads, each a closed loop over
``ServeClient.run``.  Every response value is checked against a direct
``PointJob.run()`` after timing.

* serve_hot: four points, asked for again and again.  After the first
  simulations every answer comes from dedup or the result store.
* serve_scan: distinct points of one kernel and machine, so every
  request shares one batch key and coalesces into micro-batches.
* serve_cold: a distinct kernel seed per request: nothing dedups,
  batches or hits the store.
"""

from __future__ import annotations

import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.serve.client import ServeClient
from repro.serve.schema import parse_request

from harness import Run
from stats import nearest_rank
from tracing import Span, Tracer

CLIENTS = 2
SERVER_JOBS = 2
K_STEPS = 3
#: Requests per mix at the nominal run length.  Scan and cold keep at
#: least 1000, so ten samples lie beyond their p99.
MIX_REQUESTS = {"serve_hot": 4000, "serve_scan": 1000, "serve_cold": 1000}
#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
HOT_POINTS = 4
START_TIMEOUT_S = 30.0


def _request(point: tuple[float, float], kernel_seed: int) -> dict[str, Any]:
    return {
        "kind": "point",
        "kernel": {"rows": 2, "cols": 2, "k_steps": K_STEPS, "seed": kernel_seed},
        "machine": {"preset": "save"},
        "point": list(point),
        "engine": "fast",
    }


def _random_point(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(0.0, 0.9), 2), round(rng.uniform(0.0, 0.9), 2)


def build_mix(workload: str, count: int, seed: int) -> list[dict[str, Any]]:
    """The request list one mix replays; equal arguments, equal requests."""
    rng = random.Random(seed)
    if workload == "serve_hot":
        hot: list[tuple[float, float]] = []
        while len(hot) < HOT_POINTS:
            point = _random_point(rng)
            if point not in hot:
                hot.append(point)
        return [_request(hot[i % HOT_POINTS], seed) for i in range(count)]
    if workload == "serve_scan":
        side = math.isqrt(count - 1) + 1
        levels = [round(i * 0.9 / max(side - 1, 1), 6) for i in range(side)]
        points = [(bs, nbs) for bs in levels for nbs in levels]
        rng.shuffle(points)
        return [_request(point, seed) for point in points[:count]]
    if workload == "serve_cold":
        return [_request(_random_point(rng), seed * 100_000 + 1 + i) for i in range(count)]
    raise ValueError(f"unknown serve workload {workload!r}")


def warmup_request(seed: int) -> dict[str, Any]:
    """A small sweep: its multi-point batch starts the server's pool."""
    body = _request((0.0, 0.0), seed)
    del body["point"]
    body.update(kind="sweep", levels=[0.05, 0.15])
    return body


def check_served(
    requests: list[dict[str, Any]], payloads: dict[int, dict[str, Any]]
) -> list[str]:
    """Every response's values equal a direct ``PointJob.run()``."""
    expected: dict[str, list[float]] = {}
    problems = []
    for index, payload in sorted(payloads.items()):
        request = parse_request(requests[index])
        key = request.fingerprint()
        if key not in expected:
            expected[key] = [job.run() for job in request.jobs()]
        got = payload.get("values")
        if got != expected[key]:
            problems.append(f"request {index}: served {got!r}, PointJob.run gives {expected[key]!r}")
    return problems


class Server:
    """One ``repro serve`` subprocess with its own store."""

    def __init__(self, run: Run, index: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(run.src), env.get("PYTHONPATH")) if p
        )
        self.log = run.tmp / f"server{index}.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--port", "0",
                    "--jobs", str(SERVER_JOBS), "--store", str(run.tmp / f"store{index}"),
                ],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env, cwd=run.root,
            )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {self.log.read_text()[-2000:]}")
        self.url = match.group(1)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_server(run: Run, index: int) -> tuple[Server, float]:
    """Spawn, wait for ``/healthz``, send the warm-up; seconds it took."""
    start = time.perf_counter()
    server = Server(run, index)
    try:
        client = ServeClient(server.url)
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError(f"{server.url} never became healthy")
            time.sleep(0.01)
        client.run(warmup_request(run.seed))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


class TimedClient(ServeClient):
    """``ServeClient`` with a span around each HTTP verb; ``run`` is inherited.

    Each span carries the trace ID the server gave the request at submit
    (its ``X-Trace-Id``).
    """

    def __init__(self, base_url: str, tracer: Tracer) -> None:
        super().__init__(base_url)
        self.tracer = tracer
        self.trace_id = ""

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        with self.tracer.span("serve.client.submit") as span:
            ticket = super().submit(request)
        self.trace_id = span.attrs["trace_id"] = ticket.get("trace", "")
        return ticket

    def poll(self, key: str) -> dict[str, Any]:
        with self.tracer.span("serve.client.poll", trace_id=self.trace_id):
            return super().poll(key)

    def result(self, key: str) -> dict[str, Any]:
        with self.tracer.span("serve.client.result", trace_id=self.trace_id):
            return super().result(key)


def drive(
    requests: list[dict[str, Any]],
    make_client: Callable[[], ServeClient],
    tracer: Tracer,
    parent: int,
) -> tuple[dict[int, float], dict[int, dict[str, Any]], list[str]]:
    """Closed loop: ``CLIENTS`` threads each send their next request when
    the last returns.  Returns per-request walls, payloads and errors."""
    pending = deque(enumerate(requests))
    lock = threading.Lock()
    walls: dict[int, float] = {}
    payloads: dict[int, dict[str, Any]] = {}
    errors: list[str] = []

    def worker() -> None:
        client = make_client()
        while True:
            with lock:
                if not pending:
                    return
                index, body = pending.popleft()
            start = time.perf_counter()
            try:
                with tracer.span("serve.client.run", parent=parent) as span:
                    payload = client.run(body)
                span.attrs["trace_id"] = getattr(client, "trace_id", "")
            except (OSError, RuntimeError) as error:
                with lock:
                    errors.append(f"request {index}: {type(error).__name__}: {error}")
                continue
            wall = time.perf_counter() - start
            with lock:
                walls[index] = wall
                payloads[index] = payload

    threads = [threading.Thread(target=worker, name=f"bench-client-{i}") for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return walls, payloads, errors


def measure(run: Run) -> None:
    requests = build_mix(run.workload, run.scaled(MIX_REQUESTS[run.workload]), run.seed)
    tracer = run.tracer
    setups = []
    server = None
    try:
        for index in range(1 if run.traced else SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server, setup_s = start_server(run, index)
            setups.append(setup_s)
        url = server.url
        before = ServeClient(url).metrics()

        def make_client() -> ServeClient:
            return TimedClient(url, tracer) if run.traced else ServeClient(url)

        start = time.perf_counter()
        with tracer.span("workload") as root:
            walls, payloads, errors = drive(requests, make_client, tracer, root.index)
        wall = time.perf_counter() - start
        after = ServeClient(url).metrics()
    finally:
        if server is not None:
            server.stop()

    run.attempted = len(requests)
    run.failed = len(requests) - len(walls)
    for error in errors[:3]:
        print(error, file=sys.stderr)
    run.problems += check_served(requests, payloads)
    if run.traced:
        run.record_trace(root, lanes=CLIENTS)
        _layer_metrics(run, list(walls.values()), before, after)
    else:
        run.end_to_end["setup_s"] = statistics.median(setups)
        run.record_items(list(walls.values()), len(walls), wall)


def _layer_metrics(
    run: Run, walls: list[float], before: dict[str, Any], after: dict[str, Any]
) -> None:
    spans = run.tracer.spans
    calls: dict[str, list[float]] = {"submit": [], "poll": [], "result": []}
    inside: dict[int, float] = {}
    for span in spans:
        verb = span.name.rpartition(".")[2]
        if span.name.startswith("serve.client.") and verb in calls:
            calls[verb].append(span.duration)
            inside[span.parent] = inside.get(span.parent, 0.0) + span.duration
    runs: list[Span] = [s for s in spans if s.name == "serve.client.run"]
    sleeps = [s.duration - inside.get(s.index, 0.0) for s in runs]

    def p50_ms(values: list[float]) -> float:
        return nearest_rank(values, 0.5) * 1000.0 if values else 0.0

    counters = {
        name: after["counters"].get(f"serve.{name}", 0) - before["counters"].get(f"serve.{name}", 0)
        for name in (
            "requests", "cache_hits", "dedup_hits", "batches",
            "simulated_points", "rejected", "failures",
        )
    }
    width_after = after["histograms"].get("serve.batch_width", {})
    width_before = before["histograms"].get("serve.batch_width", {})
    width_count = width_after.get("count", 0) - width_before.get("count", 0)
    width_total = width_after.get("total", 0) - width_before.get("total", 0)
    gauges = after["gauges"]

    def gauge(phase: str, q: str = "p50") -> float:
        return gauges.get(f"serve.latency.{phase}.{q}_ms", 0.0)

    layer = {
        "serve.client.submit_ms_p50": p50_ms(calls["submit"]),
        "serve.client.poll_ms_p50": p50_ms(calls["poll"]),
        "serve.client.result_ms_p50": p50_ms(calls["result"]),
        "serve.client.polls_per_req": len(calls["poll"]) / len(runs),
        "serve.client.sleep_ms_p50": p50_ms(sleeps),
        "serve.client.sleep_frac": sum(sleeps) / sum(s.duration for s in runs),
        # Each run submits once, plus once per backpressured retry.
        "serve.client.backpressure_retries": len(calls["submit"]) - len(runs),
        "serve.client_wait_ms_p50": p50_ms(walls) - gauge("e2e"),
        "serve.e2e_ms_p99": gauge("e2e", "p99"),
        "serve.hit_frac": (counters["cache_hits"] + counters["dedup_hits"])
        / max(1, counters["requests"]),
        "serve.batch_width_mean": width_total / width_count if width_count else 0.0,
    }
    for phase in ("queue_wait", "batch_form", "simulate", "store_write", "e2e"):
        layer[f"serve.{phase}_ms_p50"] = gauge(phase)
    for name, value in counters.items():
        layer[f"serve.{name}"] = value
    run.per_layer.update(layer)

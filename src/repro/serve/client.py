"""Thin stdlib client for the ``repro serve`` HTTP API.

:class:`ServeClient` wraps the three verbs a caller needs — ``submit``,
``result`` (which waits on the server for the job to settle) and the
blocking convenience ``run`` (submit, honour backpressure, fetch).
Errors map to typed exceptions so callers can distinguish "try again
later" (:class:`Backpressure`) from "the request is wrong"
(:class:`ClientError`) from "the simulation failed" (:class:`JobFailed`).
"""

from __future__ import annotations

import contextlib
import json
import time
import urllib.error
import urllib.request
from typing import Any, Optional

__all__ = [
    "Backpressure",
    "ClientError",
    "JobFailed",
    "ServeClient",
]


class ClientError(RuntimeError):
    """The server rejected the request (4xx other than 429)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class Backpressure(RuntimeError):
    """The server asked us to retry later (HTTP 429 / 503)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"server busy; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class JobFailed(RuntimeError):
    """The simulation behind a job key failed server-side."""


class ServeClient:
    """HTTP client for one service endpoint.

    Args:
        base_url: e.g. ``http://127.0.0.1:8731`` (trailing slash ok).
        timeout: per-HTTP-call socket timeout in seconds.  A result
            fetch asks the server to wait at most half of it.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport --------------------------------------------------------

    def _call(
        self, method: str, path: str, body: Optional[dict[str, Any]] = None
    ) -> dict[str, Any]:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            method=method,
            data=json.dumps(body).encode() if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return json.loads(reply.read())
        except urllib.error.HTTPError as error:
            payload: dict[str, Any] = {}
            with contextlib.suppress(json.JSONDecodeError, OSError):
                payload = json.loads(error.read())
            if error.code in (429, 503):
                retry_after = payload.get(
                    "retry_after_s", error.headers.get("Retry-After", 1)
                )
                raise Backpressure(float(retry_after)) from None
            raise ClientError(
                error.code, str(payload.get("error", error.reason))
            ) from None

    # -- verbs ------------------------------------------------------------

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """Submit a request body; returns ``{"job", "status", "outcome"}``."""
        return self._call("POST", "/v1/submit", request)

    def result(self, key: str) -> dict[str, Any]:
        """The result payload for a key, once its job is done.

        The server holds the fetch until the job settles or half of
        ``timeout`` passes, so it always answers before the socket
        gives up.

        Raises:
            JobFailed: the server reports the job failed.
            ClientError: the key is unknown (404), or still in flight
                when the wait ended (409).
            Backpressure: too many fetches are already waiting.
        """
        try:
            return self._call("GET", f"/v1/result/{key}?wait={self.timeout / 2:g}")
        except ClientError as error:
            if error.status == 500:
                raise JobFailed(str(error)) from None
            raise

    def healthz(self) -> dict[str, Any]:
        try:
            return self._call("GET", "/healthz")
        except Backpressure:  # draining still answers /healthz with 503
            return {"status": "draining"}

    def metrics(self) -> dict[str, Any]:
        return self._call("GET", "/metrics")

    # -- convenience ------------------------------------------------------

    def run(self, request: dict[str, Any], timeout: float = 120.0) -> dict[str, Any]:
        """Submit and block until the result payload is available.

        A backpressured submit or fetch is retried after the server's
        ``Retry-After`` hint (fractional values included); a fetch that
        finds the job still in flight is repeated.  No retry starts or
        sleeps past ``timeout``, but a fetch already under way runs to
        its end, so ``run`` may overrun ``timeout`` by at most one wait
        (half the socket timeout).
        """
        deadline = time.monotonic() + timeout
        key: Optional[str] = None
        while True:
            try:
                if key is None:
                    key = self.submit(request)["job"]
                return self.result(key)
            except Backpressure as error:
                wait = min(error.retry_after_s, max(0, deadline - time.monotonic()))
                if time.monotonic() + wait >= deadline:
                    raise TimeoutError(
                        f"still backpressured after {timeout}s"
                    ) from None
                time.sleep(wait)
            except ClientError as error:
                if error.status != 409:
                    raise
                if time.monotonic() >= deadline:
                    raise TimeoutError(f"job {key} not done after {timeout}s") from None

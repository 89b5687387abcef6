"""Client retry behaviour, with a fake clock throughout.

No sockets and no real sleeping: ``_call`` is stubbed per scenario and
``repro.serve.client.time`` is replaced by a fake whose ``sleep``
advances a virtual clock.  A stubbed result fetch also advances the
clock by the wait it asked the server for, as a fetch of a job that
stays in flight would.
"""

import io
import json
import urllib.error
from urllib.parse import parse_qs, urlsplit

import pytest

from repro.serve import client as client_mod
from repro.serve.client import (
    Backpressure,
    ClientError,
    JobFailed,
    ServeClient,
)


class FakeTime:
    """Virtual clock: ``sleep`` advances ``monotonic`` and records."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(client_mod, "time", fake)
    return fake


def scripted_client(script, clock, timeout=10.0):
    """A client whose ``_call`` pops canned responses/exceptions.

    ``script`` maps ``(method, path_prefix)`` to a list; exceptions are
    raised, everything else returned.  Lists stick on their last entry.
    A fetch answered 409 first spends its whole wait on the clock.
    """
    client = ServeClient("http://test", timeout=timeout)
    calls = []

    def _call(method, path, body=None):
        calls.append((method, path, clock.now))
        for (m, prefix), responses in script.items():
            if method == m and path.startswith(prefix):
                response = responses.pop(0) if len(responses) > 1 else responses[0]
                if isinstance(response, ClientError) and response.status == 409:
                    clock.now += float(parse_qs(urlsplit(path).query)["wait"][0])
                if isinstance(response, Exception):
                    raise response
                return response
        raise AssertionError(f"unexpected call {method} {path}")

    client._call = _call
    client.calls = calls
    return client


def in_flight():
    return ClientError(409, "job in flight")


class TestSubmitBackpressure:
    def test_retry_after_is_honoured_including_fractions(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [
                Backpressure(0.25), Backpressure(0.25), {"job": "k"},
            ],
            ("GET", "/v1/result/"): [{"values": [1.0]}],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"values": [1.0]}
        # The two backpressured submits slept exactly the server's hint.
        assert clock.sleeps == [0.25, 0.25]

    def test_backpressured_submit_times_out_cleanly(self, clock):
        client = scripted_client(
            {("POST", "/v1/submit"): [Backpressure(10.0)]}, clock
        )
        with pytest.raises(TimeoutError, match="still backpressured"):
            client.run({"r": 1}, timeout=1.0)
        # The wait was clamped to the deadline, never the full 10s hint.
        assert sum(clock.sleeps) <= 1.0
        assert clock.now - 1000.0 <= 1.0 + 1e-9

    def test_draining_503_surfaces_backpressure(self, monkeypatch):
        def exploding_urlopen(request, timeout):
            payload = io.BytesIO(
                json.dumps({"error": "draining", "retry_after_s": 1.0}).encode()
            )
            raise urllib.error.HTTPError(
                request.full_url, 503, "Service Unavailable", {}, payload
            )

        monkeypatch.setattr(
            client_mod.urllib.request, "urlopen", exploding_urlopen
        )
        with pytest.raises(Backpressure):
            ServeClient("http://test").submit({"r": 1})


class TestBlockingFetch:
    def test_one_submit_and_one_fetch(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [{"values": [1.0]}],
        }, clock)
        assert client.run({"r": 1}) == {"values": [1.0]}
        assert [(m, p) for m, p, _ in client.calls] == [
            ("POST", "/v1/submit"), ("GET", "/v1/result/k?wait=5"),
        ]
        assert clock.sleeps == []

    def test_fetch_waits_half_the_socket_timeout(self, clock):
        client = scripted_client(
            {("GET", "/v1/result/"): [{"ok": True}]}, clock, timeout=0.4
        )
        client.result("k")
        assert client.calls[0][1] == "/v1/result/k?wait=0.2"

    def test_in_flight_fetch_is_repeated_without_sleeping(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [in_flight(), in_flight(), {"ok": True}],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"ok": True}
        submits = [p for m, p, _ in client.calls if m == "POST"]
        assert len(submits) == 1
        assert clock.sleeps == []

    def test_fetch_backpressure_is_honoured_like_a_submit(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [Backpressure(0.25), {"ok": True}],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"ok": True}
        assert clock.sleeps == [0.25]
        # The job was not resubmitted: only the fetch was retried.
        assert [m for m, _, _ in client.calls] == ["POST", "GET", "GET"]

    def test_fetch_backpressure_times_out_cleanly(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [Backpressure(10.0)],
        }, clock)
        with pytest.raises(TimeoutError, match="still backpressured"):
            client.run({"r": 1}, timeout=1.0)
        assert clock.now - 1000.0 <= 1.0 + 1e-9

    def test_deadline_overrun_is_at_most_one_wait(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [in_flight()],
        }, clock, timeout=10.0)
        with pytest.raises(TimeoutError, match="not done after"):
            client.run({"r": 1}, timeout=12.0)
        # Fetches started at 0, 5 and 10 s; the last ran to 15 s.
        fetches = [t - 1000.0 for m, _, t in client.calls if m == "GET"]
        assert fetches == [0.0, 5.0, 10.0]
        assert clock.now - 1000.0 <= 12.0 + 5.0


class TestTerminalStates:
    def test_failed_job_raises_job_failed(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [ClientError(500, "boom")],
        }, clock)
        with pytest.raises(JobFailed, match="boom"):
            client.run({"r": 1}, timeout=10)

    def test_vanished_job_raises_client_error(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k"}],
            ("GET", "/v1/result/"): [ClientError(404, "unknown")],
        }, clock)
        with pytest.raises(ClientError) as exc:
            client.run({"r": 1}, timeout=10)
        assert exc.value.status == 404

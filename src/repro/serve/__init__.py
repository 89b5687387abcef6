"""``repro.serve`` — the long-lived simulation service.

The evaluation methodology is thousands of independent grid-point
simulations; one-shot CLI processes re-pay process startup, duplicate
concurrent work and race on shared caches.  This package turns the
execution layer into a *service*:

* :mod:`repro.serve.schema` — canonical requests, content-address
  fingerprints, :data:`~repro.serve.schema.SERVE_SCHEMA_VERSION`.
* :mod:`repro.serve.store` — content-addressed, atomically written,
  advisory-locked on-disk result store.
* :mod:`repro.serve.service` — :class:`SimService`: bounded job queue
  with dedup of identical in-flight requests, micro-batching of
  same-kernel requests into single executor batches, backpressure and
  graceful drain.
* :mod:`repro.serve.http` — the stdlib HTTP JSON API.
* :mod:`repro.serve.client` — :class:`ServeClient` (``submit`` /
  ``result``, which waits on the server for the job / blocking ``run``).
* :mod:`repro.serve.cli` — ``repro serve`` / ``repro submit`` /
  ``repro store``.
"""

from repro.serve.client import Backpressure, ClientError, JobFailed, ServeClient
from repro.serve.schema import (
    MACHINE_PRESETS,
    SERVE_SCHEMA_VERSION,
    RequestError,
    SimRequest,
    parse_request,
)
from repro.serve.service import (
    Job,
    QueueFull,
    ServeConfig,
    ServiceDraining,
    SimService,
)
from repro.serve.store import ResultStore

__all__ = [
    "Backpressure",
    "ClientError",
    "Job",
    "JobFailed",
    "MACHINE_PRESETS",
    "QueueFull",
    "RequestError",
    "ResultStore",
    "SERVE_SCHEMA_VERSION",
    "ServeClient",
    "ServeConfig",
    "ServiceDraining",
    "SimRequest",
    "SimService",
    "parse_request",
]

"""Serving layer: batched concurrent SpTTN contraction requests.

* :mod:`repro.serve.request` — :class:`ContractionRequest` (an einsum spec
  plus operands) and named builders for the four kernel families.
* :mod:`repro.serve.service` — :class:`ContractionService`: bounded
  admission, batching by plan-cache signature, dispatch over the shared
  worker pool with shm broadcast of shared dense operands, futures with
  deterministic submission-order results; plus the sequential oracle and
  the naive per-request-planning baseline.
* :mod:`repro.serve.scenarios` — seeded request mixes for the
  ``repro serve`` load driver and the throughput benchmark.
* :mod:`repro.serve.protocol` — the wire protocol (newline-delimited JSON
  heads, raw tensor frames; see ``docs/PROTOCOL.md``) shared by the daemon
  and the client.
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`: the asyncio TCP server
  fronting a :class:`ContractionService` with backpressure, per-client
  round-robin fairness, cross-client signature batching, streamed results
  and graceful drain (``repro serve --daemon``).
* :mod:`repro.serve.client` — :class:`ServeClient`: the blocking NDJSON
  client used by ``repro serve --connect``, tests and benchmarks.
"""

from repro.serve.client import PendingReply, ServeClient
from repro.serve.daemon import (
    DaemonHandle,
    ServeDaemon,
    start_daemon_thread,
)
from repro.serve.protocol import ProtocolError, ServeError
from repro.serve.request import (
    ContractionRequest,
    all_mode_ttmc_request,
    mttkrp_request,
    ttmc_request,
    tttc_request,
    tttp_request,
)
from repro.serve.scenarios import MIXES, scenario_mix
from repro.serve.service import (
    AdmissionError,
    ContractionService,
    DeadlineError,
    QuarantinedError,
    RequestFailed,
    ServeFuture,
    ServiceStats,
    default_quarantine_ttl,
    execute_naive,
    execute_sequential,
)

__all__ = [
    "ContractionRequest",
    "mttkrp_request",
    "ttmc_request",
    "all_mode_ttmc_request",
    "tttp_request",
    "tttc_request",
    "MIXES",
    "scenario_mix",
    "AdmissionError",
    "ContractionService",
    "DeadlineError",
    "QuarantinedError",
    "RequestFailed",
    "ServeFuture",
    "ServiceStats",
    "default_quarantine_ttl",
    "execute_naive",
    "execute_sequential",
    "DaemonHandle",
    "PendingReply",
    "ProtocolError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "start_daemon_thread",
]

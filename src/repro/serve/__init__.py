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

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".request": (
        "ContractionRequest", "mttkrp_request", "ttmc_request", "all_mode_ttmc_request",
        "tttp_request", "tttc_request",
    ),
    ".scenarios": ("MIXES", "scenario_mix"),
    ".service": (
        "AdmissionError", "ContractionService", "DeadlineError", "QuarantinedError",
        "RequestFailed", "ServeFuture", "ServiceStats", "default_quarantine_ttl",
        "execute_naive", "execute_sequential",
    ),
    ".daemon": ("DaemonHandle", "ServeDaemon", "start_daemon_thread"),
    ".client": ("PendingReply", "ServeClient"),
    ".protocol": ("ProtocolError", "ServeError"),
})

"""Daemon serving round trip vs in-process batched serving.

The network daemon wraps the same :class:`~repro.serve.ContractionService`
the in-process path uses, so the interesting quantity is the *cost of the
wire*: NDJSON framing, base64 tensor payloads, TCP round trips and the
event-loop dispatch, on top of identical batching and caching.  This
benchmark replays one seeded mixed workload through both paths on one
machine and records the round-trip overhead factor.

Only correctness is asserted (results bit-identical to sequential
execution through both paths); the overhead ratio is recorded, not gated —
loopback latency is too machine-dependent for a hard bar, and the wire
cost is dominated by payload size, not by anything this repo optimizes.
The judged wire cost is the ``serve.wire_overhead_x`` cell of
``benchmarks/e2e``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine.plan_cache import clear_caches
from repro.serve import (
    ContractionService,
    ServeClient,
    execute_sequential,
    scenario_mix,
    start_daemon_thread,
)
from repro.sptensor import COOTensor

from _workloads import BASE_SEED, record_rows

N_REQUESTS = 32
MIX = "mixed"
ENGINE = "lowered"


def _outputs_equal(a, b) -> None:
    if isinstance(b, COOTensor):
        assert isinstance(a, COOTensor)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.smoke
def test_daemon_round_trip_vs_in_process(benchmark):
    requests = scenario_mix(N_REQUESTS, mix=MIX, seed=BASE_SEED, engine=ENGINE)
    clear_caches()
    expected = execute_sequential(requests, engine=ENGINE)

    # in-process batched serving, warm caches, timed
    service = ContractionService(workers=0, engine=ENGINE)
    in_process = service.run(requests)  # warm pass
    for got, want in zip(in_process, expected):
        _outputs_equal(got, want)
    start = time.perf_counter()
    service.run(requests)
    in_process_seconds = time.perf_counter() - start

    # daemon round trip over loopback TCP, same warm caches, timed
    with start_daemon_thread(workers=0, engine=ENGINE) as handle:
        with ServeClient(*handle.address) as client:
            daemon_outputs = client.run(requests)  # warm pass
            for got, want in zip(daemon_outputs, expected):
                _outputs_equal(got, want)
            start = time.perf_counter()
            client.run(requests)
            daemon_seconds = time.perf_counter() - start

            rows = [
                {
                    "requests": N_REQUESTS,
                    "mix": MIX,
                    "in_process_ms": in_process_seconds * 1e3,
                    "daemon_ms": daemon_seconds * 1e3,
                    "daemon_req_s": N_REQUESTS / daemon_seconds,
                    "wire_overhead_x": daemon_seconds / in_process_seconds,
                }
            ]
            record_rows(benchmark, rows)

            benchmark.pedantic(
                lambda: client.run(requests), rounds=3, iterations=1, warmup_rounds=1
            )

"""Chaos suite: the serving stack under injected crashes and deadlines.

The central criterion of the fault-tolerant runtime: with workers being
SIGKILLed mid-batch, every in-flight request still resolves — with a
result bit-identical to the no-fault run (supervised retry or serial
re-execution) or a structured error — and the daemon itself never exits
or restarts.  Deadlines expire as ``timeout`` errors at every stage
(admission, queue wait, execution) and poison signatures are quarantined
after repeated crashes, then recover once the TTL lapses.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.runtime import shutdown_pool, supervision_events
from repro.serve import (
    ContractionService,
    DeadlineError,
    QuarantinedError,
    RequestFailed,
    ServeClient,
    ServeError,
    execute_sequential,
    mttkrp_request,
    start_daemon_thread,
)
from repro.sptensor import random_sparse_tensor
from repro.util.faults import configure_faults, reset_faults


def _mttkrp_batch(n: int, seed: int = 0):
    """*n* structurally identical MTTKRP requests (one signature group)."""
    tensor = random_sparse_tensor((30, 25, 20), nnz=200, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return [
        mttkrp_request(
            tensor,
            [rng.standard_normal((25, 4)), rng.standard_normal((20, 4))],
            mode=0,
        )
        for _ in range(n)
    ]


def _on_loop(handle, fn, *args) -> None:
    """Run *fn* on the daemon's event loop and wait until it has executed."""
    done = threading.Event()

    def _call():
        fn(*args)
        done.set()

    handle.call(_call)
    assert done.wait(10.0), "daemon event loop did not run the callback"


@pytest.fixture(autouse=True)
def _fresh_faults():
    """Empty fault plan and fresh pools around every chaos test.

    Pool workers fork with the plan active at fork time, so pools are
    shut down on both sides: no test inherits workers carrying another
    test's faults.
    """
    shutdown_pool()
    configure_faults(None)
    yield
    shutdown_pool()
    reset_faults()


# --------------------------------------------------------------------------- #
# In-process service under worker crashes
# --------------------------------------------------------------------------- #
class TestServiceSurvivesWorkerCrashes:
    def test_sigkilled_workers_mid_batch_still_resolve_bit_identical(self):
        requests = _mttkrp_batch(4, seed=3)
        expected = execute_sequential(requests)
        configure_faults("pool.task:kill")  # every pool worker task dies
        service = ContractionService(workers=2, quarantine_ttl=0.0)
        futures = service.submit_many(requests)
        with pytest.warns(RuntimeWarning, match="worker died mid-map"):
            service.flush()
        for future, want in zip(futures, expected):
            np.testing.assert_array_equal(np.asarray(future.result()), want)
        assert service.stats.served == len(requests)
        assert service.stats.failed == 0

    def test_repeat_crash_signature_is_quarantined_then_recovers(self):
        configure_faults("pool.task:kill")
        service = ContractionService(workers=2, quarantine_ttl=0.5)
        expected = execute_sequential(_mttkrp_batch(2, seed=1))
        for _ in range(2):  # two crashing flushes = two strikes
            with pytest.warns(RuntimeWarning, match="worker died mid-map"):
                outputs = service.run(_mttkrp_batch(2, seed=1))
            for out, want in zip(outputs, expected):  # crashes never corrupt
                np.testing.assert_array_equal(np.asarray(out), want)
        assert service.stats.quarantines == 1
        # the table is keyed by the signature; its 12-hex name is derived
        # only to report it, and must name the struck group everywhere
        kernel, mapping = _mttkrp_batch(1, seed=1)[0].build()
        name = service.signature_digest(service._signature(kernel, mapping, service.engine))
        snapshot = service.quarantine_snapshot()
        assert list(snapshot["entries"]) == [name]
        assert snapshot["strikes"] == {name: 2}
        entry = snapshot["entries"][name]
        assert entry["kind"] == "mttkrp"
        assert entry["strikes"] == 2
        # matching submissions now fail fast, before queue or workers
        with pytest.raises(QuarantinedError, match=f"plan signature {name} is quarantined"):
            service.submit(_mttkrp_batch(1, seed=1)[0])
        assert service.stats.quarantined == 1
        # a different signature is never refused meanwhile, not even one
        # that differs from the struck group's in its operand dtypes only
        other = mttkrp_request(
            mapping["T"], [mapping["A0"].astype(np.float32), mapping["A1"]], mode=0
        )
        future = service.submit(other)
        service.flush()  # a group of one runs serially, away from the pool
        np.testing.assert_array_equal(future.result(), execute_sequential([other])[0])
        assert service.stats.quarantined == 1
        # TTL expiry clears the entry and the strike count: fresh slate
        configure_faults(None)
        shutdown_pool()  # drop workers that inherited the kill plan
        time.sleep(0.6)
        outputs = service.run(_mttkrp_batch(2, seed=1))
        for out, want in zip(outputs, expected):
            np.testing.assert_array_equal(np.asarray(out), want)
        assert service.quarantine_snapshot()["entries"] == {}

    def test_crash_strikes_are_attributed_via_supervision_events(self):
        configure_faults("pool.task:kill")
        before = supervision_events()
        service = ContractionService(workers=2, quarantine_ttl=30.0)
        with pytest.warns(RuntimeWarning):
            service.run(_mttkrp_batch(2, seed=4))
        after = supervision_events()
        assert after["crashes"] > before["crashes"]
        assert after["respawns"] > before["respawns"]


# --------------------------------------------------------------------------- #
# Deadlines end-to-end (in process)
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_already_expired_request_is_shed_at_admission(self):
        service = ContractionService(workers=0)
        request = _mttkrp_batch(1)[0]
        request.deadline_ms = -1.0
        with pytest.raises(DeadlineError, match="before admission"):
            service.submit(request)
        assert service.stats.expired == 1
        assert service.pending == 0

    def test_queue_wait_counts_against_the_budget(self):
        service = ContractionService(workers=0)
        request = _mttkrp_batch(1)[0]
        request.deadline_ms = 20.0
        future = service.submit(request)
        time.sleep(0.05)  # budget burns out while queued
        service.flush()
        with pytest.raises(RequestFailed, match="after queue wait") as excinfo:
            future.result()
        assert excinfo.value.code == "timeout"
        assert service.stats.expired == 1
        assert service.stats.failed == 0  # timeouts are not failures

    def test_expiry_during_execution_reports_timeout_not_result(self):
        configure_faults("serve.execute:delay:0.2")  # slower than the budget
        service = ContractionService(workers=0)
        request = _mttkrp_batch(1)[0]
        request.deadline_ms = 100.0
        future = service.submit(request)
        service.flush()
        with pytest.raises(RequestFailed, match="during execution") as excinfo:
            future.result()
        assert excinfo.value.code == "timeout"
        assert service.stats.expired == 1

    def test_requests_without_deadlines_are_untouched(self):
        service = ContractionService(workers=0)
        requests = _mttkrp_batch(2, seed=6)
        expected = execute_sequential(requests)
        for out, want in zip(service.run(requests), expected):
            np.testing.assert_array_equal(np.asarray(out), want)
        assert service.stats.expired == 0


# --------------------------------------------------------------------------- #
# Daemon-level chaos
# --------------------------------------------------------------------------- #
class TestDaemonChaos:
    def test_daemon_survives_sigkilled_workers_with_all_requests_resolved(self):
        requests = _mttkrp_batch(4, seed=5)
        expected = execute_sequential(requests)
        configure_faults("pool.task:kill")
        with start_daemon_thread(workers=2) as handle:
            with ServeClient(*handle.address, timeout=120) as client:
                # pause so all four land in one dispatch cycle (one group)
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = client.submit_many(requests)
                assert client.ping()
                _on_loop(handle, handle.daemon.resume_dispatch)
                outputs = [p.result() for p in pending]
                for out, want in zip(outputs, expected):
                    np.testing.assert_array_equal(np.asarray(out), want)
                # the daemon is alive, healthy, and reported the crashes
                assert client.ping()
                health = client.health()
                assert health["crashes"] >= 1
                assert health["last_crash_unix"] is not None
                assert health["status"] == "ready"  # one strike: no quarantine
            assert handle.thread.is_alive()  # zero daemon restarts
            daemon = handle.daemon
        assert daemon.stats.replied == len(requests)
        assert daemon.stats.flush_errors == 0

    def test_quarantined_signature_gets_structured_error_reply(self):
        configure_faults("pool.task:kill")
        service = ContractionService(workers=2, quarantine_ttl=30.0)
        with start_daemon_thread(service=service) as handle:
            with ServeClient(*handle.address, timeout=120) as client:
                for _ in range(2):  # two crashing cycles = two strikes
                    _on_loop(handle, handle.daemon.pause_dispatch)
                    pending = client.submit_many(_mttkrp_batch(2, seed=1))
                    assert client.ping()
                    _on_loop(handle, handle.daemon.resume_dispatch)
                    for p in pending:
                        p.result()  # still served via the serial fallback
                reply = client.submit(_mttkrp_batch(1, seed=1)[0])
                with pytest.raises(ServeError) as excinfo:
                    reply.result()
                assert excinfo.value.code == "quarantined"
                health = client.health()
                assert health["status"] == "degraded"
                assert health["quarantined_signatures"] == 1
            assert handle.daemon.stats.quarantined == 1

    def test_deadline_expired_in_backlog_returns_timeout_error(self):
        request = _mttkrp_batch(1, seed=2)[0]
        request.deadline_ms = 40.0
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = client.submit(request)
                assert client.ping()
                time.sleep(0.1)  # deadline lapses while queued
                _on_loop(handle, handle.daemon.resume_dispatch)
                with pytest.raises(ServeError) as excinfo:
                    pending.result()
                assert excinfo.value.code == "timeout"
            assert handle.daemon.stats.expired == 1

    def test_deadline_already_expired_at_receipt_is_shed_immediately(self):
        request = _mttkrp_batch(1, seed=2)[0]
        request.deadline_ms = -5.0
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                pending = client.submit(request)
                with pytest.raises(ServeError) as excinfo:
                    pending.result()
                assert excinfo.value.code == "timeout"
            assert handle.daemon.stats.expired == 1
            # shed at receipt: the request never cost a service queue slot
            assert handle.daemon.service.stats.submitted == 0

    def test_idle_timeout_reaps_silent_connections_only(self):
        request = _mttkrp_batch(1, seed=3)[0]
        expected = execute_sequential([request])[0]
        with start_daemon_thread(workers=0, idle_timeout=0.2) as handle:
            with ServeClient(*handle.address, timeout=60) as client:
                # a connection with a result owed outlives many idle periods
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = client.submit(request)
                assert client.ping()
                time.sleep(0.5)
                _on_loop(handle, handle.daemon.resume_dispatch)
                np.testing.assert_array_equal(
                    np.asarray(pending.result()), expected
                )
            # a silent connection with nothing in flight is closed
            with socket.create_connection(handle.address, timeout=10) as sock:
                assert sock.makefile("rb").readline() == b""  # daemon EOF
            assert handle.daemon.stats.idle_closed >= 1

"""Serving daemon: wire protocol, fairness, backpressure, graceful drain.

The central contract mirrors the in-process suite: results streamed over
the NDJSON TCP protocol are *bit-identical* to executing the same requests
through the in-process service, under concurrency, failures, and shutdown.
All dispatch-timing-sensitive tests use the daemon's ``pause_dispatch`` /
``resume_dispatch`` hooks (driven through the event loop via
``DaemonHandle.call``) so their assertions are deterministic.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.engine.plan_cache import default_schedule_cache
from repro.serve import (
    ServeClient,
    ServeError,
    execute_sequential,
    mttkrp_request,
    scenario_mix,
    start_daemon_thread,
)
from repro.serve import protocol
from repro.sptensor import COOTensor, random_dense_matrix, random_sparse_tensor


def _assert_outputs_equal(result, expected) -> None:
    if isinstance(expected, COOTensor):
        assert isinstance(result, COOTensor)
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.values, expected.values)
    else:
        np.testing.assert_array_equal(np.asarray(result), np.asarray(expected))


def _on_loop(handle, fn, *args) -> None:
    """Run *fn* on the daemon's event loop and wait until it has executed."""
    done = threading.Event()

    def _call():
        fn(*args)
        done.set()

    handle.call(_call)
    assert done.wait(10.0), "daemon event loop did not run the callback"


def _small_requests(n: int, seed: int):
    return scenario_mix(n, mix="mttkrp", seed=seed)


# --------------------------------------------------------------------------- #
# Wire protocol codec (no daemon needed)
# --------------------------------------------------------------------------- #
class TestProtocolCodec:
    def test_dense_array_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        for dtype in ("float64", "float32", "int64"):
            arr = (rng.standard_normal((5, 7)) * 100).astype(dtype)
            back = protocol.decode_array(protocol.encode_array(arr))
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)
            assert back.flags.writeable

    def test_sparse_tensor_round_trip_is_bit_exact(self):
        tensor = random_sparse_tensor((9, 8, 7), nnz=60, seed=11)
        back = protocol.decode_tensor(protocol.encode_tensor(tensor))
        assert isinstance(back, COOTensor)
        assert back.shape == tensor.shape
        np.testing.assert_array_equal(back.indices, tensor.indices)
        np.testing.assert_array_equal(back.values, tensor.values)

    def test_request_round_trip_preserves_fields(self):
        tensor = random_sparse_tensor((8, 7, 6), nnz=40, seed=5)
        factors = [
            random_dense_matrix(dim, 4, seed=m).data
            for m, dim in enumerate(tensor.shape)
        ]
        request = mttkrp_request(tensor, factors[1:], mode=0, engine="reference")
        back = protocol.decode_request(protocol.encode_request(request))
        assert back.spec == request.spec
        assert back.kind == "mttkrp"
        assert back.engine == "reference"
        assert len(back.operands) == len(request.operands)

    def test_decode_rejects_malformed_payloads(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_array({"dtype": "float64"})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_tensor({"kind": "hologram"})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request({"spec": "", "operands": []})
        with pytest.raises(protocol.ProtocolError):
            protocol.loads(b"not json at all\n")

    def test_error_reply_raises_typed_client_error(self):
        reply = protocol.error_reply("x1", protocol.ERROR_ADMISSION, "queue full")
        with pytest.raises(ServeError) as excinfo:
            protocol.raise_if_error(reply)
        assert excinfo.value.code == "admission"


# --------------------------------------------------------------------------- #
# End-to-end serving
# --------------------------------------------------------------------------- #
class TestDaemonEndToEnd:
    def test_single_client_matches_in_process(self):
        requests = scenario_mix(8, mix="mixed", seed=3)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                assert client.ping()
                outputs = client.run(requests)
        expected = execute_sequential(requests)
        for out, want in zip(outputs, expected):
            _assert_outputs_equal(out, want)

    def test_concurrent_clients_each_bit_identical(self):
        workloads = {i: scenario_mix(6, mix="mixed", seed=10 + i) for i in range(3)}
        outputs: dict = {}
        errors: list = []

        def _drive(i: int, address) -> None:
            try:
                with ServeClient(*address) as client:
                    outputs[i] = client.run(workloads[i])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((i, exc))

        with start_daemon_thread(workers=0) as handle:
            threads = [
                threading.Thread(target=_drive, args=(i, handle.address))
                for i in workloads
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
        assert not errors, errors
        for i, requests in workloads.items():
            expected = execute_sequential(requests)
            assert len(outputs[i]) == len(expected)
            for out, want in zip(outputs[i], expected):
                _assert_outputs_equal(out, want)

    def test_cross_client_requests_share_one_schedule(self):
        # Two clients submit the *same* seeded workload: every request pair
        # agrees on the plan-cache signature, so one dispatch cycle must
        # serve all four from two schedule searches, not four.
        requests = _small_requests(2, seed=42)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as a, ServeClient(*handle.address) as b:
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = a.submit_many(requests) + b.submit_many(requests)
                # ping barriers: all submits above are processed before this
                assert a.ping() and b.ping()
                misses_before = default_schedule_cache().stats()["misses"]
                _on_loop(handle, handle.daemon.resume_dispatch)
                results = [p.result() for p in pending]
                misses_after = default_schedule_cache().stats()["misses"]
            daemon = handle.daemon
        assert misses_after - misses_before == len(requests)
        assert daemon.service.stats.amortized >= len(requests)
        # both backlogs drained in a single cross-client cycle
        assert daemon.dispatch_trace[0].count(0) == len(requests)
        assert daemon.dispatch_trace[0].count(1) == len(requests)
        expected = execute_sequential(requests)
        for out, want in zip(results[: len(requests)], expected):
            _assert_outputs_equal(out, want)
        for out, want in zip(results[len(requests) :], expected):
            _assert_outputs_equal(out, want)

    def test_round_robin_interleaves_clients_under_quota(self):
        requests = _small_requests(3, seed=9)
        with start_daemon_thread(workers=0, client_quota=1) as handle:
            with ServeClient(*handle.address) as a, ServeClient(*handle.address) as b:
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = a.submit_many(requests) + b.submit_many(requests)
                assert a.ping() and b.ping()
                _on_loop(handle, handle.daemon.resume_dispatch)
                for p in pending:
                    p.result()
            trace = list(handle.daemon.dispatch_trace)
        # quota 1: every cycle takes exactly one request per backlogged
        # client, so no client ever occupies a whole cycle
        assert len(trace) == len(requests)
        for cycle in trace:
            assert sorted(cycle) == [0, 1]
        # the starting client rotates between consecutive cycles
        assert trace[0] != trace[1]

    def test_health_endpoint_is_lightweight_and_ready(self):
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                health = client.health()
        assert health["status"] == "ready" and health["ready"] is True
        assert health["version"] == protocol.PROTOCOL_VERSION
        assert health["pending"] == 0
        assert health["quarantined_signatures"] == 0
        # supervision info rides along for probes that alert on crash churn
        assert {"crashes", "respawns", "last_crash_unix"} <= set(health)

    def test_stats_endpoint_exposes_all_layers(self):
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                client.run(_small_requests(2, seed=1))
                stats = client.stats()
        assert stats["version"] == protocol.PROTOCOL_VERSION
        assert stats["pending"] == 0
        assert stats["daemon"]["admitted"] == 2
        assert stats["daemon"]["replied"] == 2
        assert stats["service"]["served"] == 2
        assert set(stats["caches"]) == {"plan", "schedule", "executor", "jit", "csf"}
        for counters in stats["caches"].values():
            assert {"hits", "misses", "entries"} <= set(counters)
        assert {"evictions", "bytes"} <= set(stats["caches"]["csf"])
        assert "pools" in stats["pool"] and "default_workers" in stats["pool"]


# --------------------------------------------------------------------------- #
# Failure paths
# --------------------------------------------------------------------------- #
class TestDaemonFailurePaths:
    def test_malformed_line_gets_structured_error_and_connection_survives(self):
        with start_daemon_thread(workers=0) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                reply = json.loads(rfile.readline())
                assert reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
                # same connection keeps working
                sock.sendall(b'{"op":"ping","id":"p1"}\n')
                reply = json.loads(rfile.readline())
                assert reply["id"] == "p1" and reply["pong"] is True
                # unknown op: error echoes the id, connection still lives
                sock.sendall(b'{"op":"dance","id":"d1"}\n')
                reply = json.loads(rfile.readline())
                assert reply["id"] == "d1"
                assert reply["error"]["code"] == "protocol"
                sock.sendall(b'{"op":"ping","id":"p2"}\n')
                assert json.loads(rfile.readline())["id"] == "p2"
            assert handle.daemon.stats.protocol_errors == 2

    def test_invalid_request_is_rejected_at_admission(self):
        # structurally valid wire message whose spec cannot be built
        # against its operands: rejected with an admission error, exactly
        # like in-process submit, and the connection survives
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=2)
        request = mttkrp_request(tensor, [np.ones((5, 3)), np.ones((4, 3))], mode=0)
        wire = protocol.encode_request(request)
        wire["spec"] = "ij,jk->ik"  # rank mismatch with the 3-d operand
        with start_daemon_thread(workers=0) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(protocol.dumps({"op": "submit", "id": "bad", "request": wire}))
                reply = json.loads(rfile.readline())
                assert reply["id"] == "bad"
                assert reply["error"]["code"] == "admission"
                sock.sendall(b'{"op":"ping","id":"p"}\n')
                assert json.loads(rfile.readline())["pong"] is True

    def test_backpressure_rejects_above_max_pending(self):
        requests = _small_requests(3, seed=6)
        with start_daemon_thread(workers=0, max_pending=2) as handle:
            with ServeClient(*handle.address) as client:
                _on_loop(handle, handle.daemon.pause_dispatch)
                first = client.submit(requests[0])
                second = client.submit(requests[1])
                third = client.submit(requests[2])
                with pytest.raises(ServeError) as excinfo:
                    third.result()
                assert excinfo.value.code == "admission"
                _on_loop(handle, handle.daemon.resume_dispatch)
                # collect the daemon's replies before touching the (not
                # thread-safe) cached executors from this thread
                got = [first.result(), second.result()]
                expected = execute_sequential(requests[:2])
                _assert_outputs_equal(got[0], expected[0])
                _assert_outputs_equal(got[1], expected[1])
            assert handle.daemon.stats.rejected == 1

    def test_client_disconnect_discards_its_backlog_without_poisoning_others(self):
        requests_a = _small_requests(2, seed=21)
        requests_b = _small_requests(2, seed=22)
        with start_daemon_thread(workers=0) as handle:
            daemon = handle.daemon
            client_b = ServeClient(*handle.address)
            client_a = ServeClient(*handle.address)
            try:
                _on_loop(handle, daemon.pause_dispatch)
                client_a.submit_many(requests_a)
                pending_b = client_b.submit_many(requests_b)
                assert client_a.ping() and client_b.ping()
                client_a.close()  # abrupt disconnect with a queued backlog
                deadline = threading.Event()
                for _ in range(200):
                    if daemon.stats.active_connections == 1:
                        break
                    deadline.wait(0.05)
                assert daemon.stats.active_connections == 1
                _on_loop(handle, daemon.resume_dispatch)
                results_b = [p.result() for p in pending_b]
            finally:
                client_b.close()
        expected_b = execute_sequential(requests_b)
        for out, want in zip(results_b, expected_b):
            _assert_outputs_equal(out, want)
        # the dropped client's queued requests were discarded, not served
        assert daemon.stats.replied == 2

    def test_submit_while_draining_is_rejected_with_shutdown_error(self):
        with start_daemon_thread(workers=0) as handle:
            _on_loop(handle, setattr, handle.daemon, "_draining", True)
            with ServeClient(*handle.address) as client:
                pending = client.submit(_small_requests(1, seed=4)[0])
                with pytest.raises(ServeError) as excinfo:
                    pending.result()
                assert excinfo.value.code == "shutdown"
            _on_loop(handle, setattr, handle.daemon, "_draining", False)


# --------------------------------------------------------------------------- #
# Client-side robustness
# --------------------------------------------------------------------------- #
class TestClientRobustness:
    def test_read_timeout_raises_clear_error_and_daemon_survives(self):
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=0.3) as client:
                _on_loop(handle, handle.daemon.pause_dispatch)
                pending = client.submit(_small_requests(1, seed=5)[0])
                with pytest.raises(TimeoutError, match="no reply from daemon"):
                    pending.result()
                _on_loop(handle, handle.daemon.resume_dispatch)
            # the stalled client did not wedge the daemon: reconnect works
            with ServeClient(*handle.address, timeout=60) as fresh:
                assert fresh.ping()
                requests = _small_requests(1, seed=5)
                out = fresh.run(requests)[0]
                _assert_outputs_equal(out, execute_sequential(requests)[0])

    def test_daemon_death_mid_request_surfaces_connection_error(self):
        # a stand-in daemon that accepts one connection, reads, then dies
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]

        def _accept_read_die() -> None:
            conn, _ = listener.accept()
            conn.recv(1 << 20)
            conn.close()
            listener.close()

        thread = threading.Thread(target=_accept_read_die, daemon=True)
        thread.start()
        client = ServeClient(*address, timeout=30)
        try:
            pending = client.submit(_small_requests(1, seed=6)[0])
            with pytest.raises(ConnectionError, match="closed the connection"):
                pending.result()
        finally:
            client.close()
            thread.join(10)
        # the recovery path: reconnect to a live daemon and re-submit
        requests = _small_requests(1, seed=6)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=60) as fresh:
                out = fresh.run(requests)[0]
        _assert_outputs_equal(out, execute_sequential(requests)[0])


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #
class TestDaemonShutdown:
    def test_shutdown_under_load_drains_every_pending_reply(self):
        requests = scenario_mix(4, mix="mixed", seed=17)
        handle = start_daemon_thread(workers=0)
        with ServeClient(*handle.address) as client:
            _on_loop(handle, handle.daemon.pause_dispatch)
            pending = client.submit_many(requests)
            assert client.ping()
            # shutdown releases the pause gate, drains all four queued
            # requests, streams their replies, then closes the connection
            draining = client.shutdown_server(wait=True)
            assert draining == len(requests)
            assert all(p.done for p in pending)
            expected = execute_sequential(requests)
            for p, want in zip(pending, expected):
                _assert_outputs_equal(p.result(), want)
        handle.shutdown()
        assert not handle.thread.is_alive()
        assert handle.daemon.stats.replied == len(requests)

    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--daemon",
                "--port",
                "0",
                "--workers",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"unexpected daemon banner: {banner!r}"
            address = (match.group(1), int(match.group(2)))
            requests = _small_requests(4, seed=8)
            with ServeClient(*address, timeout=60, retry=10.0) as client:
                pending = client.submit_many(requests)
                proc.send_signal(signal.SIGTERM)
                # drain the stream to EOF: every submitted id must have
                # been answered (result, or a structured shutdown error
                # for submits that raced the signal) — never dropped
                try:
                    while True:
                        client._dispatch(client._read_message())
                except (ConnectionError, OSError):
                    pass
                answered = set(client._replies)
                assert {p.msg_id for p in pending} <= answered
                expected = execute_sequential(requests)
                served = 0
                for p, want in zip(pending, expected):
                    reply = client._replies[p.msg_id]
                    if reply.get("ok"):
                        _assert_outputs_equal(protocol.decode_result(reply), want)
                        served += 1
                    else:
                        assert reply["error"]["code"] == "shutdown"
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "drained and exited cleanly" in out
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup guard
                proc.kill()
                proc.communicate()

"""Serving daemon: wire protocol, fairness, backpressure, graceful drain.

The central contract mirrors the in-process suite: results streamed over
the NDJSON TCP protocol are *bit-identical* to executing the same requests
through the in-process service, under concurrency, failures, and shutdown.
All dispatch-timing-sensitive tests use the daemon's ``pause_dispatch`` /
``resume_dispatch`` hooks (driven through the event loop via
``DaemonHandle.call``) so their assertions are deterministic.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.engine.plan_cache import clear_caches, default_schedule_cache
from repro.serve import (
    AdmissionError,
    ServeClient,
    ServeDaemon,
    ServeError,
    execute_sequential,
    mttkrp_request,
    scenario_mix,
    start_daemon_thread,
    tttp_request,
    ttmc_request,
)
from repro.serve import daemon as daemon_module
from repro.serve import protocol
from repro.serve.daemon import INLINE_MAX_BYTES
from repro.sptensor import COOTensor, random_dense_matrix, random_sparse_tensor
from repro.sptensor.coo import digest_stats
from repro.util.config import SETTINGS


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

    def test_decode_shares_a_held_tensor_whose_memory_it_views(self):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=31)
        rescaled = COOTensor.on_pattern(tensor.shape, tensor.indices, np.arange(1.0, 21.0))
        factors = [np.ones((5, 2)), np.ones((4, 2))]

        def encoded(t):  # its arrays are t's own, so decoding views t's memory
            return protocol.encode_request(mttkrp_request(t, factors, mode=0))

        first = protocol.decode_request(encoded(tensor))
        held = first.operands[0]
        before = digest_stats()["digests"]
        same = protocol.decode_request(encoded(tensor), first).operands[0]
        later = protocol.decode_request(encoded(rescaled), first).operands[0]
        assert same is held
        assert later is not held and later.indices is held.indices
        assert later.pattern_digest() is held.pattern_digest()
        assert digest_stats()["digests"] - before == 1
        np.testing.assert_array_equal(later.values, rescaled.values)
        short = encoded(tensor)
        short["operands"][0]["values"] = protocol.encode_array(np.ones(3))
        for prior in (None, first):
            with pytest.raises(protocol.ProtocolError, match="20 rows but values has 3"):
                protocol.decode_request(short, prior)

    def test_request_round_trip_preserves_fields(self):
        tensor = random_sparse_tensor((8, 7, 6), nnz=40, seed=5)
        factors = [
            random_dense_matrix(dim, 4, seed=m)
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

    def test_message_is_a_head_line_then_raw_frames(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        wire = protocol.dumps({"id": "x", "result": protocol.encode_tensor(arr)})
        head, _, payload = bytes(wire).partition(b"\n")
        assert json.loads(head) == {
            "frames": [96],
            "id": "x",
            "result": {"dtype": "float64", "shape": [3, 4], "data": 0, "kind": "dense"},
        }
        assert payload == arr.tobytes()  # no base64, no copy of the copy
        assert len(wire) == len(head) + 1 + arr.nbytes
        back = protocol.decode_tensor(protocol.loads(wire)["result"])
        np.testing.assert_array_equal(back, arr)
        # control messages stay one plain NDJSON line
        assert protocol.dumps(protocol.pong_reply("p")).count(b"\n") == 1
        assert b"frames" not in protocol.dumps(protocol.pong_reply("p"))

    def test_decoded_arrays_are_views_of_the_received_buffer(self):
        arr = np.arange(6, dtype=np.int64)
        wire = protocol.dumps(protocol.encode_array(arr))
        frozen = protocol.decode_array(protocol.loads(bytes(wire)))
        assert not frozen.flags.writeable and not frozen.flags.owndata
        writable = protocol.decode_array(protocol.loads(bytearray(wire)))
        assert writable.flags.writeable
        np.testing.assert_array_equal(frozen, arr)
        np.testing.assert_array_equal(writable, arr)

    def test_version_1_base64_data_still_decodes(self):
        arr = np.linspace(0.0, 1.0, 10).reshape(2, 5)
        line = json.dumps(
            {
                "kind": "dense",
                "dtype": "float64",
                "shape": [2, 5],
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        )
        np.testing.assert_array_equal(
            protocol.decode_tensor(protocol.loads(line)), arr
        )

    @pytest.mark.parametrize("dtype", ["S8", "U2", "M8[ns]", "m8[s]", "V8", "O"])
    def test_decode_rejects_dtypes_that_are_not_numbers(self, dtype):
        wire = {"dtype": dtype, "shape": [1], "data": bytes(8)}
        with pytest.raises(protocol.ProtocolError, match="not bool, int, float"):
            protocol.decode_array(wire)
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_array(np.zeros(1, dtype=dtype))

    @pytest.mark.parametrize(
        "shape", [[2], [1, 0], [-1], [-1, -1], [1.0], ["1"], [True], 1, None]
    )
    def test_decode_rejects_a_shape_the_data_does_not_fill(self, shape):
        for data in (bytes(8), base64.b64encode(bytes(8)).decode("ascii")):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_array({"dtype": "float64", "shape": shape, "data": data})

    @pytest.mark.parametrize(
        "frames", [[-1], [1.5], ["8"], [True], "8", {"0": 8}, [2**40], [8, 2**26]]
    )
    def test_loads_rejects_unusable_frames_before_anything_is_read(self, frames):
        head = json.dumps({"frames": frames, "id": "x"}).encode() + b"\n"
        with pytest.raises(protocol.FramingError):
            protocol.loads(head)

    def test_loads_rejects_a_payload_that_is_not_the_announced_frames(self):
        wire = bytes(protocol.dumps(protocol.encode_array(np.arange(4.0))))
        for bad in (wire[:-1], wire + b"\0"):
            with pytest.raises(protocol.FramingError):
                protocol.loads(bad)

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

    def test_stats_endpoint_exposes_all_layers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
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
        # every REPRO_* setting as the daemon resolves it at request time
        assert set(stats["config"]) == set(SETTINGS) and len(SETTINGS) == 11
        assert stats["config"]["REPRO_WORKERS"] == 1

    def test_a_cold_cli_daemon_lists_every_metrics_source(self):
        # a source registers when its module loads; the stock daemon in a fresh
        # interpreter, asked before any request, shows what its imports load
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--daemon", "--port", "0",
             "--workers", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        try:
            match = re.search(r"listening on ([\d.]+):(\d+)", proc.stdout.readline())
            assert match, "daemon did not start"
            with ServeClient(match[1], int(match[2]), timeout=60) as client:
                sources = client.metrics()["sources"]
                stats = client.stats()
                client.shutdown_server()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        expected = {"caches", "plan_timings", "plan_store", "pool", "faults"}
        assert expected <= set(sources)
        assert expected <= set(stats)


# --------------------------------------------------------------------------- #
# Framing against a live daemon: what is refused, what closes, what survives
# --------------------------------------------------------------------------- #
def _split(wire):
    """One framed message as ``(head object, payload bytes)``."""
    head, _, payload = bytes(wire).partition(b"\n")
    return json.loads(head), payload


def _join(head, payload=b""):
    return json.dumps(head).encode("utf-8") + b"\n" + payload


def _read_reply(rfile):
    """One reply parsed by hand: its head object and its raw frames."""
    line = rfile.readline()
    if not line:
        return None, []
    head = json.loads(line)
    return head, [rfile.read(n) for n in head.get("frames", [])]


def _dense_result(head, frames):
    result = head["result"]
    return np.frombuffer(frames[result["data"]], dtype=result["dtype"]).reshape(
        result["shape"]
    )


def _version_1_mttkrp(msg_id, tensor, factors):
    """A hand-written protocol-version-1 mode-0 MTTKRP submit: one base64
    line, no frames."""

    def v1(arr):
        return {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }

    line = json.dumps({"op": "submit", "id": msg_id, "request": {
        "spec": "ijk,jr,kr->ir",  # mttkrp_request's: the same schedule key
        "operands": [
            {"kind": "sparse", "shape": list(tensor.shape),
             "indices": v1(tensor.indices), "values": v1(tensor.values)},
            {"kind": "dense", **v1(factors[0])},
            {"kind": "dense", **v1(factors[1])},
        ],
    }})
    return line.encode("ascii") + b"\n"


class TestWireFraming:
    @pytest.fixture
    def request_(self):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=2)
        rng = np.random.default_rng(4)
        return mttkrp_request(tensor, [rng.random((5, 3)), rng.random((4, 3))], mode=0)

    @pytest.fixture
    def session(self):
        """A raw socket to a live daemon; afterwards the daemon must still
        answer ``ping`` on a new connection and have nothing pending."""
        with start_daemon_thread(workers=0) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                yield sock, sock.makefile("rb"), handle
            with ServeClient(*handle.address, timeout=30) as client:
                assert client.ping()
                assert client.health()["pending"] == 0

    def _submit(self, request, msg_id="s1"):
        return _split(
            protocol.dumps(
                {"op": "submit", "id": msg_id, "request": protocol.encode_request(request)}
            )
        )

    def _assert_protocol_error(self, rfile, msg_id):
        reply, _ = _read_reply(rfile)
        assert reply["id"] == msg_id and reply["ok"] is False
        assert reply["error"]["code"] == "protocol"

    def _assert_still_in_sync(self, sock, rfile, request):
        """The connection survived and the next message is read correctly."""
        head, payload = self._submit(request, "after")
        sock.sendall(_join(head, payload))
        reply, frames = _read_reply(rfile)
        assert reply["id"] == "after" and reply["ok"] is True
        np.testing.assert_array_equal(
            _dense_result(reply, frames), execute_sequential([request])[0]
        )

    @pytest.mark.parametrize("delta", [8, -8])
    def test_frame_longer_or_shorter_than_its_descriptor(self, session, request_, delta):
        sock, rfile, _ = session
        head, payload = self._submit(request_)
        head["frames"][-1] += delta
        payload = payload + bytes(8) if delta > 0 else payload[:delta]
        sock.sendall(_join(head, payload))
        self._assert_protocol_error(rfile, "s1")
        self._assert_still_in_sync(sock, rfile, request_)

    @pytest.mark.parametrize("index", [4, -1, 2], ids=["past", "negative", "reused"])
    def test_frame_index_out_of_range_or_reused(self, session, request_, index):
        sock, rfile, _ = session
        head, payload = self._submit(request_)
        assert head["request"]["operands"][1]["data"] == 2
        head["request"]["operands"][2]["data"] = index
        sock.sendall(_join(head, payload))
        self._assert_protocol_error(rfile, "s1")
        self._assert_still_in_sync(sock, rfile, request_)

    def test_frame_index_without_frames(self, session, request_):
        sock, rfile, _ = session
        head, _ = self._submit(request_)
        del head["frames"]
        sock.sendall(_join(head))
        self._assert_protocol_error(rfile, "s1")
        self._assert_still_in_sync(sock, rfile, request_)

    @pytest.mark.parametrize("length", [-1, 1.5, "8", None, 2**40])
    def test_unusable_frame_length_is_refused_and_closes(self, session, request_, length):
        # 2**40: the announced total is over the bound — refused from the
        # head alone, before a byte of payload is read or allocated
        sock, rfile, handle = session
        head, _ = self._submit(request_)
        head["frames"][0] = length
        sock.sendall(_join(head))
        self._assert_protocol_error(rfile, None)  # framing lost: id is null
        assert rfile.readline() == b""  # ... and the daemon closed the link
        assert handle.daemon.stats.bytes_received == len(_join(head))

    def test_truncated_payload_then_disconnect(self, session, request_):
        sock, _, handle = session
        head, payload = self._submit(request_)
        sock.sendall(_join(head, payload[: len(payload) // 2]))
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""  # closed without a reply: nothing to parse
        assert handle.daemon.stats.admitted == 0

    def test_stall_inside_a_message_is_reaped_by_the_idle_timeout(self, request_):
        with start_daemon_thread(workers=0, idle_timeout=0.2) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                head, payload = self._submit(request_)
                sock.sendall(_join(head, payload[:10]))
                assert sock.recv(1) == b""  # no reply; the link is closed
            with ServeClient(*handle.address, timeout=30) as client:
                assert client.health()["pending"] == 0

    def test_control_ops_interleave_with_pipelined_framed_submits(self, session):
        sock, rfile, _ = session
        requests = _small_requests(3, seed=9)
        lines = []
        for n, request in enumerate(requests):
            lines.append(_join(*self._submit(request, f"s{n}")))
            lines.append(_join({"op": ("ping", "health", "stats")[n], "id": f"c{n}"}))
        sock.sendall(b"".join(lines))
        replies = {}
        while len(replies) < 6:
            reply, frames = _read_reply(rfile)
            replies[reply["id"]] = (reply, frames)
        assert replies["c0"][0]["pong"] is True
        assert replies["c1"][0]["health"]["version"] == 2
        assert replies["c2"][0]["stats"]["daemon"]["received"] == 6
        for n, want in enumerate(execute_sequential(requests)):
            reply, frames = replies[f"s{n}"]
            assert "frames" not in replies[f"c{n}"][0]  # control stays NDJSON
            np.testing.assert_array_equal(_dense_result(reply, frames), want)

    def test_hand_written_version_1_submit_is_answered_bit_exactly(self, session):
        sock, rfile, _ = session
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=2)
        factors = [np.full((5, 3), 0.5), np.full((4, 3), 0.25)]
        sock.sendall(_version_1_mttkrp("old", tensor, factors))
        reply, frames = _read_reply(rfile)
        assert reply["id"] == "old" and reply["ok"] is True
        want = execute_sequential([mttkrp_request(tensor, factors, mode=0)])[0]
        np.testing.assert_array_equal(_dense_result(reply, frames), want)

    def test_stats_count_the_bytes_on_the_wire(self):
        requests = _small_requests(3, seed=5)
        sent = [
            protocol.dumps(
                {"op": "submit", "id": f"c{n + 1}", "request": protocol.encode_request(r)}
            )
            for n, r in enumerate(requests)
        ] + [protocol.dumps({"op": "stats", "id": "c4"})]
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                outputs = client.run(requests)
                daemon = client.stats()["daemon"]
        assert daemon["bytes_received"] == sum(len(wire) for wire in sent)
        results = sum(out.nbytes for out in outputs)
        assert results < daemon["bytes_sent"] < results + 3 * 1024


# --------------------------------------------------------------------------- #
# A pipelined burst is one dispatch cycle, whatever the timing of its reads
# --------------------------------------------------------------------------- #
def _wait_for(predicate) -> None:
    tick = threading.Event()
    for _ in range(400):
        if predicate():
            return
        tick.wait(0.025)
    raise AssertionError("the daemon did not get there within 10 s")


class TestBurstDispatch:
    def _wire(self, request, msg_id):
        return bytes(protocol.dumps(
            {"op": "submit", "id": msg_id, "request": protocol.encode_request(request)}
        ))

    def test_backlog_waits_for_the_message_that_is_arriving(self):
        requests = _small_requests(3, seed=13)
        first, second = self._wire(requests[0], "s0"), self._wire(requests[1], "s1")
        cut = len(second) - 16  # inside the last frame of s1
        with start_daemon_thread(workers=0) as handle:
            daemon = handle.daemon
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(first + second[:cut])
                _wait_for(lambda: daemon.stats.admitted == 1)
                with ServeClient(*handle.address, timeout=30) as other:
                    # s0 is held, and holds up nobody else
                    assert other.health()["pending"] == 1
                    assert daemon.stats.cycles == 0
                    _assert_outputs_equal(
                        other.run([requests[2]])[0], execute_sequential([requests[2]])[0]
                    )
                    assert list(daemon.dispatch_trace) == [[1]]
                    assert other.health()["pending"] == 1
                sock.sendall(second[cut:])
                replies = dict(
                    (reply["id"], _dense_result(reply, frames))
                    for reply, frames in (_read_reply(rfile), _read_reply(rfile))
                )
            assert list(daemon.dispatch_trace) == [[1], [0, 0]]  # s0 and s1: one cycle
        for msg_id, want in zip(("s0", "s1"), execute_sequential(requests[:2])):
            np.testing.assert_array_equal(replies[msg_id], want)

    def test_a_sender_that_never_pauses_is_served_a_quota_at_a_time(self):
        requests = _small_requests(3, seed=17)
        wires = [self._wire(r, f"s{n}") for n, r in enumerate(requests)]
        with start_daemon_thread(workers=0, client_quota=2) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(wires[0] + wires[1] + wires[2][:-16])
                # two held requests are all a cycle takes: no waiting for s2
                replies = [_read_reply(rfile) for _ in range(2)]
                assert list(handle.daemon.dispatch_trace) == [[0, 0]]
                sock.sendall(wires[2][-16:])
                replies.append(_read_reply(rfile))
            assert list(handle.daemon.dispatch_trace) == [[0, 0], [0]]
        got = {reply["id"]: _dense_result(reply, frames) for reply, frames in replies}
        for n, want in enumerate(execute_sequential(requests)):
            np.testing.assert_array_equal(got[f"s{n}"], want)

    def test_shutdown_does_not_wait_for_a_stalled_message(self):
        requests = _small_requests(2, seed=14)
        first, second = self._wire(requests[0], "s0"), self._wire(requests[1], "s1")
        with start_daemon_thread(workers=0) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(first + second[: len(second) - 16])
                _wait_for(lambda: handle.daemon.stats.admitted == 1)
                handle.call(handle.daemon.begin_shutdown)
                reply, frames = _read_reply(rfile)  # the drain releases s0
                assert reply["id"] == "s0" and reply["ok"] is True
                assert rfile.readline() == b""  # ... and s1 is dropped with the link
            handle.thread.join(30)
            assert not handle.thread.is_alive()
        np.testing.assert_array_equal(
            _dense_result(reply, frames), execute_sequential(requests[:1])[0]
        )

    def test_submit_many_goes_out_in_one_send(self):
        requests = _small_requests(4, seed=15)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                sends = []

                class Recording:
                    def __init__(self, sock):
                        self.sock = sock

                    def sendall(self, data):
                        sends.append([bytes(data)])
                        self.sock.sendall(data)

                    def sendmsg(self, buffers):
                        sends.append([bytes(b) for b in buffers])
                        return self.sock.sendmsg(buffers)

                    def __getattr__(self, name):
                        return getattr(self.sock, name)

                client._sock = Recording(client._sock)
                outputs = [p.result() for p in client.submit_many(requests)]
            assert list(handle.daemon.dispatch_trace) == [[0] * len(requests)]
        # one vectored send whose buffers are each request's own encoding,
        # never a joined copy of the burst; on the wire, the same bytes
        wires = [self._wire(r, f"c{n + 1}") for n, r in enumerate(requests)]
        assert sends == [wires]
        assert b"".join(sends[0]) == b"".join(wires)
        for out, want in zip(outputs, execute_sequential(requests)):
            _assert_outputs_equal(out, want)

    def test_held_requests_share_byte_identical_frames(self):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=2)
        rng = np.random.default_rng(16)
        requests = [
            mttkrp_request(tensor, [rng.random((5, 3)), rng.random((4, 3))], mode=0)
            for _ in range(3)
        ]
        with start_daemon_thread(workers=0) as handle:
            daemon = handle.daemon
            with ServeClient(*handle.address, timeout=30) as client:
                _on_loop(handle, daemon.pause_dispatch)
                pending = client.submit_many(requests)
                assert client.ping()  # barrier: the three submits are queued
                backlog = list(daemon._clients[0].backlog)
                held = [item.frames for item in backlog]
                operands = [op for item in backlog for op in item.request.operands]
                _on_loop(handle, daemon.resume_dispatch)
                outputs = [p.result() for p in pending]
        assert [len(frames) for frames in held] == [4, 4, 4]
        # frames are read in place, but every operand is a read-only view
        arrays = [a for op in operands for a in (
            (op.indices, op.values) if isinstance(op, COOTensor) else (op,)
        )]
        assert len(arrays) == 12 and not any(a.flags.writeable for a in arrays)
        for earlier, later in zip(held, held[1:]):
            # indices and values: one object; the factors differ and stay apart
            assert [a is b for a, b in zip(earlier, later)] == [True, True, False, False]
        for out, want in zip(outputs, execute_sequential(requests)):
            _assert_outputs_equal(out, want)


def _bulk_batch(tensor, seed):
    """The ``serve_bulk`` batch shape: MTTKRP on every mode and a TTMc, twice."""
    rng = np.random.default_rng(seed)
    wide = [rng.random((dim, 8)) for dim in tensor.shape]
    batch = [
        mttkrp_request(tensor, wide[:m] + wide[m + 1:], mode=m)
        for m in range(tensor.order)
    ]
    batch.append(ttmc_request(tensor, [rng.random((d, 3)) for d in tensor.shape[1:]]))
    return batch + batch


class TestWarmRequestDerivesOnce:
    """A warm request derives each fact once: one kernel parse, one pattern
    digest for its one sparse operand, and one hit on each of the schedule,
    executor and plan caches (the lookups a flush makes per request)."""

    def test_counts_per_warm_request(self, monkeypatch):
        from repro.kernels import spttn

        requests = scenario_mix(16, mix="mixed", seed=61)
        expected = execute_sequential(requests)
        parses = []
        real_parse = spttn.parse_kernel
        monkeypatch.setattr(
            spttn, "parse_kernel", lambda *a, **k: parses.append(1) or real_parse(*a, **k)
        )
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=60) as client:
                client.run(requests)  # warm: every schedule, plan and pattern is known
                before, parsed = client.stats()["caches"], len(parses)
                outputs = [client.submit(r).result() for r in requests]
                after = client.stats()["caches"]
        assert len(parses) - parsed == len(requests)
        moved = {
            (row, count): after[row][count] - before[row][count]
            for row in ("schedule", "executor", "plan", "csf")
            for count in ("hits", "misses")
        }
        assert moved == {
            **{(row, "hits"): len(requests) for row in ("schedule", "executor", "plan", "csf")},
            **{(row, "misses"): 0 for row in ("schedule", "executor", "plan", "csf")},
        }
        assert after["csf"]["digests"] - before["csf"]["digests"] == len(requests)
        for out, want in zip(outputs, expected):
            _assert_outputs_equal(out, want)


class TestFrameDigestReuse:
    """A burst over one sparse tensor decodes, checks and hashes it once."""

    def _held_pair(self, first, second):
        """Queue two raw submits behind a paused dispatcher; their sparse
        operands as decoded, and the replies (head, frames) by id."""
        with start_daemon_thread(workers=0) as handle:
            daemon = handle.daemon
            _on_loop(handle, daemon.pause_dispatch)
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(first + second)
                _wait_for(lambda: daemon.stats.admitted + daemon.stats.protocol_errors == 2)
                operands = [i.request.operands[0] for i in daemon._clients[0].backlog]
                _on_loop(handle, daemon.resume_dispatch)
                replies = [_read_reply(rfile) for _ in range(2)]
        return operands, {r["id"]: (r, f) for r, f in replies}

    def _edited(self, wire, msg_id, edit):
        head, payload = _split(wire)
        head["id"] = msg_id
        edit(head["request"]["operands"][0])
        return _join(head, payload)

    def test_a_burst_of_eight_queues_one_tensor_object(self):
        tensor = random_sparse_tensor((60, 50, 40), nnz=3000, seed=25)
        batch = _bulk_batch(tensor, seed=26)
        expected = execute_sequential(batch)
        with start_daemon_thread(workers=0) as handle:
            daemon = handle.daemon
            with ServeClient(*handle.address, timeout=60) as client:
                for _ in range(2):
                    before = client.stats()["caches"]["csf"]
                    _on_loop(handle, daemon.pause_dispatch)
                    pending = client.submit_many(batch)
                    assert client.ping()  # barrier: the eight submits are queued
                    sparse = [i.request.operands[0] for i in daemon._clients[0].backlog]
                    _on_loop(handle, daemon.resume_dispatch)
                    outputs = [p.result() for p in pending]
                    after = client.stats()["caches"]["csf"]
                    assert len(sparse) == 8 and all(t is sparse[0] for t in sparse)
                    assert after["digests"] - before["digests"] == 1
                    for out, want in zip(outputs, expected):
                        _assert_outputs_equal(out, want)
            assert list(daemon.dispatch_trace) == [[0] * 8] * 2

    def test_new_values_on_a_held_index_frame_share_its_rows_and_digest(self):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=27)
        rescaled = tensor.with_values(np.arange(1.0, 21.0))
        rng = np.random.default_rng(28)
        factors = [rng.random((5, 3)), rng.random((4, 3))]
        requests = [mttkrp_request(t, factors, mode=0) for t in (tensor, rescaled)]
        wires = [TestBurstDispatch()._wire(r, f"v{n}") for n, r in enumerate(requests)]
        before = digest_stats()["digests"]
        (held, later), replies = self._held_pair(*wires)
        assert digest_stats()["digests"] - before == 1
        assert later is not held and later.indices is held.indices
        assert later._pattern is held._pattern is not None
        np.testing.assert_array_equal(later.values, rescaled.values)
        assert not np.shares_memory(later.values, held.values)
        for n, want in enumerate(execute_sequential(requests)):
            np.testing.assert_array_equal(_dense_result(*replies[f"v{n}"]), want)

    def test_held_index_bytes_under_a_smaller_shape_are_range_checked(self):
        tensor = COOTensor((6, 5, 4), [[0, 1, 2], [5, 4, 3]], [1.0, 2.0])
        request = mttkrp_request(tensor, [np.ones((5, 2)), np.ones((4, 2))], mode=0)
        first = TestBurstDispatch()._wire(request, "big")
        second = self._edited(first, "small", lambda op: op.update(shape=[5, 5, 4]))
        (held,), replies = self._held_pair(first, second)
        assert held.shape == (6, 5, 4) and replies["big"][0]["ok"] is True
        error = replies["small"][0]["error"]
        assert error["code"] == protocol.ERROR_PROTOCOL
        assert "index 5 out of range for mode 0 of dimension 5" in error["message"]

    @pytest.mark.parametrize("header, shares_rows", [
        ({"indices": {"dtype": "uint64"}}, False),
        ({"values": {"shape": [20, 1]}}, True),
    ])
    def test_another_array_header_shares_no_tensor(self, header, shares_rows):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=29)
        request = mttkrp_request(tensor, [np.ones((5, 2)), np.ones((4, 2))], mode=0)
        first = TestBurstDispatch()._wire(request, "h0")

        def edit(op):
            for array, fields in header.items():
                op[array].update(fields)

        (held, later), replies = self._held_pair(first, self._edited(first, "h1", edit))
        assert later is not held
        assert np.shares_memory(later.indices, held.indices) is shares_rows
        want = execute_sequential([request])[0]
        for msg_id in ("h0", "h1"):
            np.testing.assert_array_equal(_dense_result(*replies[msg_id]), want)

    def test_an_index_header_that_does_not_fit_is_refused_not_shared(self):
        tensor = random_sparse_tensor((6, 5, 4), nnz=20, seed=30)
        request = mttkrp_request(tensor, [np.ones((5, 2)), np.ones((4, 2))], mode=0)
        first = TestBurstDispatch()._wire(request, "h0")
        second = self._edited(first, "h1", lambda op: op["indices"].update(shape=[60, 1]))
        (held,), replies = self._held_pair(first, second)
        assert replies["h0"][0]["ok"] is True
        assert "indices must have shape (nnz, 3)" in replies["h1"][0]["error"]["message"]

    def test_a_burst_cut_at_message_boundaries_is_one_cycle(self):
        # frames are read in place, so a read ends exactly where a message
        # does; the next message's bytes, still unread, must hold the burst.
        # The burst leaves as one blocking sendmsg of buffers that each end
        # at a message boundary: a continuous stream, cut only there
        tensor = random_sparse_tensor((80, 70, 60), nnz=36_000, seed=23)
        batch = _bulk_batch(tensor, seed=24)
        wires = [TestBurstDispatch()._wire(r, f"b{n}") for n, r in enumerate(batch)]
        assert min(map(len, wires)) >= 1 << 20
        expected = execute_sequential(batch)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=60) as control:
                before = control.stats()["caches"]["csf"]
                with socket.create_connection(handle.address) as sock:
                    rfile = sock.makefile("rb")
                    assert sock.sendmsg(wires) == sum(map(len, wires))
                    replies = dict(
                        (reply["id"], _dense_result(reply, frames))
                        for reply, frames in (_read_reply(rfile) for _ in wires)
                    )
                after = control.stats()["caches"]["csf"]
            assert list(handle.daemon.dispatch_trace) == [[1] * 8]
        assert after["digests"] - before["digests"] == 1
        for n, want in enumerate(expected):
            np.testing.assert_array_equal(replies[f"b{n}"], want)

    def test_each_burst_pays_one_digest(self):
        tensor = random_sparse_tensor((60, 50, 40), nnz=3000, seed=21)
        batch = _bulk_batch(tensor, seed=22)
        expected = execute_sequential(batch)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=60) as client:
                for _ in range(2):
                    before = client.stats()["caches"]["csf"]
                    outputs = [p.result() for p in client.submit_many(batch)]
                    after = client.stats()["caches"]["csf"]
                    assert after["digests"] - before["digests"] == 1
                    for out, want in zip(outputs, expected):
                        _assert_outputs_equal(out, want)
            assert list(handle.daemon.dispatch_trace) == [[0] * 8] * 2


# --------------------------------------------------------------------------- #
# Which cycles flush on the event loop: serial, every schedule cached, small
# --------------------------------------------------------------------------- #
def _wide_mttkrp(seed):
    """A cheap mode-0 MTTKRP whose dense factors alone exceed INLINE_MAX_BYTES."""
    tensor = random_sparse_tensor((8, 70, 60), nnz=40, seed=seed)
    rng = np.random.default_rng(seed)
    return tensor, [rng.random((70, 64)), rng.random((60, 64))]


def _streamer_threads(daemon):
    """Record the thread every done callback of *daemon* runs on."""
    threads = []
    make = daemon._make_streamer

    def recording(item, inline):
        deliver = make(item, inline)

        def on_done(future):
            threads.append(threading.get_ident())
            deliver(future)

        return on_done

    daemon._make_streamer = recording
    return threads


class TestInlineFlush:
    def test_a_warm_small_request_runs_on_the_loop(self):
        request = _small_requests(1, seed=31)[0]
        want = execute_sequential([request])[0]  # the schedule is now cached
        with start_daemon_thread(workers=0) as handle:
            threads = _streamer_threads(handle.daemon)
            with ServeClient(*handle.address, timeout=30) as client:
                _assert_outputs_equal(client.run([request])[0], want)
                health, stats = client.health(), client.stats()
        assert threads == [handle.thread.ident]
        assert health["inline_cycles"] == stats["daemon"]["inline_cycles"] == 1
        assert stats["daemon"]["cycles"] == 1

    def test_a_cold_schedule_flushes_off_the_loop(self):
        request = _small_requests(1, seed=32)[0]
        clear_caches()
        misses = default_schedule_cache().stats()["misses"]
        with start_daemon_thread(workers=0) as handle:
            threads = _streamer_threads(handle.daemon)
            with ServeClient(*handle.address, timeout=30) as client:
                out = client.run([request])[0]
                assert client.health()["inline_cycles"] == 0
                assert default_schedule_cache().stats()["misses"] == misses + 1
                client.run([request])  # now cached: this cycle runs inline
                assert client.health()["inline_cycles"] == 1
        assert threads[0] != handle.thread.ident == threads[1]
        _assert_outputs_equal(out, execute_sequential([request])[0])

    def test_a_cycle_over_the_bound_flushes_off_the_loop(self):
        tensor, factors = _wide_mttkrp(seed=33)
        request = mttkrp_request(tensor, factors, mode=0)
        want = execute_sequential([request])[0]
        framed = protocol.dumps(
            {"op": "submit", "id": "f", "request": protocol.encode_request(request)}
        )
        assert len(framed) > INLINE_MAX_BYTES
        # protocol version 1 sends no frames: its head line is the whole message
        base64_line = _version_1_mttkrp("b", tensor, factors)
        assert len(base64_line) > INLINE_MAX_BYTES
        with start_daemon_thread(workers=0) as handle:
            threads = _streamer_threads(handle.daemon)
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                for wire in (framed, base64_line):
                    sock.sendall(wire)
                    np.testing.assert_array_equal(_dense_result(*_read_reply(rfile)), want)
            assert handle.daemon.stats.inline_cycles == 0
            assert handle.daemon.stats.cycles == 2
        assert handle.thread.ident not in threads and len(threads) == 2

    def test_a_pooled_service_never_inlines(self):
        requests = _small_requests(2, seed=34)
        want = execute_sequential(requests)
        with start_daemon_thread(workers=2) as handle:
            threads = _streamer_threads(handle.daemon)
            with ServeClient(*handle.address, timeout=30) as client:
                for request, expected in zip(requests, want):
                    _assert_outputs_equal(client.run([request])[0], expected)
                assert client.health()["inline_cycles"] == 0
        assert handle.thread.ident not in threads and len(threads) == 2

    def test_each_inline_cycle_is_on_the_wire_before_the_next_runs(self):
        requests = _small_requests(4, seed=35)
        want = execute_sequential(requests)
        with start_daemon_thread(workers=0, client_quota=1) as handle:
            daemon = handle.daemon
            seen = []  # at each flush: (replies made, bytes written, replies unwritten)
            flush = daemon.service.flush

            def recording_flush():
                [client] = daemon._clients.values()
                seen.append((daemon.stats.replied, daemon.stats.bytes_sent,
                             client.outbox.qsize()))
                flush()

            daemon.service.flush = recording_flush
            with ServeClient(*handle.address, timeout=30) as client:
                outputs = [p.result() for p in client.submit_many(requests)]
            assert daemon.stats.inline_cycles == len(daemon.dispatch_trace) == 4
        assert [replied for replied, _, _ in seen] == [0, 1, 2, 3]
        assert [unwritten for _, _, unwritten in seen] == [0, 0, 0, 0]
        written = [sent for _, sent, _ in seen]
        assert all(before < after for before, after in zip(written, written[1:]))
        for out, expected in zip(outputs, want):
            _assert_outputs_equal(out, expected)


# --------------------------------------------------------------------------- #
# Random traffic against one live serial daemon (a Hypothesis state machine)
# --------------------------------------------------------------------------- #
_COLD_SHAPES = itertools.count()


@functools.lru_cache(maxsize=1)
def _machine_inputs():
    """Warm small requests, one warm request over the inline bound, and the
    outputs ``execute_sequential`` gives for them."""
    small = _small_requests(4, seed=36)
    big = mttkrp_request(*_wide_mttkrp(seed=37), mode=0)
    return small, execute_sequential(small), big, execute_sequential([big])[0]


class DaemonMachine(RuleBasedStateMachine):
    """Submits (warm, cold, over the bound), pipelined bursts, ``health`` and
    mid-frame disconnects, in any order, on ``start_daemon_thread(workers=0)``.

    Every admitted id is answered exactly once with ``execute_sequential``'s
    bytes, only warm small cycles run inline, ``pending`` returns to 0 after
    each step and the daemon thread stays alive.
    """

    def __init__(self):
        super().__init__()
        self.small, self.small_want, self.big, self.big_want = _machine_inputs()
        self.handle = start_daemon_thread(workers=0)
        self.sock = socket.create_connection(self.handle.address, timeout=30)
        self.rfile = self.sock.makefile("rb")
        self.sent = 0

    def _exchange(self, requests, expected=None):
        """Send *requests* as one burst and check exactly their replies;
        returns how many of the daemon's cycles ran inline meanwhile."""
        inline = self.handle.daemon.stats.inline_cycles
        ids = [f"m{self.sent + n}" for n in range(len(requests))]
        self.sent += len(requests)
        self.sock.sendall(b"".join(
            protocol.dumps({"op": "submit", "id": i, "request": protocol.encode_request(r)})
            for i, r in zip(ids, requests)
        ))
        replies = {}
        for _ in ids:
            reply, frames = _read_reply(self.rfile)
            assert reply["ok"] is True and reply["id"] in ids and reply["id"] not in replies
            replies[reply["id"]] = _dense_result(reply, frames)
        if expected is None:  # computed afterwards, so the daemon saw it cold
            expected = execute_sequential(requests)
        for i, want in zip(ids, expected):
            np.testing.assert_array_equal(replies[i], want)
        return self.handle.daemon.stats.inline_cycles - inline

    @rule(n=st.integers(0, 3))
    def submit_warm(self, n):
        assert self._exchange([self.small[n]], [self.small_want[n]]) == 1

    @rule()
    def submit_cold(self):
        k = next(_COLD_SHAPES)  # a new sparsity count: a schedule never searched
        tensor = random_sparse_tensor((7, 6, 5), nnz=60 + k, seed=k)
        rng = np.random.default_rng(k)
        request = mttkrp_request(tensor, [rng.random((6, 3)), rng.random((5, 3))], mode=0)
        assert self._exchange([request]) == 0

    @rule(picks=st.lists(st.integers(0, 3), min_size=2, max_size=4))
    def burst(self, picks):
        self._exchange([self.small[n] for n in picks], [self.small_want[n] for n in picks])

    @rule()
    def submit_over_the_bound(self):
        assert self._exchange([self.big], [self.big_want]) == 0

    @rule()
    def health(self):
        self.sock.sendall(b'{"op": "health", "id": "h"}\n')
        reply, _ = _read_reply(self.rfile)
        assert reply["id"] == "h" and reply["health"]["status"] == "ready"

    @rule(n=st.integers(0, 3))
    def disconnect_mid_frame(self, n):
        wire = bytes(protocol.dumps(
            {"op": "submit", "id": "cut", "request": protocol.encode_request(self.small[n])}
        ))
        with socket.create_connection(self.handle.address, timeout=30) as sock:
            sock.sendall(wire[: len(wire) - 16])  # inside the last frame

    @invariant()
    def settled(self):
        assert self.handle.thread.is_alive()
        # the next reply is the pong: no reply is left over or repeated
        self.sock.sendall(b'{"op": "ping", "id": "p"}\n')
        reply, _ = _read_reply(self.rfile)
        assert reply["id"] == "p" and reply["pong"] is True
        _wait_for(lambda: self.handle.daemon.health()["pending"] == 0)

    def teardown(self):
        self.sock.close()
        daemon = self.handle.daemon
        self.handle.shutdown()
        assert not self.handle.thread.is_alive()
        assert daemon.stats.admitted == daemon.stats.replied == self.sent


TestDaemonMachine = DaemonMachine.TestCase
TestDaemonMachine.settings = settings(max_examples=20, stateful_step_count=10)


# --------------------------------------------------------------------------- #
# Failure paths
# --------------------------------------------------------------------------- #
class TestDaemonFailurePaths:
    @pytest.mark.parametrize("engine", ["interpret", "no-such-engine"])
    def test_an_unknown_engine_is_refused_at_admission(self, engine):
        request = mttkrp_request(*_wide_mttkrp(seed=62), mode=0, engine=engine)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                with pytest.raises(ServeError) as refused:
                    client.submit(request).result()
                assert refused.value.code == "admission"
                assert f"engine must be one of ('jit', 'lowered'), got {engine!r}" in str(
                    refused.value
                )
                assert client.ping()
            stats = handle.daemon.stats
        assert (stats.admitted, stats.rejected, stats.cycles) == (0, 1, 0)

    def test_the_dispatch_trace_keeps_the_newest_cycles(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "TRACE_CYCLES", 3)
        requests = _small_requests(5, seed=63)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as a:
                for request in requests[:2]:
                    a.submit(request).result()
                with ServeClient(*handle.address, timeout=30) as b:
                    for request in requests[2:]:
                        b.submit(request).result()
            daemon = handle.daemon
        assert daemon.stats.cycles == 5
        assert list(daemon.dispatch_trace) == [[1], [1], [1]]
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

    def test_an_overlong_head_line_closes_only_its_connection(self, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_LINE_BYTES", 256)
        with start_daemon_thread(workers=0) as handle:
            with socket.create_connection(handle.address, timeout=30) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op":"ping","id":"' + b"x" * 300 + b'"}\n')
                reply = json.loads(rfile.readline())
                assert reply["id"] is None and reply["ok"] is False
                assert reply["error"]["code"] == "protocol"
                assert "line exceeds 256 bytes" in reply["error"]["message"]
                assert rfile.readline() == b""  # framing is lost: closed
            with ServeClient(*handle.address, timeout=30) as client:
                assert client.ping()

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

    def test_a_reply_that_cannot_be_framed_is_refused_at_admission(self):
        """A 656-byte MTTKRP over a (2 000 000, 2, 2) tensor at rank 8 asks
        for a 128 MB reply, over the 64 MiB a client reads: it is refused
        at admission before any output is allocated, and the daemon
        answers the next request."""
        tensor = COOTensor((2_000_000, 2, 2), [(0, 0, 0), (1_999_999, 1, 1)], [1.0, 2.0])
        request = mttkrp_request(tensor, [np.ones((2, 8)), np.ones((2, 8))], mode=0)
        assert len(protocol.dumps(protocol.encode_request(request))) < 1024
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address) as client:
                tracemalloc.start()
                try:
                    with pytest.raises(ServeError) as excinfo:
                        client.submit(request).result()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert excinfo.value.code == "admission"
                assert f"{protocol.MAX_MESSAGE_BYTES}-byte bound" in str(excinfo.value)
                assert peak < 16 * 2**20  # the reply alone would be 128 000 000
                assert client.ping()
            assert handle.daemon.stats.rejected == 1

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_admission_sizes_the_reply_frames_exactly(self, kind, monkeypatch):
        """A bound equal to the reply's frame bytes admits the request; one
        byte less refuses it."""
        tensor = random_sparse_tensor((40, 6, 5), nnz=30, seed=3)
        factors = [random_dense_matrix(dim, 4, seed=dim) for dim in tensor.shape]
        if kind == "dense":
            request = mttkrp_request(tensor, factors[1:], mode=0)
        else:
            request = tttp_request(tensor, factors)
        (output,) = execute_sequential([request])
        assert isinstance(output, COOTensor) == (kind == "sparse")
        wire = protocol.dumps(protocol.result_reply("r", output))
        frames = len(wire) - (wire.index(b"\n") + 1)
        daemon = ServeDaemon(workers=0)
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", frames)
        daemon._admit(request)
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", frames - 1)
        with pytest.raises(AdmissionError, match=f"{frames} bytes of frames"):
            daemon._admit(request)

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

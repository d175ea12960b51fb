"""Blocking client for the contraction-serving daemon.

:class:`ServeClient` speaks the NDJSON-with-frames protocol of
:mod:`repro.serve.protocol` over one TCP connection.  Submissions are
written immediately (head line, then the operands' own buffers) and return
:class:`PendingReply` handles; because the daemon streams replies in
*completion* order, the client demultiplexes inbound messages by message
id, buffering replies that belong to other handles (result frames are read
straight into the writable buffers the results then view).  The API
deliberately mirrors the in-process service — submit, futures, ``run`` — so
switching a caller between the two is mechanical.

Examples
--------
>>> with ServeClient("127.0.0.1", 7421) as client:
...     pending = client.submit(mttkrp_request(T, [B, C], mode=0))
...     out = pending.result()              # blocks until streamed back
...     outs = client.run(scenario_mix(8))  # submit all, collect in order
...     client.stats()["service"]["served"]
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.serve import protocol
from repro.serve.request import ContractionRequest
from repro.sptensor.coo import COOTensor

Output = Union[np.ndarray, COOTensor]

#: Most buffers one ``sendmsg`` call takes (Linux ``IOV_MAX``).
_IOV_MAX = 1024


class PendingReply:
    """Handle for one submitted request's streamed reply.

    ``result()`` blocks on the connection until the daemon's reply for this
    id arrives (buffering any other replies that stream back first) and
    returns the decoded tensor, or raises
    :class:`~repro.serve.protocol.ServeError` for a structured error reply.

    After a successful ``result()``, :attr:`timings` holds the reply's
    per-stage latency breakdown (seconds keyed by stage name — see
    ``repro.serve.service.STAGES``) when the daemon supplied one.
    """

    __slots__ = ("msg_id", "timings", "_client")

    def __init__(self, msg_id: str, client: "ServeClient") -> None:
        self.msg_id = msg_id
        self.timings: Optional[Dict[str, float]] = None
        self._client = client

    @property
    def done(self) -> bool:
        """Whether the reply is already buffered client-side (non-blocking)."""
        return self.msg_id in self._client._replies

    def result(self) -> Output:
        """Block until this request's reply arrives; decode or raise."""
        message = self._client._reply_for(self.msg_id)
        self.timings = message.get("timings")
        return protocol.decode_result(message)


class ServeClient:
    """One blocking NDJSON connection to a :class:`~repro.serve.daemon.ServeDaemon`.

    Parameters
    ----------
    host, port:
        Daemon address.  ``host`` may also be a ``"host:port"`` string
        (then *port* must be omitted).
    timeout:
        Socket timeout in seconds for connect and reads (``None`` blocks
        indefinitely — results can take as long as a batch takes).
    retry:
        Keep retrying the initial connection for up to this many seconds —
        lets scripts race a freshly spawned daemon (the CI session does).
    """

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
        retry: float = 0.0,
    ) -> None:
        if port is None:
            host, _, port_s = host.rpartition(":")
            if not host or not port_s:
                raise ValueError("address must be 'host:port' when port is omitted")
            port = int(port_s)
        self.address = (host, int(port))
        self._timeout = timeout
        self._sock = self._connect(retry)
        self._rfile = self._sock.makefile("rb")
        self._next_id = 0
        self._replies: Dict[str, Dict[str, Any]] = {}

    def _connect(self, retry: float) -> socket.socket:
        deadline = time.monotonic() + retry
        while True:
            try:
                sock = socket.create_connection(self.address, timeout=self._timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    # ------------------------------------------------------------------ #
    # Wire helpers
    # ------------------------------------------------------------------ #
    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(protocol.dumps(message))

    def _read_message(self) -> Dict[str, Any]:
        try:
            line = self._rfile.readline()
            message = protocol.loads(line) if line else None
            if message and message.get("frames"):
                frames = [bytearray(n) for n in message["frames"]]
                if any(self._rfile.readinto(f) != len(f) for f in frames):
                    message = None  # EOF inside a frame
                else:
                    protocol.attach(message, frames)
        except socket.timeout:
            host, port = self.address
            raise TimeoutError(
                f"no reply from daemon at {host}:{port} within "
                f"{self._timeout:g}s; the connection may be stale — "
                "reconnect with a fresh ServeClient"
            ) from None
        if message is None:
            raise ConnectionError("daemon closed the connection")
        return message

    def _dispatch(self, message: Dict[str, Any]) -> None:
        msg_id = message.get("id")
        if msg_id is not None:
            self._replies[str(msg_id)] = message
        # replies with a null id (unrecoverable protocol errors for garbage
        # we did not send) are dropped: nothing can be waiting on them

    def _reply_for(self, msg_id: str) -> Dict[str, Any]:
        while msg_id not in self._replies:
            self._dispatch(self._read_message())
        return self._replies.pop(msg_id)

    def _fresh_id(self) -> str:
        self._next_id += 1
        return f"c{self._next_id}"

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def submit(self, request: ContractionRequest) -> PendingReply:
        """Send one contraction request; returns its reply handle."""
        msg_id = self._fresh_id()
        self._send(
            {"op": "submit", "id": msg_id, "request": protocol.encode_request(request)}
        )
        return PendingReply(msg_id, self)

    def submit_many(
        self, requests: Sequence[ContractionRequest]
    ) -> List[PendingReply]:
        """Send several requests as one burst (replies stream unordered).

        Every request is encoded before the first byte is sent; their
        ``dumps`` bytes go out back to back in one vectored ``sendmsg`` (and
        more for what a partial send left), never joined into a second copy.
        The daemon's input does not pause inside the burst: it is one cycle.
        """
        burst = [(self._fresh_id(), r) for r in requests]
        views = [memoryview(protocol.dumps(
            {"op": "submit", "id": i, "request": protocol.encode_request(r)}
        )) for i, r in burst]
        first = 0
        while first < len(views):
            sent = self._sock.sendmsg(views[first : first + _IOV_MAX])
            while first < len(views) and sent >= len(views[first]):
                sent -= len(views[first])
                first += 1
            if sent:
                views[first] = views[first][sent:]
        return [PendingReply(i, self) for i, _ in burst]

    def run(self, requests: Sequence[ContractionRequest]) -> List[Output]:
        """Submit all *requests* and collect results in request order."""
        pending = self.submit_many(requests)
        return [p.result() for p in pending]

    def stats(self) -> Dict[str, Any]:
        """Fetch the daemon's stats document (service, caches, pool)."""
        msg_id = self._fresh_id()
        self._send({"op": "stats", "id": msg_id})
        reply = protocol.raise_if_error(self._reply_for(msg_id))
        return reply.get("stats", {})

    def metrics(self, format: Optional[str] = None) -> Union[Dict[str, Any], str]:
        """Fetch the daemon's metrics registry snapshot.

        With ``format="prometheus"`` the reply is the text exposition
        format (one string); otherwise the structured JSON snapshot.
        """
        msg_id = self._fresh_id()
        message: Dict[str, Any] = {"op": "metrics", "id": msg_id}
        if format is not None:
            message["format"] = format
        self._send(message)
        reply = protocol.raise_if_error(self._reply_for(msg_id))
        return reply.get("metrics", {})

    def health(self) -> Dict[str, Any]:
        """Fetch the daemon's lightweight health document.

        Cheaper than :meth:`stats`: no cache or pool introspection, just
        readiness (``status`` of ``ready``/``degraded``/``draining``),
        load, and last-crash supervision info.
        """
        msg_id = self._fresh_id()
        self._send({"op": "health", "id": msg_id})
        reply = protocol.raise_if_error(self._reply_for(msg_id))
        return reply.get("health", {})

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        msg_id = self._fresh_id()
        self._send({"op": "ping", "id": msg_id})
        reply = protocol.raise_if_error(self._reply_for(msg_id))
        return bool(reply.get("pong"))

    def shutdown_server(self, wait: bool = True) -> int:
        """Ask the daemon to drain and exit; returns its pending count.

        With *wait* (the default) the call also consumes the stream until
        the daemon closes the connection, so any still-pending replies of
        this client are buffered and remain retrievable from their
        :class:`PendingReply` handles.
        """
        msg_id = self._fresh_id()
        self._send({"op": "shutdown", "id": msg_id})
        reply = protocol.raise_if_error(self._reply_for(msg_id))
        if wait:
            try:
                while True:
                    self._dispatch(self._read_message())
            except (ConnectionError, OSError):
                pass
        return int(reply.get("draining", 0))

    def close(self) -> None:
        """Close the connection (idempotent)."""
        for closable in (self._rfile, self._sock):
            try:
                closable.close()
            except Exception:  # pragma: no cover - already closed
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["PendingReply", "ServeClient"]

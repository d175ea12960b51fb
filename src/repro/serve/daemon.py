"""Network-facing asyncio daemon fronting the batched contraction service.

:class:`ServeDaemon` turns the in-process :class:`~repro.serve.ContractionService`
into a long-running TCP server speaking the newline-delimited JSON protocol
of :mod:`repro.serve.protocol` (see ``docs/PROTOCOL.md``): one head line per
message, then the raw tensor frames it announces.  Each frame is read in
place into its own ``bytearray`` (:mod:`repro.serve.connection`) and reaches
the service as read-only ``np.frombuffer`` views.  The event loop owns
connections, admission and dispatch:

* **admission with backpressure** — every ``submit`` is validated (its spec
  parsed against its operands) and counted against the service's
  ``max_pending`` bound *at receipt*; a full queue or an invalid request is
  answered with a structured ``admission`` error, exactly as in-process
  :meth:`~repro.serve.ContractionService.submit` refuses it, and so is a
  request whose reply would exceed the wire's message bound;
* **per-client fairness** — admitted requests queue per connection and one
  dispatch task drains them round-robin (rotating the starting client every
  cycle) with a per-client in-flight quota;
* **batching across clients** — each dispatch cycle submits its drained
  requests to the shared service and flushes once, so requests from
  *different* connections that agree on the plan-cache signature share one
  schedule search and one compiled plan; a connection is passed over while
  a message of its is arriving or unread bytes of it wait in its buffer or
  socket, so a pipelined burst is one cycle;
* **inline or off-loop flush** — a serial service flushes a cycle of at most
  :data:`INLINE_MAX_BYTES` whose schedules are all cached on the loop itself
  (no search can run there); any other cycle flushes in a worker thread, so
  the daemon keeps accepting and answering ``stats`` while it executes;
* **streaming results** — replies are written as each
  :class:`~repro.serve.ServeFuture` resolves (group by group inside a
  flush), so early groups stream back while later groups still execute;
* **graceful shutdown** — ``SIGTERM``/``SIGINT`` (or a ``shutdown``
  operation) stop the listener, drain every queued and in-flight request,
  answer the submits clients had already sent with ``shutdown`` errors,
  deliver all replies, close the connections and drain the shared worker
  pool before the daemon exits.

Examples
--------
Serve on a TCP port until SIGTERM (the ``repro serve --daemon`` CLI path)::

    ServeDaemon(host="127.0.0.1", port=7421, workers=2).run()

Tests and benchmarks embed the daemon in a background thread::

    with start_daemon_thread(workers=0) as handle:
        client = ServeClient(*handle.address)
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.engine.plan_cache import caches_snapshot, plan_timings_snapshot
from repro.engine.plan_store import plan_store_snapshot
from repro.obs.export import write_trace
from repro.obs.metrics import metrics_snapshot, observe, prometheus_text
from repro.obs.trace import enable_tracing, span as _span, tracing_enabled
from repro.runtime import drain_pools, pool_stats, supervision_events
from repro.serve import protocol
from repro.serve.connection import Connection
from repro.serve.request import ContractionRequest
from repro.serve.service import (
    AdmissionError,
    ContractionService,
    DeadlineError,
    QuarantinedError,
    ServeFuture,
)
from repro.util.config import resolved, setting
from repro.util.faults import faults_snapshot

#: Maximum head-line length accepted from a client (64 MiB, as for the
#: frames a head may announce) — bounds the per-connection read buffer;
#: operands above this must be split or served in process.
MAX_LINE_BYTES = protocol.MAX_MESSAGE_BYTES

#: Default TCP port of ``repro serve --daemon``.
DEFAULT_PORT = 7421

#: Longest the drain's last step reads what clients had already sent.
SHUTDOWN_READ_SECONDS = 1.0

#: Largest cycle (head lines plus frames) a serial daemon flushes on its event
#: loop when every schedule is cached; a bigger or colder one flushes off-loop.
INLINE_MAX_BYTES = 64 * 1024


class _Draining(RuntimeError):
    """A submit that arrived after the drain began."""


#: Refused submit -> (the ``DaemonStats`` counter, the wire error code), at
#: receipt or at dispatch.  At dispatch an ``AdmissionError`` needs a service
#: shared with in-process callers; the reply stays structured either way.
_REFUSALS = {
    _Draining: ("rejected", protocol.ERROR_SHUTDOWN),
    AdmissionError: ("rejected", protocol.ERROR_ADMISSION),
    DeadlineError: ("expired", protocol.ERROR_TIMEOUT),
    QuarantinedError: ("quarantined", protocol.ERROR_QUARANTINED),
}


@dataclass(slots=True, eq=False)
class _QueuedItem:
    """One admitted submit operation waiting in a connection's backlog."""

    client: "_Client"
    msg_id: Any
    request: ContractionRequest
    #: absolute ``time.monotonic()`` deadline stamped at receipt, so time
    #: spent in the backlog counts against ``deadline_ms``.
    expires_at: Optional[float]
    #: seconds spent parsing the head and decoding the operands.
    wire_decode: float
    #: the frames the operands view (the next message may share them).
    frames: List[bytearray]
    #: bytes the message took on the wire: head line plus frames.
    wire_bytes: int


@dataclass(slots=True, eq=False)
class _Client:
    """Per-connection state: backlog, in-flight count, outbound queue."""

    conn_id: int
    conn: Connection
    outbox: "asyncio.Queue[Optional[bytes]]" = field(default_factory=asyncio.Queue)
    backlog: Deque[_QueuedItem] = field(default_factory=deque)
    inflight: int = 0
    pending_ids: set = field(default_factory=set)
    closed: bool = False
    #: a message's frames are arriving: the backlog waits for it, so a
    #: pipelined burst is one dispatch cycle however its reads interleave
    receiving: bool = False

    def send(self, message: Dict[str, Any]) -> None:
        """Enqueue one reply for the writer task (no-op once closed)."""
        if not self.closed:
            self.outbox.put_nowait(protocol.dumps(message))


@dataclass
class DaemonStats:
    """Daemon-level counters (the service and caches keep their own)."""

    connections: int = 0
    active_connections: int = 0
    received: int = 0
    admitted: int = 0
    rejected: int = 0
    replied: int = 0
    protocol_errors: int = 0
    cycles: int = 0
    #: cycles flushed on the event loop (serial, schedules cached, small).
    inline_cycles: int = 0
    #: requests answered with a ``timeout`` error (deadline expirations).
    expired: int = 0
    #: requests answered with a ``quarantined`` error (poison signatures).
    quarantined: int = 0
    #: idle connections closed by the read timeout.
    idle_closed: int = 0
    #: service flushes that raised (futures still resolve; daemon survives).
    flush_errors: int = 0
    #: bytes read from / written to client sockets (head lines and frames).
    bytes_received: int = 0
    bytes_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for the ``stats`` reply."""
        return asdict(self)


class ServeDaemon:
    """Asyncio TCP server streaming batched contraction results.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (the bound
        address is available as :attr:`address` once serving).
    service:
        The :class:`~repro.serve.ContractionService` to front (one is
        constructed from *workers*/*engine*/*max_pending* when omitted).
    workers, engine, max_pending:
        Forwarded to the constructed service; ``max_pending`` is also the
        daemon's backpressure bound across queued + in-flight requests.
    client_quota:
        Maximum in-flight requests per connection per dispatch cycle — the
        fairness knob: a client beyond its quota waits for the next cycle
        while other connections drain.
    trace_dir:
        When set (or via the ``REPRO_TRACE_DIR`` environment variable),
        tracing is enabled for the daemon's lifetime and a Chrome-trace
        JSON file (``trace-daemon-<port>.json``, Perfetto-loadable) is
        written into this directory during shutdown.
    idle_timeout:
        Seconds a connection may sit idle — no inbound bytes and nothing
        queued or in flight — before the daemon closes it, so half-dead
        clients cannot pin connection state forever.  ``None`` defers to
        ``REPRO_IDLE_TIMEOUT`` (default: no timeout); connections with
        work in flight are never closed by this.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        service: Optional[ContractionService] = None,
        workers: Optional[int] = None,
        engine: Optional[str] = None,
        max_pending: int = 4096,
        client_quota: int = 64,
        trace_dir: Optional[Union[str, Path]] = None,
        idle_timeout: Optional[float] = None,
    ) -> None:
        if client_quota < 1:
            raise ValueError("client_quota must be >= 1")
        self.host = host
        self.port = port
        self.idle_timeout = (
            setting("REPRO_IDLE_TIMEOUT") if idle_timeout is None else idle_timeout
        )
        if trace_dir is None:
            trace_dir = setting("REPRO_TRACE_DIR")
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            enable_tracing()
        self.service = (
            service
            if service is not None
            else ContractionService(
                workers=workers, engine=engine, max_pending=max_pending
            )
        )
        self.client_quota = client_quota
        self.stats = DaemonStats()
        #: Dispatch-cycle trace: one list of connection ids per cycle, in
        #: drain order — the observable artifact of round-robin fairness
        #: (tests assert on it; ``stats`` reports its length as ``cycles``).
        self.dispatch_trace: List[List[int]] = []
        self.address: Optional[Tuple[str, int]] = None
        self._clients: "OrderedDict[int, _Client]" = OrderedDict()
        self._next_conn_id = 0
        self._inflight_total = 0
        self._cycle = 0
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._work: Optional[asyncio.Event] = None
        self._gate: Optional[asyncio.Event] = None
        self._writer_tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def serve(
        self,
        started: Optional[threading.Event] = None,
        install_signal_handlers: bool = False,
    ) -> None:
        """Run the daemon until a graceful shutdown completes.

        *started* (if given) is set once the listener is bound and
        :attr:`address` is valid.  With *install_signal_handlers*,
        ``SIGTERM``/``SIGINT`` trigger the same drain-then-exit path as a
        ``shutdown`` operation.
        """
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._gate = asyncio.Event()
        self._gate.set()
        self._server = await self._loop.create_server(
            lambda: Connection(MAX_LINE_BYTES, self._handle_connection),
            self.host, self.port,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.begin_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-Unix loop: rely on the shutdown operation
        if started is not None:
            started.set()
        try:
            await self._dispatch_loop()
        finally:
            await self._close_everything()

    def run(self) -> None:
        """Blocking entry point: serve with signal handlers installed."""
        asyncio.run(self.serve(install_signal_handlers=True))

    def begin_shutdown(self) -> None:
        """Stop accepting, then drain all pending work (idempotent).

        Safe to call from the event loop (signal handler, ``shutdown``
        operation); from other threads use ``call_soon_threadsafe``.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._gate is not None:
            self._gate.set()  # a paused daemon must still drain on SIGTERM
        if self._work is not None:
            self._work.set()

    def pause_dispatch(self) -> None:
        """Hold the dispatch loop before its next cycle (testing hook)."""
        assert self._gate is not None
        self._gate.clear()

    def resume_dispatch(self) -> None:
        """Release a :meth:`pause_dispatch` hold (testing hook)."""
        assert self._gate is not None
        self._gate.set()

    # ------------------------------------------------------------------ #
    # Connection handling (event-loop thread)
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, conn: Connection) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        client = _Client(conn_id, conn)
        self._clients[conn_id] = client
        self.stats.connections += 1
        self.stats.active_connections += 1
        writer_task = asyncio.ensure_future(self._writer_loop(client))
        self._writer_tasks.append(writer_task)
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        conn.readline(), self.idle_timeout  # None: no limit
                    )
                except asyncio.TimeoutError:
                    if client.backlog or client.inflight or client.pending_ids:
                        # not idle — results are still owed; the timeout
                        # only reaps silent, empty links
                        continue
                    self.stats.idle_closed += 1
                    break
                except ValueError as exc:  # an overlong line: framing is lost
                    client.send(protocol.error_reply(None, protocol.ERROR_PROTOCOL, str(exc)))
                    break
                if not line:
                    break  # EOF
                self.stats.bytes_received += len(line)
                if line.strip() and not await self._handle_line(client, line):
                    break  # framing lost, or the message was cut short
                if client.backlog:  # dispatch it, or check again whether it is held
                    self._work.set()
        finally:
            self._drop_client(client)

    async def _handle_line(self, client: _Client, line: bytes) -> bool:
        """Decode and act on one inbound message (errors stay structured).

        ``False`` once the stream cannot be delimited any more: close.
        """
        self.stats.received += 1
        msg_id: Any = None
        frames: List[bytearray] = []
        decode_t0 = time.perf_counter()
        try:
            message = protocol.loads(line)
            msg_id = message.get("id")
            if message.get("frames"):
                # one bytearray per frame, read into in place: an operand view
                # keeps alive only its own bytes; the wait is not decode time
                wait_t0 = time.perf_counter()
                client.receiving = True
                frames = [bytearray(n) for n in message["frames"]]
                try:
                    for frame in frames:
                        await asyncio.wait_for(client.conn.readinto(frame), self.idle_timeout)
                except (EOFError, asyncio.TimeoutError):
                    return False  # cut short, or stalled mid-message
                finally:
                    client.receiving = False
                self.stats.bytes_received += sum(message["frames"])
                decode_t0 += time.perf_counter() - wait_t0
                if client.backlog:
                    # a burst repeats its sparse tensor with new factors: a frame
                    # byte-identical to the held request's is that object, and
                    # decode_request then shares the held request's tensor
                    held = client.backlog[-1].frames
                    frames[: len(held)] = [h if h == f else f for f, h in zip(frames, held)]
                protocol.attach(message, [memoryview(f).toreadonly() for f in frames])
            op = message.get("op")
            if op == "submit":
                wire_bytes = len(line) + sum(map(len, frames))
                self._handle_submit(client, msg_id, message, decode_t0, frames, wire_bytes)
            elif op == "stats":
                client.send(protocol.stats_reply(msg_id, self.snapshot()))
            elif op == "metrics":
                if message.get("format") == "prometheus":
                    payload: Union[Dict[str, Any], str] = prometheus_text()
                else:
                    payload = metrics_snapshot()
                client.send(protocol.metrics_reply(msg_id, payload))
            elif op == "health":
                client.send(protocol.health_reply(msg_id, self.health()))
            elif op == "ping":
                client.send(protocol.pong_reply(msg_id))
            elif op == "shutdown":
                client.send(protocol.shutdown_reply(msg_id, self._pending_total()))
                self.begin_shutdown()
            else:
                raise protocol.ProtocolError(
                    f"unknown op {op!r}; expected one of {protocol.OPS}"
                )
        except protocol.ProtocolError as exc:
            # malformed traffic never kills the connection: reply with a
            # structured error (id echoes when it was recoverable) and
            # keep reading — unless it was the framing itself
            self.stats.protocol_errors += 1
            client.send(
                protocol.error_reply(msg_id, protocol.ERROR_PROTOCOL, str(exc))
            )
            return not isinstance(exc, protocol.FramingError)
        return True

    def _handle_submit(
        self,
        client: _Client,
        msg_id: Any,
        message: Dict[str, Any],
        decode_t0: float,
        frames: List[bytes],
        wire_bytes: int,
    ) -> None:
        if msg_id is None:
            raise protocol.ProtocolError("submit requires a non-null id")
        if msg_id in client.pending_ids:
            raise protocol.ProtocolError(
                f"id {msg_id!r} is already in flight on this connection"
            )
        try:
            if self._draining:
                raise _Draining("daemon is draining")
            held = client.backlog[-1].request if client.backlog else None
            request = protocol.decode_request(message.get("request"), held)
            wire_decode = time.perf_counter() - decode_t0
            observe("serve.stage.wire_decode", wire_decode)
            expires_at = None
            if request.deadline_ms is not None:
                expires_at = time.monotonic() + request.deadline_ms / 1000.0
                if request.deadline_ms <= 0:
                    # already expired at receipt: shed before it costs a
                    # queue slot or a dispatch cycle
                    raise DeadlineError(
                        f"deadline ({request.deadline_ms}ms) expired before admission"
                    )
            self._admit(request)
        except tuple(_REFUSALS) as exc:
            client.send(protocol.error_reply(msg_id, self._refusal(exc), str(exc)))
            return
        client.pending_ids.add(msg_id)
        client.backlog.append(
            _QueuedItem(client, msg_id, request, expires_at, wire_decode, frames, wire_bytes)
        )
        self.stats.admitted += 1

    def _admit(self, request: ContractionRequest) -> None:
        """Admission control: the service's bound and eager validation.

        Raises :class:`~repro.serve.AdmissionError` — the same exception
        and semantics as in-process ``submit`` — when the daemon-wide
        pending count (queued + in-flight) has reached the service's
        ``max_pending``, when the request's spec fails to parse against
        its operands, or when its reply's frames, sized from the declared
        shapes before anything is allocated, would exceed
        ``protocol.MAX_MESSAGE_BYTES``, which no client can read.
        """
        if self._pending_total() >= self.service.max_pending:
            raise AdmissionError(
                f"queue full ({self.service.max_pending} pending); retry "
                f"after results drain"
            )
        try:
            kernel, tensors = request.build()
        except Exception as exc:
            raise AdmissionError(f"invalid request: {exc}") from exc
        if kernel.output.is_sparse:  # the input's pattern, float64 values
            sparse = tensors[kernel.sparse_operand.name]
            reply = sparse.indices.nbytes + 8 * sparse.nnz
        else:  # float64
            reply = 8 * math.prod(kernel.index_dims[i] for i in kernel.output.indices)
        if reply > protocol.MAX_MESSAGE_BYTES:
            raise AdmissionError(
                f"the reply would be {reply} bytes of frames, over the "
                f"{protocol.MAX_MESSAGE_BYTES}-byte bound on one message"
            )

    def _pending_total(self) -> int:
        backlog = sum(len(c.backlog) for c in self._clients.values())
        return backlog + self._inflight_total

    def _drop_client(self, client: _Client) -> None:
        """Forget a disconnected client without poisoning its batch.

        Queued-but-undispatched requests are discarded; in-flight requests
        keep executing (their futures belong to the whole batch) and their
        replies are dropped at delivery.
        """
        if client.closed:
            return
        client.closed = True
        client.backlog.clear()
        self._clients.pop(client.conn_id, None)
        self.stats.active_connections -= 1
        client.outbox.put_nowait(None)  # unbounded queue: cannot be full

    async def _writer_loop(self, client: _Client) -> None:
        """Drain one connection's outbox to its socket, in order."""
        try:
            while True:
                payload = await client.outbox.get()
                if payload is None:
                    break
                client.conn.transport.write(payload)
                self.stats.bytes_sent += len(payload)
                await client.conn.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            client.conn.transport.close()

    # ------------------------------------------------------------------ #
    # Dispatch: round-robin drain -> service submit -> flush, inline or off-loop
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        assert self._work is not None and self._gate is not None
        while True:
            await self._work.wait()
            await self._gate.wait()
            self._work.clear()
            batch = self._take_round_robin()
            if not batch:
                if self._draining and self._pending_total() == 0:
                    await self._read_buffered()
                    return
                continue
            self.dispatch_trace.append([item.client.conn_id for item in batch])
            self.stats.cycles += 1
            await self._submit_and_flush(batch)
            if self._pending_total() > 0 or self._draining:
                self._work.set()

    def _take_round_robin(self) -> List[_QueuedItem]:
        """Drain client backlogs fairly for one dispatch cycle.

        Clients are visited in connection order starting from a rotating
        offset; each pass takes one request per client, repeating until
        every backlog is empty or at its ``client_quota`` of in-flight
        requests.  The result interleaves clients deterministically, so a
        connection with a deep backlog cannot occupy a whole cycle.
        """
        clients = []
        for c in self._clients.values():
            # a burst that is still arriving (a message half read, or bytes no
            # read has taken yet) waits to be one cycle — up to what a cycle
            # takes from one client, so a sender that never pauses is served
            if c.backlog and (
                self._draining
                or len(c.backlog) >= self.client_quota
                or not (c.receiving or c.conn.unread())
            ):
                clients.append(c)
        if not clients:
            return []
        start = self._cycle % len(clients)
        order = clients[start:] + clients[:start]
        self._cycle += 1
        batch: List[_QueuedItem] = []
        took = True
        while took:
            took = False
            for client in order:
                if client.backlog and client.inflight < self.client_quota:
                    item = client.backlog.popleft()
                    client.inflight += 1
                    self._inflight_total += 1
                    batch.append(item)
                    took = True
        return batch

    async def _read_buffered(self) -> None:
        """Answer what the open connections had sent before the drain ended.

        A submit that raced the shutdown can still sit unread in a socket or
        a connection's buffer.  Until a pass finds no client holding unread
        bytes and no message handled meanwhile, the connection handlers keep
        reading, and ``_handle_submit`` answers each submit with ``shutdown``.
        """
        deadline = time.monotonic() + SHUTDOWN_READ_SECONDS
        while time.monotonic() < deadline:
            received = self.stats.received
            unread = any(c.conn.unread() for c in self._clients.values())
            await asyncio.sleep(0.001)  # transports read, then handlers run
            if not unread and self.stats.received == received:
                return

    async def _submit_and_flush(self, batch: List[_QueuedItem]) -> None:
        """Submit one cycle's requests, then flush the service once: on the
        loop for a small, cached, serial cycle (no thread hop either way),
        else in a worker thread while the loop keeps serving."""
        assert self._loop is not None
        submitted = []
        for item in batch:
            try:
                if item.expires_at is not None and time.monotonic() >= item.expires_at:
                    # the deadline ran out in the daemon's backlog: shed it
                    # without touching the service
                    raise DeadlineError(
                        f"deadline ({item.request.deadline_ms}ms) expired while queued"
                    )
                submitted.append(
                    (item, self.service.submit(item.request, expires_at=item.expires_at))
                )
            except tuple(_REFUSALS) as exc:
                self._finish_item(
                    item, protocol.error_reply(item.msg_id, self._refusal(exc), str(exc))
                )
        if not submitted:
            return
        inline = (
            sum(item.wire_bytes for item in batch) <= INLINE_MAX_BYTES
            and self.service.flushes_cached_serially()
        )
        self.stats.inline_cycles += inline
        for item, future in submitted:
            future.add_done_callback(self._make_streamer(item, inline))
        with _span(
            "dispatch", "daemon", requests=len(batch), cycle=self.stats.cycles,
            inline=inline,
        ):
            try:
                if inline:
                    self.service.flush()
                else:
                    # futures resolve group by group and their callbacks
                    # stream replies back through the loop while later
                    # groups are still executing
                    await self._loop.run_in_executor(None, self.service.flush)
            except Exception:
                # a flush abort already resolved every future with a
                # structured error (the service's BaseException handler);
                # the daemon must outlive it — record and keep serving
                self.stats.flush_errors += 1
        if inline:
            await asyncio.sleep(0)  # the writers send this cycle's replies first

    def _make_streamer(self, item: _QueuedItem, inline: bool):
        """Done-callback delivering one resolved future to its connection
        (directly when the flush runs on the loop, else through it)."""

        def _on_done(future: ServeFuture) -> None:
            encode_t0 = time.perf_counter()
            try:
                reply = protocol.result_reply(item.msg_id, future.result())
            except RuntimeError as exc:
                # RequestFailed carries a code ("timeout" for deadline
                # expirations); anything else is an execution failure.
                # (service.stats.expired counts these; daemon.expired only
                # counts daemon-side sheds, keeping it loop-thread-owned.)
                code = (
                    protocol.ERROR_TIMEOUT
                    if getattr(exc, "code", None) == "timeout"
                    else protocol.ERROR_EXECUTION
                )
                reply = protocol.error_reply(item.msg_id, code, str(exc))
            wire_encode = time.perf_counter() - encode_t0
            observe("serve.stage.wire_encode", wire_encode)
            if future.timings:
                timings = dict(future.timings)
                timings["wire_decode"] = item.wire_decode
                timings["wire_encode"] = wire_encode
                reply["timings"] = timings
            if inline:
                self._finish_item(item, reply)
            else:
                self._loop.call_soon_threadsafe(self._finish_item, item, reply)

        return _on_done

    def _refusal(self, exc: Exception) -> str:
        """Count one refused submit; returns its wire error code."""
        stat, code = _REFUSALS[type(exc)]
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        return code

    def _finish_item(self, item: _QueuedItem, reply: Dict[str, Any]) -> None:
        """Deliver one reply on the loop thread and release its quota."""
        item.client.inflight -= 1
        self._inflight_total -= 1
        item.client.pending_ids.discard(item.msg_id)
        if not item.client.closed:
            item.client.send(reply)
            self.stats.replied += 1
        assert self._work is not None
        self._work.set()

    # ------------------------------------------------------------------ #
    # Introspection and teardown
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """Lightweight readiness document (the ``health`` operation).

        Unlike :meth:`snapshot` this touches no caches or metric sources —
        it is cheap enough for tight probe loops.  ``status`` is
        ``"ready"``, ``"draining"`` (shutdown in progress) or
        ``"degraded"`` (at least one plan signature is quarantined);
        supervision totals and the last worker-crash timestamp ride along
        so probes can alert on crash churn without pulling full stats.
        """
        events = supervision_events()
        quarantine = self.service.quarantine_snapshot()
        if self._draining:
            status = "draining"
        elif quarantine["entries"]:
            status = "degraded"
        else:
            status = "ready"
        return {
            "status": status,
            "ready": status == "ready",
            "version": protocol.PROTOCOL_VERSION,
            "pending": self._pending_total(),
            "active_connections": self.stats.active_connections,
            "inline_cycles": self.stats.inline_cycles,
            "quarantined_signatures": len(quarantine["entries"]),
            "expired": self.stats.expired + self.service.stats.expired,
            "crashes": events["crashes"],
            "worker_timeouts": events["timeouts"],
            "respawns": events["respawns"],
            "last_crash_unix": events["last_crash_unix"],
        }

    def snapshot(self) -> Dict[str, Any]:
        """One coherent stats document: daemon, service, caches, pool.

        ``metrics`` is the registry-only slice (counters and the
        per-stage latency histograms; the caches/pool sources are already
        present as top-level keys) and ``plan_timings`` one timing row
        per cached plan, engine and phase (count/total/mean and the
        cumulative ``buckets``; the ``plan`` row of ``caches`` bounds
        them), ``plan_store`` the disk-backed schedule store
        (``{"configured": False}`` without ``REPRO_PLAN_STORE``) and
        ``config`` every ``REPRO_*`` setting as resolved now
        (:func:`repro.util.config.resolved`).
        """
        return {
            "version": protocol.PROTOCOL_VERSION,
            "draining": self._draining,
            "pending": self._pending_total(),
            "daemon": self.stats.as_dict(),
            "service": self.service.stats.as_dict(),
            "caches": caches_snapshot(),
            "pool": pool_stats(),
            "metrics": metrics_snapshot(include_sources=False),
            "plan_timings": plan_timings_snapshot(),
            "plan_store": plan_store_snapshot(),
            "quarantine": self.service.quarantine_snapshot(),
            "faults": faults_snapshot(),
            "config": resolved(),
        }

    async def _close_everything(self) -> None:
        """Stop the listener, flush outboxes, close sockets, drain pools."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover - platform dependent
                pass
        for client in list(self._clients.values()):
            self._drop_client(client)
        if self._writer_tasks:
            await asyncio.gather(*self._writer_tasks, return_exceptions=True)
        # the drain hook waits for outstanding pool tasks instead of
        # terminating mid-map; a later in-process use refills the pools
        await asyncio.get_running_loop().run_in_executor(None, drain_pools)
        # written last so the file is complete once the daemon thread joins
        if self.trace_dir is not None and tracing_enabled():
            port = self.address[1] if self.address is not None else self.port
            try:
                write_trace(self.trace_dir / f"trace-daemon-{port}.json")
            except OSError:  # pragma: no cover - unwritable trace dir
                pass


# --------------------------------------------------------------------------- #
# Embedding helper: daemon on a background thread (tests, benchmarks)
# --------------------------------------------------------------------------- #
class DaemonHandle:
    """A running :class:`ServeDaemon` on a background thread.

    Exposes the bound :attr:`address`, the daemon object (for stats and the
    dispatch testing hooks, via ``call_soon_threadsafe``) and
    :meth:`shutdown`; usable as a context manager.
    """

    def __init__(self, daemon: ServeDaemon, thread: threading.Thread) -> None:
        self.daemon = daemon
        self.thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        """The daemon's bound ``(host, port)``."""
        assert self.daemon.address is not None
        return self.daemon.address

    def call(self, fn, *args) -> None:
        """Run *fn* on the daemon's event loop thread (fire and forget)."""
        assert self.daemon._loop is not None
        self.daemon._loop.call_soon_threadsafe(fn, *args)

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain the daemon and join its thread (idempotent)."""
        if self.thread.is_alive():
            self.call(self.daemon.begin_shutdown)
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - deadlock guard
            raise RuntimeError("daemon thread did not exit within timeout")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def start_daemon_thread(
    host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0, **kwargs
) -> DaemonHandle:
    """Start a :class:`ServeDaemon` on a daemon thread and wait until bound.

    Keyword arguments are forwarded to :class:`ServeDaemon`; the default
    ``port=0`` binds an ephemeral port.  Returns a :class:`DaemonHandle`
    whose :attr:`~DaemonHandle.address` is ready to connect to.

    Examples
    --------
    >>> with start_daemon_thread(workers=0) as handle:
    ...     with ServeClient(*handle.address) as client:
    ...         client.ping()
    """
    daemon = ServeDaemon(host=host, port=port, **kwargs)
    started = threading.Event()

    def _run() -> None:
        asyncio.run(daemon.serve(started=started))

    thread = threading.Thread(target=_run, name="repro-serve-daemon", daemon=True)
    thread.start()
    if not started.wait(timeout):  # pragma: no cover - startup failure
        raise RuntimeError("daemon failed to start within timeout")
    return DaemonHandle(daemon, thread)


__all__ = [
    "DEFAULT_PORT",
    "INLINE_MAX_BYTES",
    "MAX_LINE_BYTES",
    "DaemonHandle",
    "DaemonStats",
    "ServeDaemon",
    "start_daemon_thread",
]

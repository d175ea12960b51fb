"""Batched contraction service: many concurrent requests, one runtime.

:class:`ContractionService` is the serving layer the ROADMAP's north star
asks for: callers :meth:`~ContractionService.submit` contraction requests
(the four named kernel families or arbitrary ``build_kernel`` spec strings)
and receive :class:`ServeFuture` handles; the service executes the queue in
*batches* and resolves every future in submission order.

The throughput lever is the paper's own amortization argument applied
across requests instead of across iterations:

* **batching by plan-cache signature** — queued requests are grouped by the
  structural identity that determines their schedule and compiled plan
  (kernel signature + sparsity statistics + operand shapes/dtypes +
  engine).  Each group resolves one
  :func:`~repro.engine.plan_cache.cached_schedule` and one
  :func:`~repro.engine.plan_cache.cached_executor`, so the scheduler's
  loop-order search and the executor's symbolic preprocessing are paid once
  per group, not once per request;
* **dispatch on the shared runtime** — with ``workers > 1`` (or
  ``REPRO_WORKERS`` set) each group fans out over the persistent
  :func:`~repro.runtime.shared_pool`.  Operands referenced by more than
  one request of a group — dense factor matrices *and* the COO sparse
  tensor's coordinate/value arrays — are broadcast once through
  ``multiprocessing.shared_memory`` (:mod:`repro.runtime.shm`); each task
  ships only its request's private operands, and workers rebuild each
  broadcast sparse tensor once (cached per segment), so its CSF conversion
  is reused across the whole batch.  The order-preserving map keeps
  results in submission order, so the parallel tier is bit-identical to
  serial serving;
* **admission control** — the queue is bounded (``max_pending``) and every
  request is validated (spec parsed against its operands) at submission:
  malformed work is rejected with :class:`AdmissionError` before it can
  occupy the queue.  Per-request *execution* failures resolve only their
  own future; the rest of the batch is unaffected.

The memory side of admission lives in the plan cache itself: the process
caches are LRU with an optional byte budget (``REPRO_PLAN_CACHE_BYTES``),
so a long-running service cannot grow its compiled-plan footprint without
bound.  :func:`~repro.engine.plan_cache.caches_snapshot` surfaces the
hit/miss/eviction/bytes counters per cache.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest
from repro.engine.executor import ENGINES, TensorLike, default_engine
from repro.engine.plan_cache import (
    cached_executor,
    cached_schedule,
    default_schedule_cache,
    operand_signature,
    schedule_key,
)
from repro.obs.metrics import inc_counter, observe
from repro.obs.trace import span as _span
from repro.runtime import (
    attach,
    parallel_map,
    publish,
    resolve_workers,
    supervision_events,
)
from repro.serve.request import ContractionRequest
from repro.sptensor.coo import COOTensor
from repro.util.config import setting
from repro.util.faults import fault_point
from repro.util.lru import LRUCache
from repro.util.validation import require

Output = Union[np.ndarray, COOTensor]

#: Per-request latency stages reported in :attr:`ServeFuture.timings` and
#: aggregated into the ``serve.stage.*`` histograms; the daemon adds
#: ``wire_decode`` when it parses the request and ``wire_encode`` when it
#: serializes the reply.
STAGES = (
    "wire_decode", "queue_wait", "schedule", "build", "execute", "reduce",
    "wire_encode",
)


class AdmissionError(RuntimeError):
    """A request was refused at submission (full queue or invalid spec)."""


class DeadlineError(RuntimeError):
    """A request's deadline had already expired when it was submitted."""


class QuarantinedError(RuntimeError):
    """A request matches a quarantined plan signature and fails fast."""


class RequestFailed(RuntimeError):
    """A submitted request resolved with an error.

    :attr:`code` classifies the failure — ``"execution"`` for ordinary
    per-request errors, ``"timeout"`` for deadline expirations — so
    callers (the daemon's reply streamer) can map it to a structured
    wire error without parsing the message.
    """

    def __init__(self, message: str, code: str = "execution") -> None:
        super().__init__(message)
        self.code = code


@dataclass
class _RequestError:
    """Picklable marker carrying one request's execution failure.

    ``code`` mirrors :attr:`RequestFailed.code` (``"execution"`` or
    ``"timeout"``).
    """

    message: str
    code: str = "execution"


#: Worker-crash strikes against one signature before it is quarantined.
QUARANTINE_STRIKES = 2


def default_quarantine_ttl() -> float:
    """Seconds a poison signature stays quarantined, from ``REPRO_QUARANTINE_TTL`` (``0`` = off)."""
    return setting("REPRO_QUARANTINE_TTL")


@dataclass
class _SharedSparse:
    """Picklable reference to a shm-broadcast COO sparse operand.

    Ships only the two :class:`~repro.runtime.shm.SharedArrayHandle`\\ s of
    the coordinate/value arrays; workers rebuild (and cache) the tensor via
    :func:`_resolve_sparse`.
    """

    shape: Tuple[int, ...]
    indices: object
    values: object


#: Worker-side cache of rebuilt broadcast sparse tensors, keyed by the
#: values segment name.  Returning the *same* COOTensor object for every
#: request of a batch is what makes the per-object CSF-conversion memo hit
#: across the batch — one CSF analysis per worker, not one per request.
_SPARSE_ATTACH_CAP = 8
_SPARSE_ATTACHED = LRUCache(max_entries=_SPARSE_ATTACH_CAP, name="sparse_attach")


def _resolve_sparse(ref: _SharedSparse) -> COOTensor:
    def build() -> COOTensor:
        # the broadcast arrays are already canonical (deduped, sorted), so
        # the constructor's sort pass is skipped
        return COOTensor(
            ref.shape, attach(ref.indices), attach(ref.values), sort=False
        )

    key = getattr(ref.values, "segment", None)
    if key is None:
        return build()
    return _SPARSE_ATTACHED.get_or_create(key, build)


class ServeFuture:
    """Handle for one submitted request's result.

    ``result()`` on a still-pending future triggers a service
    :meth:`~ContractionService.flush` (the service is synchronous — there
    is no background thread), then returns the output or raises
    ``RuntimeError`` if that request failed during execution.

    Done callbacks registered with :meth:`add_done_callback` fire as soon
    as the future resolves — *inside* the flush, in whatever thread runs
    it — which is how the serving daemon streams results per signature
    group instead of waiting for the whole flush to return.

    :attr:`timings` carries the request's per-stage latency breakdown
    (seconds per :data:`STAGES` entry) once resolved; the daemon embeds it
    in the result reply.
    """

    __slots__ = ("request", "timings", "_service", "_done", "_value", "_callbacks")

    def __init__(self, request: ContractionRequest, service: "ContractionService"):
        self.request = request
        self.timings: Dict[str, float] = {}
        self._service = service
        self._done = False
        self._value: object = None
        self._callbacks: List[object] = []

    @property
    def done(self) -> bool:
        """Whether this future has been resolved by a flush."""
        return self._done

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once resolved (immediately if already done).

        Callbacks run in the thread executing the flush — the daemon's
        event loop for a warm small serial cycle, else its worker thread —
        and must not raise; exceptions are swallowed so one subscriber
        cannot poison the batch that is still resolving.
        """
        if self._done:
            self._invoke(fn)
        else:
            self._callbacks.append(fn)

    def _invoke(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # subscriber bugs must not break the flush
            pass

    def _resolve(self, value: object) -> None:
        self._done = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._invoke(fn)

    def result(self) -> Output:
        """Flush the service if needed and return (or raise) this result.

        Failures raise :class:`RequestFailed` (a ``RuntimeError``) whose
        ``code`` distinguishes execution errors from deadline timeouts.
        """
        if not self._done:
            self._service.flush()
        assert self._done, "flush() must resolve every pending future"
        if isinstance(self._value, _RequestError):
            raise RequestFailed(
                f"request {self.request.kind!r} ({self.request.spec}) failed: "
                f"{self._value.message}",
                code=self._value.code,
            )
        return self._value  # type: ignore[return-value]


@dataclass
class ServiceStats:
    """Counters accumulated over a service's lifetime."""

    submitted: int = 0
    rejected: int = 0
    served: int = 0
    failed: int = 0
    flushes: int = 0
    batches: int = 0
    #: requests beyond each batch's first — the ones whose schedule search
    #: and plan compilation were amortized by batching.
    amortized: int = 0
    #: bytes of dense operand data placed in shared memory by batch dispatch.
    shared_bytes: int = 0
    #: requests resolved (or shed) as deadline expirations.
    expired: int = 0
    #: requests refused fast because their signature was quarantined.
    quarantined: int = 0
    #: signatures placed in quarantine over the service lifetime.
    quarantines: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view of the counters (stats replies, CLI printing)."""
        return asdict(self)


@dataclass(slots=True)
class _Pending:
    """One admitted request waiting for the next flush."""

    request: ContractionRequest
    kernel: SpTTNKernel
    mapping: Dict[str, TensorLike]
    #: the request's plan identity, derived once at admission
    signature: Tuple
    engine: str
    future: ServeFuture
    expires_at: Optional[float]
    submitted_at: float = field(default_factory=time.perf_counter)


@dataclass
class _GroupTiming:
    """Stage timings of one signature group, attached per request on resolve."""

    flush_start: float
    schedule_s: float
    build_s: float
    execute_s: List[float]


class _BatchTask:
    """Picklable per-request execution task for the worker pool.

    The task carries the batch's shared structure (kernel, loop nest,
    engine, operand signature) once; each payload holds the request's
    private operands, a ``"__shared__"`` map of shm handles for broadcast
    dense operands (resolved with the worker-side attachment cache of
    :mod:`repro.runtime.shm`), and :class:`_SharedSparse` references for
    broadcast sparse operands (rebuilt once per worker per broadcast).
    The executor is resolved through the process-wide
    :func:`~repro.engine.plan_cache.cached_executor`, so each
    worker compiles the batch's plan once no matter how many requests it
    serves.
    """

    def __init__(
        self, kernel: SpTTNKernel, loop_nest: LoopNest, engine: str, operands: Tuple
    ) -> None:
        self.kernel = kernel
        self.loop_nest = loop_nest
        self.engine = engine
        self.operands = operands

    def __call__(self, payload: Dict[str, object]) -> object:
        payload = dict(payload)
        shared = payload.pop("__shared__", {})
        tensors: Dict[str, TensorLike] = {
            name: attach(handle) for name, handle in shared.items()
        }
        for name, value in payload.items():
            tensors[name] = (
                _resolve_sparse(value) if isinstance(value, _SharedSparse) else value
            )
        try:
            fault_point("serve.execute")
            executor = cached_executor(
                self.kernel, self.loop_nest, engine=self.engine
            )
            return executor.execute(tensors, _operands=self.operands)
        except Exception as exc:  # per-request isolation
            return _RequestError(f"{type(exc).__name__}: {exc}")


class ContractionService:
    """Batched serving of SpTTN contraction requests on the shared runtime.

    Parameters
    ----------
    workers:
        Worker processes per flush (``None`` = the ``REPRO_WORKERS``
        default, ``0`` = serial, ``-1`` = one per CPU).  Serial and
        parallel serving produce bit-identical results.
    engine:
        Default execution engine for requests that do not override it
        (``None`` = the ``REPRO_ENGINE`` process default, resolved once at
        construction so later environment changes cannot split a batch).
    max_pending:
        Queue bound; :meth:`submit` raises :class:`AdmissionError` when the
        queue is full.
    quarantine_ttl:
        Seconds a poison signature (one whose batches crashed workers
        :data:`QUARANTINE_STRIKES` times) stays quarantined; matching
        submissions fail fast with :class:`QuarantinedError` until the TTL
        expires.  ``None`` defers to ``REPRO_QUARANTINE_TTL`` (default 30);
        ``0`` disables quarantining.

    Examples
    --------
    >>> service = ContractionService(workers=2)
    >>> futures = [service.submit(mttkrp_request(T, [B, C], mode=0)),
    ...            service.submit(ContractionRequest("ijk,ir,js->rs", (T, U, V)))]
    >>> service.flush()                      # or futures[0].result()
    >>> outputs = [f.result() for f in futures]
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        engine: Optional[str] = None,
        max_pending: int = 4096,
        quarantine_ttl: Optional[float] = None,
    ) -> None:
        require(max_pending >= 1, "max_pending must be >= 1")
        self.workers = workers
        self.engine = default_engine() if engine is None else engine
        # the service-wide default reaches every request: fail at
        # construction, not per future at flush time (per-request engine
        # overrides stay late-failing, isolated to their own future)
        require(
            self.engine in ENGINES,
            f"engine must be one of {ENGINES}, got {self.engine!r}",
        )
        self.max_pending = max_pending
        self.quarantine_ttl = (
            default_quarantine_ttl() if quarantine_ttl is None
            else max(0.0, quarantine_ttl)
        )
        self.stats = ServiceStats()
        self._pending: List[_Pending] = []
        #: signature -> quarantine entry (monotonic expiry, strike count, a
        #: human-readable sample of the offending request).
        self._quarantine: Dict[Tuple, Dict[str, object]] = {}
        #: signature -> worker-crash strikes accumulated so far.
        self._strikes: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of admitted requests waiting for the next flush."""
        return len(self._pending)

    def _signature(
        self, kernel: SpTTNKernel, mapping: Mapping[str, TensorLike], engine: str
    ) -> Tuple:
        """The request's plan identity, derived once at admission and read
        by grouping, the lookups of both group paths and the quarantine."""
        return (
            schedule_key(kernel),
            operand_signature(kernel, mapping),
            engine,
        )

    def submit(
        self,
        request: ContractionRequest,
        expires_at: Optional[float] = None,
    ) -> ServeFuture:
        """Admit one request; returns its future or raises on refusal.

        Refusals: :class:`AdmissionError` (full queue, invalid spec),
        :class:`QuarantinedError` (the request's plan signature is
        quarantined) and :class:`DeadlineError` (its deadline has already
        expired).  *expires_at* is an absolute ``time.monotonic()``
        deadline stamped by a caller that queued the request earlier (the
        daemon), so queue wait counts against the budget; without it, a
        ``request.deadline_ms`` starts its clock here.
        """
        if len(self._pending) >= self.max_pending:
            self.stats.rejected += 1
            inc_counter("serve.rejected")
            raise AdmissionError(
                f"queue full ({self.max_pending} pending); flush() or raise "
                f"max_pending"
            )
        try:
            kernel, mapping = request.build()
        except Exception as exc:
            self.stats.rejected += 1
            inc_counter("serve.rejected")
            raise AdmissionError(f"invalid request: {exc}") from exc
        engine = request.engine if request.engine is not None else self.engine
        signature = self._signature(kernel, mapping, engine)
        if self._quarantine:
            self._check_quarantine(signature)
        if expires_at is None and request.deadline_ms is not None:
            expires_at = time.monotonic() + request.deadline_ms / 1000.0
        if expires_at is not None and time.monotonic() >= expires_at:
            self.stats.expired += 1
            inc_counter("serve.expired")
            raise DeadlineError(
                f"deadline ({request.deadline_ms}ms) expired before admission"
            )
        future = ServeFuture(request, self)
        self._pending.append(
            _Pending(request, kernel, dict(mapping), signature, engine, future, expires_at)
        )
        self.stats.submitted += 1
        inc_counter("serve.submitted")
        self.stats.by_kind[request.kind] = (
            self.stats.by_kind.get(request.kind, 0) + 1
        )
        return future

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #
    @staticmethod
    def signature_digest(signature: Tuple) -> str:
        """Short stable digest naming a plan signature in stats/errors.

        Only a name: the quarantine tables are keyed by the signature
        itself, so admission never hashes one through SHA-1.
        """
        return hashlib.sha1(repr(signature).encode("utf-8")).hexdigest()[:12]

    def _check_quarantine(self, signature: Tuple) -> None:
        entry = self._quarantine.get(signature)
        if entry is None:
            return
        now = time.monotonic()
        if now >= entry["until"]:
            # TTL expiry: fresh slate — the next crash starts a new count
            del self._quarantine[signature]
            self._strikes.pop(signature, None)
            return
        entry["rejected"] = int(entry["rejected"]) + 1
        self.stats.quarantined += 1
        inc_counter("serve.quarantined")
        raise QuarantinedError(
            f"plan signature {self.signature_digest(signature)} is quarantined for another "
            f"{float(entry['until']) - now:.1f}s after {entry['strikes']} "
            f"worker-crash strike(s)"
        )

    def _note_crash_strike(self, leader: _Pending) -> None:
        """Record that *leader*'s signature group crashed pool workers."""
        signature = leader.signature
        strikes = self._strikes.get(signature, 0) + 1
        self._strikes[signature] = strikes
        if strikes < QUARANTINE_STRIKES or self.quarantine_ttl <= 0:
            return
        self._quarantine[signature] = {
            "until": time.monotonic() + self.quarantine_ttl,
            "strikes": strikes,
            "kind": leader.request.kind,
            "spec": str(leader.request.spec),
            "rejected": 0,
        }
        self.stats.quarantines += 1
        inc_counter("serve.quarantines")

    def quarantine_snapshot(self) -> Dict[str, object]:
        """The live quarantine table (stats endpoints, health checks)."""
        now = time.monotonic()
        return {
            "ttl_s": self.quarantine_ttl,
            "strikes": {
                self.signature_digest(sig): n for sig, n in self._strikes.items()
            },
            "entries": {
                self.signature_digest(sig): {
                    "kind": entry["kind"],
                    "spec": entry["spec"],
                    "strikes": entry["strikes"],
                    "rejected": entry["rejected"],
                    "expires_in_s": max(0.0, float(entry["until"]) - now),
                }
                for sig, entry in self._quarantine.items()
            },
        }

    def flushes_cached_serially(self) -> bool:
        """Whether the next flush runs serially and searches nothing: every pending
        schedule key is in the in-memory cache (no LRU touch, no counter change)."""
        cache = default_schedule_cache()
        return resolve_workers(self.workers) <= 1 and all(
            p.signature[0] in cache for p in self._pending
        )

    def submit_many(
        self, requests: Sequence[ContractionRequest]
    ) -> List[ServeFuture]:
        """Admit several requests in order; returns one future each."""
        return [self.submit(r) for r in requests]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Execute every pending request and resolve its future.

        Requests are grouped by plan-cache signature; groups run in
        first-submission order, requests within a group in submission
        order, so the set of (request, result) pairs — and every future's
        value — is independent of grouping and worker count.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        flush_start = time.perf_counter()
        self.stats.flushes += 1
        inc_counter("serve.flushes")
        groups: "OrderedDict[Tuple, List[_Pending]]" = OrderedDict()
        for p in pending:
            groups.setdefault(p.signature, []).append(p)
        workers = resolve_workers(self.workers)
        try:
            with _span(
                "flush", "serve", requests=len(pending), groups=len(groups)
            ):
                for group in groups.values():
                    self._run_group(group, workers, flush_start)
        except BaseException as exc:
            # _run_group isolates per-request and per-group failures; only
            # truly unexpected errors (MemoryError, KeyboardInterrupt, a
            # pool encoding failure) land here.  Every still-pending future
            # must resolve — with the abort recorded — or a later
            # ``result()`` would hang on a queue that no longer exists.
            error = _RequestError(f"flush aborted: {type(exc).__name__}: {exc}")
            for p in pending:
                if not p.future.done:
                    self.stats.failed += 1
                    p.future._resolve(error)
            raise
        self.stats.batches += len(groups)
        self.stats.amortized += len(pending) - len(groups)
        inc_counter("serve.batches", len(groups))
        inc_counter("serve.amortized", len(pending) - len(groups))
        observe("serve.flush", time.perf_counter() - flush_start)

    def run(self, requests: Sequence[ContractionRequest]) -> List[Output]:
        """Submit, flush and collect results in request order."""
        futures = self.submit_many(requests)
        self.flush()
        return [f.result() for f in futures]

    def _resolve(
        self,
        group: List[_Pending],
        results: Sequence[object],
        timing: Optional[_GroupTiming] = None,
    ) -> None:
        ready = time.perf_counter()
        for i, (p, value) in enumerate(zip(group, results)):
            if (
                not isinstance(value, _RequestError)
                and p.expires_at is not None
                and time.monotonic() >= p.expires_at
            ):
                # the result arrived, but after the caller stopped caring:
                # report the deadline, not a payload nobody will read
                value = _RequestError(
                    f"deadline ({p.request.deadline_ms}ms) expired during "
                    f"execution",
                    code="timeout",
                )
            if isinstance(value, _RequestError):
                if value.code == "timeout":
                    self.stats.expired += 1
                    inc_counter("serve.expired")
                else:
                    self.stats.failed += 1
                    inc_counter("serve.failed")
            else:
                self.stats.served += 1
                inc_counter("serve.served")
            if timing is not None:
                stages = {
                    "queue_wait": max(0.0, timing.flush_start - p.submitted_at),
                    "schedule": timing.schedule_s,
                    "build": timing.build_s,
                    "execute": timing.execute_s[i],
                    "reduce": max(0.0, time.perf_counter() - ready),
                }
                p.future.timings.update(stages)
                for stage, seconds in stages.items():
                    observe(f"serve.stage.{stage}", seconds)
            p.future._resolve(value)

    def _run_group(
        self, group: List[_Pending], workers: int, flush_start: float
    ) -> None:
        # shed requests whose deadline expired while they waited in the
        # queue — running them would spend worker time on dead replies
        now = time.monotonic()
        expired = [
            p for p in group if p.expires_at is not None and now >= p.expires_at
        ]
        if expired:
            self._resolve(
                expired,
                [
                    _RequestError(
                        f"deadline ({p.request.deadline_ms}ms) expired after "
                        f"queue wait",
                        code="timeout",
                    )
                    for p in expired
                ],
            )
            group = [p for p in group if not p.future.done]
            if not group:
                return
        leader = group[0]
        schedule_t0 = time.perf_counter()
        try:
            schedule = cached_schedule(leader.kernel)
        except Exception as exc:
            # scheduling failure is structural: it fails the whole group
            error = _RequestError(f"{type(exc).__name__}: {exc}")
            self._resolve(group, [error] * len(group))
            return
        schedule_s = time.perf_counter() - schedule_t0
        nest = schedule.loop_nest
        with _span(
            "group", "serve", requests=len(group), kind=leader.request.kind
        ):
            if workers > 1 and len(group) > 1:
                # sample the supervision totals around the parallel run:
                # any crash/timeout delta is a strike against this group's
                # signature (repeat offenders get quarantined)
                before = supervision_events()
                try:
                    results, build_s, execute_s = self._run_group_parallel(
                        group, nest, workers
                    )
                except Exception as exc:
                    # dispatch-path failure (e.g. an injected shm.publish
                    # fault): fail this group, not the whole flush
                    error = _RequestError(f"{type(exc).__name__}: {exc}")
                    results = [error] * len(group)
                    build_s, execute_s = 0.0, [0.0] * len(group)
                after = supervision_events()
                if (
                    after["crashes"] > before["crashes"]
                    or after["timeouts"] > before["timeouts"]
                ):
                    self._note_crash_strike(leader)
            else:
                results, build_s, execute_s = self._run_group_serial(group, nest)
        self._resolve(
            group,
            results,
            _GroupTiming(flush_start, schedule_s, build_s, execute_s),
        )

    def _run_group_serial(
        self, group: List[_Pending], nest: LoopNest
    ) -> Tuple[List[object], float, List[float]]:
        leader = group[0]
        build_t0 = time.perf_counter()
        try:
            executor = cached_executor(leader.kernel, nest, engine=leader.engine)
        except Exception as exc:
            # executor construction is structural (e.g. an unknown engine
            # name): it fails the whole signature group, nobody else
            error = _RequestError(f"{type(exc).__name__}: {exc}")
            return [error] * len(group), 0.0, [0.0] * len(group)
        build_s = time.perf_counter() - build_t0
        results: List[object] = []
        execute_s: List[float] = []
        for p in group:
            exec_t0 = time.perf_counter()
            try:
                fault_point("serve.execute")
                results.append(executor.execute(p.mapping, _operands=p.signature[1]))
            except Exception as exc:
                results.append(_RequestError(f"{type(exc).__name__}: {exc}"))
            execute_s.append(time.perf_counter() - exec_t0)
        return results, build_s, execute_s

    def _shared_dense(
        self, group: List[_Pending]
    ) -> Dict[int, Tuple[str, np.ndarray]]:
        """Dense operand arrays referenced by more than one request.

        Keyed by ``id()`` of the underlying array object: requests built
        from one factor set (an ALS sweep's workers, the scenario mixes)
        share array objects, and those are exactly the operands worth
        broadcasting once instead of pickling per task.
        """
        seen: Dict[int, Tuple[str, np.ndarray, int]] = {}
        for p in group:
            for op in p.kernel.dense_operands:
                arr = p.mapping[op.name]
                if not isinstance(arr, np.ndarray):
                    continue
                key = id(arr)
                name, _, count = seen.get(key, (op.name, arr, 0))
                seen[key] = (name, arr, count + 1)
        return {
            key: (name, arr)
            for key, (name, arr, count) in seen.items()
            if count > 1
        }

    def _shared_sparse(self, group: List[_Pending]) -> Dict[int, COOTensor]:
        """COO sparse operands referenced by more than one request."""
        name = group[0].kernel.sparse_operand.name
        seen: Dict[int, Tuple[COOTensor, int]] = {}
        for p in group:
            value = p.mapping[name]
            if isinstance(value, COOTensor):
                tensor, count = seen.get(id(value), (value, 0))
                seen[id(value)] = (tensor, count + 1)
        return {key: t for key, (t, count) in seen.items() if count > 1}

    def _run_group_parallel(
        self, group: List[_Pending], nest: LoopNest, workers: int
    ) -> Tuple[List[object], float, List[float]]:
        leader = group[0]
        shared = self._shared_dense(group)
        sparse_shared = self._shared_sparse(group)
        # segment names must be unique per array object, not per operand
        # name (two requests may bind different arrays to one name)
        arrays = {f"a{i}": arr for i, (_, arr) in enumerate(shared.values())}
        for i, tensor in enumerate(sparse_shared.values()):
            arrays[f"si{i}"] = tensor.indices
            arrays[f"sv{i}"] = tensor.values
        published = publish(arrays)
        handle_of = {
            key: published.handles[f"a{i}"]
            for i, key in enumerate(shared.keys())
        }
        sparse_ref_of = {
            key: _SharedSparse(
                tuple(tensor.shape),
                published.handles[f"si{i}"],
                published.handles[f"sv{i}"],
            )
            for i, (key, tensor) in enumerate(sparse_shared.items())
        }
        try:
            self.stats.shared_bytes += published.shared_bytes
            payloads: List[Dict[str, object]] = []
            for p in group:
                payload: Dict[str, object] = {}
                task_shared: Dict[str, object] = {}
                for op in p.kernel.operands:
                    value = p.mapping[op.name]
                    if isinstance(value, np.ndarray) and id(value) in handle_of:
                        task_shared[op.name] = handle_of[id(value)]
                    elif id(value) in sparse_ref_of:
                        payload[op.name] = sparse_ref_of[id(value)]
                    else:
                        payload[op.name] = value
                payload["__shared__"] = task_shared
                payloads.append(payload)
            task = _BatchTask(leader.kernel, nest, leader.engine, leader.signature[1])
            exec_t0 = time.perf_counter()
            results = parallel_map(
                task, payloads, workers=min(workers, len(group))
            )
            # plan build happens inside the workers; the batch wall time is
            # the best per-request attribution available for this path
            batch_wall = time.perf_counter() - exec_t0
            return results, 0.0, [batch_wall] * len(group)
        finally:
            published.close()


# --------------------------------------------------------------------------- #
# Reference execution path (the oracle)
# --------------------------------------------------------------------------- #
def execute_sequential(
    requests: Sequence[ContractionRequest], engine: Optional[str] = None
) -> List[Output]:
    """One-at-a-time execution through the ordinary cached library path.

    This is the service's correctness oracle: batched serving (any worker
    count) must be bit-identical to this loop.
    """
    resolved = default_engine() if engine is None else engine
    results: List[Output] = []
    for request in requests:
        kernel, mapping = request.build()
        schedule = cached_schedule(kernel)
        executor = cached_executor(
            kernel,
            schedule.loop_nest,
            engine=request.engine if request.engine is not None else resolved,
        )
        results.append(executor.execute(mapping))
    return results

"""Persistent deterministic worker pool shared by every parallel consumer.

The loop-nest sweeps (:mod:`repro.core.search`), the virtual ranks
(:mod:`repro.distributed.runtime`) and the service's batch groups all map on
these pools.  A pool owns its processes outright: N ``Process``es, one duplex
``Pipe`` each, and per map one parent-side ``multiprocessing.connection.wait``
loop over the busy workers' pipes and process sentinels.  A map returns exactly
``[fn(x) for x in items]`` whatever the worker count or scheduling; the pools
of :func:`shared_pool` stay warm (workers and their plan caches) across maps;
dead workers and overdue chunks are replaced and re-issued; and whatever cannot
run in parallel takes the identical serial path — parallelism is an
optimization, never a behaviour change.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import warnings
from collections import OrderedDict, deque
from contextlib import nullcontext, suppress
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import register_source
from repro.obs.trace import add_spans, capture_spans, span, tracing_enabled
from repro.util.config import setting
from repro.util.faults import fault_active, fault_point, faults_snapshot

T, R = TypeVar("T"), TypeVar("R")


def default_workers() -> Optional[int]:
    """Worker count from ``REPRO_WORKERS`` (``0``/unset → serial, ``-1`` → one per CPU)."""
    return setting("REPRO_WORKERS")


def default_task_timeout() -> Optional[float]:
    """Per-chunk deadline in seconds from ``REPRO_TASK_TIMEOUT`` (``None`` = none)."""
    return setting("REPRO_TASK_TIMEOUT")


def default_task_retries() -> int:
    """Supervision rounds one map answers before going serial, from ``REPRO_TASK_RETRIES``."""
    return setting("REPRO_TASK_RETRIES")


# Process-wide totals beside the per-pool counters: the service samples deltas
# around a batch to pin worker crashes on its plan signature; `health` reads them.
_EVENTS = {"crashes": 0, "timeouts": 0, "respawns": 0, "retries": 0, "last_crash_unix": None}


def supervision_events() -> dict:
    """Process-wide supervision totals (crashes/timeouts/respawns/retries)."""
    return dict(_EVENTS)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-count request.

    ``None`` defers to ``REPRO_WORKERS`` (itself defaulting to serial), ``0``
    forces serial, ``-1`` means one worker per CPU, a positive count is kept.
    """
    if workers is None:
        workers = default_workers()
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return int(workers)


def _worker_init() -> None:
    """Reset signal plumbing inherited from the forking parent.

    A worker forked from the serving daemon inherits its asyncio loop's no-op
    SIGTERM/SIGINT handlers *and* signal wakeup pipe.  Left in place, a SIGTERM
    (the interpreter's exit sweep over daemonic children, a group signal) would
    never end the worker, and would land in the pipe *shared with the parent*,
    whose loop reads it as its own SIGTERM and shuts down.  SIGINT is ignored:
    Ctrl+C is handled once, by the parent's drain.
    """
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _run_chunk(fn: Callable, items: Sequence, traced: bool) -> Tuple[list, list]:
    """``[fn(x) for x in items]`` and, if *traced*, the spans it finished.

    The one task loop, of the workers and of the parent's serial path: the
    ``pool.task`` fault point (its kill mode is a no-op in the parent) and span
    fire once per task wherever it runs.  ``force=True`` because the worker
    may have been forked before the parent enabled tracing.
    """
    if not traced and not fault_active("pool.task"):
        return [fn(item) for item in items], []  # sweeps map sub-µs tasks: pay for neither
    values = []
    with capture_spans(force=True) if traced else nullcontext([]) as spans:
        for item in items:
            fault_point("pool.task")
            with span("task", "pool"):
                values.append(fn(item))
    return values, spans


def _worker_main(conn) -> None:
    """Answer ``(fn bytes, start, items, traced)`` with ``(start, values, spans, error)``."""
    _worker_init()
    cached = fn = None  # fn is unpickled once while a map's (a sweep's) bytes repeat
    try:
        while (task := conn.recv()) is not None:  # None: drain()
            fn_bytes, start, items, traced = task
            try:
                if fn_bytes != cached:
                    cached, fn = fn_bytes, pickle.loads(fn_bytes)
                reply = pickle.dumps((start, *_run_chunk(fn, items, traced), None))
            except Exception as exc:  # raised by a task, or by pickling the values
                try:
                    reply = pickle.dumps((start, None, (), exc))
                except Exception:
                    reply = pickle.dumps((start, None, (), RuntimeError(repr(exc))))
            conn.send_bytes(reply)
    except (EOFError, OSError):  # the parent is gone
        pass


def _pool_context():
    # On Linux, fork: workers share the parent's resource tracker (one bookkeeper
    # for the broadcasts of repro.runtime.shm), inherit warm module state and start
    # fast.  Elsewhere the platform default: forking after Accelerate threads is unsafe.
    return multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)


class _Worker:
    """One worker process and the parent's end of its pipe; ``map`` adds chunk, deadline."""

    def __init__(self, ctx) -> None:
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_end,), daemon=True)
        self.proc.start()
        child_end.close()  # so that the worker's death reads as EOF on conn

    def stop(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class WorkerPool:
    """A persistent, order-preserving pool of worker processes.

    Workers start lazily on the first parallel :meth:`map` and are reused until
    :meth:`close` or :meth:`drain`.  ``task_timeout`` (seconds, per dispatched chunk)
    and ``task_retries`` (rounds per map) default to their ``REPRO_TASK_*`` variables.
    """

    #: stats(): maps, tasks, maps run (wholly or for what was left) in the parent;
    #: one count per supervision *round*, however many workers it took; the knobs.
    _STATS = ("maps", "tasks", "serial_maps", "crashes", "timeouts", "respawns", "retries",
              "task_timeout", "task_retries")

    def __init__(
        self,
        workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
        task_retries: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.task_timeout = default_task_timeout() if task_timeout is None else task_timeout
        self.task_retries = default_task_retries() if task_retries is None else max(0, task_retries)
        self.maps = self.tasks = self.serial_maps = 0
        self.crashes = self.timeouts = self.respawns = self.retries = 0
        self._workers: List[_Worker] = []
        # map, close and drain exclude one another: a drain waits for the running map
        self._lock = threading.Lock()

    @property
    def is_running(self) -> bool:
        """Whether worker processes are currently alive."""
        return bool(self._workers)

    def worker_pids(self) -> List[int]:
        """Process ids of the current workers (empty while not running)."""
        return [w.proc.pid for w in self._workers]

    def stats(self) -> dict:
        """Lifetime counters plus current worker state (stats endpoints)."""
        state = {"workers": self.workers, "running": self.is_running}
        return {**state, **{name: getattr(self, name) for name in self._STATS}}

    def _book(self, kind: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        _EVENTS[kind] += 1
        if kind in ("crashes", "timeouts"):
            _EVENTS["last_crash_unix"] = time.time()

    def _spawn(self) -> List[_Worker]:
        """Start workers until the pool is at strength; returns the new ones."""
        missing = self.workers - len(self._workers)
        ctx = _pool_context()
        if missing > 0 and ctx.get_start_method() == "fork":
            # Forked before the first shm.publish, a worker would start its own
            # tracker and report every segment it attaches as leaked.
            resource_tracker.ensure_running()
        fresh = [_Worker(ctx) for _ in range(missing)]
        self._workers += fresh
        return fresh

    def _stop(self, graceful: bool) -> None:
        workers, self._workers = self._workers, []
        if graceful:
            for w in workers:
                with suppress(OSError):  # already dead
                    w.conn.send(None)
            for w in workers:
                w.proc.join(5.0)  # idle, so gone at once; a wedged one is killed
        for w in workers:
            w.stop()

    def close(self) -> None:
        """Kill the workers once no map is running (a later map restarts them)."""
        with self._lock:
            self._stop(graceful=False)

    def drain(self) -> None:
        """Wait for the running map, then let the workers exit on their own (daemon shutdown).

        Workers that the signal behind the drain already felled are simply reaped.
        """
        with self._lock:
            self._stop(graceful=True)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Order-preserving map over *items*, identical to the serial map.

        Serial when the pool has one worker, there are fewer than two items, *fn*
        cannot be pickled or the caller is itself a pool worker.  Else *fn* is
        pickled once and contiguous chunks of ``ceil(n / 4·workers)`` items go out
        one at a time to each idle worker; results are placed by index.  A worker
        that dies, or overruns ``task_timeout`` on its chunk and is killed, ends
        the round: nothing more is dispatched, the other busy workers finish (or
        fail) what they hold, then *one* ``crashes`` or ``timeouts`` event is
        booked, the failed workers are replaced and their chunks re-issued.  A map
        survives ``task_retries`` such rounds; the next stops the pool and runs
        only the unfinished items here, under a ``RuntimeWarning`` (a timing must
        not mistake it for a parallel run).  A task that raises, or whose result
        will not pickle, fails the map with the lowest-indexed such exception once
        the chunks in flight have settled, and leaves the workers usable.
        """
        items = list(items)
        self.maps += 1
        self.tasks += len(items)
        traced = tracing_enabled()
        results: List[R] = [None] * len(items)  # type: ignore[list-item]
        left: Sequence[int] = range(len(items))
        with span("map", "pool", tasks=len(items), workers=self.workers):
            fn_bytes = None
            if self.workers > 1 and len(items) > 1 and not multiprocessing.current_process().daemon:
                with suppress(Exception):  # lambdas, closures: the serial path below
                    fn_bytes = pickle.dumps(fn)
            if fn_bytes is not None:
                with self._lock:
                    left, why = self._map_chunks(fn_bytes, items, results, traced)
                if not left:
                    return results
                message = f"worker pool failed mid-map ({why}); re-ran {len(left)} task(s) serially"
                warnings.warn(message, RuntimeWarning, stacklevel=2)
            self.serial_maps += 1
            values, spans = _run_chunk(fn, [items[i] for i in left], traced)
            add_spans(spans)
            for i, value in zip(left, values):
                results[i] = value
        return results

    def _map_chunks(self, fn_bytes, items, results, traced) -> Tuple[List[int], str]:
        """Fill *results* from the workers; returns the indices left undone, and why."""
        size = -(-len(items) // (4 * self.workers))
        pending = deque((s, min(s + size, len(items))) for s in range(0, len(items), size))
        limit = math.inf if self.task_timeout is None else self.task_timeout
        reasons = {"crashes": "worker died mid-map", "timeouts": f"task timeout after {limit:g}s"}
        budget = self.task_retries
        busy, failed = [], []  # workers holding a chunk; those that died holding one
        errors = {}  # chunk start -> the exception its task raised
        kind = ""  # the round's first failure: a key of reasons
        try:
            self._spawn()
            idle = list(self._workers)
            while pending or busy or failed:
                while pending and idle and not failed and not errors:
                    w = idle.pop()
                    w.chunk = start, stop = pending.popleft()
                    with suppress(OSError):  # died while idle: the wait sees its sentinel
                        w.conn.send((fn_bytes, start, items[start:stop], traced))
                    w.deadline = time.monotonic() + limit
                    busy.append(w)
                if not busy:  # the round has settled: workers failed or tasks raised
                    for w in failed:
                        pending.appendleft(w.chunk)
                        w.stop()
                        self._workers.remove(w)
                    if failed:
                        self._book(kind)
                    if errors:
                        break
                    if budget == 0:
                        self._stop(graceful=False)
                        return [i for s, e in sorted(pending) for i in range(s, e)], reasons[kind]
                    budget -= 1
                    self._book("retries")
                    self._book("respawns")
                    idle += self._spawn()
                    failed, kind = [], ""
                    continue
                nearest = min(w.deadline for w in busy) - time.monotonic()
                waited = [w.conn for w in busy] + [w.proc.sentinel for w in busy]
                ready = wait(waited, None if nearest == math.inf else max(0.0, nearest))
                now = time.monotonic()
                for w in list(busy):
                    died = w.conn in ready or w.proc.sentinel in ready
                    if not died and now < w.deadline:
                        continue  # still working, still in time
                    busy.remove(w)
                    reply = None
                    if w.conn in ready:
                        with suppress(EOFError, OSError):  # died before or mid-reply
                            reply = w.conn.recv()
                    if reply is None:  # dead, or overdue and killed when the round settles
                        failed.append(w)
                        kind = kind or ("crashes" if died else "timeouts")
                        continue
                    idle.append(w)
                    start, values, spans, error = reply
                    if error is None:
                        results[start : start + len(values)] = values
                        add_spans(spans)
                    else:
                        errors[start] = error
        except BaseException:
            # Anything unforeseen (Ctrl+C in the wait, an item or a reply that
            # will not pickle) leaves chunks in flight: start the next map clean.
            self._stop(graceful=False)
            raise
        if errors:
            raise errors[min(errors)]
        return [], ""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Persistent pools by worker count: consumers that alternate sizes (a sweep at
#: ``--workers 2``, a distributed execute at 4) each keep theirs warm; LRU-evicted.
_SHARED_POOLS: "OrderedDict[int, WorkerPool]" = OrderedDict()
_MAX_SHARED_POOLS = 4


def shared_pool(workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool for the resolved worker count.

    Every library consumer maps through these, so worker processes — and the
    plan and schedule caches they accumulate — are shared across subsystems:
    ``shared_pool(4) is shared_pool(4)``, forked by its first map, reused warm.
    """
    n = resolve_workers(workers)
    pool = _SHARED_POOLS.get(n)
    if pool is None:
        pool = WorkerPool(n)
        _SHARED_POOLS[n] = pool
        if len(_SHARED_POOLS) > _MAX_SHARED_POOLS:
            # drain, as another thread may be mid-map on the evicted pool
            _SHARED_POOLS.popitem(last=False)[1].drain()
    _SHARED_POOLS.move_to_end(n)
    return pool


def shutdown_pool() -> None:
    """Stop every process-wide pool (a later use recreates them)."""
    while _SHARED_POOLS:
        _SHARED_POOLS.popitem()[1].close()


def drain_pools() -> None:
    """Drain every process-wide pool: the daemon's shutdown hook."""
    while _SHARED_POOLS:
        _SHARED_POOLS.popitem()[1].drain()


def pool_stats() -> dict:
    """Counters of every live shared pool by worker count (the daemon's ``stats``)."""
    pools = {n: pool.stats() for n, pool in _SHARED_POOLS.items()}
    return {"pools": pools, "default_workers": resolve_workers(None), "supervision": dict(_EVENTS)}


atexit.register(shutdown_pool)

# Registering the metrics sources here (the producer) keeps repro.obs free of
# runtime imports; the fault plan rides along, as util.faults -> obs would cycle.
register_source("pool", pool_stats)
register_source("faults", faults_snapshot)


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], workers: Optional[int] = None
) -> List[R]:
    """Order-preserving map over *items*, optionally across processes.

    Identical to ``[fn(x) for x in items]`` at any worker count; runs on the
    :func:`shared_pool` sized at most to the item count, so a one-per-CPU
    request over a handful of tasks forks no idle workers.
    """
    items = list(items)
    n_workers = min(resolve_workers(workers), len(items))
    if n_workers <= 1:
        return [fn(x) for x in items]
    return shared_pool(n_workers).map(fn, items)

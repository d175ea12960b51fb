"""Span recorder for the traced pass, and the arithmetic on its spans.

The benchmark measures the repository's layers from outside: ``install``
replaces the public entry points listed in ``SITES`` with wrappers that
record one span per call (name, start, end, parent, operation id) in memory.
Nothing under ``src/`` knows about it, and the end-to-end numbers always come
from processes in which ``install`` was never called.

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for every
process on the machine, so spans recorded in the daemon and in the client
share a time line and a daemon span is assigned to the client operation in
whose window it starts.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time


class Span:
    """One timed call.  ``parent`` is the enclosing span of the same thread."""

    __slots__ = ("name", "start", "end", "parent", "op", "value", "tid", "pid")

    def __init__(self, name, start, parent, op, tid, pid=0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.value = 0.0
        self.tid = tid
        self.pid = pid

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()

    def begin(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            self.op,
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span, value=0.0):
        span.end = time.perf_counter()
        span.value = value
        self._local.stack.pop()

    def wrap(self, owner, attr, name, delta=None, size=None):
        """Replace ``owner.attr`` with a wrapper recording a span per call.

        ``delta(args)`` is sampled before and after the call and ``size(result)``
        after it; either becomes the span's ``value`` (operation counts, bytes).
        """
        raw = owner.__dict__[attr]
        bound = isinstance(raw, (classmethod, staticmethod))
        fn = raw.__func__ if bound else raw

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            before = delta(args) if delta is not None else 0.0
            span = self.begin(name)
            value = 0.0
            try:
                result = fn(*args, **kwargs)
                if delta is not None:
                    value = delta(args) - before
                elif size is not None:
                    value = size(result)
                return result
            finally:
                self.end(span, value)

        setattr(owner, attr, type(raw)(timed) if bound else timed)

    def dump(self):
        """JSON-able rows ``[name, start, end, parent_index, op, value, tid]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                s.name,
                s.start,
                s.end,
                index[id(s.parent)] if s.parent is not None else None,
                s.op,
                s.value,
                s.tid,
            ]
            for s in self.spans
        ]


def load(rows, pid=0):
    """Rebuild ``Span`` objects from :meth:`Recorder.dump` rows."""
    spans = []
    for name, start, end, _parent, op, value, tid in rows:
        span = Span(name, start, None, op, tid, pid)
        span.end, span.value = end, value
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span.parent = spans[row[3]]
    return spans


# --------------------------------------------------------------------------- #
# Where the wrappers go
# --------------------------------------------------------------------------- #
def _flops(args):
    return args[0].counter.flops


def _shared_bytes(broadcast):
    return broadcast.shared_bytes


#: (module, attribute path, span name, wrap options).  A function imported by
#: name is wrapped in each importing module, because that is the binding the
#: caller looks up.
SITES = [
    ("repro.sptensor.csf", "CSFTensor.from_coo", "sptensor.csf_build", {}),
    ("repro.apps.cp_als", "mttkrp_kernel", "kernels.build", {}),
    ("repro.apps.tucker_hooi", "ttmc_kernel", "kernels.build", {}),
    ("repro.apps.tucker_hooi", "all_mode_ttmc_kernel", "kernels.build", {}),
    ("repro.serve.request", "build_kernel", "kernels.build", {}),
    ("repro.core.scheduler", "SpTTNScheduler.schedule", "core.search", {}),
    ("repro.apps.cp_als", "cached_schedule", "engine.schedule_lookup", {}),
    ("repro.apps.tucker_hooi", "cached_schedule", "engine.schedule_lookup", {}),
    ("repro.serve.service", "cached_schedule", "engine.schedule_lookup", {}),
    ("repro.engine.executor", "LoopNestExecutor.execute", "engine.execute",
     {"delta": _flops}),
    ("repro.apps.cp_als", "cp_als", "apps.dense_update", {}),
    ("repro.apps.tucker_hooi", "tucker_hooi", "apps.dense_update", {}),
    ("repro.serve.request", "ContractionRequest.build", "serve.request_build", {}),
    ("repro.runtime.pool", "WorkerPool.map", "runtime.pool_map", {}),
    ("repro.serve.service", "publish", "runtime.shm_publish",
     {"size": _shared_bytes}),
    ("repro.distributed.runtime", "tree_reduce", "runtime.reduce", {}),
]

#: ``repro.serve.protocol`` serves both directions, so its names depend on
#: which end of the connection the process is.
PROTOCOL_SITES = {
    "client": [
        ("encode_request", "serve.wire_encode_request", {}),
        ("dumps", "serve.wire_encode_request", {"size": len}),
        ("loads", "serve.wire_decode_reply", {}),
        ("decode_result", "serve.wire_decode_reply", {}),
    ],
    "daemon": [
        ("loads", "serve.wire_decode_request", {}),
        ("decode_request", "serve.wire_decode_request", {}),
        ("result_reply", "serve.wire_encode_reply", {}),
        ("dumps", "serve.wire_encode_reply", {"size": len}),
    ],
}

SPAN_NAMES = sorted(
    {name for _, _, name, _ in SITES}
    | {name for sites in PROTOCOL_SITES.values() for _, name, _ in sites}
)


def install(recorder, role):
    """Wrap every site in this process; *role* is ``client`` or ``daemon``."""
    sites = SITES + [
        ("repro.serve.protocol", attr, name, options)
        for attr, name, options in PROTOCOL_SITES[role]
    ]
    for module, path, name, options in sites:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        recorder.wrap(owner, attr, name, **options)


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
def percentile(values, q):
    """Linear-interpolation percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return percentile(values, 50.0)


def self_times(spans):
    """``{id(span): duration minus the durations of its direct children}``."""
    own = {id(span): span.duration for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= span.duration
    return own


def per_op(spans, windows):
    """Per-operation totals: one ``{name: [self_s, calls, value]}`` per window.

    *windows* are ``(start, end)`` pairs in time order, one per operation; a
    span belongs to the window in which it starts, spans outside every window
    (warm-up, stats calls, teardown) are dropped.
    """
    own = self_times(spans)
    totals = [{} for _ in windows]
    ordered = sorted(spans, key=lambda s: s.start)
    at = 0
    for span in ordered:
        while at < len(windows) and span.start >= windows[at][1]:
            at += 1
        if at == len(windows):
            break
        if span.start < windows[at][0]:
            continue
        span.op = at
        row = totals[at].setdefault(span.name, [0.0, 0, 0.0])
        row[0] += own[id(span)]
        row[1] += 1
        row[2] += span.value
    return totals


def layer_medians(totals):
    """Median over operations of each name's self time (ms), calls and value."""
    out = {}
    for name in SPAN_NAMES:
        rows = [op.get(name, (0.0, 0, 0.0)) for op in totals] or [(0.0, 0, 0.0)]
        out[name] = (
            median([r[0] for r in rows]) * 1e3,
            median([r[1] for r in rows]),
            median([r[2] for r in rows]),
        )
    return out


def chrome_trace(spans):
    """Chrome trace-event document (open in Perfetto or ``chrome://tracing``)."""
    index = {id(span): i for i, span in enumerate(spans)}
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "pid": s.pid,
            "tid": s.tid,
            "args": {
                "op": s.op,
                "parent": index.get(id(s.parent)),
                "value": s.value,
            },
        }
        for s in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)

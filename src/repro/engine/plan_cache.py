"""Compiled execution plans and the process-wide plan/schedule caches.

The paper's premise is that loop-nest *search* is cheap relative to
execution — but only if search and planning results are amortized across the
many executions a real workload performs (CP-ALS and Tucker-HOOI run the
same MTTKRP/TTMc kernel once per mode per sweep, dozens of times total).
This module provides that amortization layer:

* :class:`CompiledPlan` — the array-independent result of the executor's
  preprocessing stage (Algorithm 2, stage 1).  A plan maps each recursion
  site of the fused loop nest to a list of *symbolic* steps: loops, buffer
  resets and offload sites whose operand recipes name slots (``dense``
  operand, intermediate ``buffer``, kernel ``out``) instead of embedding
  concrete arrays.  Binding a plan to freshly allocated arrays is a cheap
  substitution pass, so repeated ``execute()`` calls on the same structure
  perform zero per-call symbolic analysis.
* :class:`PlanCache` — an LRU cache with hit/miss/eviction counters and an
  optional *memory budget* (size-accounted eviction plus admission control
  for oversized entries), keyed by the full structural identity of a loop
  nest (:func:`plan_key`: kernel signature, loop orders, contraction path,
  CSF mode order, operand shapes/dtypes, offload flag).
* :func:`cached_schedule` — the same amortization for the scheduler's
  search itself, keyed by kernel signature plus sparsity statistics, so
  applications that repeatedly schedule structurally identical kernels
  (the apps in :mod:`repro.apps`, benchmark sweeps) pay for the search
  once per process.

Caches are per-process and rely on the GIL for consistency; entries are
immutable once built, so sharing a :class:`CompiledPlan` between executors
is safe.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.keys import canonical_key, key_digest
from repro.engine.plan_store import (
    PlanStore,
    default_plan_store,
    schedule_from_payload,
    schedule_payload,
)
from repro.obs.metrics import inc_counter, register_source
from repro.obs.trace import span as _span
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import Schedule, SpTTNScheduler
from repro.sptensor.coo import COOTensor, digest_stats
from repro.sptensor.csf import CSFTensor, default_structure_memo
from repro.sptensor.dense import DenseTensor

PlanKey = Tuple[Hashable, ...]

#: A recursion site of the fused loop nest: (term positions, loop depth).
SiteKey = Tuple[Tuple[int, ...], int]

# --------------------------------------------------------------------------- #
# Recipe encoding shared by plan producers and consumers
# --------------------------------------------------------------------------- #
# Operand-recipe modes (first element of a recipe tuple).  Plans store these
# symbolic recipes; both the interpreter (repro.engine.executor) and the
# vectorized lowering pass (repro.engine.lowering) decode them.
SPARSE_LEAF = 0      # scalar: csf.values[csf_pos]
SPARSE_LOOKUP = 1    # scalar: find_leaf over the bound csf-mode values
SPARSE_FIBER = 2     # vector: csf.values[lo:hi] of the current node's children
ARRAY = 3            # dense array / buffer / dense output slice
SPARSE_OUT_LEAF = 4  # accumulate into out_values[csf_pos]
SPARSE_OUT_LOOKUP = 5
SPARSE_OUT_FIBER = 6  # accumulate into out_values[lo:hi]

# Symbolic array slots used in cached (array-independent) recipes; bound to
# concrete arrays (or registers) per execution.
SLOT_DENSE = "dense"    # a dense input operand, by name
SLOT_BUFFER = "buffer"  # an intermediate buffer, by name
SLOT_OUT = "out"        # the dense output array


# --------------------------------------------------------------------------- #
# Structural keys
# --------------------------------------------------------------------------- #
def kernel_signature(kernel: SpTTNKernel) -> PlanKey:
    """Hashable structural identity of a kernel (no sparsity statistics)."""
    return (
        tuple((op.name, op.indices, op.is_sparse) for op in kernel.operands),
        (kernel.output.name, kernel.output.indices, kernel.output.is_sparse),
        tuple(sorted(kernel.index_dims.items())),
        kernel.csf_mode_order,
    )


def operand_signature(
    kernel: SpTTNKernel, tensors: Mapping[str, object]
) -> PlanKey:
    """Shapes and dtypes of the concrete operands, in operand order."""
    sig: List[Tuple[Hashable, ...]] = []
    for op in kernel.operands:
        value = tensors[op.name]
        if isinstance(value, (COOTensor, CSFTensor)):
            sig.append(("sparse", tuple(value.shape), str(value.values.dtype)))
        elif isinstance(value, DenseTensor):
            sig.append(("dense", tuple(value.data.shape), str(value.data.dtype)))
        else:
            arr = np.asarray(value)
            sig.append(("dense", tuple(arr.shape), str(arr.dtype)))
    return tuple(sig)


def plan_key(
    kernel: SpTTNKernel,
    loop_nest: LoopNest,
    offload: bool = True,
    operands: PlanKey = (),
) -> PlanKey:
    """Full structural identity of one compiled plan.

    Two executions share a plan exactly when this key matches: same kernel
    signature, same contraction path, same per-term loop orders, same CSF
    mode order (part of the kernel signature), same operand shapes/dtypes
    and the same offload setting.
    """
    path = loop_nest.path
    return (
        kernel_signature(kernel),
        tuple(
            (t.lhs, t.rhs, t.out, t.lhs_indices, t.rhs_indices, t.out_indices)
            for t in path
        ),
        tuple(tuple(order) for order in loop_nest.order),
        bool(offload),
        tuple(operands),
    )


def schedule_key(
    kernel: SpTTNKernel,
    buffer_dim_bound: Optional[int],
    flop_tolerance: float,
    max_paths: Optional[int],
    enforce_csf_order: bool,
) -> PlanKey:
    """Identity of one scheduling problem (kernel structure + sparsity stats)."""
    stats = kernel.sparse_stats
    prefix = stats.get("prefix_nnz") or {}
    return (
        kernel_signature(kernel),
        stats.get("nnz"),
        tuple(sorted(prefix.items())),
        buffer_dim_bound,
        float(flop_tolerance),
        max_paths,
        bool(enforce_csf_order),
    )


# --------------------------------------------------------------------------- #
# Compiled plans
# --------------------------------------------------------------------------- #
class CompiledPlan:
    """Symbolic execution plan for one loop-nest structure.

    The plan is a mapping from recursion sites (term positions, depth) to
    step lists produced by the executor's preprocessing stage.  Steps are
    array-independent: operand recipes reference slots by name and are bound
    to concrete arrays per execution.  Sites are discovered lazily during
    the first execution and reused verbatim afterwards.

    ``lowered`` records the whole-nest vectorization decision (the general
    lowering of :mod:`repro.engine.lowering`): ``None`` until the first
    execution attempts the lowering pass, then either ``False`` (not
    lowerable — the interpreter is used) or the compiled
    :class:`~repro.engine.lowering.ir.Program`.  ``jit`` records the same
    tri-state for that program's fused callable (``None`` / ``False`` / a
    :class:`~repro.engine.lowering.codegen.CompiledJit`), and ``unfused``
    for the one the ``lowered`` engine runs (compiled without the
    peephole pass) — both live on the plan so the cache's byte budget
    accounts for compiled callables and their pooled buffers alongside
    the plan itself.
    """

    __slots__ = ("key", "sites", "lowered", "jit", "unfused")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.sites: Dict[SiteKey, list] = {}
        self.lowered: object = None
        self.jit: object = None
        self.unfused: object = None

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def site(self, site_key: SiteKey) -> Optional[list]:
        return self.sites.get(site_key)

    def add_site(self, site_key: SiteKey, steps: list) -> list:
        self.sites[site_key] = steps
        return steps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledPlan(sites={len(self.sites)})"


#: Flat size charged for callables (specialized offload closures bound into
#: plan steps) and other opaque leaves the size walker does not descend into.
_OPAQUE_BYTES = 256


def approx_nbytes(value: object, _seen: Optional[set] = None) -> int:
    """Approximate in-memory footprint of one cache entry, in bytes.

    A structural walk rather than serialization: plan steps embed
    specialized NumPy closures that cannot be pickled, and pickling would
    copy every lowered-program array just to count it.  Arrays report their
    buffer size; containers and objects (``__dict__``/``__slots__``) are
    recursed with cycle protection; callables and unknown leaves are
    charged a flat :data:`_OPAQUE_BYTES`.  Shared substructure is counted
    once per entry, so totals are an upper-ish bound good enough for a
    budget, not an exact accounting.
    """
    if value is None or isinstance(value, (bool, int, float, complex, np.generic)):
        return 32
    # the cycle/dedup guard must precede the array and string leaves: an
    # array referenced from several steps of one plan is charged once
    if _seen is None:
        _seen = set()
    oid = id(value)
    if oid in _seen:
        return 0
    _seen.add(oid)
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 128
    if isinstance(value, (str, bytes)):
        return sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(
            approx_nbytes(item, _seen) for item in value
        )
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            approx_nbytes(k, _seen) + approx_nbytes(v, _seen)
            for k, v in value.items()
        )
    if callable(value):
        return _OPAQUE_BYTES
    total = _OPAQUE_BYTES
    attrs = getattr(value, "__dict__", None)
    if attrs:
        total += approx_nbytes(attrs, _seen)
    for slot in getattr(type(value), "__slots__", ()):
        total += approx_nbytes(getattr(value, slot, None), _seen)
    return total


class PlanCache:
    """Bounded LRU cache with hit/miss/eviction counters and a byte budget.

    Used process-wide for compiled plans and schedules; create private
    instances for isolation (tests, benchmarks measuring cold starts).

    Two independent bounds apply, each optional:

    * ``max_entries`` — entry-count LRU, the PR-1 behaviour;
    * ``max_bytes`` — a memory budget.  Entries are size-accounted (with
      ``size_of``, defaulting to :func:`approx_nbytes`) on insertion and on
      :meth:`reaccount`, and least-recently-used entries are evicted until
      the total fits.  A single value larger than the whole budget is
      *not admitted*: it is returned to the caller but never stored (and
      counted in ``rejections``), so one oversized plan cannot flush the
      entire working set.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 512,
        max_bytes: Optional[int] = None,
        size_of: Optional[Callable[[object], int]] = None,
        name: str = "cache",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be None or >= 1")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.size_of = size_of if size_of is not None else approx_nbytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        self.bytes = 0
        self._entries: "OrderedDict[PlanKey, object]" = OrderedDict()
        self._sizes: Dict[PlanKey, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def get(self, key: PlanKey) -> Optional[object]:
        """Peek without touching the counters or the LRU order."""
        return self._entries.get(key)

    def _measure(self, value: object) -> int:
        if self.max_bytes is None:
            # no budget: skip the (pickling) size probe entirely
            return 0
        return max(1, int(self.size_of(value)))

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self.bytes -= self._sizes.pop(key, 0)
        self.evictions += 1

    def _shrink_to_budget(self) -> None:
        """Evict LRU entries until both bounds hold (never the newest)."""
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._evict_lru()
        if self.max_bytes is not None:
            while self.bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_lru()

    def get_or_create(self, key: PlanKey, factory: Callable[[], object]) -> object:
        """Return the cached value for *key*, building it on first use."""
        value = self._entries.get(key)
        if value is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return value
        self.misses += 1
        with _span("build", "cache", cache=self.name):
            value = factory()
        size = self._measure(value)
        if self.max_bytes is not None and size > self.max_bytes:
            # admission control: serve the value, never cache it
            self.rejections += 1
            return value
        self._entries[key] = value
        self._sizes[key] = size
        self.bytes += size
        self._shrink_to_budget()
        return value

    def reaccount(self, key: PlanKey) -> None:
        """Re-measure one entry whose value grew after insertion.

        Compiled plans are populated *lazily* (recursion sites during the
        first interpreted execution, the lowered program on the first
        lowered one), so their insertion-time size is near zero; the
        executor calls this after any execution that changed its plan.  The
        entry is treated as most-recently used; if it now exceeds the whole
        budget it is dropped and counted as a rejection.
        """
        value = self._entries.get(key)
        if value is None:
            return
        size = self._measure(value)
        if self.max_bytes is not None and size > self.max_bytes:
            del self._entries[key]
            self.bytes -= self._sizes.pop(key, 0)
            self.rejections += 1
            return
        self.bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        self._entries.move_to_end(key)
        self._shrink_to_budget()

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.bytes = 0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.rejections = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "bytes": self.bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, bytes={self.bytes})"
        )


#: Environment variable bounding the default plan cache's memory use, in
#: bytes (unset/invalid = entry-count bound only, the PR-1 behaviour).
PLAN_CACHE_BYTES_ENV = "REPRO_PLAN_CACHE_BYTES"


def _env_plan_cache_bytes() -> Optional[int]:
    raw = os.environ.get(PLAN_CACHE_BYTES_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


_DEFAULT_PLAN_CACHE = PlanCache(max_bytes=_env_plan_cache_bytes(), name="plan")
_DEFAULT_SCHEDULE_CACHE = PlanCache(max_entries=256, name="schedule")
_DEFAULT_EXECUTOR_CACHE = PlanCache(max_entries=128, name="executor")


def default_plan_cache() -> PlanCache:
    """The process-wide cache of compiled plans used by the executor."""
    return _DEFAULT_PLAN_CACHE


def default_schedule_cache() -> PlanCache:
    """The process-wide cache of schedules used by :func:`cached_schedule`."""
    return _DEFAULT_SCHEDULE_CACHE


def default_executor_cache() -> PlanCache:
    """The process-wide cache of executors used by :func:`cached_executor`."""
    return _DEFAULT_EXECUTOR_CACHE


def clear_caches() -> None:
    """Drop cached plans, schedules, executors and CSF structure (stats are kept)."""
    _DEFAULT_PLAN_CACHE.clear()
    _DEFAULT_SCHEDULE_CACHE.clear()
    _DEFAULT_EXECUTOR_CACHE.clear()
    default_structure_memo().clear()


def caches_snapshot() -> Dict[str, Dict[str, int]]:
    """One coherent stats snapshot of the process-wide caches.

    The canonical introspection document shared by ``repro cache``, the
    serving layer's ``cache_stats`` and the daemon's ``stats`` endpoint:
    a dict keyed ``plan``/``schedule``/``executor``/``jit``/``csf``, each
    value the corresponding cache's entries/hits/misses/evictions/
    rejections/bytes counters (:meth:`PlanCache.stats`; the ``jit`` entry
    comes from :func:`~repro.engine.lowering.codegen.jit_stats` and covers
    compiled callables, their buffer pools and the per-tensor prep cache;
    the ``csf`` entry is the pattern-keyed CSF structure memo of
    :func:`~repro.sptensor.csf.csf_for_mode_order`, whose ``misses`` are
    the COO sorts this process paid, plus its ``digests`` / ``digest_reuses``).

    Examples
    --------
    >>> caches_snapshot()["schedule"]["misses"]   # schedule searches paid
    3
    """
    # imported lazily: the lowering package imports this module at load
    from repro.engine.lowering.codegen import jit_stats

    return {
        "plan": _DEFAULT_PLAN_CACHE.stats(),
        "schedule": _DEFAULT_SCHEDULE_CACHE.stats(),
        "executor": _DEFAULT_EXECUTOR_CACHE.stats(),
        "jit": jit_stats(),
        "csf": {**default_structure_memo().stats(), **digest_stats()},
    }


# --------------------------------------------------------------------------- #
# Per-plan-signature execution timings
# --------------------------------------------------------------------------- #
def describe_plan_key(key: PlanKey) -> str:
    """Short human-readable label of one plan key: spec plus loop orders."""
    try:
        kernel_sig, _path, orders = key[0], key[1], key[2]
        operands, output = kernel_sig[0], kernel_sig[1]
        spec = (
            ",".join("".join(op[1]) for op in operands)
            + "->"
            + "".join(output[1])
        )
        order_s = ";".join(",".join(order) for order in orders)
        return f"{spec} [{order_s}]"
    except Exception:  # foreign key shapes must not break introspection
        return canonical_key(key)[:80]


#: Environment variable bounding the default timing registry's signature
#: count (unset/invalid = the built-in default below).
PLAN_TIMINGS_CAP_ENV = "REPRO_PLAN_TIMINGS_CAP"

#: Default bound on distinct ``(plan key, engine, phase)`` rows retained.
DEFAULT_PLAN_TIMINGS_CAP = 1024


def _env_timings_cap() -> int:
    raw = os.environ.get(PLAN_TIMINGS_CAP_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_PLAN_TIMINGS_CAP
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_PLAN_TIMINGS_CAP
    return value if value >= 1 else DEFAULT_PLAN_TIMINGS_CAP


class PlanTimings:
    """Measured execution times accumulated per plan signature.

    The calibration feed for measurement-driven autotuning (ROADMAP item
    4): every :meth:`~repro.engine.executor.LoopNestExecutor.execute` call
    records wall-clock time under ``(plan key, engine actually run,
    phase)``, where the phase separates one-time preparation
    (``"prepare"``: COO→CSF conversion, plan build, lowering/jit
    compilation) from steady-state execution (``"execute"``) so cold-call
    compilation never poisons the calibration fit.  :meth:`snapshot`
    reports count/total/min/mean/max per signature — visible via
    ``repro cache``, the service stats and the daemon's
    ``stats``/``metrics`` operations.

    The registry is a *capped* LRU over signatures (``max_records``,
    defaulting to ``REPRO_PLAN_TIMINGS_CAP`` else
    :data:`DEFAULT_PLAN_TIMINGS_CAP`): a long-lived daemon serving many
    distinct plans ages out the least-recently-recorded rows instead of
    growing without bound, counting them in ``evictions``.

    Executors additionally register the cost model's *feature vector* of
    each plan (:func:`repro.core.calibrate.cost_features`) together with
    the model's predicted seconds; :meth:`training_rows` joins those with
    the measured execute-phase timings to form the calibration fit's
    input, and :meth:`drift_rows` the observed-vs-predicted pairs driving
    online re-tuning.

    Thread-safe: serving flushes record from worker threads.
    """

    def __init__(self, max_records: Optional[int] = None) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be None or >= 1")
        self._lock = threading.Lock()
        self.max_records = (
            _env_timings_cap() if max_records is None else max_records
        )
        self.evictions = 0
        # (key, engine, phase) -> [count, total, min, max], LRU order
        self._records: "OrderedDict[Tuple[PlanKey, str, str], List[float]]" = (
            OrderedDict()
        )
        # plan key -> cost-model feature vector / predicted seconds
        self._features: Dict[PlanKey, Tuple[float, ...]] = {}
        self._predictions: Dict[PlanKey, float] = {}

    def record(
        self, key: PlanKey, engine: str, seconds: float, phase: str = "execute"
    ) -> None:
        """Account one *phase* of one execution of *key* on *engine*."""
        with self._lock:
            record_key = (key, engine, phase)
            rec = self._records.get(record_key)
            if rec is None:
                self._records[record_key] = [1, seconds, seconds, seconds]
            else:
                rec[0] += 1
                rec[1] += seconds
                rec[2] = min(rec[2], seconds)
                rec[3] = max(rec[3], seconds)
                self._records.move_to_end(record_key)
            while len(self._records) > self.max_records:
                (old_key, _, _), _ = self._records.popitem(last=False)
                self.evictions += 1
                if not any(k == old_key for k, _, _ in self._records):
                    self._features.pop(old_key, None)
                    self._predictions.pop(old_key, None)

    def record_features(
        self,
        key: PlanKey,
        features: Tuple[float, ...],
        predicted_s: Optional[float] = None,
    ) -> None:
        """Attach a cost-model feature vector (and prediction) to *key*."""
        with self._lock:
            self._features[key] = tuple(float(f) for f in features)
            if predicted_s is not None:
                self._predictions[key] = float(predicted_s)
            while len(self._features) > self.max_records:
                self._features.pop(next(iter(self._features)))
            while len(self._predictions) > self.max_records:
                self._predictions.pop(next(iter(self._predictions)))

    def features_of(self, key: PlanKey) -> Optional[Tuple[float, ...]]:
        with self._lock:
            return self._features.get(key)

    def feature_items(self) -> List[Tuple[PlanKey, Tuple[float, ...]]]:
        """All registered ``(plan key, feature vector)`` pairs."""
        with self._lock:
            return list(self._features.items())

    def training_rows(
        self, engine: Optional[str] = None, phase: str = "execute"
    ) -> List[Tuple[Tuple[float, ...], float]]:
        """``(feature vector, mean measured seconds)`` pairs for fitting.

        Only rows of the requested *phase* (steady-state execution by
        default) whose plan key has a registered feature vector
        participate; *engine* restricts to one engine's measurements
        (``None`` = all).
        """
        with self._lock:
            items = list(self._records.items())
            features = dict(self._features)
        rows = []
        for (key, eng, ph), (count, total, _lo, _hi) in items:
            if ph != phase or (engine is not None and eng != engine):
                continue
            vector = features.get(key)
            if vector is None or count < 1:
                continue
            rows.append((vector, total / count))
        return rows

    def drift_rows(self, phase: str = "execute") -> List[Tuple[float, float]]:
        """``(predicted seconds, observed mean seconds)`` pairs."""
        with self._lock:
            items = list(self._records.items())
            predictions = dict(self._predictions)
        rows = []
        for (key, _eng, ph), (count, total, _lo, _hi) in items:
            if ph != phase or count < 1:
                continue
            predicted = predictions.get(key)
            if predicted is None or predicted <= 0.0:
                continue
            rows.append((predicted, total / count))
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        """Drop every accumulated record, feature and prediction."""
        with self._lock:
            self._records.clear()
            self._features.clear()
            self._predictions.clear()

    def stats(self) -> Dict[str, int]:
        """Bound/occupancy counters for the stats surfaces."""
        with self._lock:
            return {
                "signatures": len(self._records),
                "cap": self.max_records,
                "evictions": self.evictions,
                "features": len(self._features),
            }

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-safe rows sorted by total time descending.

        Each row carries the canonical ``digest`` of the structural key
        (:func:`repro.engine.keys.key_digest` — stable across processes
        and NumPy versions, so snapshots from different daemon runs
        correlate), a readable ``plan`` label, the engine, the phase and
        the count/total/min/mean/max statistics in seconds.
        """
        with self._lock:
            items = list(self._records.items())
        rows = []
        for (key, engine, phase), (count, total, lo, hi) in items:
            rows.append(
                {
                    "digest": key_digest(key),
                    "plan": describe_plan_key(key),
                    "engine": engine,
                    "phase": phase,
                    "count": int(count),
                    "total_s": total,
                    "min_s": lo,
                    "mean_s": total / count if count else 0.0,
                    "max_s": hi,
                }
            )
        rows.sort(key=lambda row: row["total_s"], reverse=True)
        return rows


_DEFAULT_PLAN_TIMINGS = PlanTimings()

#: Records between online drift checks (kept coarse so the steady-state
#: recording path stays a dict update).
_RETUNE_CHECK_EVERY = 64
_records_since_check = 0


def default_plan_timings() -> PlanTimings:
    """The process-wide per-plan timing registry the executor records into."""
    return _DEFAULT_PLAN_TIMINGS


def record_plan_timing(
    key: PlanKey, engine: str, seconds: float, phase: str = "execute"
) -> None:
    """Record one measured phase into the process-wide registry.

    Every :data:`_RETUNE_CHECK_EVERY` records the calibration layer is
    given a chance to re-fit (:func:`repro.core.calibrate.maybe_retune`)
    when observed latencies have drifted from the model's predictions; a
    re-fit is persisted through the default plan store when one is
    configured.
    """
    _DEFAULT_PLAN_TIMINGS.record(key, engine, seconds, phase=phase)
    global _records_since_check
    _records_since_check += 1
    if _records_since_check >= _RETUNE_CHECK_EVERY:
        _records_since_check = 0
        from repro.core.calibrate import maybe_retune

        coefficients = maybe_retune(_DEFAULT_PLAN_TIMINGS)
        if coefficients is not None:
            store = default_plan_store()
            if store is not None:
                store.save_calibration(coefficients.as_dict())


def record_plan_features(
    key: PlanKey,
    features: Tuple[float, ...],
    predicted_s: Optional[float] = None,
) -> None:
    """Register a plan's cost-model features in the process registry."""
    _DEFAULT_PLAN_TIMINGS.record_features(key, features, predicted_s)


def plan_timings_snapshot() -> List[Dict[str, object]]:
    """Rows of the process-wide per-plan timing registry (total-desc)."""
    return _DEFAULT_PLAN_TIMINGS.snapshot()


def plan_timings_stats() -> Dict[str, int]:
    """Bound/occupancy counters of the process-wide timing registry."""
    return _DEFAULT_PLAN_TIMINGS.stats()


def clear_plan_timings() -> None:
    """Drop the process-wide per-plan timing records (test isolation)."""
    _DEFAULT_PLAN_TIMINGS.clear()


# The metrics registry embeds these documents in its snapshots; registering
# here (the producer) keeps repro.obs free of engine-layer imports.
register_source("caches", caches_snapshot)
register_source("plan_timings", plan_timings_snapshot)


# --------------------------------------------------------------------------- #
# Schedule caching
# --------------------------------------------------------------------------- #
#: Count of real schedule searches run by :func:`cached_schedule` (i.e.
#: neither the in-memory LRU nor the plan store had the answer).
_schedule_searches = 0


def schedule_search_count() -> int:
    """Process-wide number of schedule searches actually executed."""
    return _schedule_searches


def cached_schedule(
    kernel: SpTTNKernel,
    buffer_dim_bound: Optional[int] = 2,
    flop_tolerance: float = 1.5,
    max_paths: Optional[int] = 5000,
    enforce_csf_order: bool = True,
    cache: Optional[PlanCache] = None,
    store: Union[PlanStore, bool, None] = True,
) -> Schedule:
    """Run the scheduler's search once per kernel structure per process.

    Structurally identical kernels (same operands, dimensions, CSF mode
    order and sparsity statistics) reuse the previously selected
    :class:`~repro.core.scheduler.Schedule`; the returned schedule's
    ``loop_nest`` is kernel-object independent and can be executed against
    any kernel with the same signature.  Custom cost functions cannot be
    keyed, so use :class:`~repro.core.scheduler.SpTTNScheduler` directly
    for those.

    On an in-memory miss the disk store is consulted before searching:
    ``store=True`` (default) resolves the ``REPRO_PLAN_STORE`` default
    store (no-op when unset), a :class:`~repro.engine.plan_store.PlanStore`
    instance uses that store (isolation for tests), ``False``/``None``
    disables persistence.  A store hit deserializes the previously
    selected schedule — zero search — and any fresh search result is
    written back, so the *next* process warm-starts.

    Examples
    --------
    >>> kernel = parse_kernel("ijk,ja,ka->ia", [T, B, C])
    >>> nest = cached_schedule(kernel).loop_nest    # search runs once
    >>> nest is cached_schedule(kernel).loop_nest   # later calls hit
    True
    """
    cache = cache if cache is not None else _DEFAULT_SCHEDULE_CACHE
    key = schedule_key(
        kernel, buffer_dim_bound, flop_tolerance, max_paths, enforce_csf_order
    )
    if store is True:
        resolved_store: Optional[PlanStore] = default_plan_store()
    elif store is False or store is None:
        resolved_store = None
    else:
        resolved_store = store

    def build() -> Schedule:
        if resolved_store is not None:
            payload = resolved_store.get(key)
            if payload is not None:
                try:
                    restored = schedule_from_payload(kernel, payload)
                except Exception:
                    # digest collision or foreign/hand-edited entry: count
                    # it as a miss and fall through to a fresh search
                    resolved_store.note_invalid()
                else:
                    inc_counter("store.schedule_loads")
                    return restored
        scheduler = SpTTNScheduler(
            kernel,
            buffer_dim_bound=buffer_dim_bound,
            flop_tolerance=flop_tolerance,
            max_paths=max_paths,
            enforce_csf_order=enforce_csf_order,
        )
        with _span("schedule_search", "scheduler"):
            schedule = scheduler.schedule()
        global _schedule_searches
        _schedule_searches += 1
        inc_counter("schedule.searches")
        if resolved_store is not None:
            resolved_store.put(key, schedule_payload(schedule))
        return schedule

    schedule = cache.get_or_create(key, build)
    assert isinstance(schedule, Schedule)
    return schedule


# --------------------------------------------------------------------------- #
# Executor caching
# --------------------------------------------------------------------------- #
def cached_executor(
    kernel: SpTTNKernel,
    loop_nest: LoopNest,
    offload: bool = True,
    engine: Optional[str] = None,
    cache: Optional[PlanCache] = None,
):
    """One process-wide executor per loop-nest structure.

    Reusing an executor across ``execute()`` calls is the library's fast
    path (the compiled plan is bound, never rebuilt); this helper makes the
    reuse automatic for callers that cannot conveniently hold the executor
    themselves — the measured sweeps' :class:`~repro.core.search.ExecutionRunner`
    (one executor per candidate per worker process) and the distributed
    runtime (one executor shared by all virtual ranks of a kernel).

    ``engine=None`` is resolved through the ``REPRO_ENGINE`` default *now*,
    so the cache key always names a concrete engine and later environment
    changes cannot alias entries.  Cached executors accumulate their
    ``counter`` across uses and are not safe for concurrent use from
    threads; pass ``cache=``\\ a private :class:`PlanCache` (or construct
    :class:`~repro.engine.executor.LoopNestExecutor` directly) for
    isolation.

    Examples
    --------
    >>> nest = cached_schedule(kernel).loop_nest
    >>> out = cached_executor(kernel, nest).execute(tensors)   # compiles
    >>> out = cached_executor(kernel, nest).execute(tensors)   # plan reused
    """
    # Imported here: repro.engine.executor imports this module at load time.
    from repro.engine.executor import LoopNestExecutor, default_engine

    resolved = default_engine() if engine is None else engine
    cache = cache if cache is not None else _DEFAULT_EXECUTOR_CACHE
    key = ("executor", plan_key(kernel, loop_nest, offload=offload), resolved)
    executor = cache.get_or_create(
        key,
        lambda: LoopNestExecutor(
            kernel, loop_nest, offload=offload, engine=resolved
        ),
    )
    assert isinstance(executor, LoopNestExecutor)
    return executor

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
* :class:`PlanCache` — the process's one LRU class,
  :class:`~repro.util.lru.LRUCache` (hit/miss/eviction counters and an
  optional *memory budget*), here keyed by the full structural identity of
  a loop nest (:func:`plan_key`: kernel signature, loop orders, contraction
  path, CSF mode order, operand shapes/dtypes).
* :func:`cached_schedule` — the same amortization for the scheduler's
  search itself, keyed by kernel signature plus sparsity statistics, so
  applications that repeatedly schedule structurally identical kernels
  (the apps in :mod:`repro.apps`, benchmark sweeps) pay for the search
  once per process.

Caches are per-process and locked; entries are immutable once built, so
sharing a :class:`CompiledPlan` between executors is safe.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.keys import key_digest
from repro.engine.plan_store import (
    PlanStore,
    default_plan_store,
    schedule_from_payload,
    schedule_payload,
)
from repro.obs.metrics import Histogram, inc_counter, register_source
from repro.obs.trace import span as _span
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import Schedule, SpTTNScheduler
from repro.sptensor.coo import COOTensor, digest_stats
from repro.sptensor.csf import CSFTensor, default_structure_memo
from repro.util.config import setting
from repro.util.lru import LRUCache

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
SPARSE_FIBER = 2     # vector: csf.values[lo:hi] of the current node's children
ARRAY = 3            # dense array / buffer / dense output slice
SPARSE_OUT_LEAF = 4  # accumulate into out_values[csf_pos]
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


def _signature_of(kernel: SpTTNKernel) -> PlanKey:
    """:func:`kernel_signature`, derived once per kernel object (a kernel is
    not mutated after construction) and carried on it."""
    signature = kernel.__dict__.get("_signature")
    if signature is None:
        signature = kernel._signature = kernel_signature(kernel)
    return signature


def operand_signature(
    kernel: SpTTNKernel, tensors: Mapping[str, object]
) -> PlanKey:
    """Shapes and dtypes (``dtype.str``) of the concrete operands, in operand order."""
    sig: List[Tuple[Hashable, ...]] = []
    for op in kernel.operands:
        value = tensors[op.name]
        if isinstance(value, (COOTensor, CSFTensor)):
            sig.append(("sparse", value.shape, value.values.dtype.str))
        else:
            arr = np.asarray(value)
            sig.append(("dense", arr.shape, arr.dtype.str))
    return tuple(sig)


def plan_key(
    kernel: SpTTNKernel,
    loop_nest: LoopNest,
    operands: PlanKey = (),
) -> PlanKey:
    """Full structural identity of one compiled plan.

    Two executions share a plan exactly when this key matches: same kernel
    signature, same contraction path, same per-term loop orders, same CSF
    mode order (part of the kernel signature) and same operand
    shapes/dtypes.
    """
    path = loop_nest.path
    return (
        _signature_of(kernel),
        tuple(
            (t.lhs, t.rhs, t.out, t.lhs_indices, t.rhs_indices, t.out_indices)
            for t in path
        ),
        tuple(tuple(order) for order in loop_nest.order),
        tuple(operands),
    )


def schedule_key(
    kernel: SpTTNKernel,
    buffer_dim_bound: Optional[int] = 2,
    max_paths: Optional[int] = 5000,
) -> PlanKey:
    """Identity of one scheduling problem (kernel structure + sparsity stats)."""
    stats = kernel.sparse_stats
    prefix = stats.get("prefix_nnz") or {}
    return (
        _signature_of(kernel),
        stats.get("nnz"),
        tuple(sorted(prefix.items())),
        buffer_dim_bound,
        max_paths,
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
    execution attempts the lowering pass, then either ``False`` (declined
    — the interpreter is used) or the compiled
    :class:`~repro.engine.lowering.ir.Program`.  ``jit`` holds that
    program's fused callable (``None`` until compiled, then a
    :class:`~repro.engine.lowering.codegen.CompiledJit`), and ``unfused``
    the one the ``lowered`` engine runs (compiled without the
    peephole pass) — both live on the plan so the cache's byte budget
    accounts for compiled callables and their pooled buffers alongside
    the plan itself.

    ``timings`` holds the plan's measured wall-clock seconds: one
    :class:`~repro.obs.metrics.Histogram` per ``(engine actually run,
    phase)``, where ``"prepare"`` covers COO→CSF conversion, plan fetch,
    lowering and compilation and ``"execute"`` the steady-state run
    (:func:`plan_timings_snapshot` reports them).
    """

    __slots__ = ("key", "sites", "lowered", "jit", "unfused", "timings")

    def __init__(self, key: PlanKey) -> None:
        self.key = key
        self.sites: Dict[SiteKey, list] = {}
        self.lowered: object = None
        self.jit: object = None
        self.unfused: object = None
        self.timings: Dict[Tuple[str, str], Histogram] = {}

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def site(self, site_key: SiteKey) -> Optional[list]:
        return self.sites.get(site_key)

    def add_site(self, site_key: SiteKey, steps: list) -> list:
        self.sites[site_key] = steps
        return steps

    def record_timing(self, engine: str, phase: str, seconds: float) -> None:
        """Account one *phase* of one execution on *engine* (``setdefault``:
        threads racing on a row's first observation share one histogram)."""
        hist = self.timings.get((engine, phase))
        if hist is None:
            hist = self.timings.setdefault((engine, phase), Histogram(phase))
        hist.observe(seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompiledPlan(sites={len(self.sites)})"


#: The engine's name for :class:`~repro.util.lru.LRUCache`, the one LRU class.
PlanCache = LRUCache

#: ``REPRO_PLAN_CACHE_BYTES`` bounds the default plan cache's memory use
#: (unset = entry-count bound only).
_DEFAULT_PLAN_CACHE = PlanCache(max_bytes=setting("REPRO_PLAN_CACHE_BYTES"), name="plan")
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

    The canonical introspection document shared by ``repro serve`` and the
    daemon's ``stats`` endpoint:
    a dict keyed ``plan``/``schedule``/``executor``/``jit``/``csf``, each
    value the corresponding cache's entries/hits/misses/evictions/
    rejections/bytes counters (:meth:`PlanCache.stats`; the ``jit`` entry
    comes from :func:`~repro.engine.lowering.codegen.jit_stats` and covers
    compiled callables, their buffer pools and the per-tensor prep cache;
    the ``csf`` entry is the pattern-keyed CSF structure memo of
    :func:`~repro.sptensor.csf.csf_for_mode_order`, whose ``misses`` are
    the COO sorts this process paid, plus ``digests``, the patterns hashed).

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
# Per-plan execution timings
# --------------------------------------------------------------------------- #
def describe_plan_key(key: PlanKey) -> str:
    """Short human-readable label of one :func:`plan_key`: spec plus loop orders."""
    (operands, output, *_), _path, orders = key[:3]
    spec = ",".join("".join(op[1]) for op in operands) + "->" + "".join(output[1])
    return f"{spec} [{';'.join(','.join(order) for order in orders)}]"


def plan_timings_snapshot() -> List[Dict[str, object]]:
    """Timing rows of the plans in the process-wide cache, total time first.

    One row per executed ``(plan, engine, phase)`` (see
    :attr:`CompiledPlan.timings`): the canonical ``digest`` of the plan key
    (:func:`repro.engine.keys.key_digest` — stable across processes, so
    snapshots from different daemon runs correlate), a readable ``plan``
    label, the engine, the phase, ``count``/``total_s``/``mean_s`` and the
    histogram's cumulative ``[le, count]`` ``buckets``.  The rows live and
    age out with their plans, so the plan cache's LRU bounds them.
    """
    rows = []
    for plan in _DEFAULT_PLAN_CACHE.values():
        digest, label = key_digest(plan.key), describe_plan_key(plan.key)
        for (engine, phase), hist in plan.timings.copy().items():
            snap = hist.snapshot()
            count, total = snap["count"], snap["sum"]
            rows.append(
                {
                    "digest": digest,
                    "plan": label,
                    "engine": engine,
                    "phase": phase,
                    "count": count,
                    "total_s": total,
                    "mean_s": total / count if count else 0.0,
                    "buckets": snap["buckets"],
                }
            )
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


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
    max_paths: Optional[int] = 5000,
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
    key = schedule_key(kernel, buffer_dim_bound, max_paths)

    def build() -> Schedule:
        # resolved on a miss only: a hit never reads the environment
        resolved_store = default_plan_store() if store is True else store
        if resolved_store is False:
            resolved_store = None
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
            kernel, buffer_dim_bound=buffer_dim_bound, max_paths=max_paths
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
    engine: Optional[str] = None,
    cache: Optional[PlanCache] = None,
):
    """One process-wide executor per loop-nest structure.

    Reusing an executor across ``execute()`` calls is the library's fast
    path (the compiled plan is bound, never rebuilt); this helper makes the
    reuse automatic for callers that cannot conveniently hold the executor
    themselves — the measured sweeps' :class:`~repro.core.search.ExecutionRunner`
    (one executor per candidate) and the distributed
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
    resolved = setting("REPRO_ENGINE") if engine is None else engine  # = default_engine()
    cache = cache if cache is not None else _DEFAULT_EXECUTOR_CACHE
    key = ("executor", plan_key(kernel, loop_nest), resolved)

    def build():
        # imported on a miss only: repro.engine.executor imports this module
        from repro.engine.executor import LoopNestExecutor

        return LoopNestExecutor(kernel, loop_nest, engine=resolved)

    return cache.get_or_create(key, build)

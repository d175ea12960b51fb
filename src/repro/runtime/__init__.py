"""Shared parallel runtime: worker pool, operand broadcast, reductions.

One layer owns all intra-node parallelism so every consumer inherits the
same guarantees:

* :mod:`repro.runtime.pool` — a persistent, order-preserving pool of worker
  processes with the deterministic semantics the loop-nest sweeps
  established (results identical to the serial map, ``REPRO_WORKERS`` as
  the shared default, supervised recovery, graceful serial fallback);
* :mod:`repro.runtime.shm` — zero-copy broadcast of dense operands through
  ``multiprocessing.shared_memory`` so per-task pickling only covers each
  rank's private data;
* :mod:`repro.runtime.reduce` — deterministic binary-tree combination of
  ordered per-rank partials.

Consumers: :mod:`repro.core.search` (cost-model sweeps) and
:mod:`repro.distributed.runtime` (rank-parallel virtual-rank execution).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".pool": (
        "WorkerPool", "default_task_retries", "default_task_timeout", "default_workers",
        "drain_pools", "parallel_map", "pool_stats", "resolve_workers", "shared_pool",
        "shutdown_pool", "supervision_events",
    ),
    ".reduce": ("tree_reduce",),
    ".shm": ("DenseBroadcast", "SharedArrayHandle", "attach", "detach_all", "publish"),
})

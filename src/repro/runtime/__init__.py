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

Consumers: :mod:`repro.core.search` / :mod:`repro.core.autotune` (cost-model
and measured sweeps) and :mod:`repro.distributed.runtime` (rank-parallel
virtual-rank execution).
"""

from repro.runtime.pool import (
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    WORKERS_ENV,
    WorkerPool,
    default_task_retries,
    default_task_timeout,
    default_workers,
    drain_pools,
    parallel_map,
    pool_stats,
    resolve_workers,
    shared_pool,
    shutdown_pool,
    supervision_events,
)
from repro.runtime.reduce import tree_reduce
from repro.runtime.shm import (
    DenseBroadcast,
    SharedArrayHandle,
    attach,
    detach_all,
    publish,
)

__all__ = [
    "TASK_RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "WORKERS_ENV",
    "WorkerPool",
    "default_task_retries",
    "default_task_timeout",
    "default_workers",
    "drain_pools",
    "parallel_map",
    "pool_stats",
    "resolve_workers",
    "shared_pool",
    "shutdown_pool",
    "supervision_events",
    "tree_reduce",
    "DenseBroadcast",
    "SharedArrayHandle",
    "attach",
    "detach_all",
    "publish",
]

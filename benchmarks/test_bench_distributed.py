"""Rank-parallel distributed execution vs the sequential virtual-rank loop.

``DistributedSpTTN.execute`` runs its virtual ranks either one after
another in the calling process (``workers=0``) or fanned out over the
worker pool (dense operands broadcast once through shared memory, one
compiled plan bound per rank).  This module checks that the two tiers
agree bit-exactly on an MTTKRP workload.  The engine is pinned to
``lowered`` (the claim is about rank parallelism, not engine choice), so
the CI interpreter-tier pass skips this module.
"""

from __future__ import annotations

import numpy as np

from repro.distributed import DistributedSpTTN
from repro.kernels.mttkrp import mttkrp_kernel
from repro.runtime import shutdown_pool
from repro.sptensor import random_dense_matrix, random_sparse_tensor

from _workloads import record_rows

N_PROCS = 4


def test_parallel_execute_matches_sequential_result(benchmark):
    tensor = random_sparse_tensor((64, 64, 64), nnz=20_000, seed=12)
    factors = [
        random_dense_matrix(d, 16, seed=12 + i)
        for i, d in enumerate(tensor.shape)
    ]
    kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
    dist = DistributedSpTTN(kernel, tensors, engine="lowered")

    def both():
        serial = dist.execute(N_PROCS, workers=0)
        parallel = dist.execute(N_PROCS, workers=2)
        return serial, parallel

    serial, parallel = benchmark.pedantic(both, rounds=1, iterations=1)
    shutdown_pool()
    np.testing.assert_array_equal(np.asarray(serial), np.asarray(parallel))
    record_rows(
        benchmark,
        [{"kernel": "mttkrp", "processes": N_PROCS, "bit_identical": True}],
    )

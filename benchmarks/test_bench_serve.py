"""Serving-layer worker-pool tier vs serial serving on the benchmark mix.

The serving layer groups requests by plan-cache signature so one schedule
search and one compiled plan serve a whole batch; with ``workers > 0`` the
batches fan out over the worker pool.  This module checks the pool tier
returns the same bits as serial serving on the seeded mixed workload.  The
engine is pinned to the lowered tier, so the CI interpreter-tier pass skips
this module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.plan_cache import clear_caches
from repro.serve import ContractionService, scenario_mix
from repro.sptensor import COOTensor

from _workloads import BASE_SEED

MIX = "mixed"
ENGINE = "lowered"


def _outputs_equal(a, b) -> None:
    if isinstance(b, COOTensor):
        assert isinstance(a, COOTensor)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.smoke
def test_parallel_serving_matches_serial_bitwise(benchmark):
    """The worker-pool tier must return the same bits as serial serving on
    the benchmark workload (smoke-scale: 16 requests, 2 workers)."""
    requests = scenario_mix(16, mix=MIX, seed=BASE_SEED + 1, engine=ENGINE)
    clear_caches()
    serial = ContractionService(workers=0, engine=ENGINE).run(requests)
    clear_caches()
    parallel_service = ContractionService(workers=2, engine=ENGINE)
    parallel = parallel_service.run(requests)
    for got, want in zip(parallel, serial):
        _outputs_equal(got, want)
    benchmark.pedantic(
        lambda: parallel_service.run(requests), rounds=2, iterations=1
    )

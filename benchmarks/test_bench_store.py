"""Persistent plan store: cold vs warm startup (ROADMAP item 4).

A restarted daemon or a fresh CI run starts with empty in-memory caches;
without persistence every kernel pays the scheduler's contraction-path +
loop-order search again.  With ``REPRO_PLAN_STORE`` the previous process's
schedule selections are reloaded from disk, so startup pays JSON reads
instead of searches.

This benchmark schedules the fig7 MTTKRP workloads plus an order-3 TTMc
twice against one store directory — a cold pass (empty store, real
searches) and a warm pass (fresh in-memory caches, populated store) — and
asserts on counts that the warm pass pays store reads, not searches: one
store hit per workload, no store miss, **zero** schedule searches and no
scheduler constructed.  It also checks the warm pass selects bit-identical
loop nests (executing one kernel's cold- and warm-selected schedules and
comparing outputs exactly).  The cold/warm wall-clock times are recorded,
not gated.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.expr import parse_kernel
from repro.engine import plan_cache
from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import PlanCache, cached_schedule, schedule_search_count
from repro.engine.plan_store import PlanStore
from repro.kernels.mttkrp import mttkrp_kernel

from _workloads import (
    FIG7_DATASETS,
    FIG7_RANK,
    factor_matrices,
    preset_tensor,
    record_rows,
)


def _workloads():
    """(label, kernel, tensors) triples: fig7 MTTKRP plus one TTMc."""
    out = []
    for dataset in FIG7_DATASETS:
        tensor = preset_tensor(dataset)
        factors = factor_matrices(tensor, FIG7_RANK, seed=1)
        kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
        out.append((f"mttkrp/{dataset}", kernel, tensors))
    tensor = preset_tensor("vast-3d")
    U = factor_matrices(tensor, 8, seed=2)[1]
    V = factor_matrices(tensor, 12, seed=3)[2]
    kernel = parse_kernel("ijk,jr,ks->irs", [tensor, U, V], names=["T", "U", "V"])
    out.append(("ttmc/vast-3d", kernel, {"T": tensor, "U": U, "V": V}))
    return out


def _startup_pass(workloads, store):
    """Schedule every workload against fresh in-memory caches; (seconds, nests)."""
    cache = PlanCache()  # a "restarted process": empty schedule LRU
    start = time.perf_counter()
    nests = [
        cached_schedule(kernel, cache=cache, store=store).loop_nest
        for _, kernel, _ in workloads
    ]
    return time.perf_counter() - start, nests


@pytest.mark.smoke
def test_store_warm_startup_speedup(benchmark, tmp_path, monkeypatch):
    workloads = _workloads()
    store = PlanStore(tmp_path / "store")

    searches_before = schedule_search_count()
    cold_s, cold_nests = _startup_pass(workloads, store)
    cold_searches = schedule_search_count() - searches_before
    assert cold_searches == len(workloads)  # every kernel paid a search

    def no_search(*args, **kwargs):
        raise AssertionError("warm startup constructed a scheduler")

    monkeypatch.setattr(plan_cache, "SpTTNScheduler", no_search)
    before = store.stats()
    searches_before = schedule_search_count()
    warm_s, warm_nests = _startup_pass(workloads, store)
    warm_searches = schedule_search_count() - searches_before
    after = store.stats()
    monkeypatch.undo()

    # the acceptance bar: warm startup pays one store read per workload
    # and not a single search
    assert warm_searches == 0
    assert after["hits"] - before["hits"] == len(workloads)
    assert after["misses"] == before["misses"]
    assert [n.order for n in warm_nests] == [n.order for n in cold_nests]
    assert [n.path.terms for n in warm_nests] == [n.path.terms for n in cold_nests]

    # bit-identity: the warm-restored schedule computes the same bytes, each
    # through a freshly built plan
    _, kernel, tensors = workloads[0]
    cold_out = np.asarray(
        LoopNestExecutor(kernel, cold_nests[0], plan_cache=PlanCache()).execute(tensors)
    )
    warm_out = np.asarray(
        LoopNestExecutor(kernel, warm_nests[0], plan_cache=PlanCache()).execute(tensors)
    )
    np.testing.assert_array_equal(cold_out, warm_out)

    stats = store.stats()
    rows = [
        {
            "workloads": len(workloads),
            "cold_ms": cold_s * 1e3,
            "warm_ms": warm_s * 1e3,
            "speedup": cold_s / warm_s,
            "cold_searches": cold_searches,
            "warm_searches": warm_searches,
            "store_entries": stats["entries"],
            "store_bytes": stats["bytes"],
        }
    ]
    record_rows(benchmark, rows)

    # keep a pytest-benchmark record of the warm startup path
    benchmark.pedantic(
        lambda: _startup_pass(workloads, store), rounds=3, iterations=1
    )

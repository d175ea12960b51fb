"""Plan-cache correctness: hit/miss keying, bit-identical results, memos."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.enumeration import enumerate_loop_orders
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.reference import assert_same_result, reference_output
from repro.engine.plan_cache import (
    PlanCache,
    cached_executor,
    cached_schedule,
    default_plan_cache,
    kernel_signature,
    plan_key,
    schedule_search_count,
)
from repro.sptensor import COOTensor, CSFTensor, random_dense_matrix, random_sparse_tensor
from repro.sptensor.csf import _Structure, csf_for_mode_order, default_structure_memo
from repro.util.lru import LRUCache
from repro.core.expr import parse_kernel


def _schedule_nest(kernel) -> LoopNest:
    return SpTTNScheduler(kernel).schedule().loop_nest


def _outputs_equal(a, b) -> None:
    if isinstance(a, COOTensor):
        assert isinstance(b, COOTensor)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
    else:
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestPlanCacheKeying:
    def test_hit_on_identical_structure(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        cache = PlanCache()

        executor = LoopNestExecutor(kernel, nest, plan_cache=cache)
        first = executor.execute(tensors)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0

        second = executor.execute(tensors)
        assert cache.stats()["hits"] == 1
        _outputs_equal(first, second)

        # a brand-new executor over the same structure shares the plan
        other = LoopNestExecutor(kernel, nest, plan_cache=cache)
        third = other.execute(tensors)
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1
        assert other._plan is executor._plan
        _outputs_equal(first, third)

    def test_miss_on_changed_loop_order(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        orders = [
            order
            for order in enumerate_loop_orders(kernel, nest.path)
            if order != nest.order
        ]
        cache = PlanCache()
        LoopNestExecutor(kernel, nest, plan_cache=cache).execute(tensors)
        LoopNestExecutor(
            kernel, LoopNest(nest.path, orders[0]), plan_cache=cache
        ).execute(tensors)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_miss_on_changed_shape(self):
        def build(dim):
            T = random_sparse_tensor((10, dim, 6), nnz=40, seed=3)
            B = random_dense_matrix(dim, 4, seed=1)
            C = random_dense_matrix(6, 4, seed=2)
            kernel = parse_kernel("ijk,ja,ka->ia", [T, B, C], names=["T", "B", "C"])
            return kernel, {"T": T, "B": B, "C": C}

        cache = PlanCache()
        for dim in (8, 9):
            kernel, tensors = build(dim)
            nest = _schedule_nest(kernel)
            LoopNestExecutor(kernel, nest, plan_cache=cache).execute(tensors)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_miss_on_changed_dtype(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        cache = PlanCache()
        LoopNestExecutor(kernel, nest, plan_cache=cache).execute(tensors)

        downcast = dict(tensors)
        downcast["B"] = np.asarray(tensors["B"], dtype=np.float32)
        LoopNestExecutor(kernel, nest, plan_cache=cache).execute(downcast)
        assert cache.stats()["misses"] == 2

    def test_plan_key_is_hashable_and_stable(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        key1 = plan_key(kernel, nest)
        key2 = plan_key(kernel, nest)
        assert key1 == key2
        assert hash(key1) == hash(key2)
        assert kernel_signature(kernel) == kernel_signature(kernel)

    def test_lru_eviction(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        orders = list(enumerate_loop_orders(kernel, nest.path))[:3]
        cache = PlanCache(max_entries=1)
        for order in orders:
            LoopNestExecutor(
                kernel, LoopNest(nest.path, order), plan_cache=cache
            ).execute(tensors)
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 2

    def test_default_cache_is_used(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        cache = default_plan_cache()
        executor = LoopNestExecutor(kernel, nest)  # plan_cache=None default
        executor.execute(tensors)
        assert cache.get(executor._plan.key) is executor._plan


class TestPlanCacheResults:
    @pytest.mark.parametrize(
        "fixture", ["mttkrp_setup", "ttmc_setup", "tttp_setup", "allmode_setup"]
    )
    def test_bit_identical_cached_vs_fresh(self, request, fixture):
        kernel, tensors = request.getfixturevalue(fixture)
        nest = _schedule_nest(kernel)

        cache = PlanCache()
        cached_exec = LoopNestExecutor(kernel, nest, plan_cache=cache)
        warm1 = cached_exec.execute(tensors)
        warm2 = cached_exec.execute(tensors)  # cache hit
        fresh = LoopNestExecutor(kernel, nest, plan_cache=PlanCache()).execute(tensors)

        _outputs_equal(warm1, warm2)
        _outputs_equal(warm1, fresh)
        assert cache.stats()["hits"] >= 1

    def test_warm_loop_searches_plans_and_sorts_nothing(self, mttkrp_setup):
        # an ALS-style sweep: one kernel structure, new values every call
        kernel, tensors = mttkrp_setup
        schedules, plans = PlanCache(), PlanCache()
        nest = cached_schedule(kernel, cache=schedules, store=False).loop_nest
        executor = LoopNestExecutor(kernel, nest, plan_cache=plans)
        first = executor.execute(tensors)
        memo = default_structure_memo()

        def counts():
            return schedule_search_count(), schedules.misses + plans.misses, memo.misses

        before = counts()
        for scale in (2.0, 4.0, 0.5):  # powers of two scale every sum exactly
            sparse = tensors["T"].with_values(tensors["T"].values * scale)
            cached_schedule(kernel, cache=schedules, store=False)
            _outputs_equal(executor.execute(dict(tensors, T=sparse)), first * scale)
        assert counts() == before

    def test_failed_execute_releases_its_bindings(self, mttkrp_setup):
        # a process-wide executor outlives its call: an operand that fails
        # validation after the sparse tensor and ``B`` are bound must not
        # stay pinned by the executor cache until the next good call
        kernel, tensors = mttkrp_setup
        executor = cached_executor(kernel, _schedule_nest(kernel))
        with pytest.raises(ValueError, match="dense operand 'C'"):
            executor.execute(dict(tensors, C=np.zeros((3, 5))))
        assert executor._csf is None and executor._dense == {}
        assert executor._out_dense is None and executor._out_values is None
        # the executor still serves the next call
        _outputs_equal(
            executor.execute(tensors),
            LoopNestExecutor(kernel, _schedule_nest(kernel)).execute(tensors),
        )


class TestScheduleCache:
    def test_schedule_cache_hits(self, mttkrp_setup):
        kernel, _ = mttkrp_setup
        cache = PlanCache()
        first = cached_schedule(kernel, cache=cache)
        second = cached_schedule(kernel, cache=cache)
        assert first is second
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "rejections": 0,
            "bytes": 0,
        }

    def test_schedule_cache_misses_on_different_stats(self):
        cache = PlanCache()
        for seed in (1, 2):
            T = random_sparse_tensor((12, 10, 8), nnz=30 + seed * 10, seed=seed)
            B = random_dense_matrix(10, 3, seed=1)
            C = random_dense_matrix(8, 3, seed=2)
            kernel = parse_kernel("ijk,ja,ka->ia", [T, B, C], names=["T", "B", "C"])
            cached_schedule(kernel, cache=cache)
        assert cache.stats()["misses"] == 2

    def test_cached_schedule_matches_scheduler(self, ttmc_setup):
        kernel, _ = ttmc_setup
        direct = SpTTNScheduler(kernel).schedule()
        cached = cached_schedule(kernel, cache=PlanCache())
        assert cached.loop_nest.order == direct.loop_nest.order
        assert cached.path.terms == direct.path.terms


@pytest.fixture
def csf_builds(monkeypatch):
    """Mode orders of every real CSF build, recorded at ``CSFTensor.from_coo``."""
    builds = []
    real = CSFTensor.from_coo.__func__

    def counting(cls, coo, mode_order=None):
        builds.append(None if mode_order is None else tuple(mode_order))
        return real(cls, coo, mode_order)

    monkeypatch.setattr(CSFTensor, "from_coo", classmethod(counting))
    return builds


@pytest.fixture
def no_coo_sorting(monkeypatch):
    """Arms a trap: any ``np.unique`` / ``np.lexsort`` call fails the test."""

    def arm():
        def trap(*args, **kwargs):
            raise AssertionError("a COO sort ran on a warm pattern")

        monkeypatch.setattr(np, "unique", trap)
        monkeypatch.setattr(np, "lexsort", trap)

    return arm


class TestCSFMemo:
    def test_coo_conversion_is_memoized(self):
        coo = random_sparse_tensor((8, 7, 6), nnz=30, seed=5)
        a = csf_for_mode_order(coo, (0, 1, 2))
        b = csf_for_mode_order(coo, (0, 1, 2))
        assert a is b
        c = csf_for_mode_order(coo, (2, 1, 0))
        assert c is not a and c.mode_order == (2, 1, 0)
        np.testing.assert_allclose(c.to_coo().to_dense(), coo.to_dense())

    def test_csf_identity_shortcut(self):
        coo = random_sparse_tensor((8, 7, 6), nnz=30, seed=5)
        csf = CSFTensor.from_coo(coo, (1, 0, 2))
        assert csf_for_mode_order(csf, (1, 0, 2)) is csf
        remode = csf_for_mode_order(csf, (0, 1, 2))
        assert remode.mode_order == (0, 1, 2)
        assert csf_for_mode_order(csf, (0, 1, 2)) is remode

    def test_wire_decoded_tensors_share_one_build_per_mode_order(self, csf_builds):
        from repro.serve import protocol

        source = random_sparse_tensor((9, 8, 7), nnz=60, seed=11)
        line = protocol.dumps(protocol.encode_tensor(source))
        for mode_order in ((0, 1, 2), (2, 0, 1)):
            decoded = [protocol.decode_tensor(protocol.loads(line)) for _ in range(4)]
            views = [csf_for_mode_order(t, mode_order) for t in decoded]
            assert len({id(v) for v in views}) == 4  # one object per tensor...
            for view in views:  # ...sharing the level arrays of the first
                assert all(a is b for a, b in zip(view.fids, views[0].fids))
                np.testing.assert_array_equal(
                    view.to_coo().to_dense(), source.to_dense()
                )
        assert csf_builds == [(0, 1, 2), (2, 0, 1)]

    def test_kernel_build_on_a_warm_pattern_sorts_nothing(
        self, csf_builds, no_coo_sorting
    ):
        from repro.serve import protocol
        from repro.serve.request import mttkrp_request

        source = random_sparse_tensor((9, 8, 7), nnz=60, seed=11)
        factors = [np.ones((d, 3)) for d in source.shape[1:]]
        mttkrp_request(source, factors).build()
        assert csf_builds == [(0, 1, 2)]
        line = protocol.dumps(protocol.encode_tensor(source))
        no_coo_sorting()
        decoded = protocol.decode_tensor(protocol.loads(line))
        kernel, _ = mttkrp_request(decoded, factors).build()
        assert csf_builds == [(0, 1, 2)]
        assert kernel.prefix_nnz(3) == source.nnz

    def test_with_values_rebinds_without_building(self, csf_builds):
        coo = random_sparse_tensor((8, 7, 6), nnz=40, seed=3)
        mode_order = (2, 0, 1)
        first = csf_for_mode_order(coo, mode_order)
        assert first.leaf_perm is not None  # leaves are not in COO row order
        fresh = coo.with_values(np.arange(coo.nnz, dtype=np.float64) + 1.0)
        view = csf_for_mode_order(fresh, mode_order)
        assert csf_builds == [mode_order]
        np.testing.assert_array_equal(view.to_coo().to_dense(), fresh.to_dense())
        np.testing.assert_array_equal(view.values, fresh.values[first.leaf_perm])

    def test_identity_permutation_shares_the_values_array(self):
        coo = random_sparse_tensor((8, 7, 6), nnz=40, seed=3)
        cold = csf_for_mode_order(coo, (0, 1, 2))
        assert cold.leaf_perm is None and cold.values is coo.values
        fresh = coo.with_values(np.ones(coo.nnz))
        assert csf_for_mode_order(fresh, (0, 1, 2)).values is fresh.values

    def test_completion_builds_once_per_pattern_and_mode_order(self, csf_builds):
        from repro.apps import cp_completion

        observed = random_sparse_tensor((10, 9, 8), nnz=80, seed=2)
        result = cp_completion(observed, rank=3, iterations=5, tolerance=0.0)
        assert result.iterations == 5
        # pattern-of-ones, observed and five residual tensors: one pattern
        assert csf_builds == [(0, 1, 2)]

    def test_distinct_patterns_get_distinct_entries(self, csf_builds):
        coo = random_sparse_tensor((8, 7, 6), nnz=30, seed=5)
        moved = coo.indices.copy()
        moved[-1] = (7, 6, 5) if tuple(moved[-1]) != (7, 6, 5) else (7, 6, 4)
        neighbour = COOTensor(coo.shape, moved, coo.values)
        reshaped = COOTensor((9, 7, 6), coo.indices, coo.values)
        before = default_structure_memo().stats()["entries"]
        for tensor in (coo, neighbour, reshaped):
            view = csf_for_mode_order(tensor, (0, 1, 2))
            assert view.shape == tensor.shape
            np.testing.assert_array_equal(view.to_coo().indices, tensor.indices)
        assert len(csf_builds) == 3
        assert default_structure_memo().stats()["entries"] == before + 3

    def test_mismatched_entry_under_a_matching_digest_is_rebuilt(self, csf_builds):
        # shape and nnz are part of the key: an entry under the same digest
        # and mode order with another shape or nnz is never bound
        coo = random_sparse_tensor((8, 7, 6), nnz=30, seed=5)
        other = csf_for_mode_order(
            random_sparse_tensor((8, 7, 6), nnz=12, seed=6), (0, 1, 2)
        )
        planted = _Structure(other.shape, other.fids, other.fptr, other.leaf_perm)
        for shape, nnz in (((8, 7, 6), other.nnz), ((9, 7, 6), coo.nnz)):
            default_structure_memo().get_or_create(
                (coo.pattern_digest(), (0, 1, 2), shape, nnz), lambda: planted
            )
        view = csf_for_mode_order(coo, (0, 1, 2))
        assert len(csf_builds) == 2 and view.nnz == coo.nnz
        assert view.fids[-1] is not other.fids[-1]
        np.testing.assert_array_equal(view.to_coo().to_dense(), coo.to_dense())

    def test_lru_evicts_by_bytes_and_rejects_oversized(self):
        def structure(n):
            return _Structure((n,), [np.zeros(n, dtype=np.int64)], [], None)

        def unbuilt():
            raise AssertionError("a cached key was rebuilt")

        memo = LRUCache(max_entries=None, max_bytes=8 * 100)
        for name in (b"a", b"b"):
            memo.get_or_create((name, (0,)), lambda: structure(40))
        memo.get_or_create((b"a", (0,)), unbuilt)  # a is now most recent
        memo.get_or_create((b"c", (0,)), lambda: structure(40))  # 960 > 800: evicts b
        assert (b"b", (0,)) not in memo and (b"a", (0,)) in memo
        huge = memo.get_or_create((b"huge", (0,)), lambda: structure(101))
        assert huge.nbytes == 808 and (b"huge", (0,)) not in memo  # served only
        stats = memo.stats()
        assert (stats["entries"], stats["bytes"]) == (2, 640)
        assert (stats["evictions"], stats["rejections"]) == (1, 1)
        assert (stats["hits"], stats["misses"]) == (1, 4)
        memo.clear()
        assert memo.stats()["bytes"] == 0 and memo.stats()["hits"] == 1

    def test_threads_racing_on_a_cold_pattern_both_get_correct_views(self):
        import sys
        import threading

        source = random_sparse_tensor((12, 11, 10), nnz=400, seed=8)
        mode_order = (1, 2, 0)
        barrier = threading.Barrier(4)
        views, errors = [None] * 4, []

        def convert(slot):
            try:
                tensor = COOTensor(
                    source.shape, source.indices, source.values, sort=False
                )
                barrier.wait(timeout=30)
                views[slot] = csf_for_mode_order(tensor, mode_order)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=convert, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for view in views:
            np.testing.assert_array_equal(view.to_coo().to_dense(), source.to_dense())
            # the first insert wins: every racer binds the stored structure
            assert all(a is b for a, b in zip(view.fids, views[0].fids))
        stats = default_structure_memo().stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == _Structure(
            views[0].shape, views[0].fids, views[0].fptr, views[0].leaf_perm
        ).nbytes

    def test_clear_caches_drops_the_structure_memo(self, csf_builds):
        from repro.engine.plan_cache import caches_snapshot, clear_caches

        coo = random_sparse_tensor((8, 7, 6), nnz=30, seed=5)
        csf_for_mode_order(coo, (0, 1, 2))
        row = caches_snapshot()["csf"]
        assert row["entries"] == 1 and row["bytes"] > 0
        assert set(row) == {
            "entries", "hits", "misses", "evictions", "rejections", "bytes",
            "digests",
        }
        clear_caches()
        assert caches_snapshot()["csf"]["entries"] == 0
        csf_for_mode_order(coo.with_values(coo.values), (0, 1, 2))
        assert len(csf_builds) == 2


class TestMemoryBudget:
    """LRU eviction by entry count and by size (max_bytes), and admission control."""

    def test_byte_budget_evicts_lru(self):
        cache = PlanCache(max_entries=None, max_bytes=3_000)
        for i in range(6):
            cache.get_or_create(("k", i), lambda: np.zeros(100))  # 800 B each
        stats = cache.stats()
        assert stats["bytes"] <= 3_000
        assert stats["evictions"] >= 1
        assert ("k", 5) in cache  # newest survives
        assert ("k", 0) not in cache  # oldest evicted

    def test_oversized_value_not_admitted(self):
        cache = PlanCache(max_entries=None, max_bytes=1_000)
        value = cache.get_or_create(("big",), lambda: np.zeros(10_000))
        assert value.shape == (10_000,)  # still served
        assert len(cache) == 0
        assert cache.stats()["rejections"] == 1

    def test_unbudgeted_cache_skips_size_probe(self):
        cache = PlanCache()
        cache.get_or_create(("k",), lambda: np.zeros(1_000))
        assert cache.stats()["bytes"] == 0  # no budget, no accounting

    def test_real_plans_are_bounded_by_entries(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = _schedule_nest(kernel)
        expected = reference_output(kernel, tensors)
        orders = list(enumerate_loop_orders(kernel, nest.path))[:4]
        assert len(orders) == 4
        cache = PlanCache(max_entries=2)
        keys = []
        for order in orders:
            executor = LoopNestExecutor(
                kernel, LoopNest(nest.path, order), plan_cache=cache
            )
            assert_same_result(executor.execute(tensors), expected)
            keys.append(executor._plan.key)
        assert len(set(keys)) == 4
        stats = cache.stats()
        assert (len(cache), stats["evictions"], stats["bytes"]) == (2, 2, 0)
        assert [key in cache for key in keys] == [False, False, True, True]

    def test_the_default_plan_cache_is_bounded_by_entries_alone(self, mttkrp_setup):
        from repro.engine.plan_cache import caches_snapshot

        cache = default_plan_cache()
        assert (cache.max_entries, cache.max_bytes) == (512, None)
        kernel, tensors = mttkrp_setup
        LoopNestExecutor(kernel, _schedule_nest(kernel)).execute(tensors)
        row = caches_snapshot()["plan"]
        assert set(row) == {
            "entries", "hits", "misses", "evictions", "rejections", "bytes",
        }
        assert row["entries"] >= 1 and (row["rejections"], row["bytes"]) == (0, 0)

    def test_the_removed_byte_variable_is_ignored(self):
        import os
        import subprocess
        import sys

        code = (
            "from repro.engine.plan_cache import default_plan_cache\n"
            "c = default_plan_cache(); print(c.max_entries, c.max_bytes)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(sys.path),
                REPRO_PLAN_CACHE_BYTES="1000",
            ),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["512", "None"]
        assert "REPRO_PLAN_CACHE_BYTES" not in done.stderr

    def test_bytes_equal_the_held_values_nbytes_through_evictions(self):
        cache = PlanCache(max_entries=3, max_bytes=4_000)
        for i, n in enumerate((100, 300, 50, 200, 10, 400, 25)):
            cache.get_or_create(("k", i), lambda n=n: np.zeros(n))
            held = cache.values()
            assert cache.stats()["bytes"] == sum(v.nbytes for v in held) <= 4_000
            assert len(held) <= 3
        stats = cache.stats()
        # 1 600 B and 3 200 B each evict one entry for the count, one for bytes
        assert (stats["entries"], stats["evictions"], stats["rejections"]) == (3, 4, 0)
        assert [v.nbytes for v in cache.values()] == [80, 3_200, 200]

    def test_racing_builders_of_one_cold_key_store_it_once(self):
        import threading
        import time

        cache = PlanCache(max_entries=None, max_bytes=10_000_000)
        barrier = threading.Barrier(4)
        got = [None] * 4

        def factory():
            time.sleep(0.01)
            return np.zeros(1_000)

        def race(slot):
            barrier.wait(timeout=30)
            got[slot] = cache.get_or_create(("cold",), factory)

        threads = [threading.Thread(target=race, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == cache.get(("cold",)).nbytes
        assert stats["misses"] == 4  # every build is paid and counted
        assert all(value is got[0] for value in got)

    def test_clear_resets_bytes(self):
        cache = PlanCache(max_entries=None, max_bytes=10_000)
        cache.get_or_create(("k",), lambda: np.zeros(100))
        assert cache.stats()["bytes"] > 0
        cache.clear()
        assert cache.stats()["bytes"] == 0 and len(cache) == 0

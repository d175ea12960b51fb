"""Disk-backed plan store: persistence, tolerance and warm starts.

Covers the PR-9 acceptance criteria: schedule round-trips through the
store, a second "process" (fresh in-memory cache) warm-starts with zero
schedule searches, corrupt/truncated/mismatched entries degrade to misses
(never errors), concurrent writers cannot produce torn files, and the
per-plan timing rows stay bounded by the plan cache.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np

from repro.core.expr import parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.core.search import sweep_loop_orders
from repro.engine.keys import canonical_key, key_digest
from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import (
    PlanCache,
    cached_schedule,
    default_plan_cache,
    operand_signature,
    plan_key,
    plan_timings_snapshot,
    schedule_key,
    schedule_search_count,
)
from repro.engine.plan_store import (
    STORE_VERSION,
    PlanStore,
    default_plan_store,
    plan_store_snapshot,
    schedule_from_payload,
    schedule_payload,
)
from repro.sptensor import random_dense_matrix, random_sparse_tensor


#: A ``calibration.json`` in the format stores used to carry cost-model
#: coefficients in.  Installed as a cost model, these coefficients ranked a
#: different nest first for both the MTTKRP and the TTMc fixture.
LEGACY_CALIBRATION = {
    "version": 1,
    "coefficients": {
        "loop_overhead": 1.0, "scalar_op": 1.0, "vector_op": 1.0,
        "call_overhead": 1e6,
    },
}


def _same_nest(a, b) -> bool:
    return a.order == b.order and a.path.terms == b.path.terms


def _mttkrp_kernel(seed: int = 0, rank: int = 4):
    T = random_sparse_tensor((30, 25, 20), nnz=400, seed=seed)
    B = random_dense_matrix(25, rank, seed=seed + 1)
    C = random_dense_matrix(20, rank, seed=seed + 2)
    return parse_kernel("ijk,ja,ka->ia", [T, B, C], names=["T", "B", "C"])


# --------------------------------------------------------------------------- #
# Canonical keys
# --------------------------------------------------------------------------- #
class TestCanonicalKeys:
    def test_numpy_scalars_serialize_like_python_scalars(self):
        mixed = (1, np.int64(5), ("a", np.float64(2.5)), np.bool_(True), None)
        plain = (1, 5, ("a", 2.5), True, None)
        assert canonical_key(mixed) == canonical_key(plain)
        assert key_digest(mixed) == key_digest(plain)

    def test_canonical_key_is_json(self):
        doc = json.loads(canonical_key((1, ("x", 2.0), {"b": 2, "a": 1})))
        assert doc == [1, ["x", 2.0], {"a": 1, "b": 2}]

    def test_digest_is_stable_hex(self):
        digest = key_digest(("schedule", "anything"))
        canonical = canonical_key(("schedule", "anything")).encode("utf-8")
        assert len(digest) == 16
        assert digest == hashlib.sha256(canonical).hexdigest()[:16]
        assert digest == key_digest(("schedule", "anything"))
        assert digest != key_digest(("schedule", "other"))


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    def test_schedule_payload_round_trips(self):
        kernel = _mttkrp_kernel()
        schedule = cached_schedule(kernel, cache=PlanCache(), store=False)
        restored = schedule_from_payload(kernel, schedule_payload(schedule))
        assert restored.loop_nest.order == schedule.loop_nest.order
        assert restored.loop_nest.path.terms == schedule.loop_nest.path.terms
        assert restored.cost_value == schedule.cost_value
        assert restored.flop_estimate == schedule.flop_estimate

    def test_payload_survives_json(self, tmp_path):
        kernel = _mttkrp_kernel()
        schedule = cached_schedule(kernel, cache=PlanCache(), store=False)
        text = json.dumps(schedule_payload(schedule))
        restored = schedule_from_payload(kernel, json.loads(text))
        assert restored.loop_nest.order == schedule.loop_nest.order

    def test_store_get_put(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        kernel = _mttkrp_kernel()
        key = schedule_key(kernel)
        assert store.get(key) is None  # cold
        schedule = cached_schedule(kernel, cache=PlanCache(), store=False)
        assert store.put(key, schedule_payload(schedule))
        payload = store.get(key)
        assert payload is not None
        restored = schedule_from_payload(kernel, payload)
        assert restored.loop_nest.order == schedule.loop_nest.order
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["writes"] == 1 and stats["errors"] == 0


# --------------------------------------------------------------------------- #
# Warm starts
# --------------------------------------------------------------------------- #
class TestWarmStart:
    def test_second_process_pays_zero_searches(self, tmp_path):
        """A fresh in-memory cache sharing the store skips search entirely."""
        store = PlanStore(tmp_path / "store")
        kernel = _mttkrp_kernel()

        before = schedule_search_count()
        first = cached_schedule(kernel, cache=PlanCache(), store=store)
        assert schedule_search_count() == before + 1  # cold: one real search

        # a "restarted process": new schedule cache, same store directory
        warm = cached_schedule(kernel, cache=PlanCache(), store=store)
        assert schedule_search_count() == before + 1  # zero further searches
        assert store.stats()["hits"] == 1
        assert warm.loop_nest.order == first.loop_nest.order
        assert warm.loop_nest.path.terms == first.loop_nest.path.terms

    def test_default_store_resolves_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_STORE", raising=False)
        assert default_plan_store() is None
        assert plan_store_snapshot() == {"configured": False}

        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "envstore"))
        store = default_plan_store()
        assert store is not None
        assert default_plan_store() is store  # cached while env unchanged

        kernel = _mttkrp_kernel()
        before = schedule_search_count()
        cached_schedule(kernel, cache=PlanCache())  # store=True -> env store
        cached_schedule(kernel, cache=PlanCache())
        assert schedule_search_count() == before + 1
        snap = plan_store_snapshot()
        assert snap["configured"] is True
        assert snap["entries"] == 1 and snap["hits"] == 1

    def test_legacy_calibration_file_changes_no_schedule(
        self, tmp_path, monkeypatch, mttkrp_setup, ttmc_setup
    ):
        """A store holding a ``calibration.json`` from an older version
        searches, writes and hits the same nests as a fresh scheduler; the
        file is an inert document that the census counts as an entry."""
        root = tmp_path / "legacy"
        root.mkdir()
        (root / "calibration.json").write_text(json.dumps(LEGACY_CALIBRATION))
        monkeypatch.setenv("REPRO_PLAN_STORE", str(root))
        for kernel, _ in (mttkrp_setup, ttmc_setup):
            fresh = SpTTNScheduler(kernel).schedule().loop_nest
            searched = cached_schedule(kernel, cache=PlanCache()).loop_nest
            reloaded = cached_schedule(kernel, cache=PlanCache()).loop_nest
            assert _same_nest(searched, fresh) and _same_nest(reloaded, fresh)
        snap = plan_store_snapshot()
        assert (snap["writes"], snap["hits"], snap["misses"]) == (2, 2, 2)
        assert snap["entries"] == 3  # two schedules and the legacy file

    def test_schedule_is_a_function_of_its_key(
        self, tmp_path, mttkrp_setup, ttmc_setup
    ):
        """A fresh search, an in-memory hit and a hit through a fresh store
        on the same directory return one nest, before and after a busy
        execution history: nothing a process runs changes the ranking."""
        root = tmp_path / "store"
        cache = PlanCache()
        kernels = [mttkrp_setup[0], ttmc_setup[0]]

        def routes(kernel):
            fresh = SpTTNScheduler(kernel).schedule().loop_nest
            hits = cache.stats()["hits"]
            cached = cached_schedule(kernel, cache=cache, store=PlanStore(root))
            memory = cached_schedule(kernel, cache=cache, store=False)
            assert cache.stats()["hits"] >= hits + 1
            store = PlanStore(root)
            disk = cached_schedule(kernel, cache=PlanCache(), store=store)
            assert store.stats()["hits"] == 1
            return [fresh, cached.loop_nest, memory.loop_nest, disk.loop_nest]

        before = [routes(kernel) for kernel in kernels]

        # 16 plans x 2 engines x 2 runs: 64 executions
        kernel, tensors = ttmc_setup
        path = SpTTNScheduler(kernel).schedule().path
        nests = [e.nest for e in sweep_loop_orders(kernel, path, workers=0, limit=16).entries]
        assert len(nests) == 16
        for nest in nests:
            for engine in ("lowered", "jit"):
                executor = LoopNestExecutor(
                    kernel, nest, plan_cache=PlanCache(), engine=engine
                )
                for _ in range(2):
                    executor.execute(tensors)

        after = [routes(kernel) for kernel in kernels]
        for first, second in zip(before, after):
            assert all(_same_nest(nest, first[0]) for nest in first + second)

    def test_store_false_disables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_STORE", str(tmp_path / "unused"))
        kernel = _mttkrp_kernel()
        cached_schedule(kernel, cache=PlanCache(), store=False)
        assert len(default_plan_store()) == 0


# --------------------------------------------------------------------------- #
# Tolerance: every failure mode is a miss, never an exception
# --------------------------------------------------------------------------- #
class TestTolerance:
    def _populated(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        kernel = _mttkrp_kernel()
        key = schedule_key(kernel)
        schedule = cached_schedule(kernel, cache=PlanCache(), store=False)
        store.put(key, schedule_payload(schedule))
        (entry,) = store.root.glob("*.json")
        return store, kernel, key, entry

    def test_version_mismatch_falls_back_to_search(self, tmp_path):
        store, kernel, key, entry = self._populated(tmp_path)
        doc = json.loads(entry.read_text())
        doc["version"] = STORE_VERSION + 1
        entry.write_text(json.dumps(doc))

        assert store.get(key) is None
        before = schedule_search_count()
        schedule = cached_schedule(kernel, cache=PlanCache(), store=store)
        assert schedule is not None
        assert schedule_search_count() == before + 1  # fell back to search
        # ... and the fresh result overwrote the stale entry
        assert json.loads(entry.read_text())["version"] == STORE_VERSION

    def test_truncated_file_falls_back(self, tmp_path):
        store, kernel, key, entry = self._populated(tmp_path)
        entry.write_text(entry.read_text()[: len(entry.read_text()) // 2])
        assert store.get(key) is None
        assert store.stats()["errors"] == 1
        schedule = cached_schedule(kernel, cache=PlanCache(), store=store)
        assert schedule is not None

    def test_foreign_key_behind_same_digest_is_a_miss(self, tmp_path):
        store, kernel, key, entry = self._populated(tmp_path)
        doc = json.loads(entry.read_text())
        doc["key"] = canonical_key(("some", "other", "key"))
        entry.write_text(json.dumps(doc))
        assert store.get(key) is None
        assert store.stats()["errors"] == 1

    def test_unrebuildable_payload_is_reclassified(self, tmp_path):
        """A valid envelope whose payload fails reconstruction => miss."""
        store, kernel, key, entry = self._populated(tmp_path)
        doc = json.loads(entry.read_text())
        doc["payload"]["order"] = [["bogus", "indices"]]
        entry.write_text(json.dumps(doc))
        before = schedule_search_count()
        schedule = cached_schedule(kernel, cache=PlanCache(), store=store)
        assert schedule is not None
        assert schedule_search_count() == before + 1
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1  # reclassified

    def test_clear_removes_a_legacy_calibration_file(self, tmp_path):
        store, kernel, key, entry = self._populated(tmp_path)
        (store.root / "calibration.json").write_text(json.dumps(LEGACY_CALIBRATION))
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get(key) is None


# --------------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------------- #
class TestConcurrentWriters:
    def test_racing_writers_never_produce_torn_files(self, tmp_path):
        store = PlanStore(tmp_path / "store")
        kernel = _mttkrp_kernel()
        key = schedule_key(kernel)
        payload = schedule_payload(
            cached_schedule(kernel, cache=PlanCache(), store=False)
        )

        errors: list = []

        def writer():
            try:
                for _ in range(25):
                    store.put(key, payload)
                    got = store.get(key)
                    if got is not None and got != payload:
                        errors.append("reader observed a foreign payload")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # exactly one complete, valid document survives
        assert len(store) == 1
        assert store.get(key) == payload
        assert not list(store.root.glob("*.tmp"))  # no leaked temp files


# --------------------------------------------------------------------------- #
# Timing rows bounded by the plan cache
# --------------------------------------------------------------------------- #
def _execute_plan(rank: int) -> str:
    """Execute the MTTKRP of factor rank *rank* (one plan per rank) and
    return the digest its timing rows carry."""
    T = random_sparse_tensor((30, 25, 20), nnz=400, seed=0)
    B = random_dense_matrix(25, rank, seed=1)
    C = random_dense_matrix(20, rank, seed=2)
    tensors = {"T": T, "B": B, "C": C}
    kernel = parse_kernel("ijk,ja,ka->ia", [T, B, C], names=list(tensors))
    nest = cached_schedule(kernel).loop_nest
    LoopNestExecutor(kernel, nest).execute(tensors)
    return key_digest(
        plan_key(kernel, nest, operands=operand_signature(kernel, tensors))
    )


class TestBoundedTimings:
    def test_lru_eviction_over_cap(self, monkeypatch):
        monkeypatch.setattr(default_plan_cache(), "max_entries", 4)
        evictions = default_plan_cache().evictions
        digests = [_execute_plan(rank) for rank in range(1, 7)]
        assert default_plan_cache().evictions - evictions == 2
        # one row per (plan, engine, phase), for the cached plans only
        rows = plan_timings_snapshot()
        assert len(rows) == 2 * len(default_plan_cache()) == 8
        # the oldest plans aged out with their rows, the newest survive
        surviving = {row["digest"] for row in rows}
        assert digests[0] not in surviving and digests[1] not in surviving
        assert set(digests[2:]) == surviving

    def test_recent_signature_survives_by_recency(self, monkeypatch):
        monkeypatch.setattr(default_plan_cache(), "max_entries", 2)
        first, second = _execute_plan(1), _execute_plan(2)
        assert _execute_plan(1) == first  # refresh plan 1
        third = _execute_plan(3)  # evicts plan 2, not plan 1
        surviving = {row["digest"] for row in plan_timings_snapshot()}
        assert surviving == {first, third}
        assert second not in surviving

    def test_phase_rows_count_separately(self, monkeypatch):
        monkeypatch.setattr(default_plan_cache(), "max_entries", 8)
        digest = _execute_plan(1)
        _execute_plan(1)
        rows = plan_timings_snapshot()
        assert {row["phase"] for row in rows} == {"prepare", "execute"}
        assert {row["digest"] for row in rows} == {digest}
        assert [row["count"] for row in rows] == [2, 2]

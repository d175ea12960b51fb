"""Deterministic fault injection and supervised worker-pool recovery.

Unit tests for the :mod:`repro.util.faults` registry (grammar, seeding,
limits, the wired ``shm.publish``/``store.write`` points) and for the
supervised :class:`~repro.runtime.WorkerPool` map: SIGKILLed workers and
stuck tasks are detected, the pool respawns and retries, and the serial
fallback guarantees bit-identical results when retries run out.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro.runtime.pool as pool_mod
from repro.engine.plan_store import PlanStore
from repro.runtime import (
    WorkerPool,
    publish,
    shared_pool,
    shutdown_pool,
    supervision_events,
)
from repro.runtime.pool import default_task_retries, default_task_timeout
from repro.util.faults import (
    FaultInjected,
    configure_faults,
    fault_point,
    faults_active,
    faults_snapshot,
    parse_faults,
    reset_faults,
)


class Square:
    """Picklable module-level callable for pool tests."""

    def __call__(self, x):
        return x * x


class SlowSquare:
    """Square with a fixed per-task delay (timeout tests)."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __call__(self, x):
        time.sleep(self.seconds)
        return x * x


class CrashOnce:
    """SIGKILL the executing worker until a sentinel file exists.

    The first worker to run a task drops the sentinel and dies; after the
    supervised retry respawns the pool, every task sees the sentinel and
    completes — the retry itself succeeds in parallel, no serial fallback.
    """

    def __init__(self, sentinel: str) -> None:
        self.sentinel = sentinel

    def __call__(self, x):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w") as fh:
                fh.write(str(os.getpid()))
            _die_if_worker()
        return x * x


def _die_if_worker() -> None:
    """SIGKILL this process, unless it is the test process itself."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)


class LogThenCrashOnce:
    """Append the argument to a log; the worker given item *victim* dies once."""

    def __init__(self, log: str, sentinel: str, victim: int) -> None:
        self.log, self.sentinel, self.victim = log, sentinel, victim

    def __call__(self, x):
        with open(self.log, "a") as fh:
            fh.write(f"{x}\n")
        if x == self.victim and not os.path.exists(self.sentinel):
            open(self.sentinel, "w").close()
            _die_if_worker()
        return x * x


class CrashTogetherOnce:
    """The first two workers to run a task wait for each other, then both die."""

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def __call__(self, x):
        if len(os.listdir(self.directory)) < 2:
            open(os.path.join(self.directory, str(os.getpid())), "w").close()
            deadline = time.monotonic() + 10.0
            while len(os.listdir(self.directory)) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            _die_if_worker()
        return x * x


class RaiseOn:
    """Square, except that the items in *bad* raise."""

    def __init__(self, *bad: int) -> None:
        self.bad = bad

    def __call__(self, x):
        if x in self.bad:
            raise ValueError(f"bad item {x}")
        return x * x


def return_a_lock(_):
    """A result no pickler accepts."""
    return threading.Lock()


def report_sigterm_disposition(_):
    """Worker-side probe: is SIGTERM back at the OS default?"""
    return signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


@pytest.fixture(autouse=True)
def _fresh_faults():
    """No fault plan and no lingering (plan-inheriting) pools around tests."""
    shutdown_pool()
    configure_faults(None)
    yield
    shutdown_pool()
    reset_faults()


# --------------------------------------------------------------------------- #
# Plan grammar
# --------------------------------------------------------------------------- #
class TestParseFaults:
    def test_grammar_and_defaults(self):
        specs = parse_faults("pool.task:kill, serve.execute:delay, a.b:raise:0.5:3")
        assert set(specs) == {"pool.task", "serve.execute", "a.b"}
        assert specs["pool.task"].mode == "kill"
        assert specs["pool.task"].arg == 1.0  # kill/raise default: always fire
        assert specs["pool.task"].limit is None
        assert specs["serve.execute"].mode == "delay"
        assert specs["serve.execute"].arg == 0.05  # delay default: 50 ms
        assert specs["a.b"] .arg == 0.5
        assert specs["a.b"].limit == 3

    def test_empty_plans_parse_to_nothing(self):
        assert parse_faults(None) == {}
        assert parse_faults("") == {}
        assert parse_faults("  , ") == {}

    @pytest.mark.parametrize(
        "bad",
        [
            "justapoint",  # no mode
            "p:frobnicate",  # unknown mode
            ":kill",  # empty point
            "p:kill:x",  # non-numeric arg
            "p:kill:-1",  # negative arg
            "p:raise:0.5:x",  # non-integer limit
            "p:raise:1:-2",  # negative limit
            "p:kill:1:1:1",  # too many fields
        ],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(ValueError, match="bad fault spec"):
            parse_faults(bad)


# --------------------------------------------------------------------------- #
# The registry
# --------------------------------------------------------------------------- #
class TestFaultPoint:
    def test_unconfigured_is_a_noop(self):
        assert not faults_active()
        fault_point("pool.task")  # must not raise
        assert faults_snapshot()["configured"] is None

    def test_raise_mode_fires_only_its_point(self):
        configure_faults("x.y:raise")
        fault_point("other.point")  # not in the plan
        with pytest.raises(FaultInjected, match="x.y"):
            fault_point("x.y")

    def test_limit_caps_firing_per_process(self):
        configure_faults("x.y:raise:1.0:2")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                fault_point("x.y")
        fault_point("x.y")  # third hit: limit reached, no-op
        point = faults_snapshot()["points"]["x.y"]
        assert point["hits"] == 3
        assert point["fired"] == 2

    def test_probability_is_deterministic_per_seed(self):
        def outcomes(seed):
            configure_faults("x.y:raise:0.5", seed=seed)
            fired = []
            for _ in range(32):
                try:
                    fault_point("x.y")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first = outcomes(7)
        assert outcomes(7) == first  # same plan + seed -> same decisions
        assert any(first) and not all(first)  # p=0.5 actually mixes

    def test_delay_mode_sleeps(self):
        configure_faults("x.y:delay:0.05")
        t0 = time.perf_counter()
        fault_point("x.y")
        assert time.perf_counter() - t0 >= 0.04

    def test_kill_mode_is_survivable_in_the_parent(self):
        # in the parent process a kill plan downgrades to a no-op, so
        # serial fallbacks and the daemon survive by construction
        configure_faults("x.y:kill")
        fault_point("x.y")
        assert faults_snapshot()["points"]["x.y"]["fired"] == 1


# --------------------------------------------------------------------------- #
# Wired injection points
# --------------------------------------------------------------------------- #
class TestWiredPoints:
    def test_shm_publish_fault_reaches_the_caller(self):
        configure_faults("shm.publish:raise")
        with pytest.raises(FaultInjected):
            publish({"A": np.ones(16)})

    def test_plan_store_write_fault_degrades_to_miss(self, tmp_path):
        store = PlanStore(tmp_path)
        configure_faults("store.write:raise")
        assert store.put("some-key", {"x": 1}) is False
        assert store.errors == 1
        assert store.get("some-key") is None  # degraded write == miss
        configure_faults(None)
        assert store.put("some-key", {"x": 1}) is True
        assert store.get("some-key") is not None


# --------------------------------------------------------------------------- #
# Supervised pool recovery
# --------------------------------------------------------------------------- #
class TestSupervisedPool:
    def test_killed_workers_fall_back_to_bit_identical_serial(self):
        configure_faults("pool.task:kill")  # every worker task dies
        before = supervision_events()
        with WorkerPool(2, task_retries=1) as pool:
            with pytest.warns(RuntimeWarning, match="worker died mid-map"):
                assert pool.map(Square(), range(8)) == [x * x for x in range(8)]
            stats = pool.stats()
        # first attempt crashes, the retry's respawned workers crash too,
        # then the serial fallback (where kill is a no-op) answers
        assert stats["crashes"] == 2
        assert stats["retries"] == 1
        assert stats["respawns"] == 1
        assert stats["serial_maps"] == 1
        after = supervision_events()
        assert after["crashes"] >= before["crashes"] + 2
        assert after["last_crash_unix"] is not None

    def test_transient_crash_retries_to_a_parallel_success(self, tmp_path):
        task = CrashOnce(str(tmp_path / "sentinel"))
        with WorkerPool(2, task_retries=1) as pool:
            assert pool.map(task, range(8)) == [x * x for x in range(8)]
            stats = pool.stats()
        assert stats["crashes"] == 1
        assert stats["retries"] == 1
        assert stats["serial_maps"] == 0  # the retry itself succeeded

    def test_a_crash_re_runs_only_the_chunk_it_lost(self, tmp_path):
        log = tmp_path / "log"
        task = LogThenCrashOnce(str(log), str(tmp_path / "sentinel"), victim=5)
        with WorkerPool(2, task_retries=1) as pool:
            assert pool.map(task, range(16)) == [x * x for x in range(16)]  # chunks of 2
            stats = pool.stats()
        assert (stats["crashes"], stats["retries"], stats["serial_maps"]) == (1, 1, 0)
        runs = Counter(int(line) for line in log.read_text().split())
        # the chunk (4, 5) died with its worker and ran again; nothing else did
        assert runs == Counter({x: 2 if x in (4, 5) else 1 for x in range(16)})

    def test_two_workers_dying_in_one_round_are_one_event(self, tmp_path):
        with WorkerPool(2, task_retries=1) as pool:
            pool.map(Square(), range(2))
            first = pool.worker_pids()
            task = CrashTogetherOnce(str(tmp_path))
            assert pool.map(task, range(8)) == [x * x for x in range(8)]
            stats = pool.stats()
            assert not set(first) & set(pool.worker_pids())  # both were replaced
        assert sorted(os.listdir(tmp_path)) == sorted(map(str, first))  # both did die
        # one round, one event: a per-death budget would have gone serial here
        assert stats["crashes"] == 1
        assert stats["retries"] == 1
        assert stats["respawns"] == 1
        assert stats["serial_maps"] == 0

    def test_task_exception_reaches_the_caller_and_spares_the_workers(self):
        with WorkerPool(2) as pool:
            assert pool.map(Square(), range(4)) == [0, 1, 4, 9]
            workers = pool.worker_pids()
            # both first chunks raise, in whatever order: the lowest index wins
            with pytest.raises(ValueError, match="bad item 1"):
                pool.map(RaiseOn(1, 3), range(12))
            assert pool.map(Square(), range(4)) == [0, 1, 4, 9]
            assert pool.worker_pids() == workers
            assert pool.stats()["crashes"] == 0

    def test_unpicklable_result_is_an_error_not_a_crash(self):
        with WorkerPool(2) as pool:
            with pytest.raises(TypeError, match="pickle"):
                pool.map(return_a_lock, range(4))
            workers = pool.worker_pids()
            assert pool.map(Square(), range(4)) == [0, 1, 4, 9]
            assert pool.worker_pids() == workers
            assert pool.stats()["crashes"] == 0

    def test_drain_from_another_thread_waits_for_the_running_map(self):
        pool = WorkerPool(2)
        results = []
        mapper = threading.Thread(
            target=lambda: results.append(pool.map(SlowSquare(0.2), range(4)))
        )
        mapper.start()
        give_up = time.monotonic() + 10.0
        while not pool.is_running and time.monotonic() < give_up:
            time.sleep(0.005)
        assert pool.is_running  # the map has forked its workers and holds the pool
        t0 = time.perf_counter()
        pool.drain()
        waited = time.perf_counter() - t0
        mapper.join(10.0)
        assert not mapper.is_alive()
        assert results == [[0, 1, 4, 9]]  # nothing was killed under the map
        assert waited >= 0.25  # two 0.2 s tasks per worker were still to run
        assert not pool.is_running
        assert (pool.stats()["crashes"], pool.stats()["serial_maps"]) == (0, 0)

    def test_task_timeout_triggers_serial_fallback(self):
        with WorkerPool(2, task_timeout=0.15, task_retries=0) as pool:
            with pytest.warns(RuntimeWarning, match="task timeout"):
                assert pool.map(SlowSquare(0.4), [1, 2]) == [1, 4]
            assert pool.stats()["timeouts"] == 1
            assert pool.stats()["serial_maps"] == 1

    def test_workers_shed_inherited_asyncio_signal_plumbing(self):
        """Forked workers must not share the parent's signal wakeup pipe.

        A worker forked from an asyncio parent (the serving daemon)
        inherits the loop's no-op SIGTERM handler and wakeup fd; without
        the worker resetting them, a SIGTERM (the interpreter's exit sweep
        over daemonic children, a process-group signal) would not end it
        *and* would write into the shared pipe — which the parent's loop
        reads as its own SIGTERM, shutting the daemon down mid-session.
        """
        read_fd, write_fd = os.pipe()
        os.set_blocking(write_fd, False)
        old_fd = signal.set_wakeup_fd(write_fd)
        old_handler = signal.signal(signal.SIGTERM, lambda *a: None)
        try:
            with WorkerPool(2) as pool:
                # workers see the default disposition, not the no-op
                assert all(pool.map(report_sigterm_disposition, range(4)))
                for pid in pool.worker_pids():
                    os.kill(pid, signal.SIGTERM)
                pool.close()
            # ...and nothing leaked into the parent's wakeup pipe
            os.set_blocking(read_fd, False)
            with pytest.raises(BlockingIOError):
                os.read(read_fd, 1)
        finally:
            signal.signal(signal.SIGTERM, old_handler)
            signal.set_wakeup_fd(old_fd)
            os.close(read_fd)
            os.close(write_fd)

    @pytest.mark.parametrize("teardown", ["close", "drain"])
    def test_teardown_survives_externally_killed_idle_workers(self, teardown):
        """Idle workers killed from outside must not deadlock teardown.

        A process-group SIGTERM (systemd stopping the daemon's cgroup) or
        the OOM killer ends idle workers while they block reading their
        pipe.  The pool shares no lock with its workers (a lock dies with
        its holder: CPython bpo-22393), so ``close()``, ``drain()`` and
        garbage collection must all complete on the corpses.
        """
        import gc

        pool = WorkerPool(2)
        assert pool.map(Square(), range(8)) == [x * x for x in range(8)]
        procs = [
            p for p in multiprocessing.active_children() if p.pid in pool.worker_pids()
        ]
        assert len(procs) == 2
        for p in procs:
            os.kill(p.pid, signal.SIGKILL)
        for p in procs:
            p.join(5.0)
        assert all(p.exitcode is not None for p in procs)

        def tear_down():
            getattr(pool, teardown)()  # must release the orphaned lock
            gc.collect()  # ...and the GC finalizer must complete too

        worker = threading.Thread(target=tear_down, daemon=True)
        worker.start()
        worker.join(20.0)
        assert not worker.is_alive(), f"{teardown}() hung on dead workers"
        assert not pool.is_running

    def test_stats_surface_the_supervision_knobs(self):
        with WorkerPool(2, task_timeout=2.5, task_retries=3) as pool:
            stats = pool.stats()
        assert stats["task_timeout"] == 2.5
        assert stats["task_retries"] == 3


class TestEnvKnobs:
    def test_task_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert default_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
        assert default_task_timeout() is None
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_TIMEOUT"):
            monkeypatch.setenv("REPRO_TASK_TIMEOUT", "soon")
            assert default_task_timeout() is None

    def test_task_retries_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
        assert default_task_retries() == 1
        monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
        assert default_task_retries() == 3
        monkeypatch.setenv("REPRO_TASK_RETRIES", "-2")
        assert default_task_retries() == 0
        with pytest.warns(RuntimeWarning, match="REPRO_TASK_RETRIES"):
            monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
            assert default_task_retries() == 1


class TestSharedPoolEviction:
    def test_lru_eviction_drains_instead_of_terminating(self, monkeypatch):
        drained, closed = [], []
        orig_drain = pool_mod.WorkerPool.drain
        monkeypatch.setattr(
            pool_mod.WorkerPool,
            "drain",
            lambda self: (drained.append(self.workers), orig_drain(self)),
        )
        monkeypatch.setattr(
            pool_mod.WorkerPool,
            "close",
            lambda self: closed.append(self.workers),
        )
        for n in range(2, 2 + pool_mod._MAX_SHARED_POOLS + 1):
            shared_pool(n)
        # one size over the cap: the least-recently-used pool is drained
        # (graceful — another thread may be mid-map on it), never closed
        assert drained == [2]
        assert closed == []

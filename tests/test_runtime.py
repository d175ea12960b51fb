"""Tests for the shared parallel runtime (pool, shm broadcast, reductions)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.runtime import (
    WorkerPool,
    attach,
    default_workers,
    detach_all,
    parallel_map,
    publish,
    resolve_workers,
    shared_pool,
    shutdown_pool,
    tree_reduce,
)


class Square:
    """Picklable module-level callable for pool tests."""

    def __call__(self, x):
        return x * x


class WorkerPid:
    """Returns the executing process id (proves cross-process execution)."""

    def __call__(self, x):
        return os.getpid()


class ReadShared:
    """Reads one element of a published array inside a worker."""

    def __init__(self, handle, index):
        self.handle = handle
        self.index = index

    def __call__(self, _):
        arr = attach(self.handle)
        return (os.getpid(), float(arr[self.index]), bool(arr.flags.writeable))


@pytest.fixture(autouse=True)
def _fresh_runtime():
    """Each test starts and ends without a lingering shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()
    detach_all()


class TestResolveWorkersEnv:
    def test_env_provides_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        assert resolve_workers(None) == 3
        # explicit requests beat the environment; 0 forces serial
        assert resolve_workers(0) == 1
        assert resolve_workers(2) == 2

    def test_invalid_env_means_serial_but_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        # an unparseable value behaves like unset, but names the bad value
        # loudly instead of silently degrading the deployment to serial
        with pytest.warns(RuntimeWarning, match="not-a-number"):
            assert default_workers() is None
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers(None) == 1
        # whitespace-only counts as unset: no warning
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers(None) == 1

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(-1) >= 1


class TestWorkerPool:
    def test_map_matches_serial(self):
        with WorkerPool(2) as pool:
            items = list(range(23))
            assert pool.map(Square(), items) == [x * x for x in items]

    def test_map_runs_in_worker_processes(self):
        with WorkerPool(2) as pool:
            pids = set(pool.map(WorkerPid(), range(8)))
        assert os.getpid() not in pids

    def test_pool_persists_across_maps(self):
        with WorkerPool(2) as pool:
            pool.map(Square(), range(4))
            first = pool.worker_pids()
            assert len(first) == 2
            pool.map(Square(), range(4))
            assert pool.worker_pids() == first

    def test_serial_fallbacks(self):
        with WorkerPool(2) as pool:
            assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]  # unpicklable
            assert pool.map(Square(), []) == []
            assert pool.map(Square(), [5]) == [25]
            assert not pool.is_running  # nothing above needed real workers

    def test_close_is_idempotent_and_restartable(self):
        pool = WorkerPool(2)
        pool.map(Square(), range(4))
        assert pool.is_running
        pool.close()
        pool.close()
        assert not pool.is_running
        assert pool.map(Square(), range(4)) == [x * x for x in range(4)]
        pool.close()


class TestSharedPool:
    def test_shared_pool_is_persistent_and_keyed_by_size(self):
        p2 = shared_pool(2)
        assert shared_pool(2) is p2
        p3 = shared_pool(3)
        assert p3 is not p2
        assert p3.workers == 3
        # alternating sizes must not thrash: both pools stay alive
        assert shared_pool(2) is p2
        assert shared_pool(3) is p3

    def test_parallel_map_uses_the_shared_pool(self):
        assert parallel_map(Square(), range(10), workers=2) == [
            x * x for x in range(10)
        ]
        workers = shared_pool(2).worker_pids()
        assert len(workers) == 2
        parallel_map(Square(), range(10), workers=2)
        assert shared_pool(2).worker_pids() == workers  # no fork per call

    def test_shutdown_pool(self):
        parallel_map(Square(), range(6), workers=2)
        shutdown_pool()
        # a fresh pool comes up transparently afterwards
        assert parallel_map(Square(), range(6), workers=2) == [
            x * x for x in range(6)
        ]


class TestSharedMemoryBroadcast:
    def test_publish_attach_roundtrip_in_process(self):
        a = np.arange(24, dtype=np.float64).reshape(4, 6)
        b = np.ones((3, 2))
        with publish({"A": a, "B": b}) as bc:
            assert bc.shared_bytes == a.nbytes + b.nbytes
            got_a = attach(bc.handles["A"])
            got_b = attach(bc.handles["B"])
            np.testing.assert_array_equal(got_a, a)
            np.testing.assert_array_equal(got_b, b)
            assert not got_a.flags.writeable
            # attachments are cached per segment
            assert attach(bc.handles["A"]) is got_a

    def test_empty_array_travels_inline(self):
        empty = np.zeros((0, 5))
        with publish({"E": empty}) as bc:
            handle = bc.handles["E"]
            assert handle.segment is None
            np.testing.assert_array_equal(attach(handle), empty)

    def test_close_is_idempotent(self):
        with publish({"A": np.ones(8)}) as bc:
            pass
        bc.close()  # second close is a no-op

    def test_workers_read_published_arrays_without_pickling_them(self):
        arr = np.arange(1000, dtype=np.float64)
        with publish({"A": arr}) as bc:
            task = ReadShared(bc.handles["A"], index=123)
            results = parallel_map(task, range(6), workers=2)
        pids = {pid for pid, _, _ in results}
        assert os.getpid() not in pids
        assert all(value == 123.0 for _, value, _ in results)
        assert all(writeable is False for _, _, writeable in results)


class TestResourceTracker:
    def test_workers_forked_before_the_first_publish_share_the_tracker(self):
        """A pool forked *before* anything was published must not leak-warn.

        Such workers used to start resource trackers of their own, each of
        which reported every segment its worker attached as leaked at exit
        (and unlinked it a second time).
        """
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from repro.runtime import attach, publish, shared_pool, shutdown_pool

            def read(handle):
                return float(attach(handle)[7])

            pool = shared_pool(2)
            assert pool.map(abs, [-1, -2]) == [1, 2]  # forks, nothing published yet
            with publish({"A": np.arange(1000.0)}) as bc:
                assert pool.map(read, [bc.handles["A"]] * 4) == [7.0] * 4
            shutdown_pool()
            assert "multiprocessing.pool" not in sys.modules  # the pool is our own
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr


class TestTreeReduce:
    def test_single_item_returned_as_is(self):
        x = np.ones(3)
        assert tree_reduce([x], np.add) is x

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_reduce([], np.add)

    def test_concatenation_matches_left_fold_exactly(self):
        parts = [list(range(i * 3, i * 3 + 3)) for i in range(7)]
        folded = []
        for p in parts:
            folded = folded + p
        assert tree_reduce(parts, lambda a, b: a + b) == folded

    def test_sum_matches_fold_numerically(self):
        rng = np.random.default_rng(3)
        parts = [rng.standard_normal(50) for _ in range(9)]
        fold = np.zeros(50)
        for p in parts:
            fold = fold + p
        np.testing.assert_allclose(tree_reduce(parts, np.add), fold, rtol=1e-12)

    def test_deterministic_shape(self):
        # the combination structure depends only on the item count
        calls = []

        def combine(a, b):
            calls.append((a, b))
            return f"({a}+{b})"

        result = tree_reduce(["p0", "p1", "p2", "p3", "p4"], combine)
        assert result == "(((p0+p1)+(p2+p3))+p4)"

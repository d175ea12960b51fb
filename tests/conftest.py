"""Shared fixtures for the test suite.

All fixtures use small tensor sizes so the full suite runs in a few minutes;
correctness of the loop-nest machinery does not depend on scale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import repro
from repro.core.expr import parse_kernel
from repro.engine.plan_cache import clear_caches
from repro.serve.request import all_mode_ttmc_request, mttkrp_request, ttmc_request
from repro.sptensor import (
    COOTensor,
    random_dense_matrix,
    random_sparse_tensor,
)

# --------------------------------------------------------------------------- #
# Hypothesis settings profiles
# --------------------------------------------------------------------------- #
# Both profiles are *derandomized*: example generation is seeded from the
# test name, so a property-test run is reproducible locally and in CI (no
# flaky examples appearing only on one machine, no reliance on the example
# database).  ``ci`` is the default; select with HYPOTHESIS_PROFILE=dev for
# deeper local sweeps.
_COMMON = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile("ci", max_examples=25, **_COMMON)
settings.register_profile("dev", max_examples=100, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Drop the process-wide plan/schedule caches around every test.

    The caches are keyed structurally, so leaking a plan built by one test
    into another is normally harmless — but a test that mutates executor
    internals (or asserts on cold-start behaviour) must not observe state
    from an unrelated test.  Clearing on both sides keeps every test
    hermetic.

    Per-plan timings live on the cached plans and go with them.
    """
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_coo():
    """A tiny deterministic order-3 sparse tensor."""
    indices = [
        (0, 0, 0),
        (0, 1, 2),
        (1, 0, 1),
        (1, 2, 0),
        (2, 1, 1),
        (3, 2, 2),
        (3, 0, 0),
    ]
    values = [1.0, 2.0, -1.5, 0.5, 3.0, -2.0, 4.0]
    return COOTensor((4, 3, 3), indices, values)


@pytest.fixture
def random_coo3():
    """A random order-3 sparse tensor of moderate density."""
    return random_sparse_tensor((18, 15, 12), density=0.03, seed=7)


@pytest.fixture(scope="session")
def benchmark_requests(benchmark_tensor):
    """The e2e benchmark's tensor (nell-2, 60k nnz) and its seven kernels.

    Session-scoped: no tier writes into an operand (the read-only-operand
    conformance test checks that on these very requests).
    """
    tensor = benchmark_tensor
    rng = np.random.default_rng(0)
    wide = [rng.random((dim, 32)) for dim in tensor.shape]
    narrow = [rng.random((dim, 8)) for dim in tensor.shape]

    def without(items, mode):
        return [f for n, f in enumerate(items) if n != mode]

    modes = range(tensor.order)
    requests = [mttkrp_request(tensor, without(wide, m), mode=m) for m in modes]
    requests += [ttmc_request(tensor, without(narrow, m), mode=m) for m in modes]
    return requests + [all_mode_ttmc_request(tensor, narrow)]


@pytest.fixture(scope="session")
def harness_workloads():
    """``benchmarks/e2e/workloads.py``, loaded by path (it imports nothing heavy)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def benchmark_tensor(harness_workloads, tmp_path_factory):
    """The ``cp_als`` / ``hooi`` benchmark tensor (one 60k-nnz nell-2 pattern)."""
    directory = tmp_path_factory.mktemp("e2e")
    harness_workloads.generate("hooi", 0, directory)
    return harness_workloads.load("hooi", 0, directory)[1]


@pytest.fixture
def executed_scalar_ops(monkeypatch):
    """A one-item list: the scalar operations every executor ran in the test.

    Counted the way the benchmark's ``engine.execute`` span counts
    ``engine.scalar_ops``: the executor's flop counter across each
    ``LoopNestExecutor.execute`` call.  The totals are tier-independent.
    """
    from repro.engine.executor import LoopNestExecutor

    total = [0]
    execute = LoopNestExecutor.execute

    def counted(self, *args, **kwargs):
        before = self.counter.flops
        try:
            return execute(self, *args, **kwargs)
        finally:
            total[0] += self.counter.flops - before

    monkeypatch.setattr(LoopNestExecutor, "execute", counted)
    return total


@pytest.fixture
def random_coo4():
    """A random order-4 sparse tensor."""
    return random_sparse_tensor((10, 9, 8, 7), density=0.02, seed=11)


@pytest.fixture
def mttkrp_setup(random_coo3):
    """(kernel, tensors dict) for an order-3 MTTKRP with R=5."""
    T = random_coo3
    B = random_dense_matrix(T.shape[1], 5, seed=1)
    C = random_dense_matrix(T.shape[2], 5, seed=2)
    kernel = parse_kernel("ijk,ja,ka->ia", [T, B, C], names=["T", "B", "C"])
    return kernel, {"T": T, "B": B, "C": C}


@pytest.fixture
def ttmc_setup(random_coo3):
    """(kernel, tensors dict) for an order-3 TTMc with R=4, S=5."""
    T = random_coo3
    U = random_dense_matrix(T.shape[1], 4, seed=3)
    V = random_dense_matrix(T.shape[2], 5, seed=4)
    kernel = parse_kernel("ijk,jr,ks->irs", [T, U, V], names=["T", "U", "V"])
    return kernel, {"T": T, "U": U, "V": V}


@pytest.fixture
def ttmc4_setup(random_coo4):
    """(kernel, tensors dict) for an order-4 TTMc."""
    T = random_coo4
    U = random_dense_matrix(T.shape[1], 3, seed=5)
    V = random_dense_matrix(T.shape[2], 4, seed=6)
    W = random_dense_matrix(T.shape[3], 3, seed=7)
    kernel = parse_kernel(
        "ijkl,jr,ks,lt->irst", [T, U, V, W], names=["T", "U", "V", "W"]
    )
    return kernel, {"T": T, "U": U, "V": V, "W": W}


@pytest.fixture
def tttp_setup(random_coo3):
    """(kernel, tensors dict) for an order-3 TTTP (sparse-pattern output)."""
    T = random_coo3
    A = random_dense_matrix(T.shape[0], 4, seed=8)
    B = random_dense_matrix(T.shape[1], 4, seed=9)
    C = random_dense_matrix(T.shape[2], 4, seed=10)
    kernel = parse_kernel(
        "ijk,ir,jr,kr->ijk", [T, A, B, C], names=["T", "A", "B", "C"]
    )
    return kernel, {"T": T, "A": A, "B": B, "C": C}


@pytest.fixture
def allmode_setup(random_coo3):
    """(kernel, tensors dict) for the order-3 all-mode TTMc."""
    T = random_coo3
    U = random_dense_matrix(T.shape[0], 3, seed=11)
    V = random_dense_matrix(T.shape[1], 4, seed=12)
    W = random_dense_matrix(T.shape[2], 3, seed=13)
    kernel = parse_kernel(
        "ijk,ir,js,kt->rst", [T, U, V, W], names=["T", "U", "V", "W"]
    )
    return kernel, {"T": T, "U": U, "V": V, "W": W}


ALL_KERNEL_FIXTURES = [
    "mttkrp_setup",
    "ttmc_setup",
    "ttmc4_setup",
    "tttp_setup",
    "allmode_setup",
]

"""Import-graph gate: a cold start loads only the modules its path runs.

The path checks run in fresh interpreters, because this test process has
long since imported everything.  They count modules, not seconds, so they
hold on any host.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

#: Loaded only by code that uses them: the daemon and the service behind it,
#: the worker pool, the trace exporter, the sweeps and the baselines.  scipy
#: loads at the first jit bind.
NOT_ON_COLD_PATHS = (
    "scipy.sparse",
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "repro.serve.daemon",
    "repro.serve.service",
    "repro.runtime",
    "repro.obs.export",
    "repro.distributed",
    "repro.frameworks",
    "repro.core.search",
)

COLD_PATHS = {
    "app": "import repro, repro.engine, repro.apps.cp_als, repro.apps.tucker_hooi",
    "client": "from repro.serve import ServeClient, scenario_mix",
}

PACKAGES = (
    "repro",
    "repro.apps",
    "repro.core",
    "repro.distributed",
    "repro.engine",
    "repro.engine.lowering",
    "repro.frameworks",
    "repro.kernels",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
    "repro.sptensor",
    "repro.util",
)


def _fresh(code: str) -> str:
    """Stdout of *code* run by a new interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_a_cold_path_loads_only_what_it_runs(path):
    loaded = _fresh(f"{COLD_PATHS[path]}\nimport sys\nprint(*sys.modules)").split()
    assert "repro" in loaded
    assert sorted(set(NOT_ON_COLD_PATHS) & set(loaded)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    assert set(module.__all__) <= set(dir(module))
    assert not hasattr(module, "no_such_name")


def test_kernel_and_app_functions_are_not_shadowed_by_their_submodules():
    # the function shares its submodule's name: importing the submodule
    # first must not leave the module object where the function belongs
    _fresh(
        "import repro.kernels.mttkrp, repro.apps.cp_als\n"
        "from repro.kernels import mttkrp, ttmc, tttp, tttc\n"
        "from repro.apps import cp_als\n"
        "assert all(map(callable, (mttkrp, ttmc, tttp, tttc, cp_als)))\n"
    )


def test_csf_conversion_loads_nothing_above_the_sparse_tensor_layer():
    # the structure memo is an instance of the shared LRU in repro.util, so
    # converting COO to CSF never reaches up into the engine or beyond
    loaded = _fresh(
        "import repro.sptensor.csf as csf\n"
        "from repro.sptensor import random_sparse_tensor\n"
        "T = random_sparse_tensor((8, 7, 6), nnz=30, seed=0)\n"
        "csf.csf_for_mode_order(T, (2, 0, 1))\n"
        "import sys\n"
        "print(*sys.modules)\n"
    ).split()
    assert "repro.util.lru" in loaded
    above = {"repro.engine", "repro.serve", "repro.runtime"}
    assert sorted(m for m in loaded if ".".join(m.split(".")[:2]) in above) == []


def test_running_the_apps_loads_no_dense_scipy_linalg():
    # the normal equations are NumPy's LU solve; scipy.linalg would add its
    # import time to every app's cold start
    loaded = _fresh(
        "from repro.apps import cp_als, tucker_hooi\n"
        "from repro.sptensor import random_sparse_tensor\n"
        "T = random_sparse_tensor((8, 7, 6), nnz=40, seed=0)\n"
        "cp_als(T, 3, iterations=2)\n"
        "tucker_hooi(T, (2, 2, 2), iterations=2)\n"
        "import sys\n"
        "print(*sys.modules)\n"
    ).split()
    assert "scipy.sparse" in loaded  # the jit tier ran
    assert sorted(m for m in loaded if m.split(".")[:2] == ["scipy", "linalg"]) == []

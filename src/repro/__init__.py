"""SpTTN-Cyclops reproduction.

A pure-Python reproduction of *"Minimum Cost Loop Nests for Contraction of a
Sparse Tensor with a Tensor Network"* (Kanakagiri & Solomonik, SPAA 2024):
cost-model-driven selection and execution of fully-fused loop nests for
contractions of one sparse tensor with a network of dense tensors (SpTTN
kernels), plus baselines, kernels, decomposition/completion applications and
a simulated distributed-memory runtime.

Quick start
-----------
>>> import repro
>>> T = repro.random_sparse_tensor((50, 40, 30), density=0.01, seed=0)
>>> B = repro.random_dense_matrix(40, 8, seed=1)
>>> C = repro.random_dense_matrix(30, 8, seed=2)
>>> out, schedule = repro.contract("ijk,ja,ka->ia", [T, B, C])   # MTTKRP
>>> out.shape
(50, 8)
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": (
        "SpTTNKernel", "parse_kernel", "ContractionPath", "enumerate_contraction_paths",
        "rank_contraction_paths", "LoopNest", "LoopOrder", "MaxBufferDimCost",
        "MaxBufferSizeCost", "CacheMissCost", "ExecutionCost", "evaluate_cost",
        "find_optimal_loop_order", "SpTTNScheduler", "Schedule", "ExecutionRunner",
        "SweepResult", "measure_loop_nests", "sweep_loop_nests", "sweep_loop_orders",
    ),
    ".engine": (
        "LoopNestExecutor", "PlanCache", "cached_executor", "cached_schedule",
        "default_plan_cache", "execute_kernel",
    ),
    ".runtime": ("WorkerPool", "parallel_map", "resolve_workers", "shutdown_pool"),
    ".serve": ("ContractionRequest", "ContractionService", "scenario_mix"),
    ".sptensor": (
        "COOTensor", "CSFTensor", "random_sparse_tensor",
        "random_dense_matrix", "power_law_sparse_tensor", "read_tns", "write_tns",
        "load_preset", "dataset_presets",
    ),
    ".util": ("OpCounter",),
})
__all__ += ["contract", "__version__"]

__version__ = "1.0.0"


def contract(*args, **kwargs):
    """Convenience alias of :func:`repro.engine.execute_kernel`: parse, schedule
    and execute a kernel in one call."""
    from repro.engine.executor import execute_kernel

    return execute_kernel(*args, **kwargs)

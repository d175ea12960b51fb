"""Core algorithms of the reproduction.

This subpackage contains the paper's primary contribution:

* :mod:`repro.core.expr` — SpTTN kernel intermediate representation
  (einsum-style parsing and validation, Section 3 of the paper).
* :mod:`repro.core.contraction_path` — contraction paths (Definition 3.1)
  and their enumeration (Section 4.1.1).
* :mod:`repro.core.loop_nest` — loop orders, peeling, fully-fused loop nest
  forests and intermediate-buffer inference (Definitions 3.2, 4.1–4.3,
  Equation 5).
* :mod:`repro.core.cost_model` — tree-separable cost functions
  (Definitions 4.4–4.6) plus the BLAS-aware execution-cost model used by
  the default scheduler (Section 5/7).
* :mod:`repro.core.optimizer` — Algorithm 1, the dynamic-programming search
  for cost-optimal loop orders, with memoization.
* :mod:`repro.core.enumeration` — exhaustive enumeration of loop orders and
  loop nests for autotuning (Section 4.1.2).
* :mod:`repro.core.scheduler` — the end-to-end schedule selection used by
  the runtime (sweep contraction paths in asymptotic-cost order, run the DP,
  apply constraints; Section 5).
* :mod:`repro.core.autotune` — measured-time autotuning over enumerated
  loop nests (used for the Figure 10 experiment).
* :mod:`repro.core.search` — deterministic parallel sweeps over the
  enumeration space (cost-model scoring and measured autotuning fanned
  across ``multiprocessing`` workers).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".expr": ("IndexInfo", "KernelOperand", "SpTTNKernel", "parse_kernel"),
    ".contraction_path": (
        "ContractionTerm", "ContractionPath", "enumerate_contraction_paths",
        "count_contraction_paths", "path_flop_estimate", "rank_contraction_paths",
    ),
    ".loop_nest": (
        "LoopOrder", "LoopNest", "LoopVertex", "FusedForest", "build_fused_forest",
        "intermediate_buffers", "validate_loop_order",
    ),
    ".cost_model": (
        "TreeSeparableCost", "MaxBufferDimCost", "MaxBufferSizeCost", "CacheMissCost",
        "ExecutionCost", "BoundedBufferCost", "LexicographicCost", "evaluate_cost",
    ),
    ".optimizer": ("OptimalLoopOrderSearch", "find_optimal_loop_order"),
    ".enumeration": (
        "enumerate_loop_orders_for_term", "enumerate_loop_orders", "enumerate_loop_nests",
        "count_loop_orders",
    ),
    ".scheduler": ("Schedule", "SpTTNScheduler"),
    ".autotune": ("Autotuner", "AutotuneResult"),
    ".search": (
        "CostModelEvaluator", "ExecutionRunner", "SweepEntry", "SweepResult",
        "best_loop_nest", "measure_loop_nests", "sweep_loop_nests", "sweep_loop_orders",
    ),
})

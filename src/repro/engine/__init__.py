"""Execution engine for SpTTN loop nests.

* :mod:`repro.engine.executor` — Algorithm 2: plan a fully-fused loop
  nest over a CSF sparse tensor, offloading maximal dense (and fiber-led)
  regions to vectorized contractions (the BLAS substitution of this
  reproduction), and run its compiled program.
* :mod:`repro.engine.plan_cache` — compiled (array-independent) execution
  plans, the process-wide plan cache, and schedule caching, so repeated
  executions of one structure pay for planning and search once.
* :mod:`repro.engine.lowering` — the vectorized lowering subsystem: compile
  every plan into a flat program of segment-reduction ops, then
  into one fused NumPy/CSR-SpMM callable (the default ``"jit"`` engine) or
  one that runs it op by op, without the fusions (``"lowered"``).
* :mod:`repro.engine.reference` — dense ``numpy.einsum`` reference used to
  validate every executor and baseline.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".executor": ("ENGINES", "LoopNestExecutor", "default_engine", "execute_kernel"),
    ".lowering": ("Program", "lower_plan"),
    ".plan_cache": (
        "CompiledPlan", "PlanCache", "cached_executor", "cached_schedule", "clear_caches",
        "default_executor_cache", "default_plan_cache", "default_schedule_cache", "plan_key",
    ),
    ".reference": ("dense_reference", "reference_output"),
})

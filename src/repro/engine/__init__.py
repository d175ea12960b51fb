"""Execution engine for SpTTN loop nests.

* :mod:`repro.engine.executor` — Algorithm 2: execute a fully-fused loop
  nest over a CSF sparse tensor, offloading maximal dense (and fiber-led)
  regions to vectorized NumPy kernels (the BLAS substitution of this
  reproduction).
* :mod:`repro.engine.blas` — the vectorized kernel layer plus call
  classification (axpy / dot / ger / gemv / gemm-like), feeding the
  operation counters.
* :mod:`repro.engine.buffers` — intermediate-buffer allocation and reset
  bookkeeping.
* :mod:`repro.engine.plan_cache` — compiled (array-independent) execution
  plans, the process-wide plan cache, and schedule caching, so repeated
  executions of one structure pay for planning and search once.
* :mod:`repro.engine.lowering` — the vectorized lowering subsystem: compile
  any lowerable plan into a flat program of segment-reduction ops, then
  into one fused NumPy/CSR-SpMM callable (the default ``"jit"`` engine) or
  run it op by op with no per-fiber Python dispatch (``"lowered"``).
* :mod:`repro.engine.reference` — dense ``numpy.einsum`` reference used to
  validate every executor and baseline.
"""

from repro.engine.blas import classify_call, vectorized_contract
from repro.engine.buffers import BufferSet
from repro.engine.executor import ENGINES, LoopNestExecutor, default_engine, execute_kernel
from repro.engine.lowering import NotLowerable, Program, lower_plan, run_program
from repro.engine.plan_cache import (
    CompiledPlan,
    PlanCache,
    cached_executor,
    cached_schedule,
    clear_caches,
    default_executor_cache,
    default_plan_cache,
    default_schedule_cache,
    plan_key,
)
from repro.engine.reference import dense_reference, reference_output

__all__ = [
    "classify_call",
    "vectorized_contract",
    "BufferSet",
    "ENGINES",
    "LoopNestExecutor",
    "NotLowerable",
    "Program",
    "default_engine",
    "execute_kernel",
    "lower_plan",
    "run_program",
    "CompiledPlan",
    "PlanCache",
    "cached_executor",
    "cached_schedule",
    "clear_caches",
    "default_executor_cache",
    "default_plan_cache",
    "default_schedule_cache",
    "plan_key",
    "dense_reference",
    "reference_output",
]

"""General vectorized lowering: scheduled loop nests as flat segment-reduction kernels.

This subsystem compiles every scheduled loop nest (the executor's symbolic
site steps) into a
small typed IR of array-level ops — dense-operand gathers into CSF lane
layout, batched einsum contractions, ``np.add.reduceat`` segment reductions
along the level pointers, scatter-accumulates into the output — and compiles
that IR into one NumPy callable with no per-fiber Python dispatch.  It generalizes the hand-fused
MTTKRP sweep into one compiler: MTTKRP, TTMc, TTTc, TTTP and arbitrary
SpTTN expressions all take the vectorized path, with flop counts identical
to Algorithm 2's one kernel call at a time.

* :mod:`repro.engine.lowering.ir` — the typed op set and symbolic counts;
* :mod:`repro.engine.lowering.lower` — the lowering pass over plan sites;
* :mod:`repro.engine.lowering.codegen` — the IR executor: programs
  compiled to callables with pooled buffers (:mod:`.pool`) and bind-time
  scipy CSR operators for the sums over lanes, fused by a peephole pass
  for the ``jit`` engine and op by op for the ``lowered`` engine.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".codegen": ("CompiledJit", "compile_program", "jit_stats"),
    ".ir": ("Program",),
    ".lower": ("lower_plan",),
})

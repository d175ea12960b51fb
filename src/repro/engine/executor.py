"""Loop-nest execution (Algorithm 2 of the paper).

:class:`LoopNestExecutor` runs a fully-fused loop nest — a contraction path
plus per-term loop orders — over a CSF sparse tensor and dense factor
operands.  Following Algorithm 2 it operates in two stages:

*Preprocessing* (once per loop-nest *structure*, process-wide): the fused
loop-nest structure is walked symbolically.  Consecutive terms sharing the
current loop index are grouped under one loop (fusion), buffer-reset points
are placed where a producer separates from its consumer (the ``X = 0`` lines
of Listings 3/4), and every maximal single-term region whose remaining
indices are dense — or are led by the final CSF level (a stored fiber) — is
bound to a specialized vectorized NumPy kernel (the reproduction's BLAS
offload, Figure 6).  The result is an array-independent
:class:`~repro.engine.plan_cache.CompiledPlan` of symbolic steps per
loop-nest site, cached in the process-wide
:class:`~repro.engine.plan_cache.PlanCache` keyed by the full structural
identity of the execution (kernel signature, contraction path, loop orders,
CSF mode order, operand shapes/dtypes).  Each ``execute()`` call only
*binds* the plan to its freshly allocated output/buffer arrays — a cheap
substitution pass — so repeated executions of the same structure (ALS/HOOI
sweeps, autotuning repeats) perform zero per-call symbolic analysis, and the
execution hot loop performs no per-iteration analysis.

*Execution* happens in one of three engines, selected by the ``engine``
parameter (default from the ``REPRO_ENGINE`` environment variable, falling
back to ``"jit"``):

* ``"jit"`` (the default) — the plan is lowered by
  :mod:`repro.engine.lowering` into a flat program of vectorized array ops
  (gathers into CSF lane layout, batched einsums, segment reductions along
  the level pointers), which :mod:`repro.engine.lowering.codegen` compiles
  (once, cached on the plan) into a single fused NumPy callable with
  pooled intermediate buffers and index maps / CSR operators prepared once
  per CSF structure.
* ``"lowered"`` — the same lowered program compiled op by op, without the
  codegen's peephole fusions.
* ``"interpret"`` — the plan is interpreted; sparse loops walk the CSF tree
  level by level so only stored fibers are visited, dense loops iterate
  full index ranges, and offloaded regions execute one pre-specialized
  kernel call.  It is the reference the compiled engines are tested
  against.

The compiled engines interpret only a nest whose lowering is declined (a
coordinate lookup into the sparse pattern, see
:class:`~repro.engine.lowering.lower.NotLowerable`) and an empty tensor; a
compile error raises.

All engines report identical operation counts; results agree to the usual
floating-point reassociation of vectorized summation (last-ulp).  Dense
outputs and sparse-pattern outputs (TTTP/SDDMM-style) are both supported.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.contraction_path import ContractionPath
from repro.core.expr import SpTTNKernel, parse_kernel
from repro.core.loop_nest import LoopNest, validate_loop_order
from repro.core.scheduler import Schedule
from repro.engine.blas import specialize_contraction
from repro.engine.lowering import compile_program, lower_plan
from repro.engine.plan_cache import (
    ARRAY as _ARRAY,
    SLOT_BUFFER as _SLOT_BUFFER,
    SLOT_DENSE as _SLOT_DENSE,
    SLOT_OUT as _SLOT_OUT,
    SPARSE_FIBER as _SPARSE_FIBER,
    SPARSE_LEAF as _SPARSE_LEAF,
    SPARSE_LOOKUP as _SPARSE_LOOKUP,
    SPARSE_OUT_FIBER as _SPARSE_OUT_FIBER,
    SPARSE_OUT_LEAF as _SPARSE_OUT_LEAF,
    SPARSE_OUT_LOOKUP as _SPARSE_OUT_LOOKUP,
    CompiledPlan,
    PlanCache,
    PlanKey,
    cached_schedule,
    default_plan_cache,
    operand_signature,
    plan_key,
)
from repro.obs.trace import span as _span
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor, csf_for_mode_order
from repro.util.config import setting
from repro.util.counters import OpCounter
from repro.util.validation import require

TensorLike = Union[COOTensor, CSFTensor, np.ndarray]

#: Execution engines accepted by :class:`LoopNestExecutor`, fastest first.
ENGINES = ("jit", "lowered", "interpret")


def default_engine() -> str:
    """The process default engine: ``REPRO_ENGINE`` (unless empty) or ``"jit"``."""
    return setting("REPRO_ENGINE")


def _plan_state(plan: CompiledPlan) -> tuple:
    """Growth fingerprint of a plan: when it changes after an execution the
    cache entry is re-measured against its byte budget (sites discovered,
    lowering compiled, a callable compiled or bound to a new tensor)."""
    return (
        plan.n_sites,
        plan.lowered is not None,
        plan.jit is not None,
        getattr(plan.jit, "version", 0),
        plan.unfused is not None,
        getattr(plan.unfused, "version", 0),
    )


class LoopNestExecutor:
    """Executes one fully-fused loop nest for one SpTTN kernel.

    Parameters
    ----------
    kernel:
        The kernel description.
    loop_nest:
        The contraction path and loop order to execute.  The loop order must
        respect the CSF storage-order restriction (validated on
        construction).
    counter:
        Optional :class:`~repro.util.counters.OpCounter` accumulating scalar
        operation counts, buffer resets and BLAS-call classifications.
    plan_cache:
        Where compiled plans live.  ``None`` (default) uses the process-wide
        cache from :func:`~repro.engine.plan_cache.default_plan_cache`; a
        :class:`~repro.engine.plan_cache.PlanCache` instance isolates the
        executor's plans (pass a fresh ``PlanCache()`` for a cold plan).
    engine:
        ``"jit"`` executes the lowered program as one fused codegen
        callable; ``"lowered"`` executes it compiled op by op, without
        the peephole fusions; both interpret a nest whose lowering is
        declined and an empty tensor.  ``"interpret"`` always
        interprets.  ``None``
        (default) resolves through :func:`default_engine` (the
        ``REPRO_ENGINE`` environment variable, else ``"jit"``).  After
        each ``execute()`` call, :attr:`last_engine` records which
        engine actually ran.
    """

    def __init__(
        self,
        kernel: SpTTNKernel,
        loop_nest: LoopNest,
        counter: Optional[OpCounter] = None,
        plan_cache: Optional[PlanCache] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.kernel = kernel
        self.loop_nest = loop_nest
        resolved = default_engine() if engine is None else engine
        require(
            resolved in ENGINES,
            f"engine must be one of {ENGINES}, got {resolved!r}",
        )
        self.engine = resolved
        self.last_engine: Optional[str] = None
        self.path: ContractionPath = loop_nest.path
        validate_loop_order(kernel, loop_nest.path, loop_nest.order)
        self.orders: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(o) for o in loop_nest.order
        )
        self.counter = counter if counter is not None else OpCounter()
        self.sparse_name = kernel.sparse_operand.name
        self.output_name = kernel.output.name
        self._consumers = self.path.consumers()
        self._buffer_specs = loop_nest.buffers()
        self._buffer_axes: Dict[str, Tuple[str, ...]] = {
            spec.name: spec.indices for spec in self._buffer_specs
        }
        self._dense_names = frozenset(op.name for op in kernel.dense_operands)
        self._cache = plan_cache if plan_cache is not None else default_plan_cache()
        # what _prepare checks and allocates against, fixed by the kernel
        sparse, dim = kernel.sparse_operand.indices, kernel.index_dims.__getitem__
        self._mode_order = tuple(map(sparse.index, kernel.csf_mode_order))
        self._sparse_shape = tuple(map(dim, sparse))
        self._dense_shapes = [(o.name, tuple(map(dim, o.indices))) for o in kernel.dense_operands]
        self._out_shape = tuple(map(dim, kernel.output.indices))
        #: the plan key up to its operand signature, completed per call
        self._key = plan_key(kernel, loop_nest)[:-1]

        # run-time state, populated by execute()
        self._source: Optional[Union[COOTensor, CSFTensor]] = None
        self._csf: Optional[CSFTensor] = None
        self._dense: Dict[str, np.ndarray] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._out_dense: Optional[np.ndarray] = None
        self._out_values: Optional[np.ndarray] = None
        self._plan: Optional[CompiledPlan] = None
        self._bound_sites: Dict[Tuple[Tuple[int, ...], int], list] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        tensors: Mapping[str, TensorLike],
        *,
        _operands: Optional[PlanKey] = None,
    ) -> Union[np.ndarray, COOTensor]:
        """Run the loop nest on concrete tensors keyed by operand name.

        Returns a dense ``numpy.ndarray`` (axes ordered as the kernel's
        output indices) or, for sparse-pattern outputs, a
        :class:`~repro.sptensor.coo.COOTensor` sharing the input pattern.

        Sparse operands are treated as immutable: their CSF conversion is
        memoized (per tensor object, and its structure per sparsity
        pattern), so writing into a tensor's ``values`` or ``indices`` in
        place between calls is not observed — build a new tensor with
        :meth:`~repro.sptensor.coo.COOTensor.with_values` instead.
        ``_operands`` is internal: *tensors*' ``operand_signature``, when
        the caller derived it already (the serving layer, at admission).
        """
        try:
            return self._execute(tensors, _operands)
        finally:
            # a call that raises must not pin its operands either
            self._release_bindings()

    def _execute(
        self, tensors: Mapping[str, TensorLike], operands: Optional[PlanKey]
    ) -> Union[np.ndarray, COOTensor]:
        start = time.perf_counter()
        # preparation (COO→CSF conversion, plan fetch/build, lowering and
        # jit compilation) is timed separately from steady-state execution:
        # both are recorded, but under distinct phases, so a plan's execute
        # row never includes its cold-call compilation
        with _span("execute", "engine", engine=self.engine):
            self._prepare(tensors, operands)
            prepare_s = time.perf_counter() - start
            plan = self._plan
            assert plan is not None and self._csf is not None
            plan_state = _plan_state(plan)
            self.last_engine = "interpret"
            if self.engine in ("jit", "lowered") and self._csf.nnz > 0:
                if plan.lowered is None:
                    mark = time.perf_counter()
                    plan.lowered = lower_plan(self) or False
                    prepare_s += time.perf_counter() - mark
                if plan.lowered is not False:
                    fuse = self.engine == "jit"
                    compiled = plan.jit if fuse else plan.unfused
                    if compiled is None:
                        mark = time.perf_counter()
                        with _span("compile", self.engine, ops=plan.lowered.n_ops):
                            compiled = compile_program(plan.lowered, fuse=fuse)
                        if fuse:
                            plan.jit = compiled
                        else:
                            plan.unfused = compiled
                        prepare_s += time.perf_counter() - mark
                    with _span("run", self.engine, nnz=self._csf.nnz):
                        compiled.run(
                            self._csf,
                            self._dense,
                            self._out_dense,
                            self._out_values,
                            self.counter,
                        )
                    self.last_engine = self.engine
            if self.last_engine == "interpret":
                dims = self.kernel.index_dims
                self._buffers = {
                    spec.name: np.zeros(tuple(dims[idx] for idx in spec.indices))
                    for spec in self._buffer_specs
                }
                self._run(tuple(range(len(self.path))), 0, {}, -1, 0)
        total_s = time.perf_counter() - start
        plan.record_timing(self.last_engine, "prepare", prepare_s)
        plan.record_timing(self.last_engine, "execute", max(0.0, total_s - prepare_s))
        if self.kernel.output.is_sparse:
            result: Union[np.ndarray, COOTensor] = self._sparse_output()
        else:
            assert self._out_dense is not None
            result = self._out_dense
        if plan_state != _plan_state(plan):
            # the plan grew (sites discovered / lowering compiled): let the
            # cache's memory budget see the real size
            self._cache.reaccount(plan.key)
        return result

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _prepare(
        self, tensors: Mapping[str, TensorLike], operands: Optional[PlanKey] = None
    ) -> None:
        # checks raise without formatting a message on the warm path
        kernel = self.kernel
        try:
            sparse_in = tensors[self.sparse_name]
            dense_in = [tensors[name] for name, _ in self._dense_shapes]
        except KeyError as exc:
            raise ValueError(f"missing tensor for operand {exc.args[0]!r}") from None
        if not isinstance(sparse_in, (CSFTensor, COOTensor)):
            raise TypeError(
                f"sparse operand {self.sparse_name!r} must be COOTensor or CSFTensor"
            )
        csf = csf_for_mode_order(sparse_in, self._mode_order)
        if csf.shape != self._sparse_shape:
            raise ValueError(
                f"sparse operand has shape {csf.shape}, expected {self._sparse_shape}"
            )
        self._source = sparse_in
        self._csf = csf

        self._dense = {}
        for (name, expected), value in zip(self._dense_shapes, dense_in):
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != expected:
                raise ValueError(
                    f"dense operand {name!r} has shape {arr.shape}, expected {expected}"
                )
            self._dense[name] = arr

        if kernel.output.is_sparse:
            self._out_values = np.zeros(csf.nnz, dtype=np.float64)
            self._out_dense = None
        else:
            self._out_dense = np.zeros(self._out_shape, dtype=np.float64)
            self._out_values = None

        # Fetch (or create) the compiled plan for this structure.  Plans are
        # array-independent; only the per-execution bindings are reset here.
        if operands is None:
            operands = operand_signature(kernel, tensors)
        key = self._key + (operands,)
        plan = self._cache.get_or_create(key, lambda: CompiledPlan(key))
        assert isinstance(plan, CompiledPlan)
        self._plan = plan
        self._bound_sites = {}

    def _release_bindings(self) -> None:
        """Drop the per-execution array bindings after ``execute()``.

        Everything here is rebuilt (cheaply — the CSF conversion is
        memoized per tensor object, plan binding is a substitution pass) by
        the next ``_prepare``; releasing it matters for executors that
        outlive their operands, notably the process-wide instances of
        :func:`~repro.engine.plan_cache.cached_executor`, which would
        otherwise pin their last operands and output for the life of the
        cache entry.
        """
        self._source = None
        self._csf = None
        self._dense = {}
        self._buffers = {}
        self._out_dense = None
        self._out_values = None
        self._bound_sites = {}

    def _sparse_output(self) -> COOTensor:
        """The output on the input's pattern, rows in lexicographic order:
        CSF leaf order in the natural mode order (a sorted COO input's own
        rows; ``leaf_perm`` gathers an unsorted one's), sorted otherwise."""
        csf, source, values = self._csf, self._source, self._out_values
        assert csf is not None and values is not None
        if not isinstance(source, COOTensor):
            coords = csf.coordinates()
        elif csf.leaf_perm is None:
            coords = source.indices
        else:
            coords = source.indices[csf.leaf_perm]
        if csf.mode_order != tuple(range(csf.order)) and csf.nnz > 1:
            rows = np.lexsort(coords.T[::-1])
            coords, values = coords[rows], values[rows]
        if coords is getattr(source, "indices", None):
            # the input's own rows: shared read-only, with its pattern digest
            coords = coords.view()
            coords.flags.writeable = False
            return COOTensor.on_pattern(csf.shape, coords, values, source)
        return COOTensor.on_pattern(csf.shape, coords, values)

    # ------------------------------------------------------------------ #
    # Plan construction (Algorithm 2, preprocessing stage)
    # ------------------------------------------------------------------ #
    def _term_uses_sparse(self, pos: int) -> bool:
        term = self.path[pos]
        return term.lhs == self.sparse_name or term.rhs == self.sparse_name

    def _bound_names(self, positions: Sequence[int], depth: int) -> Tuple[str, ...]:
        """Loop indices already iterated at a recursion site (static)."""
        return self.orders[positions[0]][:depth]

    def _reset_list(
        self,
        group: Sequence[int],
        after_positions: Sequence[int],
        bound_names: Sequence[str],
    ) -> List[Tuple[Tuple[str, Optional[str]], tuple]]:
        """Buffers to zero before entering *group* (producer/consumer split).

        Returns symbolic ``(slot, template)`` pairs; the slot is bound to
        the per-execution buffer array by :meth:`_bind_steps`.
        """
        after = set(after_positions)
        resets: List[Tuple[Tuple[str, Optional[str]], tuple]] = []
        bound_set = set(bound_names)
        for pos in group:
            term = self.path[pos]
            if term.out == self.output_name:
                continue
            consumer = self._consumers.get(pos)
            if consumer is not None and consumer in after:
                axes = self._buffer_axes[term.out]
                template = tuple(i if i in bound_set else None for i in axes)
                resets.append(((_SLOT_BUFFER, term.out), template))
        return resets

    def _offload_mode(
        self, group: Sequence[int], depth: int, csf_level: int
    ) -> Optional[str]:
        """Decide whether this site is offloadable ('dense'/'fiber') or not."""
        if len(group) != 1:
            return None
        kernel = self.kernel
        pos = group[0]
        term = self.path[pos]
        remaining = self.orders[pos][depth:]
        if not remaining:
            return "scalar"
        sparse_remaining = [i for i in remaining if i in kernel.sparse_indices]
        uses_sparse = self._term_uses_sparse(pos)
        writes_sparse_output = (
            term.out == self.output_name and kernel.output.is_sparse
        )
        if not sparse_remaining or not uses_sparse:
            if writes_sparse_output and sparse_remaining:
                return None  # would need scattered writes into the pattern
            return "dense"
        if len(sparse_remaining) != 1 or remaining[0] != sparse_remaining[0]:
            return None
        k = remaining[0]
        if k != kernel.csf_mode_order[-1]:
            return None
        if csf_level != len(kernel.csf_mode_order) - 2:
            return None
        if k in term.out_indices and not writes_sparse_output:
            return None
        return "fiber"

    def _operand_recipe(
        self,
        name: str,
        indices: Tuple[str, ...],
        bound_set: set,
        fiber_index: Optional[str],
        at_leaf: bool,
    ):
        """Static (array-independent) access recipe for one input of a term."""
        kernel = self.kernel
        if name == self.sparse_name:
            unbound = [i for i in indices if i not in bound_set]
            if fiber_index is not None and unbound == [fiber_index]:
                return (_SPARSE_FIBER,), (fiber_index,)
            require(
                not unbound,
                "internal error: sparse operand offloaded with unbound indices",
            )
            mode = _SPARSE_LEAF if at_leaf else _SPARSE_LOOKUP
            return (mode,), ()
        if name in self._dense_names:
            slot = (_SLOT_DENSE, name)
            axes = indices
        elif name == self.output_name and not kernel.output.is_sparse:
            slot = (_SLOT_OUT, None)
            axes = indices
        else:
            require(
                name in self._buffer_axes,
                f"internal error: unknown operand slot {name!r}",
            )
            slot = (_SLOT_BUFFER, name)
            axes = self._buffer_axes[name]
        template = tuple(i if i in bound_set else None for i in axes)
        free = tuple(i for i in axes if i not in bound_set)
        gather_axis = None
        if fiber_index is not None and fiber_index in free:
            gather_axis = free.index(fiber_index)
        return (_ARRAY, slot, template, gather_axis), free

    def _output_recipe(
        self,
        name: str,
        indices: Tuple[str, ...],
        bound_set: set,
        fiber_index: Optional[str],
        at_leaf: bool,
    ):
        """Static (array-independent) write recipe for a term's output."""
        kernel = self.kernel
        if name == self.output_name and kernel.output.is_sparse:
            if fiber_index is not None:
                return (_SPARSE_OUT_FIBER,), (fiber_index,)
            mode = _SPARSE_OUT_LEAF if at_leaf else _SPARSE_OUT_LOOKUP
            return (mode,), ()
        if name == self.output_name:
            slot = (_SLOT_OUT, None)
            axes = indices
        else:
            slot = (_SLOT_BUFFER, name)
            axes = self._buffer_axes[name]
        template = tuple(i if i in bound_set else None for i in axes)
        free = tuple(i for i in axes if i not in bound_set)
        return (_ARRAY, slot, template, None), free

    def _build_offload_step(
        self,
        pos: int,
        depth: int,
        csf_level: int,
        resets: list,
        mode: str,
    ) -> tuple:
        """Bind one offload site to its recipes and specialized kernel."""
        kernel = self.kernel
        term = self.path[pos]
        bound_set = set(self._bound_names((pos,), depth))
        at_leaf = csf_level == len(kernel.csf_mode_order) - 1
        fiber_index = self.orders[pos][depth] if mode == "fiber" else None

        lhs_recipe, lhs_free = self._operand_recipe(
            term.lhs, term.lhs_indices, bound_set, fiber_index, at_leaf
        )
        rhs_recipe, rhs_free = self._operand_recipe(
            term.rhs, term.rhs_indices, bound_set, fiber_index, at_leaf
        )
        out_recipe, out_free = self._output_recipe(
            term.out, term.out_indices, bound_set, fiber_index, at_leaf
        )
        fn, blas_name = specialize_contraction(lhs_free, rhs_free, out_free)
        return (
            "offload",
            resets,
            lhs_recipe,
            rhs_recipe,
            out_recipe,
            fn,
            blas_name,
            mode == "fiber",
        )

    def _build_plan(
        self, positions: Tuple[int, ...], depth: int, csf_level: int
    ) -> list:
        """Segment a recursion site into executable steps (cached)."""
        kernel = self.kernel
        steps: list = []
        bound_names = self._bound_names(positions, depth)
        i = 0
        n = len(positions)
        while i < n:
            pos = positions[i]
            order = self.orders[pos]
            if len(order) == depth:
                resets = self._reset_list((pos,), positions[i + 1 :], bound_names)
                steps.append(
                    self._build_offload_step(pos, depth, csf_level, resets, "scalar")
                )
                i += 1
                continue
            idx = order[depth]
            group: List[int] = []
            j = i
            while j < n:
                p = positions[j]
                o = self.orders[p]
                if len(o) > depth and o[depth] == idx:
                    group.append(p)
                    j += 1
                else:
                    break
            resets = self._reset_list(group, positions[j:], bound_names)
            mode = self._offload_mode(group, depth, csf_level)
            if mode in ("dense", "fiber"):
                steps.append(
                    self._build_offload_step(group[0], depth, csf_level, resets, mode)
                )
            else:
                use_csf = (
                    idx in kernel.sparse_indices
                    and csf_level + 1 < len(kernel.csf_mode_order)
                    and kernel.csf_mode_order[csf_level + 1] == idx
                    and any(self._term_uses_sparse(p) for p in group)
                )
                steps.append(
                    (
                        "loop",
                        resets,
                        idx,
                        tuple(group),
                        use_csf,
                        kernel.index_dims[idx],
                    )
                )
            i = j
        return steps

    # ------------------------------------------------------------------ #
    # Symbolic site lookup (shared by the interpreter and the lowering pass)
    # ------------------------------------------------------------------ #
    def _site_steps(self, positions: Tuple[int, ...], depth: int, csf_level: int):
        """Symbolic steps of one site, building (and caching) on first use."""
        assert self._plan is not None
        key = (positions, depth)
        steps = self._plan.site(key)
        if steps is None:
            steps = self._plan.add_site(
                key, self._build_plan(positions, depth, csf_level)
            )
        return steps

    # ------------------------------------------------------------------ #
    # Plan binding (per execution: substitute concrete arrays for slots)
    # ------------------------------------------------------------------ #
    def _slot_array(self, slot: Tuple[str, Optional[str]]) -> np.ndarray:
        kind, name = slot
        if kind == _SLOT_DENSE:
            return self._dense[name]
        if kind == _SLOT_BUFFER:
            return self._buffers[name]
        assert self._out_dense is not None
        return self._out_dense

    def _bind_recipe(self, recipe: tuple) -> tuple:
        if recipe[0] != _ARRAY:
            return recipe
        _, slot, template, gather_axis = recipe
        return (_ARRAY, self._slot_array(slot), template, gather_axis)

    def _bind_steps(self, steps: list) -> list:
        """Bind one site's symbolic steps to this execution's arrays."""
        bound_steps: list = []
        for step in steps:
            resets = [
                (self._slot_array(slot), template) for slot, template in step[1]
            ]
            if step[0] == "offload":
                (_, _, lhs, rhs, out, fn, blas_name, is_fiber) = step
                bound_steps.append(
                    (
                        "offload",
                        resets,
                        self._bind_recipe(lhs),
                        self._bind_recipe(rhs),
                        self._bind_recipe(out),
                        fn,
                        blas_name,
                        is_fiber,
                    )
                )
            else:
                bound_steps.append(("loop", resets) + step[2:])
        return bound_steps

    # ------------------------------------------------------------------ #
    # Plan execution
    # ------------------------------------------------------------------ #
    def _run(
        self,
        positions: Tuple[int, ...],
        depth: int,
        bound: Dict[str, int],
        csf_level: int,
        csf_pos: int,
    ) -> None:
        key = (positions, depth)
        plan = self._bound_sites.get(key)
        if plan is None:
            plan = self._bind_steps(self._site_steps(positions, depth, csf_level))
            self._bound_sites[key] = plan

        counter = self.counter
        csf = self._csf
        for step in plan:
            kind = step[0]
            resets = step[1]
            for arr, template in resets:
                arr[
                    tuple(
                        bound[name] if name is not None else slice(None)
                        for name in template
                    )
                ] = 0.0
                counter.buffer_resets += 1
            if kind == "offload":
                (_, _, lhs_recipe, rhs_recipe, out_recipe, fn, blas_name, is_fiber) = step
                if is_fiber:
                    lo, hi = csf.children_range(csf_level, csf_pos)
                    ids = csf.fids[csf.order - 1][lo:hi]
                else:
                    lo = hi = 0
                    ids = None
                lhs = self._resolve_operand(lhs_recipe, bound, csf_pos, lo, hi, ids)
                rhs = self._resolve_operand(rhs_recipe, bound, csf_pos, lo, hi, ids)
                out_arr, out_key = self._resolve_output(
                    out_recipe, bound, csf_pos, lo, hi
                )
                if out_arr is None:
                    continue  # entry outside the sparse pattern
                flops = fn(lhs, rhs, out_arr, out_key)
                counter.flops += flops
                calls = counter.kernel_calls
                calls[blas_name] = calls.get(blas_name, 0) + 1
            else:  # "loop"
                (_, _, idx, group, use_csf, dim) = step
                if use_csf:
                    level = csf_level + 1
                    lo, hi = csf.children_range(csf_level, csf_pos)
                    ids = csf.fids[level]
                    for child in range(lo, hi):
                        bound[idx] = int(ids[child])
                        self._run(group, depth + 1, bound, level, child)
                    bound.pop(idx, None)
                else:
                    for value in range(dim):
                        bound[idx] = value
                        self._run(group, depth + 1, bound, csf_level, csf_pos)
                    bound.pop(idx, None)

    # ------------------------------------------------------------------ #
    # Recipe resolution (runtime)
    # ------------------------------------------------------------------ #
    def _resolve_operand(self, recipe, bound, csf_pos, lo, hi, ids):
        mode = recipe[0]
        if mode == _ARRAY:
            _, arr, template, gather_axis = recipe
            view = arr[
                tuple(
                    bound[name] if name is not None else slice(None)
                    for name in template
                )
            ]
            if gather_axis is not None:
                view = np.take(view, ids, axis=gather_axis)
            return view
        csf = self._csf
        if mode == _SPARSE_FIBER:
            return csf.values[lo:hi]
        if mode == _SPARSE_LEAF:
            return csf.values[csf_pos]
        # _SPARSE_LOOKUP: the sparse tensor is fully bound via dense loops
        leaf = csf.find_leaf(
            [bound[name] for name in self.kernel.csf_mode_order]
        )
        return csf.values[leaf] if leaf is not None else 0.0

    def _resolve_output(self, recipe, bound, csf_pos, lo, hi):
        mode = recipe[0]
        if mode == _ARRAY:
            _, arr, template, _ = recipe
            key = tuple(
                bound[name] if name is not None else slice(None) for name in template
            )
            return arr, key
        if mode == _SPARSE_OUT_FIBER:
            return self._out_values, slice(lo, hi)
        if mode == _SPARSE_OUT_LEAF:
            return self._out_values, csf_pos
        # _SPARSE_OUT_LOOKUP
        leaf = self._csf.find_leaf(
            [bound[name] for name in self.kernel.csf_mode_order]
        )
        if leaf is None:
            return None, None
        return self._out_values, leaf


# --------------------------------------------------------------------------- #
# One-call convenience API
# --------------------------------------------------------------------------- #
def execute_kernel(
    spec: str,
    tensors: Sequence[TensorLike],
    names: Optional[Sequence[str]] = None,
    buffer_dim_bound: Optional[int] = 2,
    counter: Optional[OpCounter] = None,
    engine: Optional[str] = None,
) -> Tuple[Union[np.ndarray, COOTensor], Schedule]:
    """Parse, schedule and execute an SpTTN kernel in one call.

    Example
    -------
    >>> out, schedule = execute_kernel("ijk,ja,ka->ia", [T, B, C])  # MTTKRP

    Returns the output tensor and the :class:`~repro.core.scheduler.Schedule`
    that was selected (so callers can inspect the chosen loop nest).
    """
    kernel = parse_kernel(spec, tensors, names=names)
    schedule = cached_schedule(kernel, buffer_dim_bound=buffer_dim_bound)
    executor = LoopNestExecutor(
        kernel, schedule.loop_nest, counter=counter, engine=engine
    )
    operand_tensors = {
        op.name: tensor for op, tensor in zip(kernel.operands, tensors)
    }
    output = executor.execute(operand_tensors)
    return output, schedule

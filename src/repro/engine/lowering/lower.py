"""Lowering pass: compile a plan's site steps into a flat vectorized program.

Algorithm 2 as written walks the fused loop nest fiber by fiber, executing
one specialized kernel call per offload site visit (``tests/interpreter.py``
does exactly that, and is the reference this pass is tested against).  This
pass compiles the *same* symbolic site steps of
:class:`~repro.engine.executor.LoopNestExecutor` into the IR of
:mod:`repro.engine.lowering.ir`, replacing the per-node recursion with
whole-level array operations:

* a CSF loop descends one level — the vectorized execution widens its lane
  axis from the nodes of one level to the nodes of the next, and results
  produced under the loop are folded back with a segment reduction along
  the level pointers (in child order, matching the interpreted accumulation
  order);
* a dense loop becomes a *batch axis* threaded through the offload
  contractions (one einsum letter shared by every operand bound to it);
* an offload site becomes a gather of each operand into lane layout plus a
  single ``einsum`` whose contracted letters are exactly the free indices
  the interpreted kernel call would contract;
* intermediate buffers never materialize as mutable arrays: each buffer is
  the register holding its producer's per-lane contributions, reconciled to
  the consumer's loop context by segment-reduce / lane-expand.

The pass is *structural*: it needs the executor only for its kernel, loop
orders and symbolic site steps, never for concrete arrays, so one lowered
program is cached per :class:`~repro.engine.plan_cache.CompiledPlan` and
reused by every execution of that structure.

Every nest that passes :func:`~repro.core.loop_nest.validate_loop_order`
lowers: the program gives each distinct index one einsum letter and the
lane axis one more, and :func:`~repro.core.expr.parse_kernel` refuses a
kernel with more indices than the letters left
(:data:`~repro.core.expr.MAX_INDICES`).  A failure here is a bug and raises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.expr import EINSUM_LETTERS as _LETTER_POOL
from repro.engine.lowering import ir
from repro.engine.plan_cache import (
    ARRAY,
    SLOT_BUFFER,
    SLOT_DENSE,
    SLOT_OUT,
    SPARSE_OUT_FIBER,
    SPARSE_OUT_LEAF,
)


#: Internal name reserved for the lane axis in the einsum letter table (a
#: NUL prefix keeps it from colliding with any kernel index name).
_LANE_NAME = "\0lane"


class _Value:
    """Lowering-time handle to a register: named dense axes + lane level.

    ``level`` is the CSF level of the lane axis, or ``None`` when the value
    carries no lane axis (it is constant across sparse iterations).
    """

    __slots__ = ("reg", "axes", "level")

    def __init__(self, reg: int, axes: Tuple[str, ...], level: Optional[int]):
        self.reg = reg
        self.axes = axes
        self.level = level

    @property
    def has_lane(self) -> bool:
        return self.level is not None


class _Lowerer:
    """One lowering run over an executor's (plan, kernel) structure."""

    def __init__(self, executor) -> None:
        self.ex = executor
        kernel = executor.kernel
        self.kernel = kernel
        self.dims = kernel.index_dims
        self.leaf = len(kernel.csf_mode_order) - 1
        self.dense_axes: Dict[str, Tuple[str, ...]] = {
            op.name: op.indices for op in kernel.dense_operands
        }
        self.ops: List[ir.Op] = []
        self.n_regs = 0
        self.bound: Dict[str, int] = {}  # sparse index -> binding CSF level
        self.batch: List[str] = []       # dense loop indices, outer -> inner
        self.buffers: Dict[str, _Value] = {}
        self.letters: Dict[str, str] = {}
        self.lane = self._letter(_LANE_NAME)
        self._values_reg: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Small helpers
    # ------------------------------------------------------------------ #
    def _letter(self, name: str) -> str:
        letter = self.letters.get(name)
        if letter is None:
            letter = _LETTER_POOL[len(self.letters)]
            self.letters[name] = letter
        return letter

    def _reg(self) -> int:
        reg = self.n_regs
        self.n_regs += 1
        return reg

    def _batch_factor(self) -> int:
        factor = 1
        for name in self.batch:
            factor *= int(self.dims[name])
        return factor

    def _values(self) -> _Value:
        if self._values_reg is None:
            self._values_reg = self._reg()
            self.ops.append(ir.LoadValues(self._values_reg))
        return _Value(self._values_reg, (), self.leaf)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def lower(self) -> ir.Program:
        positions = tuple(range(len(self.ex.path)))
        self._site(positions, 0, -1)
        return ir.Program(tuple(self.ops), self.n_regs)

    # ------------------------------------------------------------------ #
    # Site / step walk (Algorithm 2's recursion, but symbolic)
    # ------------------------------------------------------------------ #
    def _site(self, positions: Tuple[int, ...], depth: int, level: int) -> None:
        # the walk reaches each site once: loop steps split their positions
        for step in self.ex._build_plan(positions, depth):
            self._resets(step[1])
            if step[0] == "loop":
                (_, _, idx, group, use_csf, _dim) = step
                if use_csf:
                    self.bound[idx] = level + 1
                    self._site(group, depth + 1, level + 1)
                    del self.bound[idx]
                else:
                    self.batch.append(idx)
                    self._site(group, depth + 1, level)
                    self.batch.pop()
            else:
                self._offload(step, level)

    def _resets(self, resets: Sequence) -> None:
        """Forget the buffers Algorithm 2 zero-fills here: the vectorized
        execution starts each reset region from fresh per-lane contributions."""
        for slot, _template in resets:
            self.buffers.pop(slot[1], None)

    # ------------------------------------------------------------------ #
    # Offload sites
    # ------------------------------------------------------------------ #
    def _offload(self, step: tuple, level: int) -> None:
        (_, _resets, lhs_recipe, rhs_recipe, out_recipe, _fn, is_fiber) = step
        fiber_index = self.kernel.csf_mode_order[-1] if is_fiber else None
        eval_level = self.leaf if is_fiber else level
        if is_fiber:
            self.bound[fiber_index] = self.leaf
        lhs, lhs_free = self._operand(lhs_recipe, eval_level)
        rhs, rhs_free = self._operand(rhs_recipe, eval_level)
        self._store(lhs, lhs_free, rhs, rhs_free, out_recipe, eval_level)
        if is_fiber:
            del self.bound[fiber_index]

    def _operand(self, recipe: tuple, eval_level: int):
        """Evaluate one operand recipe to a (_Value, free-index-names) pair.

        The free names are the recipe's not-yet-bound indices — the axes the
        interpreted kernel call iterates — used for exact flop accounting.
        The fiber index is excluded: it is the lane axis at the leaf level.
        """
        if recipe[0] != ARRAY:  # SPARSE_FIBER / SPARSE_LEAF: the leaf values
            return self._values(), ()
        _, slot, template, _gather_axis = recipe
        kind, name = slot
        if kind == SLOT_BUFFER:
            return self._read_buffer(name, template, eval_level)
        axes_names = self.dense_axes[name]
        specs: List[ir.AxisSpec] = []
        result_axes: List[str] = []
        free_names: List[str] = []
        any_gather = False
        for axis_name, bound_name in zip(axes_names, template):
            if axis_name in self.bound:  # a sparse loop's or the fiber index
                specs.append((ir.GATHER, self.bound[axis_name]))
                any_gather = True
            else:  # a dense loop's batch axis, or free
                specs.append((ir.KEEP, -1))
                result_axes.append(axis_name)
                if bound_name is None:
                    free_names.append(axis_name)
        reg = self._reg()
        self.ops.append(
            ir.ReadArray(reg, (SLOT_DENSE, name), eval_level, tuple(specs))
        )
        value = _Value(
            reg, tuple(result_axes), eval_level if any_gather else None
        )
        return value, tuple(free_names)

    def _read_buffer(self, name: str, template: tuple, eval_level: int):
        """Reconcile a buffer's recorded contributions to the consumer site.

        Contributions recorded under deeper sparse loops are segment-reduced
        (the interpreted accumulation over those loops); a shallower producer
        is replicated to the consumer's lanes.  Producer-only dense loop axes
        stay as named axes and are contracted away by the consumer's einsum —
        the accumulation Algorithm 2 performs across those iterations.
        Buffer axes the consumer binds to a sparse loop are gathered per
        lane (:class:`~repro.engine.lowering.ir.GatherAxis`), unless the
        record's lane axis already carries them (see :meth:`_keeps_lanes`).
        """
        rec = self.buffers[name]
        axes_names = self.ex._buffer_axes[name]
        free_names = []
        gathers: List[Tuple[str, int]] = []
        for axis_name, bound_name in zip(axes_names, template):
            if axis_name in self.bound:  # a sparse loop's or the fiber index
                if axis_name in rec.axes:
                    gathers.append((axis_name, self.bound[axis_name]))
            elif bound_name is None:
                free_names.append(axis_name)
            # else: a batch axis, aligned by its shared einsum letter
        value = rec
        if rec.level is not None and rec.level != eval_level:
            if eval_level < 0:
                src = rec.reg
                if rec.level > 0:
                    mid = self._reg()
                    self.ops.append(ir.SegmentReduce(mid, src, rec.level, 0))
                    src = mid
                reg = self._reg()
                self.ops.append(ir.LaneSum(reg, src))
                value = _Value(reg, rec.axes, None)
            elif rec.level > eval_level:
                reg = self._reg()
                self.ops.append(ir.SegmentReduce(reg, rec.reg, rec.level, eval_level))
                value = _Value(reg, rec.axes, eval_level)
            else:
                reg = self._reg()
                self.ops.append(ir.LaneExpand(reg, rec.reg, rec.level, eval_level))
                value = _Value(reg, rec.axes, eval_level)
        for axis_name, bind_level in gathers:
            offset = 1 if value.has_lane else 0
            position = offset + value.axes.index(axis_name)
            reg = self._reg()
            self.ops.append(
                ir.GatherAxis(
                    reg, value.reg, position, bind_level, eval_level, value.has_lane
                )
            )
            remaining = tuple(a for a in value.axes if a != axis_name)
            value = _Value(reg, remaining, eval_level)
        return value, tuple(free_names)

    def _keeps_lanes(self, name: str, scattered: Sequence[Tuple[str, int]]) -> bool:
        """May buffer *name* stay in lane layout instead of scattering?

        Yes when the consumer descends to each of its sparse-loop axes too,
        and every CSF level down to the deepest of them is one of those axes
        or a loop that producer and consumer share: a CSF level is fixed, so
        a lane of that level names the same buffer slot at both ends.
        """
        if not scattered:
            return False
        path, orders = self.ex.path, self.ex.orders
        producer = next(pos for pos, term in enumerate(path) if term.out == name)
        top = max(level for _, level in scattered)
        if not set(self.kernel.csf_mode_order[: top + 1]) <= set(path[producer].out_indices):
            return False  # the buffer sums over a level its lanes would keep
        order = orders[self.ex._consumers[producer]]
        return all(
            self.kernel.csf_descends(idx, order[: order.index(idx)])
            for idx, _ in scattered
        )

    # ------------------------------------------------------------------ #
    # Contraction + target
    # ------------------------------------------------------------------ #
    def _subscript(self, value: _Value) -> str:
        return (self.lane if value.has_lane else "") + "".join(
            self._letter(a) for a in value.axes
        )

    def _flops(
        self,
        lhs_free: Tuple[str, ...],
        rhs_free: Tuple[str, ...],
        eval_level: int,
        has_lane: bool,
    ) -> Tuple[ir.Count, ...]:
        """Interpreter-equivalent flop count of one vectorized offload.

        The interpreted site performs one kernel call per (lane x dense
        batch) iteration; each call spans ``2 * |union of free dims|``
        scalar operations — the same space the specialized kernels report.
        """
        space = 1
        seen = set()
        for names in (lhs_free, rhs_free):
            for nm in names:
                if nm not in seen:
                    seen.add(nm)
                    space *= int(self.dims[nm])
        factor = self._batch_factor()
        flop_level = eval_level if has_lane else -1
        return ((2 * factor * space, flop_level),)

    def _contract(
        self, lhs: _Value, rhs: _Value, out_sub: str, flops: Tuple[ir.Count, ...]
    ) -> int:
        spec = f"{self._subscript(lhs)},{self._subscript(rhs)}->{out_sub}"
        reg = self._reg()
        self.ops.append(ir.Contract(reg, spec, (lhs.reg, rhs.reg), flops))
        return reg

    def _store(
        self,
        lhs: _Value,
        lhs_free: Tuple[str, ...],
        rhs: _Value,
        rhs_free: Tuple[str, ...],
        out_recipe: tuple,
        eval_level: int,
    ) -> None:
        has_lane = lhs.has_lane or rhs.has_lane
        flops = self._flops(lhs_free, rhs_free, eval_level, has_lane)
        kind = out_recipe[0]

        if kind in (SPARSE_OUT_LEAF, SPARSE_OUT_FIBER):
            # Accumulate into the sparse-pattern output, aligned with the
            # leaves; dense batch axes are summed (the interpreted loop
            # accumulates one term per iteration).
            reg = self._contract(lhs, rhs, self.lane, flops)
            self.ops.append(ir.AccumulateLeaf(reg))
            return

        _, slot, template, _g = out_recipe

        if slot[0] == SLOT_BUFFER:
            # Buffer axes bound to sparse loops at the producer (including a
            # fiber offload's leaf index, whose "axis" is the lane itself)
            # are materialized by scattering lane contributions into a dense
            # axis at the binding level's parent, innermost first.
            name = slot[1]
            axes_names = self.ex._buffer_axes[name]
            record_axes = list(self.batch)
            scattered: List[Tuple[str, int]] = []
            for axis_name, bound_name in zip(axes_names, template):
                if axis_name in self.bound:  # a sparse loop's or the fiber index
                    scattered.append((axis_name, self.bound[axis_name]))
                elif bound_name is None:
                    record_axes.append(axis_name)
                # else: already a batch axis of the record
            out_sub = (self.lane if has_lane else "") + "".join(
                self._letter(a) for a in record_axes
            )
            reg = self._contract(lhs, rhs, out_sub, flops)
            level: Optional[int] = eval_level if has_lane else None
            if self._keeps_lanes(name, scattered):
                top = max(bind_level for _, bind_level in scattered)
                assert level is not None and top <= level
                if top < level:
                    mid = self._reg()
                    self.ops.append(ir.SegmentReduce(mid, reg, level, top))
                    reg = mid
                self.buffers[name] = _Value(reg, tuple(record_axes), top)
                return
            for axis_name, bind_level in sorted(scattered, key=lambda t: -t[1]):
                assert level is not None and bind_level <= level
                if bind_level < level:
                    mid = self._reg()
                    self.ops.append(ir.SegmentReduce(mid, reg, level, bind_level))
                    reg = mid
                dst = self._reg()
                self.ops.append(
                    ir.ScatterLanes(dst, reg, bind_level, int(self.dims[axis_name]))
                )
                reg = dst
                level = bind_level - 1 if bind_level > 0 else None
            record_axes = [
                n for n, _ in sorted(scattered, key=lambda t: t[1])
            ] + record_axes
            self.buffers[name] = _Value(reg, tuple(record_axes), level)
            return

        # Dense kernel output: contract, fold lanes down to the scatter
        # level, then accumulate.
        assert slot[0] == SLOT_OUT
        out_axes_names = self.kernel.output.indices
        specs: List[ir.AxisSpec] = []
        kept: List[str] = []
        gather_levels: List[int] = []
        for axis_name in out_axes_names:
            if axis_name in self.bound:  # a sparse loop's or the fiber index
                lvl = self.bound[axis_name]
                specs.append((ir.GATHER, lvl))
                gather_levels.append(lvl)
            else:  # a dense loop's batch axis, or free
                specs.append((ir.KEEP, -1))
                kept.append(axis_name)
        out_sub = (self.lane if has_lane else "") + "".join(
            self._letter(a) for a in kept
        )
        reg = self._contract(lhs, rhs, out_sub, flops)

        lmax = max(gather_levels, default=-1)
        src_level: Optional[int] = eval_level if has_lane else None
        if src_level is not None:
            if lmax < 0:
                src = reg
                if src_level > 0:
                    mid = self._reg()
                    self.ops.append(ir.SegmentReduce(mid, src, src_level, 0))
                    src = mid
                reg = self._reg()
                self.ops.append(ir.LaneSum(reg, src))
                src_level = None
            elif lmax < src_level:
                tmp = self._reg()
                self.ops.append(ir.SegmentReduce(tmp, reg, src_level, lmax))
                reg = tmp
                src_level = lmax

        direct = True
        if gather_levels:
            n_gather = len(gather_levels)
            prefix = all(spec[0] == ir.GATHER for spec in specs[:n_gather])
            full = sorted(set(gather_levels)) == list(range(lmax + 1))
            direct = prefix and full
        self.ops.append(
            ir.ScatterAdd(
                reg,
                src_level if src_level is not None else -1,
                tuple(specs),
                direct,
            )
        )


def lower_plan(executor) -> ir.Program:
    """Compile *executor*'s plan into a lowered :class:`~repro.engine.lowering.ir.Program`.

    The pass reads only structural state (kernel, loop orders, and the
    symbolic steps of each site, built as the walk reaches it); an
    exception is a bug and propagates.
    """
    return _Lowerer(executor).lower()

"""The executor of lowered programs: compile one into a NumPy callable.

The lowering pass replaced per-fiber Python recursion with flat array ops;
this module runs them by *code generation*: :func:`compile_program` emits
Python/NumPy source specialized to one
:class:`~repro.engine.lowering.ir.Program` — straight-line calls with
every einsum spec, gather axis and segment boundary decision burned in —
and ``exec``\\ s it into a single callable.  The ``jit`` engine compiles
with the peephole pass below; the ``lowered`` engine compiles the same
program without it (``fuse=False``), so every op runs through its own
emitter, and the gap between the two tiers is what the fusions buy.

Three mechanisms carry the speedup:

* **Buffer pooling with register allocation.**  A liveness pass over the
  program assigns every intermediate to a pool slot; registers with
  identical structural shape signatures and disjoint live ranges share a
  slot.  Slots persist on the compiled object across executions, so warm
  calls write into existing buffers (NumPy ``out=``) and allocate nothing;
  a gather is direct once its ids pass a range check, since ``np.take``
  copies through a temporary under ``mode="raise"`` (:mod:`.pool`).
  A two-operand ``Contract`` whose inputs both carry exactly its output
  subscripts (``'ab,ab->ab'``, the MTTKRP Hadamard) sums nothing and runs
  as one pooled ``np.multiply``; broadcasts (``'a,ab->ab'``) and every
  contract that sums stay on ``np.einsum``.  Outputs stay bit-identical:
  the multiply's only difference, a ``-0.0`` product where einsum's sum
  read ``+0.0``, vanishes because every output is accumulated onto zeros.
  It runs in place, taking over the slot of an operand that dies at it and
  *is* that slot's buffer (an axis-0 ``_take``, a ``_mul`` / ``_einsum``);
  views, the values, callers' arrays and SpMM results are never written.
* **Peephole fusion.**  A per-lane outer-product ``Contract`` feeding a
  ``SegmentReduce`` becomes a per-segment GEMM loop (one BLAS ``np.dot``
  per output fiber, never the full lane-expanded outer product), as does
  one feeding a scatter-add by leading gathered axes, on lanes grouped by
  output row at bind time; one feeding a ``LaneSum`` is one GEMM over the
  lane axis.  Other lane sums are scipy CSR products prepared at bind time
  (:class:`_Spmm`): an elementwise values × gathered-dense contract
  feeding a ``SegmentReduce``, a ``ScatterLanes`` (optionally composed
  with the ``SegmentReduce`` of the remaining lane axis) or a
  ``ScatterAdd`` collapses into a single SpMM with ``csf.values`` as the
  matrix data — the dominant MTTKRP/TTMc kernel shapes — and any other
  scatter-add whose gathered axes lead the output multiplies by a unit
  selector, so ``np.add.at`` is left only for non-leading gather axes.
  Every rewrite changes only the association order of the same scalar
  sums, and each fused unit has one body in the generated source.
* **Bind-time preparation.**  Everything that depends only on the CSF
  *structure* — lane ancestor id maps, composed reduction boundaries,
  scatter index vectors, CSR ``indices``/``indptr``, and the program's
  total flop count — is evaluated once per (callable, structure) binding
  and cached under the identity of the level arrays, which every tensor
  of one sparsity pattern shares
  (:func:`~repro.sptensor.csf.csf_for_mode_order`); a new tensor of a
  bound structure only re-points the CSR data at its values.  Warm calls
  do no index arithmetic and count with one ``C.flops +=``.  The total is
  a plain integer sum of the :class:`~repro.engine.lowering.ir.Contract`
  flop terms Algorithm 2 adds one kernel call at a time, so the count
  stays bit-equal.

Every lowered program compiles; a failure while compiling is a bug and
raises out of ``execute()``.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.lowering import ir
from repro.engine.lowering import pool as _bufpool
from repro.engine.lowering.pool import pool_nbytes
from repro.engine.plan_cache import SLOT_DENSE

_STATS = {
    "compiles": 0,
    "runs": 0,
    "bind_hits": 0,
    "bind_misses": 0,
    "bind_evictions": 0,
    "rebinds": 0,
}

#: Live compiled callables (for the stats snapshot's entry/byte counts).
_LIVE: "weakref.WeakSet[CompiledJit]" = weakref.WeakSet()

#: Multiply-adds per segment above which the per-segment GEMM loop wins
#: over one big einsum + segment reduction (each ``np.dot`` call costs a
#: few µs of Python/BLAS dispatch, ~10k flops at memory-bound rates).
_GEMM_MIN_FLOPS_PER_SEG = 4096


# --------------------------------------------------------------------------- #
# Runtime helpers (injected into the generated function's namespace)
# --------------------------------------------------------------------------- #
def _sparse():
    """``scipy.sparse``, imported by the first bind, not by this module."""
    from scipy import sparse

    return sparse


def _reduce_prep(bounds):
    """Bind-time prep for one segment reduction: ``(bounds, selector)``.

    The selector is a scipy CSR matrix with one unit row per segment, so
    the reduction runs as one sparse-dense matmul (``reduceat``'s inner
    loop is scalar; the CSR kernel is 2-10x faster at these shapes).  The
    ones are exact multipliers, so the product differs from ``reduceat``
    only by accumulation order — the same ~1 ulp reassociation the jit
    tier's other fused kernels (per-segment GEMM) already carry.
    """
    n = int(bounds[-1])
    selector = _sparse().csr_matrix(
        (np.ones(n), np.arange(n), np.asarray(bounds)),
        shape=(len(bounds) - 1, n),
    )
    return bounds, selector


def _reduce(B, key, value, red):
    """Segment-reduce lanes along axis 0.

    Contiguous float64 lanes take the CSR selector matmul (~1 ulp
    reassociation); any other layout or dtype takes the pooled
    ``np.add.reduceat``.
    """
    bounds, selector = red
    if value.dtype == np.float64 and value.flags.c_contiguous:
        flat = selector @ value.reshape(value.shape[0], math.prod(value.shape[1:]))
        return flat.reshape((selector.shape[0],) + value.shape[1:])
    return _bufpool.reduceat_into(B, key, value, bounds[:-1])


def _scatter_lanes0(B, key, src, fids, dim):
    buf = _bufpool.scatter_lanes_into(B, key, src, (dim,) + src.shape[1:])
    buf[fids] = src
    return buf


def _scatter_lanes(B, key, src, parents, fids, n_parents, dim):
    buf = _bufpool.scatter_lanes_into(
        B, key, src, (n_parents, dim) + src.shape[1:]
    )
    buf[parents, fids] = src
    return buf


def _gather_along(src, ids, axis):
    shape = [1] * src.ndim
    shape[0] = ids.shape[0]
    picked = np.take_along_axis(src, ids.reshape(shape), axis=axis)
    return np.squeeze(picked, axis=axis)


def _broadcast_index(gather_ids, axes, shape):
    """One broadcast index per axis (lane first, then kept axes), from
    prebound id arrays."""
    n = gather_ids[0].shape[0]
    rank = 1 + (len(axes) - len(gather_ids))
    idx = []
    kept = 0
    pos = 0
    for axis, (kind, _arg) in enumerate(axes):
        template = [1] * rank
        if kind == ir.GATHER:
            template[0] = n
            idx.append(gather_ids[pos].reshape(template))
            pos += 1
        else:
            dim = shape[axis]
            template[1 + kept] = dim
            idx.append(np.arange(dim).reshape(template))
            kept += 1
    return tuple(idx)


def _multigather(arr, gather_ids, axes):
    return arr[_broadcast_index(gather_ids, axes, arr.shape)]


def _scatter_add_general(out, src, gather_ids, axes):
    np.add.at(out, _broadcast_index(gather_ids, axes, out.shape), src)


def _group_order(rows):
    """Stable lane order grouping *rows*, ``None`` when already sorted."""
    return np.argsort(rows, kind="stable") if np.any(rows[1:] < rows[:-1]) else None


class _Spmm:
    """A bind-time CSR operator: lanes grouped by flattened row id.

    ``matrix @ src`` sums every row's lanes, ``head`` being the shape those
    rows unflatten to.  The sort that groups lanes is stable, so a row
    accumulates in lane order — the order of ``reduceat`` and ``np.add.at``
    — and agreement stays within the tier's ~1 ulp reassociation contract
    (bit-exact where rows hold at most one lane).  ``data`` is unit (a
    selector) or ``csf.values``; ``indices``/``indptr``/``order`` depend
    only on the CSF structure, so a new tensor of a bound structure only
    re-points ``data`` (:meth:`rebind`), with no scipy constructor call.
    """

    __slots__ = ("matrix", "order", "head")

    def __init__(self, rows, head, cols, n_cols=None, values=None) -> None:
        self.head = head
        self.order = _group_order(rows)
        if self.order is not None:
            rows, cols = rows[self.order], cols[self.order]
        n_rows = int(np.prod(head, dtype=np.int64))
        if n_cols is None:
            n_cols = int(cols.max()) + 1 if cols.size else 0
        indptr = np.searchsorted(rows, np.arange(n_rows + 1))
        self.matrix = _sparse().csr_matrix(
            (np.ones(rows.size), cols, indptr), shape=(n_rows, n_cols)
        )
        if values is not None:
            # assigned, not passed: the constructor would wrap the array in
            # a new object, and the data must stay ``csf.values`` itself
            self.rebind(values)

    def rebind(self, values) -> None:
        self.matrix.data = values if self.order is None else values[self.order]


def _spmm(op, src):
    """``op.matrix @ src`` along the lane axis, unflattened to ``op.head``."""
    n = op.matrix.shape[1]
    flat = op.matrix @ src[:n].reshape(n, math.prod(src.shape[1:]))
    return flat.reshape(op.head + src.shape[1:])


def _lane_dot(lhs, rhs, perm):
    """``sum0(einsum('a..,a..->a....', lhs, rhs))`` as one GEMM: the
    lane-expanded outer product is never materialized."""
    n = lhs.shape[0]
    out = np.dot(
        lhs.reshape(n, math.prod(lhs.shape[1:])).T, rhs.reshape(n, math.prod(rhs.shape[1:]))
    )
    return out.reshape(lhs.shape[1:] + rhs.shape[1:]).transpose(perm)


def _seg_outer(B, key, spec, lhs, rhs, red):
    """Fused per-lane outer product + segment reduction.

    Equals ``reduceat(einsum(spec, lhs, rhs))`` up to summation order; the
    GEMM path (one BLAS ``np.dot`` per segment) is chosen at run time when
    the average per-segment work amortizes the per-call dispatch cost.
    """
    bounds = red[0]
    n = lhs.shape[0]
    n_seg = bounds.shape[0] - 1
    p = int(np.prod(lhs.shape[1:], dtype=np.int64))
    q = int(np.prod(rhs.shape[1:], dtype=np.int64))
    work_per_seg = (n / n_seg) * p * q if n_seg else 0
    if (
        work_per_seg >= _GEMM_MIN_FLOPS_PER_SEG
        and lhs.dtype == rhs.dtype
        and lhs.dtype.kind == "f"
    ):
        lhs2 = lhs.reshape(n, p)
        rhs2 = rhs.reshape(n, q)
        buf = _bufpool.buffer(B, (key, "g"), (n_seg, p, q), lhs.dtype)
        dot = np.dot
        for seg in range(n_seg):
            lo = bounds[seg]
            hi = bounds[seg + 1]
            dot(lhs2[lo:hi].T, rhs2[lo:hi], out=buf[seg])
        return buf.reshape((n_seg,) + lhs.shape[1:] + rhs.shape[1:])
    tmp = _bufpool.einsum_into(B, (key, "t"), spec, lhs, rhs)
    return _reduce(B, (key, "r"), tmp, red)


_NAMESPACE = {
    "np": np,
    "_take": _bufpool.take_into,
    "_einsum": _bufpool.einsum_into,
    "_mul": _bufpool.multiply_into,
    "_sum0": _bufpool.sum0_into,
    "_reduce": _reduce,
    "_scatter_lanes0": _scatter_lanes0,
    "_scatter_lanes": _scatter_lanes,
    "_gather_along": _gather_along,
    "_multigather": _multigather,
    "_scatter_add_general": _scatter_add_general,
    "_seg_outer": _seg_outer,
    "_spmm": _spmm,
    "_lane_dot": _lane_dot,
}


# --------------------------------------------------------------------------- #
# Bind-time preparation
# --------------------------------------------------------------------------- #
class _Ctx:
    """Per-structure evaluation context for prep builders (memoized id maps).

    Builders read only ``fids``/``fptr`` and the level sizes; the one use of
    ``csf.values`` goes through :meth:`spmm`, which records the operator in
    ``valued`` so :meth:`CompiledJit.bind` can re-point it at the values of
    another tensor of the same structure.
    """

    def __init__(self, csf) -> None:
        self.csf = csf
        self._ids: Dict[tuple, np.ndarray] = {}
        self._groups: Dict[tuple, tuple] = {}
        self.valued: List[_Spmm] = []

    def lanes(self, level: int) -> int:
        return 1 if level < 0 else self.csf.nnz_at_level(level)

    def ids(self, level: int, at_level: int, group=None) -> np.ndarray:
        key = (level, at_level)
        cached = self._ids.get(key)
        if cached is None:
            arr = self.csf.fids[level]
            for lvl in range(level, at_level):
                arr = np.repeat(arr, np.diff(self.csf.fptr[lvl]))
            self._ids[key] = cached = arr
        order = group and self.row_groups(group)[0]  # lanes grouped by row
        return cached if order is None else cached[order]

    def bounds(self, from_level: int, to_level: int) -> np.ndarray:
        """Composed segment boundaries: for each ``to_level`` node, the
        offset range of its ``from_level`` descendants (``n_seg + 1``)."""
        g = self.csf.fptr[to_level]
        for lvl in range(to_level + 1, from_level):
            g = self.csf.fptr[lvl][g]
        return g

    def expand_map(self, from_level: int, to_level: int, group=None) -> np.ndarray:
        """Each ``to_level`` lane's ``from_level`` ancestor (in *group*'s row order)."""
        arr = np.arange(self.lanes(from_level))
        for lvl in range(from_level, to_level):
            arr = np.repeat(arr, np.diff(self.csf.fptr[lvl]))
        order = group and self.row_groups(group)[0]
        return arr if order is None else np.argsort(order)[arr]

    def scatter_rows(self, levels: Tuple[int, ...], at_level: int):
        """``(rows, head)`` of a scatter-add whose gathered axes lead the
        output: each lane's flattened position over those axes."""
        head = tuple(self.csf.level_shape[lv] for lv in levels)
        ids = [self.ids(lv, at_level) for lv in levels]
        rows = ids[0] if len(ids) == 1 else np.ravel_multi_index(ids, head)
        return rows, head

    def row_groups(self, group: tuple):
        """Scatter ``group = (levels, at_level)``'s lanes grouped by output row:
        the stable lane order (``None`` when already grouped), the reduction
        over the rows that have lanes, and those rows' index into ``O``."""
        if group not in self._groups:
            flat, head = self.scatter_rows(*group)
            order = _group_order(flat)
            flat = flat if order is None else flat[order]
            starts = np.flatnonzero(np.diff(flat, prepend=-1))
            red = _reduce_prep(np.append(starts, flat.size))
            self._groups[group] = (order, red, np.unravel_index(flat[starts], head))
        return self._groups[group]

    def lane_rows(self, level: int, dim: int, to_level: Optional[int] = None, group=None):
        """``(rows, head)`` of a ``ScatterLanes`` at ``level``, optionally
        composed with the segment reduction of the remaining lane axis down
        to ``to_level``: rows are *ancestor node x dim + fid*, so the
        per-parent scatter buffer is never built."""
        fids = self.csf.fids[level]
        if level == 0:
            return fids, (int(dim),)
        anc = level - 1 if to_level is None else to_level
        rows = self.expand_map(anc, level, group) * int(dim) + fids
        return rows, (self.lanes(anc), int(dim))

    def spmm(self, rows, head, cols, n_cols=None, valued=True) -> _Spmm:
        op = _Spmm(rows, head, cols, n_cols, self.csf.values if valued else None)
        if valued:
            self.valued.append(op)
        return op


class _Bind:
    """One bound CSF structure: its level arrays (held, so identity cannot
    be recycled), the prep tuple, and the values its SpMM data points at."""

    __slots__ = ("levels", "prep", "valued", "values")

    def __init__(self, levels, prep, valued, values) -> None:
        self.levels = levels
        self.prep = prep
        self.valued = valued
        self.values = values


class CompiledJit:
    """One lowered program compiled to a fused callable with pooled buffers.

    Owned by a :class:`~repro.engine.plan_cache.CompiledPlan` (stored on
    its ``jit`` or ``unfused`` slot), so the pool's buffers and the cached
    per-structure preps live exactly as long as the plan's cache entry.
    Not safe for concurrent use — same contract as the owning executor.
    """

    __slots__ = (
        "source",
        "fn",
        "pool",
        "n_slots",
        "_prep_builders",
        "_binds",
        "__weakref__",
    )

    #: Per-structure prep entries kept per callable (MRU order).
    MAX_BINDS = 4

    def __init__(self, source, fn, n_slots, prep_builders) -> None:
        self.source: str = source
        self.fn = fn
        self.pool: dict = {}
        self.n_slots = n_slots
        self._prep_builders: List[Callable] = prep_builders
        self._binds: List[_Bind] = []

    def bind(self, csf) -> tuple:
        """The prep tuple for *csf*, built once per CSF *structure*.

        Entries are keyed by the identity of the level arrays, which
        :func:`~repro.sptensor.csf.csf_for_mode_order` shares across every
        tensor of one sparsity pattern: a wire-decoded or ``with_values``
        tensor of a bound pattern hits, and only re-points the SpMM data
        at its own values (counted in ``rebinds``).
        """
        binds = self._binds
        levels = csf.fids + csf.fptr
        for i, entry in enumerate(binds):
            if all(map(operator.is_, entry.levels, levels)):
                if i:
                    binds.insert(0, binds.pop(i))
                if entry.values is not csf.values:
                    for op in entry.valued:
                        op.rebind(csf.values)
                    entry.values = csf.values
                    _STATS["rebinds"] += 1
                _STATS["bind_hits"] += 1
                return entry.prep
        ctx = _Ctx(csf)
        prep = tuple(builder(ctx) for builder in self._prep_builders)
        binds.insert(0, _Bind(levels, prep, ctx.valued, csf.values))
        if len(binds) > self.MAX_BINDS:
            del binds[self.MAX_BINDS:]
            _STATS["bind_evictions"] += 1
        _STATS["bind_misses"] += 1
        return prep

    def run(self, csf, dense, out_dense, out_values, counter) -> None:
        """Execute the fused callable against concrete arrays."""
        prep = self.bind(csf)
        _STATS["runs"] += 1
        self.fn(csf.values, dense, out_dense, out_values, prep, self.pool, counter)


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
def _sums_nothing(spec: str) -> bool:
    """Whether *spec* multiplies two operands elementwise (``'ab,ab->ab'``):
    both inputs carry exactly the output subscripts, in their order."""
    inputs, out = spec.split("->")
    return inputs == f"{out},{out}"


def _srcs_of(op) -> Tuple[int, ...]:
    if isinstance(op, ir.Contract):
        return tuple(op.srcs)
    src = getattr(op, "src", None)
    return (src,) if src is not None else ()


def _dst_of(op) -> Optional[int]:
    return getattr(op, "dst", None)


class _Unit:
    """One emission unit: an original op or a fused pseudo-op."""

    __slots__ = ("kind", "op", "srcs", "dst", "info")

    def __init__(self, kind, op, srcs, dst, info=None) -> None:
        self.kind = kind
        self.op = op
        self.srcs = srcs
        self.dst = dst
        self.info = info


def _values_gather(op, in_subs, out_sub, ops, uses, def_op, level):
    """Match an elementwise lane Contract of ``LoadValues`` with a dense
    row gathered per lane at ``level``: a single-gather (axis 0)
    ``ReadArray`` or a ``LaneExpand``, consumed by this Contract only.

    This is the SpMM-able shape ``einsum('a,a...->a...', V, take(dense,
    ids))``: each lane scales one gathered dense row.  Returns the op index
    of the gather, or ``None``.
    """
    for vpos in (0, 1):
        v_sub = in_subs[vpos]
        r_sub = in_subs[1 - vpos]
        if len(v_sub) != 1 or not r_sub or r_sub[0] != v_sub[0]:
            continue
        if out_sub != r_sub or len(set(r_sub)) != len(r_sub):
            continue
        r_reg = op.srcs[1 - vpos]
        v_def = def_op.get(op.srcs[vpos])
        r_def = def_op.get(r_reg)
        if v_def is None or r_def is None or len(uses.get(r_reg, ())) != 1:
            continue
        if not isinstance(ops[v_def], ir.LoadValues):
            continue
        gather = ops[r_def]
        if isinstance(gather, ir.LaneExpand):
            if gather.to_level == level:
                return r_def
        elif (
            isinstance(gather, ir.ReadArray)
            and gather.slot[0] == SLOT_DENSE
            and gather.level == level
            and [kind for kind, _ in gather.axes].count(ir.GATHER) == 1
            and gather.axes[0][0] == ir.GATHER
        ):
            return r_def
    return None


def _leading_gathers(axes) -> bool:
    """True when every gathered axis of a ``ScatterAdd`` precedes every
    kept one, so the gathered axes flatten into the rows of a matrix."""
    kinds = [kind for kind, _ in axes]
    return kinds == sorted(kinds)  # "gather" < "keep"


def _match_fusions(ops, uses, def_op):
    """Find the seg-GEMM, row-GEMM, SpMM and lane-GEMM rewrites.

    Returns ``(skip, fused, regroup)``: op indices subsumed by a fusion, each
    fusion's unit keyed by its *last* op, and the registers emitted row-grouped.
    """
    skip = set()
    fused = {}
    regroup = {}

    def free(*idxs):
        """True when none of the op indices is claimed by a fusion yet."""
        return all(x not in skip and x not in fused for x in idxs)

    def only_user(reg):
        """Index of the single, still unclaimed op reading *reg*, or None."""
        users = uses.get(reg, ())
        return users[0] if len(users) == 1 and free(users[0]) else None

    for i, op in enumerate(ops):
        if not (free(i) and isinstance(op, ir.Contract) and len(op.srcs) == 2):
            continue
        j = only_user(op.dst)
        if j is None:
            continue
        nxt = ops[j]
        inputs, out_sub = op.spec.split("->")
        lhs_sub, rhs_sub = in_subs = inputs.split(",")
        free_subs = lhs_sub[1:] + rhs_sub[1:]
        # a per-lane outer product: both operands carry the lane, no
        # other letter is shared or contracted
        outer = bool(
            lhs_sub
            and rhs_sub
            and out_sub
            and lhs_sub[0] == rhs_sub[0] == out_sub[0]
            and sorted(out_sub[1:]) == sorted(free_subs)
            and len(set(out_sub)) == len(out_sub)
        )
        gemm = outer and out_sub[1:] == free_subs
        gather = chain = None
        if isinstance(nxt, (ir.SegmentReduce, ir.ScatterLanes, ir.ScatterAdd)):
            is_reduce = isinstance(nxt, ir.SegmentReduce)
            gather = _values_gather(
                op, in_subs, out_sub, ops, uses, def_op,
                nxt.from_level if is_reduce else nxt.level,
            )
            if gather is not None and not free(gather):
                gather = None
        # P1: lane outer product feeding its only consumer, a
        # SegmentReduce -> per-segment GEMM over the composed
        # boundaries; when the product is values x gathered-dense the
        # whole gather/scale/reduce chain is one CSR SpMM.
        if isinstance(nxt, ir.SegmentReduce) and gemm:
            if gather is not None:
                chain = (ops[gather], op, nxt)
            else:
                skip.add(i)
                fused[j] = _Unit(
                    "seg_outer",
                    op,
                    op.srcs,
                    nxt.dst,
                    (op.spec, nxt.from_level, nxt.to_level),
                )
        # P1b: values x gathered-dense feeding a ScatterLanes -> one
        # SpMM whose rows are the flattened scatter positions; a
        # SegmentReduce of the remaining lane axis composes into the
        # same matrix (rows of the ancestor, not of the parent).
        elif isinstance(nxt, ir.ScatterLanes) and gather is not None:
            chain = (ops[gather], op, nxt)
            k = only_user(nxt.dst)
            if (
                k is not None
                and isinstance(ops[k], ir.SegmentReduce)
                and ops[k].from_level == nxt.level - 1
            ):
                skip.add(j)
                chain += (ops[k],)
                j = k
        # P1c: the same product feeding a non-direct ScatterAdd whose
        # gathered axes lead the output -> O += SpMM.
        elif (
            isinstance(nxt, ir.ScatterAdd)
            and gather is not None
            and not nxt.direct
            and _leading_gathers(nxt.axes)
        ):
            chain = (ops[gather], op, nxt)
        # P1d: a lane outer product feeding that ScatterAdd -> P1's GEMMs on
        # lanes grouped by output row; single-use gather / P1 SpMM operands
        # are emitted grouped, others are gathered into that order.
        elif (
            isinstance(nxt, ir.ScatterAdd) and gemm and not nxt.direct and _leading_gathers(nxt.axes)
        ):
            skip.add(i)
            group = (tuple(a for kind, a in nxt.axes if kind == ir.GATHER), nxt.level)
            fused[j] = _Unit("row_outer", op, op.srcs, None, (op.spec, group))
            for reg in op.srcs:
                prod = fused.get(def_op[reg], ops[def_op[reg]])
                if uses[reg] == [i] and (
                    isinstance(prod, ir.ReadArray) or getattr(prod, "kind", "") == "spmm"
                ):
                    regroup[reg] = group
        # P2: lane outer product whose lanes are all summed away -> one
        # GEMM contracting the lane axis.
        elif isinstance(nxt, ir.LaneSum) and outer:
            skip.add(i)
            perm = tuple(free_subs.index(ch) for ch in out_sub[1:])
            fused[j] = _Unit("lane_dot", op, op.srcs, nxt.dst, perm)
        if chain is not None:
            skip.update((i, gather))
            srcs = tuple(s for s in op.srcs if s != chain[0].dst)
            fused[j] = _Unit(
                "spmm", op, srcs + _srcs_of(chain[0]), _dst_of(chain[-1]), chain
            )
    # P3: a lane-making gather (a LaneExpand, or a GatherAxis creating the
    # lane axis) read only by lane-carrying GatherAxis picks -> one gather of
    # every lane's slots, so no register holds the picked axes whole per
    # lane (lanes x free axes only).
    for i, op in enumerate(ops):
        if not free(i):
            continue
        if isinstance(op, ir.LaneExpand):
            at_level = op.to_level
        elif isinstance(op, ir.GatherAxis) and not op.src_has_lane:
            at_level = op.at_level
        else:
            continue
        picks, last, j = [], None, only_user(op.dst)
        while (
            j is not None
            and isinstance(ops[j], ir.GatherAxis)
            and ops[j].src_has_lane
            and ops[j].at_level == at_level
        ):
            picks.append(ops[j])
            last, j = j, only_user(ops[j].dst)
        if picks:
            skip.add(i)
            skip.update(def_op[pick.src] for pick in picks[1:])
            fused[last] = _Unit("lane_gather", op, (op.src,), picks[-1].dst, tuple(picks))
    return skip, fused, regroup


def _gathered_axes(head, picks) -> Tuple[int, ...]:
    """Source axis of each id array of a ``lane_gather`` unit, head first.

    The head puts the lane axis first (a ``LaneExpand`` source already
    has it there) and each pick drops one axis of what is left, so the
    picks' axis numbers are mapped back through both.
    """
    taken: List[int] = []  # positions in the lane-first layout
    for pick in picks:
        axis = pick.axis
        for t in sorted(taken):
            if t <= axis:
                axis += 1
        taken.append(axis)
    if isinstance(head, ir.LaneExpand):
        return (0, *taken)
    lane = head.axis  # lane-first position p > 0 is source axis p - 1 up to it
    return (lane, *(pos - 1 if pos <= lane else pos for pos in taken))


def _reg_signatures(units) -> Dict[int, tuple]:
    """Structural shape signature per register: two registers with equal
    signatures have equal shapes and dtypes under any single binding, so
    their pool slots are interchangeable."""
    sig: Dict[int, tuple] = {}

    def of(reg: int) -> tuple:
        return sig.get(reg, ("ext", reg))

    for unit in units:
        op, dst = unit.op, unit.dst
        if dst is None:
            continue
        if unit.kind == "seg_outer":
            spec, _from, to_level = unit.info
            sig[dst] = ("seg_outer", spec, to_level, tuple(of(s) for s in unit.srcs))
        elif unit.kind in ("spmm", "lane_dot", "lane_gather"):
            # no pool slot to share: the op chain itself is the identity
            sig[dst] = (unit.kind, op, unit.info)
        elif isinstance(op, ir.LoadValues):
            sig[dst] = ("values",)
        elif isinstance(op, ir.ReadArray):
            sig[dst] = ("read", op.slot, op.level, op.axes)
        elif isinstance(op, ir.Contract):
            sig[dst] = ("einsum", op.spec, tuple(of(s) for s in op.srcs))
        elif isinstance(op, ir.SegmentReduce):
            sig[dst] = ("segred", op.from_level, op.to_level, of(op.src))
        elif isinstance(op, ir.LaneExpand):
            sig[dst] = ("expand", op.from_level, op.to_level, of(op.src))
        elif isinstance(op, ir.LaneSum):
            sig[dst] = ("lanesum", of(op.src))
        elif isinstance(op, ir.ScatterLanes):
            sig[dst] = ("scatlanes", op.level, op.dim, of(op.src))
        elif isinstance(op, ir.GatherAxis):
            sig[dst] = (
                "gataxis", op.axis, op.level, op.at_level, op.src_has_lane,
                of(op.src),
            )
        else:  # pragma: no cover - defensive
            sig[dst] = ("op", type(op).__name__, dst)
    return sig


class _Emitter:
    """Accumulates generated source lines and bind-time prep builders."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.preps: List[Callable] = []
        self.dense_vars: Dict[str, str] = {}
        self._tmp = 0

    def prep(self, builder: Callable) -> str:
        self.preps.append(builder)
        return f"P[{len(self.preps) - 1}]"

    def dense(self, name: str) -> str:
        var = self.dense_vars.get(name)
        if var is None:
            var = f"_d{len(self.dense_vars)}"
            self.dense_vars[name] = var
        return var

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def line(self, text: str) -> None:
        self.lines.append("    " + text)


def _emit_unit(em: _Emitter, unit: _Unit, slot: Optional[int], regroup: dict) -> None:
    op = unit.op
    dst = f"r{unit.dst}" if unit.dst is not None else None
    group = regroup.get(unit.dst)  # emit the lanes grouped by its rows
    if unit.kind == "seg_outer":
        spec, from_level, to_level = unit.info
        bounds = em.prep(
            lambda ctx, f=from_level, t=to_level: _reduce_prep(ctx.bounds(f, t))
        )
        a, b = unit.srcs
        em.line(
            f"{dst} = _seg_outer(B, {slot}, {spec!r}, r{a}, r{b}, {bounds})"
        )
    elif unit.kind == "row_outer":
        spec, scatter = unit.info
        key, rows = ("row", op.dst), em.prep(lambda ctx: ctx.row_groups(scatter))
        a, b = (
            f"r{r}" if r in regroup else f"_take(B, {(key, n)!r}, r{r}, {rows}[0], 0)"
            for n, r in enumerate(unit.srcs)
        )
        em.line(f"O[{rows}[2]] += _seg_outer(B, {key!r}, {spec!r}, {a}, {b}, {rows}[1])")
    elif unit.kind == "spmm":
        gather, _contract, *tail = unit.info
        first, last = tail[0], tail[-1]
        expand = isinstance(gather, ir.LaneExpand)
        src = f"r{gather.src}" if expand else em.dense(gather.slot[1])

        def build(ctx):
            if isinstance(last, ir.ScatterAdd):
                levels = tuple(arg for kind, arg in last.axes if kind == ir.GATHER)
                rows = ctx.scatter_rows(levels, last.level)
            elif isinstance(first, ir.ScatterLanes):
                to_level = last.to_level if len(tail) == 2 else None
                rows = ctx.lane_rows(first.level, first.dim, to_level, group)
            else:
                rows = (
                    ctx.expand_map(last.to_level, last.from_level, group),
                    (ctx.lanes(last.to_level),),
                )
            if expand:
                cols = ctx.expand_map(gather.from_level, gather.to_level)
                return ctx.spmm(*rows, cols, ctx.lanes(gather.from_level))
            return ctx.spmm(*rows, ctx.ids(gather.axes[0][1], gather.level))

        assign = "O +=" if dst is None else f"{dst} ="
        em.line(f"{assign} _spmm({em.prep(build)}, {src})")
    elif unit.kind == "lane_gather":
        axes = _gathered_axes(op, unit.info)

        def build(ctx, head=op, picks=unit.info):
            if isinstance(head, ir.LaneExpand):
                ids = [ctx.expand_map(head.from_level, head.to_level)]
            else:
                ids = [ctx.ids(head.level, head.at_level)]
            ids += [ctx.ids(pick.level, pick.at_level) for pick in picks]
            index = [slice(None)] * (1 + max(axes))
            for axis, axis_ids in zip(axes, ids):
                index[axis] = axis_ids
            return tuple(index)

        picked = f"r{op.src}[{em.prep(build)}]"
        # adjacent id arrays put the lane axis where the first one was
        first = min(axes)
        if first and sorted(axes) == list(range(first, first + len(axes))):
            picked = f"np.moveaxis({picked}, {first}, 0)"
        em.line(f"{dst} = {picked}")
    elif unit.kind == "lane_dot":
        a, b = unit.srcs
        em.line(f"{dst} = _lane_dot(r{a}, r{b}, {unit.info!r})")
    elif isinstance(op, ir.LoadValues):
        em.line(f"{dst} = V")
    elif isinstance(op, ir.ReadArray):
        arr = em.dense(op.slot[1])
        gathers = [
            (axis, arg)
            for axis, (kind, arg) in enumerate(op.axes)
            if kind == ir.GATHER
        ]
        if not gathers:
            em.line(f"{dst} = {arr}")
        elif len(gathers) == 1:
            axis, bind_level = gathers[0]
            ids = em.prep(
                lambda ctx, b=bind_level, lv=op.level: ctx.ids(b, lv, group)
            )
            em.line(f"{dst} = _take(B, {slot}, {arr}, {ids}, {axis})")
        else:
            ids = em.prep(
                lambda ctx, g=tuple(gathers), lv=op.level: tuple(
                    ctx.ids(arg, lv, group) for _axis, arg in g
                )
            )
            em.line(f"{dst} = _multigather({arr}, {ids}, {op.axes!r})")
    elif isinstance(op, ir.Contract):
        srcs = ", ".join(f"r{s}" for s in op.srcs)
        if _sums_nothing(op.spec):
            em.line(f"{dst} = _mul(B, {slot}, {srcs})")
        else:
            em.line(f"{dst} = _einsum(B, {slot}, {op.spec!r}, {srcs})")
    elif isinstance(op, ir.SegmentReduce):
        cur = f"r{op.src}"
        for step, lvl in enumerate(range(op.from_level - 1, op.to_level - 1, -1)):
            bounds = em.prep(lambda ctx, lv=lvl: _reduce_prep(ctx.csf.fptr[lv]))
            nxt = dst if lvl == op.to_level else em.tmp()
            em.line(f"{nxt} = _reduce(B, ({slot}, {step}), {cur}, {bounds})")
            cur = nxt
    elif isinstance(op, ir.LaneExpand):
        ids = em.prep(
            lambda ctx, f=op.from_level, t=op.to_level: ctx.expand_map(f, t)
        )
        em.line(f"{dst} = _take(B, {slot}, r{op.src}, {ids}, 0)")
    elif isinstance(op, ir.LaneSum):
        em.line(f"{dst} = _sum0(B, {slot}, r{op.src})")
    elif isinstance(op, ir.ScatterLanes):
        fids = em.prep(lambda ctx, lv=op.level: ctx.csf.fids[lv])
        if op.level == 0:
            em.line(
                f"{dst} = _scatter_lanes0(B, {slot}, r{op.src}, {fids}, {op.dim})"
            )
        else:
            parents = em.prep(lambda ctx, lv=op.level: ctx.expand_map(lv - 1, lv))
            n_par = em.prep(lambda ctx, lv=op.level: ctx.lanes(lv - 1))
            em.line(
                f"{dst} = _scatter_lanes(B, {slot}, r{op.src}, {parents}, "
                f"{fids}, {n_par}, {op.dim})"
            )
    elif isinstance(op, ir.GatherAxis):
        ids = em.prep(lambda ctx, lv=op.level, at=op.at_level: ctx.ids(lv, at))
        if op.src_has_lane:
            em.line(f"{dst} = _gather_along(r{op.src}, {ids}, {op.axis})")
        else:
            em.line(f"{dst} = _take(B, {slot}, r{op.src}, {ids}, {op.axis})")
    elif isinstance(op, ir.ScatterAdd):
        gathers = [arg for kind, arg in op.axes if kind == ir.GATHER]
        if not gathers:
            em.line(f"O[...] += r{op.src}")
        elif op.direct:
            ids = em.prep(
                lambda ctx, g=tuple(gathers), lv=op.level: tuple(
                    ctx.ids(arg, lv) for arg in g
                )
            )
            em.line(f"O[{ids}] += r{op.src}")
        elif _leading_gathers(op.axes):
            # a unit selector sums each output row's lanes in lane order
            sel = em.prep(
                lambda ctx, g=tuple(gathers), lv=op.level: ctx.spmm(
                    *ctx.scatter_rows(g, lv),
                    np.arange(ctx.lanes(lv)),
                    ctx.lanes(lv),
                    valued=False,
                )
            )
            em.line(f"O += _spmm({sel}, r{op.src})")
        else:
            ids = em.prep(
                lambda ctx, g=tuple(gathers), lv=op.level: tuple(
                    ctx.ids(arg, lv) for arg in g
                )
            )
            em.line(f"_scatter_add_general(O, r{op.src}, {ids}, {op.axes!r})")
    elif isinstance(op, ir.AccumulateLeaf):
        em.line(f"OV += r{op.src}")
    else:
        raise ValueError(f"internal error: unknown lowered op {op!r}")


#: Unit kinds / op types whose results are views or aliases (no pool slot).
def _needs_slot(unit: _Unit) -> bool:
    if unit.dst is None or unit.kind in ("spmm", "lane_dot", "lane_gather"):
        return False
    op = unit.op
    if isinstance(op, ir.LoadValues):
        return False
    if isinstance(op, ir.ReadArray) and not any(
        kind == ir.GATHER for kind, _ in op.axes
    ):
        return False
    return True


def _is_its_buffer(unit: _Unit) -> bool:
    """Whether the unit's register *is* ``B[slot]``: axis-0 ``_take``, ``_mul``, ``_einsum``."""
    op = unit.op
    return unit.kind == "op" and (
        isinstance(op, ir.LaneExpand)
        or isinstance(op, ir.Contract) and len(op.srcs) == 2
        or isinstance(op, ir.GatherAxis) and op.axis == 0 and not op.src_has_lane
        or isinstance(op, ir.ReadArray)
        and [kind for kind, _ in op.axes] == [ir.GATHER] + [ir.KEEP] * (len(op.axes) - 1)
    )


def _emit_flops(em: _Emitter, ops) -> None:
    flops = tuple(t for op in ops if isinstance(op, ir.Contract) for t in op.flops)
    if flops:
        total = em.prep(lambda ctx: sum(f * ctx.lanes(lv) for f, lv in flops))
        em.line(f"C.flops += {total}")


def compile_program(program: ir.Program, fuse: bool = True) -> CompiledJit:
    """Compile one lowered program into a callable.

    ``fuse=False`` skips the peephole pass, so every op is emitted on its
    own (the ``lowered`` engine).
    """
    compiled = _compile(program, fuse)
    _STATS["compiles"] += 1
    _LIVE.add(compiled)
    return compiled


def _compile(program: ir.Program, fuse: bool) -> CompiledJit:
    ops = program.ops
    uses: Dict[int, List[int]] = defaultdict(list)
    def_op: Dict[int, int] = {}
    for i, op in enumerate(ops):
        for src in _srcs_of(op):
            uses[src].append(i)
        dst = _dst_of(op)
        if dst is not None:
            def_op[dst] = i

    skip, fused, regroup = _match_fusions(ops, uses, def_op) if fuse else (set(), {}, {})
    units: List[_Unit] = []
    for i, op in enumerate(ops):
        if i in skip:
            continue
        if i in fused:
            units.append(fused[i])
        else:
            units.append(_Unit("op", op, _srcs_of(op), _dst_of(op)))

    # liveness over the rewritten unit list
    last_use: Dict[int, int] = {}
    for ui, unit in enumerate(units):
        for src in unit.srcs:
            last_use[src] = ui
        if unit.dst is not None:
            last_use.setdefault(unit.dst, ui)

    sig = _reg_signatures(units)
    em = _Emitter()
    free: Dict[tuple, List[int]] = defaultdict(list)
    slot_of: Dict[int, int] = {}
    owners = {unit.dst for unit in units if _is_its_buffer(unit)}
    n_slots = 0
    for ui, unit in enumerate(units):
        slot: Optional[int] = None
        # a `_mul` takes over the slot of a dying operand that is its slot's buffer
        mul = unit.kind == "op" and isinstance(unit.op, ir.Contract) and _sums_nothing(unit.op.spec)
        heirs = [s for s in unit.srcs if mul and s in owners and last_use[s] == ui]
        if heirs:
            slot = slot_of[unit.dst] = slot_of.pop(heirs[0])  # not freed below
        elif _needs_slot(unit):
            bucket = free[sig[unit.dst]]
            slot = slot_of[unit.dst] = bucket.pop() if bucket else n_slots
            n_slots = max(n_slots, slot + 1)
        _emit_unit(em, unit, slot, regroup)
        dying = set(unit.srcs)
        if unit.dst is not None:
            dying.add(unit.dst)
        for reg in dying:
            if last_use.get(reg) == ui and reg in slot_of:
                free[sig[reg]].append(slot_of[reg])
    _emit_flops(em, ops)

    header = ["def _fused(V, D, O, OV, P, B, C):"]
    for name, var in em.dense_vars.items():
        header.append(f"    {var} = D[{name!r}]")
    source = "\n".join(header + em.lines) + "\n"
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<repro-jit>", "exec"), namespace)
    return CompiledJit(source, namespace["_fused"], n_slots, em.preps)


# --------------------------------------------------------------------------- #
# Introspection
# --------------------------------------------------------------------------- #
def jit_stats() -> Dict[str, int]:
    """Codegen-tier stats in the shared cache-snapshot shape.

    ``entries``/``bytes`` cover live compiled callables and their pooled
    buffers; ``hits``/``misses``/``evictions`` count the per-structure
    prep cache; ``rejections`` reads 0, as every plan lowers and compiles.
    Both the ``jit`` and the ``lowered`` engine's callables count here.  Extra keys:
    ``compiles``, ``runs`` and ``rebinds`` (hits that re-pointed the SpMM
    data at a new tensor's values).
    """
    live = list(_LIVE)
    return {
        "entries": len(live),
        "hits": _STATS["bind_hits"],
        "misses": _STATS["bind_misses"],
        "evictions": _STATS["bind_evictions"],
        "rejections": 0,
        "bytes": sum(pool_nbytes(c.pool) for c in live),
        "compiles": _STATS["compiles"],
        "runs": _STATS["runs"],
        "rebinds": _STATS["rebinds"],
    }

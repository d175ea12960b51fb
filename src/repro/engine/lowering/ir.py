"""Typed IR for lowered (flat, vectorized) loop-nest execution.

The lowering pass (:mod:`repro.engine.lowering.lower`) compiles the symbolic
site steps of a :class:`~repro.engine.plan_cache.CompiledPlan` into a small
linear program over flat arrays: gathers of dense operands into *lane*
layout, broadcast multiplies / contractions over lanes, segment reductions
along the CSF level pointers, and scatter-accumulates into the output.  The
program is array-independent (operands are named slots, CSF level arrays are
read from whatever tensor the execution binds) and is compiled by
:mod:`repro.engine.lowering.codegen` into a callable with no per-fiber
Python dispatch.

Lanes
-----
A *lane* is one iteration of the enclosing sparse loops: at CSF level ``k``
there is one lane per stored node of that level (``nnz_{I_1..I_{k+1}}`` of
the paper), and level ``-1`` denotes the scalar context outside all sparse
loops (a single lane).  Register values are arrays whose first axis is the
lane axis (when present), followed by named dense axes — dense loop indices
vectorized as batch axes and the free axes of an offload site.

Counts
------
The flop count must match Algorithm 2's exactly, so every
:class:`Contract` carries symbolic :data:`Count` terms ``(factor, level)``
evaluating to ``factor * n_lanes(level)`` once a concrete tensor is bound;
``factor`` folds in the static dense dimensions (batch sizes, free-index
spaces).  No other op counts anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

#: Symbolic operation count: ``factor * n_lanes(level)``; level ``-1`` means
#: one lane (outside all sparse loops).
Count = Tuple[int, int]

#: Per-axis action of :class:`ReadArray` / :class:`ScatterAdd`.
#: ``("gather", level)`` indexes the axis with each lane's level-``level``
#: ancestor id; ``("keep", -1)`` keeps the axis whole (dense batch or free).
AxisSpec = Tuple[str, int]

GATHER = "gather"
KEEP = "keep"


@dataclass(frozen=True)
class LoadValues:
    """``reg[dst] = csf.values`` — one lane per stored nonzero (leaf level)."""

    dst: int


@dataclass(frozen=True)
class ReadArray:
    """Gather one dense operand into lane layout at ``level``.

    ``axes`` has one entry per source-array axis.  Gathered axes are indexed
    by the lane's bound ancestor id and collapse into the lane axis; kept
    axes survive in source order after it.  With no gathers the result is
    the source array itself (no lane axis).
    """

    dst: int
    slot: Tuple[str, Optional[str]]
    level: int
    axes: Tuple[AxisSpec, ...]


@dataclass(frozen=True)
class Contract:
    """``reg[dst] = einsum(spec, *reg[srcs])``, counting ``flops``.

    The subscripts are prebuilt by the lowering pass: the lane letter is
    shared by lane-carrying operands, dense loop (batch) axes align by
    letter, and contracted free axes are exactly those the interpreted
    offload site would contract.  ``flops`` are the :data:`Count` terms of
    the scalar operations the interpreted site reports.
    """

    dst: int
    spec: str
    srcs: Tuple[int, ...]
    flops: Tuple[Count, ...] = ()


@dataclass(frozen=True)
class SegmentReduce:
    """Sum lanes from ``from_level`` down to ``to_level`` along the CSF tree.

    One ``np.add.reduceat`` per intermediate level, in child order — the
    same accumulation order as the interpreted loops.
    """

    dst: int
    src: int
    from_level: int
    to_level: int


@dataclass(frozen=True)
class LaneExpand:
    """Replicate lanes from ``from_level`` down to ``to_level`` (repeat by
    child counts) so a shallow producer can be consumed under deeper loops."""

    dst: int
    src: int
    from_level: int
    to_level: int


@dataclass(frozen=True)
class LaneSum:
    """Sum away the lane axis entirely (reduce level-0 lanes to the scalar
    context)."""

    dst: int
    src: int


@dataclass(frozen=True)
class ScatterLanes:
    """Turn the lane axis at ``level`` into a dense axis of size ``dim``.

    Each lane's value lands at position ``fids[level]`` of a fresh zero
    axis inserted right after the parent lane axis (level ``level - 1``; no
    lane axis remains when ``level`` is 0).  Children of one parent have
    distinct ids, so this is a conflict-free assignment.  Used when an
    intermediate buffer keeps a sparse index that is a bound loop at its
    producer: Algorithm 2 writes one buffer slot per iteration of that
    loop, the lowered program writes all slots of a parent at once.
    """

    dst: int
    src: int
    level: int
    dim: int


@dataclass(frozen=True)
class GatherAxis:
    """Select one slot of a named dense axis per lane (the consumer-side
    dual of :class:`ScatterLanes`): ``dst[lane, ...] = src[lane, ...,
    ids[lane], ...]`` with ids bound at ``level`` and lanes at
    ``at_level``.  When the source has no lane axis the gather creates one.
    """

    dst: int
    src: int
    axis: int
    level: int
    at_level: int
    src_has_lane: bool


@dataclass(frozen=True)
class ScatterAdd:
    """Accumulate ``reg[src]`` into the dense output array.

    ``axes`` has one entry per output-array axis; gathered axes are indexed
    with lane ancestor ids at ``level``, kept axes align positionally with
    the source's post-lane axes.  ``direct`` marks the fast path where the
    gathered axes form a leading prefix whose id tuples are unique per lane
    (a full CSF prefix), allowing a plain fancy-indexed ``+=``; otherwise
    the sum needs an unbuffered ``np.add.at`` or a CSR product.
    """

    src: int
    level: int
    axes: Tuple[AxisSpec, ...]
    direct: bool


@dataclass(frozen=True)
class AccumulateLeaf:
    """``out_values += reg[src]`` for sparse-pattern outputs (leaf-aligned)."""

    src: int


Op = Union[
    LoadValues,
    ReadArray,
    Contract,
    SegmentReduce,
    LaneExpand,
    LaneSum,
    ScatterLanes,
    GatherAxis,
    ScatterAdd,
    AccumulateLeaf,
]


@dataclass(frozen=True)
class Program:
    """A lowered loop nest: a straight-line op list over ``n_regs`` registers."""

    ops: Tuple[Op, ...]
    n_regs: int

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    def describe(self) -> str:
        """Readable dump of the program (for tests and the CLI)."""
        lines = [f"lowered program: {len(self.ops)} ops, {self.n_regs} registers"]
        for i, op in enumerate(self.ops):
            lines.append(f"  {i:3d}: {op}")
        return "\n".join(lines)

"""Loop orders, peeling and fully-fused loop nest forests.

A *loop order* (Definition 3.2) assigns to every contraction term of a
contraction path a permutation of that term's indices.  The *fully-fused
loop nest forest* (Definitions 4.1–4.3) is obtained by iteratively peeling
the common first index of maximal runs of consecutive terms; each peel adds
one loop vertex whose children are the peeled sub-orders.

This module provides:

* :class:`LoopOrder` — the per-term orders plus validation against the CSF
  storage-order restriction of Section 5;
* :func:`build_fused_forest` — the peeling construction, producing
  :class:`LoopVertex`/:class:`TermLeaf` trees;
* :func:`common_ancestor_loops` and :func:`intermediate_buffers` — buffer
  index inference per Equation 5 (buffer indices are the producer's output
  indices minus the loops shared by producer and consumer);
* :class:`LoopNest` — a contraction path plus a loop order, the unit the
  cost models score and the execution engine runs;
* pretty-printing of loop nests as pseudo-code, mirroring the listings in
  the paper (Listings 2–4, Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.contraction_path import ContractionPath
from repro.core.expr import SpTTNKernel
from repro.util.validation import require


# --------------------------------------------------------------------------- #
# Loop orders
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoopOrder:
    """Per-term loop orders ``A = (A_1, ..., A_N)`` for a contraction path."""

    orders: Tuple[Tuple[str, ...], ...]

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, item: int) -> Tuple[str, ...]:
        return self.orders[item]

    def __iter__(self) -> Iterator[Tuple[str, ...]]:
        return iter(self.orders)

    def max_depth(self) -> int:
        return max((len(o) for o in self.orders), default=0)


def validate_loop_order(
    kernel: SpTTNKernel,
    path: ContractionPath,
    order: LoopOrder,
    enforce_csf_order: bool = True,
) -> None:
    """Raise ``ValueError`` if *order* is not a valid loop order for *path*.

    Checks:
    * one order per term, each a permutation of the term's index union;
    * (optionally) sparse indices appear in CSF storage order within each
      term, the restriction the runtime imposes (Section 5).
    """
    require(
        len(order) == len(path),
        f"loop order has {len(order)} terms but path has {len(path)}",
    )
    for pos, (term, term_order) in enumerate(zip(path, order)):
        expected = set(term.all_indices)
        got = set(term_order)
        require(
            expected == got and len(term_order) == len(term.all_indices),
            f"term {pos}: loop order {term_order} is not a permutation of "
            f"{term.all_indices}",
        )
        if enforce_csf_order:
            sparse_seq = [i for i in term_order if i in kernel.sparse_indices]
            expected_seq = [
                i for i in kernel.csf_mode_order if i in set(sparse_seq)
            ]
            require(
                sparse_seq == expected_seq,
                f"term {pos}: sparse indices {sparse_seq} are not in CSF "
                f"storage order {expected_seq}",
            )


def default_loop_order(kernel: SpTTNKernel, path: ContractionPath) -> LoopOrder:
    """A simple valid loop order: sparse indices in CSF order, then dense.

    Used as a starting point and by baselines; not cost-optimized.
    """
    orders = []
    for term in path:
        idxs = sorted(
            term.all_indices,
            key=lambda i: (kernel.sparse_order_key(i), term.all_indices.index(i)),
        )
        orders.append(tuple(idxs))
    return LoopOrder(tuple(orders))


# --------------------------------------------------------------------------- #
# Fully-fused forest (peeling construction)
# --------------------------------------------------------------------------- #
@dataclass
class TermLeaf:
    """A leaf of the fused forest: the position of a contraction term."""

    term_position: int


@dataclass
class LoopVertex:
    """A loop in the fused forest, labelled with its index name."""

    index: str
    children: List[Union["LoopVertex", TermLeaf]] = field(default_factory=list)


@dataclass
class FusedForest:
    """A fully-fused loop nest forest (ordered list of root loop vertices)."""

    roots: List[Union[LoopVertex, TermLeaf]]

    def is_fully_fused(self) -> bool:
        """No vertex (or the virtual forest root) has two consecutive children
        that are loops over the same index."""

        def check(children: Sequence[Union[LoopVertex, TermLeaf]]) -> bool:
            prev: Optional[str] = None
            for child in children:
                label = child.index if isinstance(child, LoopVertex) else None
                if label is not None and label == prev:
                    return False
                prev = label
                if isinstance(child, LoopVertex) and not check(child.children):
                    return False
            return True

        return check(self.roots)


def build_fused_forest(path: ContractionPath, order: LoopOrder) -> FusedForest:
    """Construct the fully-fused loop nest forest for (path, order).

    The construction is Definition 4.2: repeatedly peel the first index of
    the maximal run of consecutive terms sharing it, creating a loop vertex
    whose children are built recursively from the peeled orders.
    """
    require(len(order) == len(path), "order and path must have matching length")
    positions = list(range(len(path)))
    remaining = [list(o) for o in order]

    def build(pos: List[int], rem: List[List[str]]) -> List[Union[LoopVertex, TermLeaf]]:
        roots: List[Union[LoopVertex, TermLeaf]] = []
        i = 0
        while i < len(pos):
            if not rem[i]:
                roots.append(TermLeaf(pos[i]))
                i += 1
                continue
            root_index = rem[i][0]
            j = i
            while j < len(pos) and rem[j] and rem[j][0] == root_index:
                j += 1
            children = build(pos[i:j], [r[1:] for r in rem[i:j]])
            roots.append(LoopVertex(root_index, children))
            i = j
        return roots

    return FusedForest(build(positions, remaining))


# --------------------------------------------------------------------------- #
# Intermediate buffers (Equation 5)
# --------------------------------------------------------------------------- #
def common_ancestor_loops(
    order: LoopOrder, producer: int, consumer: int
) -> Tuple[str, ...]:
    """Loop indices shared as ancestors by two terms in the fused forest.

    In the peeling construction, terms *producer* and *consumer* (producer
    first) share a loop at depth ``d`` exactly when every term between them
    (inclusive) has the same index at position ``d`` of its remaining order;
    the shared prefix of such depths is the common-ancestor set ``S`` of
    Equation 5.
    """
    require(
        0 <= producer <= consumer < len(order),
        f"invalid term positions {producer}, {consumer}",
    )
    ancestors: List[str] = []
    depth = 0
    while True:
        if depth >= len(order[producer]):
            break
        candidate = order[producer][depth]
        ok = True
        for t in range(producer, consumer + 1):
            if depth >= len(order[t]) or order[t][depth] != candidate:
                ok = False
                break
        if not ok:
            break
        ancestors.append(candidate)
        depth += 1
    return tuple(ancestors)


@dataclass(frozen=True)
class BufferSpec:
    """The dense buffer holding one intermediate tensor during execution."""

    name: str
    producer: int
    consumer: int
    indices: Tuple[str, ...]

    @property
    def dimension(self) -> int:
        return len(self.indices)

    def size(self, index_dims: Dict[str, int]) -> int:
        total = 1
        for idx in self.indices:
            total *= int(index_dims[idx])
        return total


def intermediate_buffers(
    path: ContractionPath, order: LoopOrder
) -> List[BufferSpec]:
    """Buffer index sets for every intermediate of (path, order), per Eq. 5.

    The buffer for the intermediate produced by term ``x`` and consumed by
    term ``y`` keeps exactly the producer-output indices that are *not*
    common-ancestor loops of ``x`` and ``y``.
    """
    consumers = path.consumers()
    buffers: List[BufferSpec] = []
    for producer, consumer in consumers.items():
        shared = set(common_ancestor_loops(order, producer, consumer))
        out_idx = path[producer].out_indices
        kept = tuple(i for i in out_idx if i not in shared)
        buffers.append(
            BufferSpec(
                name=path[producer].out,
                producer=producer,
                consumer=consumer,
                indices=kept,
            )
        )
    return buffers


def max_buffer_dimension(path: ContractionPath, order: LoopOrder) -> int:
    """Ground-truth maximum buffer dimension of a loop nest (0 if no buffers)."""
    return max((b.dimension for b in intermediate_buffers(path, order)), default=0)


def max_buffer_size(
    path: ContractionPath, order: LoopOrder, index_dims: Dict[str, int]
) -> int:
    """Ground-truth maximum buffer size (number of elements) of a loop nest."""
    return max(
        (b.size(index_dims) for b in intermediate_buffers(path, order)), default=0
    )


# --------------------------------------------------------------------------- #
# LoopNest: the schedulable / executable unit
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LoopNest:
    """A contraction path together with a loop order for each of its terms."""

    path: ContractionPath
    order: LoopOrder

    def __post_init__(self) -> None:
        require(
            len(self.order) == len(self.path),
            "loop order and contraction path must have the same number of terms",
        )

    def forest(self) -> FusedForest:
        return build_fused_forest(self.path, self.order)

    def buffers(self) -> List[BufferSpec]:
        return intermediate_buffers(self.path, self.order)

    def max_buffer_dimension(self) -> int:
        return max_buffer_dimension(self.path, self.order)

    def max_loop_depth(self) -> int:
        return self.order.max_depth()

    def describe(self, kernel: Optional[SpTTNKernel] = None) -> str:
        """Render the loop nest as indented pseudo-code (like the paper's listings)."""
        lines: List[str] = []
        sparse = kernel.sparse_indices if kernel is not None else frozenset()
        sparse_name = (
            kernel.sparse_operand.name if kernel is not None else None
        )

        def emit(node: Union[LoopVertex, TermLeaf], depth: int) -> None:
            pad = "  " * depth
            if isinstance(node, TermLeaf):
                term = self.path[node.term_position]
                lines.append(f"{pad}{term}")
                return
            kind = "sparse" if node.index in sparse else "dense"
            lines.append(f"{pad}for {node.index} ({kind}):")
            for child in node.children:
                emit(child, depth + 1)

        header = "loop nest"
        if sparse_name is not None:
            header += f" (sparse tensor {sparse_name} in CSF)"
        lines.insert(0, header)
        for root in self.forest().roots:
            emit(root, 1)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for term, term_order in zip(self.path, self.order):
            parts.append(f"({','.join(term_order)})")
        return "LoopNest[" + " ".join(parts) + "]"

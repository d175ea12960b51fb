"""Cyclic data distribution of SpTTN operands (Section 5.2 of the paper).

The sparse tensor's modes are distributed cyclically over the processor
grid's dimensions: entry ``(i_0, ..., i_{d-1})`` lives on the rank with grid
coordinates ``(i_0 mod P_0, ..., i_{d-1} mod P_{d-1})``.  Each dense operand
is partitioned along the mode(s) it shares with the sparse tensor and
replicated along every other grid dimension, so all local contractions can
proceed without further data exchange; the (dense) output is reduced at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.distributed.grid import ProcessorGrid
from repro.sptensor.coo import COOTensor
from repro.util.validation import require


def partition_sparse_tensor(
    tensor: COOTensor, grid: ProcessorGrid
) -> List[COOTensor]:
    """Split a COO tensor into per-rank local tensors under the cyclic layout.

    Local tensors keep *global* index values (and the global shape) so the
    same kernel definition runs unchanged on every rank; only the set of
    stored nonzeros differs.
    """
    require(
        grid.order == tensor.order,
        f"grid order {grid.order} must match tensor order {tensor.order}",
    )
    owners = np.zeros(tensor.nnz, dtype=np.int64)
    if tensor.nnz:
        coords = np.stack(
            [tensor.indices[:, m] % grid.dims[m] for m in range(grid.order)],
            axis=1,
        )
        for m in range(grid.order):
            owners = owners * grid.dims[m] + coords[:, m]
    locals_: List[COOTensor] = []
    for rank in grid.iter_ranks():
        mask = owners == rank
        locals_.append(
            COOTensor(
                tensor.shape,
                tensor.indices[mask],
                tensor.values[mask],
                sort=True,
            )
            if tensor.nnz
            else COOTensor.empty(tensor.shape)
        )
    return locals_


@dataclass
class DenseReplication:
    """Placement of one dense operand on the grid."""

    operand: str
    #: grid dimension each operand mode is partitioned over (None = replicated)
    partitioned_over: Tuple[Optional[int], ...]
    #: elements stored per rank
    local_elements: int
    #: total elements communicated to set up the replication (broadcast volume)
    broadcast_elements: int


@dataclass
class CyclicDistribution:
    """Full placement of an SpTTN kernel's operands on a processor grid."""

    kernel: SpTTNKernel
    grid: ProcessorGrid
    #: mapping sparse index name -> grid dimension
    sparse_index_to_grid_dim: Dict[str, int] = field(default_factory=dict)
    dense_placements: List[DenseReplication] = field(default_factory=list)
    output_reduction_elements: int = 0

    @classmethod
    def plan(cls, kernel: SpTTNKernel, grid: ProcessorGrid) -> "CyclicDistribution":
        """Compute the placement of every operand for *kernel* on *grid*."""
        sparse_indices = kernel.sparse_operand.indices
        require(
            grid.order == len(sparse_indices),
            "the processor grid must have one dimension per sparse-tensor mode",
        )
        index_to_dim = {name: pos for pos, name in enumerate(sparse_indices)}

        placements: List[DenseReplication] = []
        for op in kernel.dense_operands:
            partitioned: List[Optional[int]] = []
            local = 1
            for idx in op.indices:
                dim_size = kernel.index_dims[idx]
                if idx in index_to_dim:
                    g = index_to_dim[idx]
                    partitioned.append(g)
                    local *= int(np.ceil(dim_size / grid.dims[g]))
                else:
                    partitioned.append(None)
                    local *= dim_size
            total = 1
            for idx in op.indices:
                total *= kernel.index_dims[idx]
            # Each rank ends up with `local` elements; the broadcast that
            # establishes the replication moves local*size elements in total
            # minus the single original copy.
            broadcast = local * grid.size - total
            placements.append(
                DenseReplication(
                    operand=op.name,
                    partitioned_over=tuple(partitioned),
                    local_elements=int(local),
                    broadcast_elements=int(max(0, broadcast)),
                )
            )

        if kernel.output.is_sparse:
            reduction = 0  # disjoint nonzeros: no reduction needed
        else:
            reduction = 1
            for idx in kernel.output.indices:
                reduction *= kernel.index_dims[idx]

        return cls(
            kernel=kernel,
            grid=grid,
            sparse_index_to_grid_dim=index_to_dim,
            dense_placements=placements,
            output_reduction_elements=int(reduction),
        )

    # ------------------------------------------------------------------ #
    def total_broadcast_elements(self) -> int:
        return sum(p.broadcast_elements for p in self.dense_placements)

    def local_nnz(self, tensor: COOTensor) -> np.ndarray:
        """Per-rank stored-nonzero counts under the cyclic layout."""
        require(tensor.order == self.grid.order, "tensor/grid order mismatch")
        counts = np.zeros(self.grid.size, dtype=np.int64)
        if tensor.nnz == 0:
            return counts
        owners = np.zeros(tensor.nnz, dtype=np.int64)
        for m in range(self.grid.order):
            owners = owners * self.grid.dims[m] + (
                tensor.indices[:, m] % self.grid.dims[m]
            )
        np.add.at(counts, owners, 1)
        return counts

    def load_imbalance(self, tensor: COOTensor) -> float:
        """Max-over-mean local nonzero count (1.0 = perfectly balanced)."""
        counts = self.local_nnz(tensor)
        mean = counts.mean() if counts.size else 0.0
        if mean == 0:
            return 1.0
        return float(counts.max() / mean)

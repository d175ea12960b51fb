"""SpTTN kernel intermediate representation.

An SpTTN kernel (Section 3 of the paper) contracts one sparse tensor with a
network of dense tensors, producing either a dense output or a sparse output
with exactly the sparsity pattern of the input sparse tensor.  This module
parses einsum-style expressions such as ``"ijk,ja,ka->ia"`` into a validated
:class:`SpTTNKernel` object carrying:

* one :class:`KernelOperand` per input tensor (sparse tensor first by
  convention, but any position is accepted);
* the output operand;
* per-index dimensions (``index_dims``) and sparsity classification
  (``sparse_indices`` / ``dense_indices``);
* the CSF storage order of the sparse indices, which constrains loop orders
  (Section 5).

The IR is deliberately independent of the concrete tensor data: the
scheduler and cost models only need index dimensions, sparsity flags and
(optionally) nonzero-count statistics, mirroring the data-independent nature
of SpTTN kernels the paper exploits.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor, csf_for_mode_order
from repro.util.validation import require

SparseInput = Union[COOTensor, CSFTensor]

#: The letters of an einsum subscript.  The lowering gives each distinct
#: index of a kernel one of them, for the whole program, and its lane axis
#: one more.
EINSUM_LETTERS = string.ascii_lowercase + string.ascii_uppercase

#: Most distinct indices a kernel may have: every einsum letter but the lane's.
MAX_INDICES = len(EINSUM_LETTERS) - 1


@dataclass(frozen=True)
class KernelOperand:
    """One tensor operand of an SpTTN kernel."""

    name: str
    indices: Tuple[str, ...]
    is_sparse: bool

    @property
    def order(self) -> int:
        return len(self.indices)


class SpTTNKernel:
    """A validated SpTTN kernel.

    Parameters
    ----------
    operands:
        Input operands; exactly one must be sparse.
    output:
        Output operand.  Its ``is_sparse`` flag must be consistent with the
        SpTTN restriction: a sparse output must have exactly the index set of
        the sparse input (same pattern, e.g. TTTP), otherwise the output is
        dense.
    index_dims:
        Mapping from index name to dimension.
    csf_mode_order:
        The order in which the sparse tensor's modes are stored in CSF; loop
        orders are restricted to be consistent with it.
    sparse_stats:
        Optional nonzero-count statistics of the concrete sparse tensor
        (``{"prefix_nnz": {depth: count}, "nnz": total}``) used by flop and
        cache cost models.  When absent, the models fall back to a uniform
        density assumption.
    """

    def __init__(
        self,
        operands: Sequence[KernelOperand],
        output: KernelOperand,
        index_dims: Mapping[str, int],
        csf_mode_order: Optional[Sequence[str]] = None,
        sparse_stats: Optional[Mapping[str, object]] = None,
    ) -> None:
        # every kernel of every request passes these checks: each raises
        # without formatting its message unless it fails
        operands = tuple(operands)
        require(len(operands) >= 2, "an SpTTN kernel needs at least two operands")
        names = [op.name for op in operands] + [output.name]
        if len(set(names)) != len(names):
            raise ValueError(f"operand names must be unique, got {names}")
        sparse_ops = [op for op in operands if op.is_sparse]
        if len(sparse_ops) != 1:
            raise ValueError(
                f"an SpTTN kernel must have exactly one sparse operand, "
                f"found {len(sparse_ops)}"
            )
        self.operands: Tuple[KernelOperand, ...] = operands
        self.output: KernelOperand = output
        self.sparse_operand: KernelOperand = sparse_ops[0]
        self.dense_operands: Tuple[KernelOperand, ...] = tuple(
            op for op in operands if not op.is_sparse
        )

        # --- index bookkeeping -------------------------------------------
        all_indices: List[str] = []
        for op in operands:
            for idx in op.indices:
                if idx not in all_indices:
                    all_indices.append(idx)
        for idx in output.indices:
            if idx not in all_indices:
                raise ValueError(
                    f"output index {idx!r} does not appear in any input operand"
                )
        self.index_names: Tuple[str, ...] = tuple(all_indices)
        dims: Dict[str, int] = {}
        for idx in all_indices:
            if idx not in index_dims:
                raise ValueError(f"missing dimension for index {idx!r}")
            dim = int(index_dims[idx])
            if dim <= 0:
                raise ValueError(f"dimension of index {idx!r} must be positive")
            dims[idx] = dim
        self.index_dims: Dict[str, int] = dims

        # indices repeated within a single operand are not supported (no
        # diagonal extraction in SpTTN kernels)
        for op in operands + (output,):
            if len(set(op.indices)) != len(op.indices):
                raise ValueError(f"operand {op.name!r} repeats an index: {op.indices}")

        # --- sparsity classification --------------------------------------
        sparse_idx = set(self.sparse_operand.indices)
        if csf_mode_order is None:
            csf_mode_order = tuple(self.sparse_operand.indices)
        else:
            csf_mode_order = tuple(csf_mode_order)
            require(
                set(csf_mode_order) == sparse_idx
                and len(csf_mode_order) == len(sparse_idx),
                "csf_mode_order must be a permutation of the sparse operand's indices",
            )
        self.csf_mode_order: Tuple[str, ...] = csf_mode_order
        self.sparse_indices: frozenset = frozenset(sparse_idx)
        self.dense_indices: frozenset = frozenset(all_indices).difference(sparse_idx)

        # --- SpTTN output restriction --------------------------------------
        if output.is_sparse:
            require(
                set(output.indices) == sparse_idx,
                "a sparse output must have exactly the sparse operand's indices "
                "(same sparsity pattern), e.g. TTTP/SDDMM",
            )
        self.contracted_indices: frozenset = frozenset(all_indices).difference(
            output.indices
        )

        self.sparse_stats: Dict[str, object] = dict(sparse_stats or {})

    # ------------------------------------------------------------------ #
    def csf_level(self, index: str) -> Optional[int]:
        if index in self.sparse_indices:
            return self.csf_mode_order.index(index)
        return None

    def csf_descends(self, index: str, bound: Collection[str]) -> bool:
        """Does a loop over *index*, inside loops over *bound*, walk the CSF?

        True exactly when *index* is sparse and every earlier CSF level is
        in *bound*: the loop then visits only the stored fibre below the
        bound prefix (Sec. 4's sparse trip count).  Otherwise it iterates
        the full dimension.  The cost model, the executor's plan and the
        lowering all read this one rule.
        """
        if index not in self.sparse_indices:
            return False
        for prior in self.csf_mode_order:
            if prior == index:
                break
            if prior not in bound:
                return False
        return True

    def offload_mode(self, term, bound: Collection[str], root: str) -> Optional[str]:
        """How the executor runs a loop over *root*, inside loops over
        *bound*, whose body is the single contraction *term*.

        ``"dense"`` when the term's shallowest unbound sparse index does not
        descend, or it has none: no remaining loop walks the CSF, so one
        vectorized call covers them all.  ``"fiber"`` when *root* is the
        term's only unbound sparse index, is the last CSF level, descends,
        and is not kept by the term's dense output: one call over the stored
        fiber.  ``None`` otherwise: a loop.
        """
        indices = term.all_indices
        unbound = [i for i in self.csf_mode_order if i in indices and i not in bound]
        if not unbound or not self.csf_descends(unbound[0], bound):
            return "dense"
        if unbound != [root] or root != self.csf_mode_order[-1]:
            return None
        if root in term.out_indices and not (
            term.out == self.output.name and self.output.is_sparse
        ):
            return None
        return "fiber"

    def sparse_order_key(self, index: str) -> int:
        """Sort key placing sparse indices in CSF order before dense indices."""
        lvl = self.csf_level(index)
        return lvl if lvl is not None else len(self.csf_mode_order)

    # ------------------------------------------------------------------ #
    # nnz statistics
    # ------------------------------------------------------------------ #
    def prefix_nnz(self, depth: int) -> float:
        """Estimated number of CSF nodes at level ``depth-1`` (prefix length *depth*).

        Uses recorded statistics when available, otherwise assumes the
        nonzeros are spread uniformly (``min(nnz, prod(prefix dims))``).
        """
        if depth <= 0:
            return 1.0
        order = len(self.csf_mode_order)
        depth = min(depth, order)
        stats = self.sparse_stats.get("prefix_nnz")
        if isinstance(stats, Mapping) and depth in stats:
            return float(stats[depth])
        nnz = float(self.sparse_stats.get("nnz", 0.0))
        prefix_size = 1.0
        for idx in self.csf_mode_order[:depth]:
            prefix_size *= float(self.index_dims[idx])
        if nnz <= 0.0:
            return prefix_size
        return min(nnz, prefix_size)

    def nnz(self) -> float:
        return self.prefix_nnz(len(self.csf_mode_order))

    def sparse_subset_nnz(self, indices: Sequence[str]) -> float:
        """Estimated distinct index tuples of *indices* among the nonzeros.

        For prefixes of the CSF order this is exact when statistics are
        recorded; otherwise a uniform-spread estimate is used.
        """
        subset = [i for i in indices if i in self.sparse_indices]
        if not subset:
            return 1.0
        levels = sorted(self.csf_mode_order.index(i) for i in subset)
        if levels == list(range(len(levels))):
            return self.prefix_nnz(len(levels))
        nnz = self.nnz()
        size = 1.0
        for i in subset:
            size *= float(self.index_dims[i])
        return min(nnz, size) if nnz > 0 else size

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(
            f"{op.name}({','.join(op.indices)}){'*' if op.is_sparse else ''}"
            for op in self.operands
        )
        out = f"{self.output.name}({','.join(self.output.indices)})"
        return f"SpTTNKernel({ins} -> {out})"


def _operand_from_tensor(
    name: str,
    indices: Tuple[str, ...],
    tensor: Union[SparseInput, np.ndarray],
) -> Tuple[KernelOperand, Tuple[int, ...]]:
    """Classify a concrete tensor object and return (operand, shape)."""
    if isinstance(tensor, (COOTensor, CSFTensor)):
        return KernelOperand(name, indices, True), tensor.shape
    arr = np.asarray(tensor)
    return KernelOperand(name, indices, False), tuple(arr.shape)


def parse_kernel(
    spec: str,
    tensors: Sequence[Union[SparseInput, np.ndarray]],
    names: Optional[Sequence[str]] = None,
    output_name: str = "OUT",
    output_sparse: Optional[bool] = None,
) -> SpTTNKernel:
    """Parse an einsum-style kernel specification against concrete tensors.

    Parameters
    ----------
    spec:
        Subscripts string, e.g. ``"ijk,ja,ka->ia"``.  Exactly one input must
        be a sparse tensor object.
    tensors:
        The concrete operands, in the order they appear in *spec*.
    names:
        Optional operand names; defaults to the sparse tensor being ``"T"``
        and dense operands ``"A0", "A1", ...``.
    output_name:
        Name of the output operand.
    output_sparse:
        Force the output to be sparse (same pattern as the input).  By
        default the output is sparse exactly when its index set equals the
        sparse operand's index set.

    Returns
    -------
    SpTTNKernel
        The validated kernel, with index dimensions taken from the tensors
        and sparse statistics recorded when the sparse operand is COO/CSF.
    """
    # every request's kernel is parsed here: each check formats its
    # message only when it fails
    if "->" not in spec:
        raise ValueError(f"kernel spec must contain '->': {spec!r}")
    lhs, rhs = spec.split("->")
    input_specs = [s.strip() for s in lhs.split(",")]
    output_spec = rhs.strip()
    if len(input_specs) != len(tensors):
        raise ValueError(
            f"spec has {len(input_specs)} inputs but {len(tensors)} tensors given"
        )
    for s in input_specs + [output_spec]:
        if not (s.isalpha() or s == ""):
            raise ValueError(f"invalid subscripts {s!r}")

    operands: List[KernelOperand] = []
    index_dims: Dict[str, int] = {}
    sparse_tensor: Optional[SparseInput] = None
    sparse_count = 0
    dense_counter = 0
    for pos, (sub, tensor) in enumerate(zip(input_specs, tensors)):
        indices = tuple(sub)
        if names is not None:
            name = names[pos]
        else:
            if isinstance(tensor, (COOTensor, CSFTensor)):
                name = "T"
            else:
                name = f"A{dense_counter}"
                dense_counter += 1
        operand, shape = _operand_from_tensor(name, indices, tensor)
        if len(shape) != len(indices):
            raise ValueError(
                f"operand {name!r}: spec has {len(indices)} indices but tensor has "
                f"order {len(shape)}"
            )
        if operand.is_sparse:
            sparse_count += 1
            sparse_tensor = tensor  # type: ignore[assignment]
        for idx, dim in zip(indices, shape):
            if idx not in index_dims:
                index_dims[idx] = int(dim)
            elif index_dims[idx] != dim:
                raise ValueError(
                    f"index {idx!r} has inconsistent dimensions "
                    f"{index_dims[idx]} vs {dim}"
                )
        operands.append(operand)
    if sparse_count != 1:
        raise ValueError(f"expected exactly one sparse operand, got {sparse_count}")
    if len(index_dims) > MAX_INDICES:
        raise ValueError(
            f"kernel has {len(index_dims)} distinct indices; at most {MAX_INDICES} "
            f"are supported ({len(EINSUM_LETTERS)} einsum letters, one of them "
            f"for the lane axis)"
        )

    output_indices = tuple(output_spec)
    sparse_op = next(op for op in operands if op.is_sparse)
    if output_sparse is None:
        output_sparse = set(output_indices) == set(sparse_op.indices) and len(
            output_indices
        ) == len(sparse_op.indices)
    output = KernelOperand(output_name, output_indices, bool(output_sparse))

    # CSF order: the order in which the sparse operand's indices appear in
    # the spec matches the storage order of the tensor passed in (for a CSF
    # tensor, its mode_order has already been applied to its levels).
    assert sparse_tensor is not None
    mode_order = tuple(range(sparse_op.order))
    if isinstance(sparse_tensor, CSFTensor):
        mode_order = sparse_tensor.mode_order
    kernel = SpTTNKernel(
        operands,
        output,
        index_dims,
        csf_mode_order=tuple(sparse_op.indices[m] for m in mode_order),
    )
    # statistics come after the structural validation above: a malformed
    # spec is rejected before any tensor data is looked at
    kernel.sparse_stats = _collect_sparse_stats(sparse_tensor, mode_order)
    return kernel


def _collect_sparse_stats(
    tensor: SparseInput, mode_order: Tuple[int, ...]
) -> Dict[str, object]:
    """The cost model's ``nnz_{I_1...I_k}``: level sizes of the CSF tree.

    Reads them from the (memoized) CSF the executor is about to iterate, so
    a kernel build sorts nothing once the pattern has been converted.
    """
    csf = csf_for_mode_order(tensor, mode_order)
    return {
        "nnz": csf.nnz,
        "prefix_nnz": {
            depth: csf.nnz_at_level(depth - 1) for depth in range(1, csf.order + 1)
        },
    }

"""Contraction paths for SpTTN kernels (Definition 3.1) and their enumeration.

A contraction path for ``N + 1`` input tensors is a binary contraction tree
whose leaves are the inputs; its depth-first postordering yields an ordered
sequence of ``N`` *contraction terms*, each a 3-tuple of index sets
``(lhs, rhs, out)``.  This module provides:

* :class:`ContractionTerm` / :class:`ContractionPath` — the data structures;
* :func:`enumerate_contraction_paths` — recursive enumeration of all valid
  binary contraction trees (Section 4.1.1), with de-duplication of
  structurally identical paths;
* :func:`path_flop_estimate` — the leading-order operation count of a path
  given the kernel's index dimensions and sparse nnz statistics, used to
  restrict the search to asymptotically optimal paths (Section 5);
* :func:`rank_contraction_paths` — paths sorted by that estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.expr import SpTTNKernel
from repro.util.validation import require

INTERMEDIATE_PREFIX = "_I"


@dataclass(frozen=True)
class ContractionTerm:
    """One pairwise contraction of a contraction path.

    Attributes
    ----------
    lhs, rhs:
        Names of the two operands (input tensor names or intermediate names
        of the form ``"_I<k>"``).
    out:
        Name of the produced tensor (an intermediate, or the kernel output
        for the last term).
    lhs_indices, rhs_indices, out_indices:
        The 3-tuple of index sets ``L_i`` of Definition 3.1 (stored as
        ordered tuples; order of ``out_indices`` fixes the buffer layout).
    """

    lhs: str
    rhs: str
    out: str
    lhs_indices: Tuple[str, ...]
    rhs_indices: Tuple[str, ...]
    out_indices: Tuple[str, ...]

    @property
    def all_indices(self) -> Tuple[str, ...]:
        """Union of the three index sets, in first-appearance order."""
        seen: List[str] = []
        for idx in self.lhs_indices + self.rhs_indices + self.out_indices:
            if idx not in seen:
                seen.append(idx)
        return tuple(seen)

    @property
    def contracted_indices(self) -> Tuple[str, ...]:
        out = set(self.out_indices)
        return tuple(i for i in self.all_indices if i not in out)

    def involves(self, operand: str) -> bool:
        return operand in (self.lhs, self.rhs)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.lhs}[{','.join(self.lhs_indices)}] * "
            f"{self.rhs}[{','.join(self.rhs_indices)}] -> "
            f"{self.out}[{','.join(self.out_indices)}]"
        )


@dataclass(frozen=True)
class ContractionPath:
    """An ordered sequence of contraction terms (depth-first postorder)."""

    terms: Tuple[ContractionTerm, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[ContractionTerm]:
        return iter(self.terms)

    def __getitem__(self, item: int) -> ContractionTerm:
        return self.terms[item]

    def consumers(self) -> Dict[int, int]:
        """Map producer term position -> consumer term position (for intermediates)."""
        out: Dict[int, int] = {}
        for pos, term in enumerate(self.terms[:-1]):
            cons = None
            for later, t2 in enumerate(self.terms[pos + 1 :], start=pos + 1):
                if t2.lhs == term.out or t2.rhs == term.out:
                    cons = later
                    break
            if cons is None:
                raise ValueError(
                    f"intermediate {term.out!r} produced by term {pos} is never consumed"
                )
            out[pos] = cons
        return out

    def signature(self) -> Tuple:
        """A structural signature ignoring operand names of intermediates.

        Two paths with the same signature perform the same sequence of index
        contractions and are treated as duplicates by the enumerator.
        """
        sig = []
        for term in self.terms:
            sig.append(
                (
                    frozenset(term.lhs_indices),
                    frozenset(term.rhs_indices),
                    frozenset(term.out_indices),
                    frozenset({term.lhs, term.rhs} & _leafish(self)),
                )
            )
        return tuple(sig)

    def max_loop_depth(self) -> int:
        """Maximum number of loops needed by any term (the path's loop depth)."""
        return max(len(t.all_indices) for t in self.terms)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " ; ".join(str(t) for t in self.terms)


def _leafish(path: ContractionPath) -> Set[str]:
    produced = {t.out for t in path.terms}
    names: Set[str] = set()
    for t in path.terms:
        for n in (t.lhs, t.rhs):
            if n not in produced:
                names.add(n)
    return names


# --------------------------------------------------------------------------- #
# Enumeration (Section 4.1.1)
# --------------------------------------------------------------------------- #
def _intermediate_indices(
    combined: Sequence[str],
    remaining_index_sets: Sequence[FrozenSet[str]],
    output_indices: FrozenSet[str],
) -> Tuple[str, ...]:
    """Indices kept by an intermediate: those still needed downstream.

    An index survives the contraction when it appears in the final output or
    in any input tensor not yet contracted; everything else is summed away.
    """
    needed: Set[str] = set(output_indices)
    for s in remaining_index_sets:
        needed |= s
    return tuple(idx for idx in combined if idx in needed)


def enumerate_contraction_paths(
    kernel: SpTTNKernel,
    max_paths: Optional[int] = None,
    dedupe: bool = True,
) -> List[ContractionPath]:
    """Enumerate contraction paths for *kernel* by recursive pairing.

    The recursion picks every unordered pair from the current operand list,
    contracts it, and recurses on the reduced list (the scheme analysed in
    Section 4.1.1 with ``T(n) = C(n,2) T(n-1)`` paths before de-duplication).

    Parameters
    ----------
    kernel:
        The SpTTN kernel.
    max_paths:
        Optional cap on the number of returned paths (the enumeration stops
        early once reached).
    dedupe:
        Drop structurally identical paths (same multiset of index-set
        3-tuples in the same order); enabled by default.
    """
    output_indices = frozenset(kernel.output.indices)
    initial: List[Tuple[str, Tuple[str, ...]]] = [
        (op.name, op.indices) for op in kernel.operands
    ]

    results: List[ContractionPath] = []
    seen_signatures: Set[Tuple] = set()
    counter = itertools.count()

    def recurse(
        operands: List[Tuple[str, Tuple[str, ...]]],
        terms: List[ContractionTerm],
    ) -> None:
        if max_paths is not None and len(results) >= max_paths:
            return
        if len(operands) == 1:
            path = ContractionPath(tuple(terms))
            if dedupe:
                sig = path.signature()
                if sig in seen_signatures:
                    return
                seen_signatures.add(sig)
            results.append(path)
            return
        n = len(operands)
        for a in range(n):
            for b in range(a + 1, n):
                lhs_name, lhs_idx = operands[a]
                rhs_name, rhs_idx = operands[b]
                rest = [operands[k] for k in range(n) if k not in (a, b)]
                combined: List[str] = list(lhs_idx)
                for idx in rhs_idx:
                    if idx not in combined:
                        combined.append(idx)
                if len(rest) == 0:
                    out_indices = tuple(kernel.output.indices)
                    out_name = kernel.output.name
                else:
                    out_indices = _intermediate_indices(
                        combined,
                        [frozenset(ix) for _, ix in rest],
                        output_indices,
                    )
                    out_name = f"{INTERMEDIATE_PREFIX}{next(counter)}"
                term = ContractionTerm(
                    lhs=lhs_name,
                    rhs=rhs_name,
                    out=out_name,
                    lhs_indices=tuple(lhs_idx),
                    rhs_indices=tuple(rhs_idx),
                    out_indices=out_indices,
                )
                new_operands = rest + [(out_name, out_indices)]
                recurse(new_operands, terms + [term])
                if max_paths is not None and len(results) >= max_paths:
                    return

    recurse(initial, [])
    return results


def count_contraction_paths(n_tensors: int) -> int:
    """Number of contraction paths enumerated for *n_tensors* inputs.

    Follows the recurrence ``T(n) = C(n, 2) * T(n-1)``, ``T(2) = 1``
    (before structural de-duplication), i.e. ``prod_{k=3..n} C(k, 2)``.
    """
    require(n_tensors >= 2, "need at least two tensors")
    total = 1
    for k in range(3, n_tensors + 1):
        total *= k * (k - 1) // 2
    return total


# --------------------------------------------------------------------------- #
# Asymptotic cost estimates
# --------------------------------------------------------------------------- #
def term_flop_estimate(kernel: SpTTNKernel, term: ContractionTerm) -> float:
    """Leading-order multiply-add count of one contraction term.

    The iteration space of a term is the product of its dense index
    dimensions times the number of distinct sparse-index tuples among the
    nonzeros (``nnz`` projected onto the term's sparse indices), matching
    the operation-count formulas of Section 2.4 (e.g. ``2 nnz_{IJ}(T)·S·R``
    for the second TTMc term).
    """
    sparse = [i for i in term.all_indices if i in kernel.sparse_indices]
    dense = [i for i in term.all_indices if i not in kernel.sparse_indices]
    iterations = kernel.sparse_subset_nnz(sparse)
    for idx in dense:
        iterations *= float(kernel.index_dims[idx])
    return 2.0 * iterations


def path_flop_estimate(kernel: SpTTNKernel, path: ContractionPath) -> float:
    """Leading-order multiply-add count of a full contraction path."""
    return float(sum(term_flop_estimate(kernel, t) for t in path.terms))


def path_intermediate_size_estimate(
    kernel: SpTTNKernel, path: ContractionPath
) -> float:
    """Total dense size of all unfused intermediates (pairwise approach).

    This is the memory footprint the CTF-style pairwise baseline needs; the
    fused execution reduces it via Equation 5.
    """
    total = 0.0
    for term in path.terms[:-1]:
        size = 1.0
        for idx in term.out_indices:
            size *= float(kernel.index_dims[idx])
        total += size
    return total


def rank_contraction_paths(
    kernel: SpTTNKernel,
    paths: Optional[Sequence[ContractionPath]] = None,
    max_paths: Optional[int] = None,
) -> List[Tuple[ContractionPath, float]]:
    """Contraction paths sorted by estimated flop count (ascending).

    Ties are broken by total unfused intermediate size, then by maximum loop
    depth, so the first entry is the path the scheduler tries first.
    """
    if paths is None:
        paths = enumerate_contraction_paths(kernel, max_paths=max_paths)
    scored = []
    for p in paths:
        flops = path_flop_estimate(kernel, p)
        mem = path_intermediate_size_estimate(kernel, p)
        scored.append((p, flops, mem, p.max_loop_depth()))
    scored.sort(key=lambda item: (item[1], item[2], item[3]))
    return [(p, flops) for p, flops, _, _ in scored]


def single_term_path(kernel: SpTTNKernel) -> ContractionPath:
    """The degenerate 'path' used by the unfactorized baseline.

    All input tensors are multiplied together inside one loop nest.  It is
    represented as a left-deep chain whose intermediates keep every index
    needed downstream; the unfactorized executor ignores the intermediate
    structure and simply iterates the union of all indices.
    """
    ops = list(kernel.operands)
    # Put the sparse operand first so the chain keeps sparse iteration outer.
    ops.sort(key=lambda op: 0 if op.is_sparse else 1)
    names = [(op.name, op.indices) for op in ops]
    output_indices = frozenset(kernel.output.indices)
    terms: List[ContractionTerm] = []
    counter = itertools.count()
    current = names[0]
    for pos in range(1, len(names)):
        rhs = names[pos]
        rest = names[pos + 1 :]
        combined: List[str] = list(current[1])
        for idx in rhs[1]:
            if idx not in combined:
                combined.append(idx)
        if rest:
            out_indices = _intermediate_indices(
                combined, [frozenset(ix) for _, ix in rest], output_indices
            )
            out_name = f"{INTERMEDIATE_PREFIX}{next(counter)}"
        else:
            out_indices = tuple(kernel.output.indices)
            out_name = kernel.output.name
        terms.append(
            ContractionTerm(
                lhs=current[0],
                rhs=rhs[0],
                out=out_name,
                lhs_indices=tuple(current[1]),
                rhs_indices=tuple(rhs[1]),
                out_indices=out_indices,
            )
        )
        current = (out_name, out_indices)
    return ContractionPath(tuple(terms))

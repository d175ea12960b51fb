"""Tucker decomposition via higher-order orthogonal iteration (HOOI).

Each HOOI sweep recomputes one factor matrix per mode from the leading left
singular vectors of the mode-``n`` TTMc of the sparse tensor with all other
factors (Equation 2 of the paper), then forms the core with the all-mode
TTMc.  Both kernels are scheduled once and reused across sweeps.  The
singular vectors come from a symmetric eigensolve of the unfolding's
``prod(R)``-square Gram matrix and a QR, not from a thin SVD of the
``I_n x prod(R)`` unfolding itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import cached_schedule
from repro.kernels.ttmc import all_mode_ttmc_kernel, ttmc_kernel
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor
from repro.util.validation import check_positive_int, require

SparseInput = Union[COOTensor, CSFTensor]


@dataclass
class TuckerDecomposition:
    """Result of :func:`tucker_hooi`."""

    factors: List[np.ndarray]
    core: np.ndarray
    fits: List[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def ranks(self) -> Sequence[int]:
        return tuple(self.core.shape)

    def reconstruct(self) -> np.ndarray:
        """Dense reconstruction (only for small tensors / tests)."""
        order = len(self.factors)
        sparse_letters = "ijklmnop"[:order]
        rank_letters = "rstuvwab"[:order]
        spec = (
            rank_letters
            + ","
            + ",".join(f"{sparse_letters[n]}{rank_letters[n]}" for n in range(order))
            + "->"
            + sparse_letters
        )
        return np.einsum(spec, self.core, *self.factors)


def _leading_singular_vectors(matrix: np.ndarray, rank: int) -> np.ndarray:
    """The *rank* leading left singular vectors of *matrix*, from its column Gram.

    ``eigh`` of the ``prod(R)``-square Gram ``Y^T Y`` gives the leading right
    singular vectors ``V_R``; ``qr(Y V_R)`` then gives exactly orthonormal
    columns spanning ``U[:, :R]`` up to the Gram's rounding (scaling ``Y V_R``
    by the square roots of the Gram's eigenvalues instead loses the small
    directions' digits).  Because the Gram squares the spectrum, the subspace
    error is about ``eps * sigma_1**2 / (sigma_R**2 - sigma_{R+1}**2)``, far
    above the SVD's when the gap at ``sigma_R`` is small.  Columns may differ
    from the SVD's by sign, or by rotation inside a degenerate subspace.
    """
    _, v = np.linalg.eigh(matrix.T @ matrix)
    u, _ = np.linalg.qr(matrix @ v[:, : -rank - 1 : -1])
    if u.shape[1] < rank:
        pad = np.zeros((u.shape[0], rank - u.shape[1]))
        u = np.hstack([u, pad])
    return u[:, :rank]


def tucker_hooi(
    tensor: SparseInput,
    ranks: Sequence[int],
    iterations: int = 5,
    seed: Optional[int] = 0,
    tolerance: float = 1.0e-8,
) -> TuckerDecomposition:
    """Tucker/HOOI decomposition of a sparse tensor.

    Parameters
    ----------
    tensor:
        Sparse input tensor.
    ranks:
        Tucker ranks, one per mode.
    iterations:
        Maximum number of HOOI sweeps.
    seed:
        Seed for the random initial factors (columns are orthonormalized).
    tolerance:
        Stop when the fit improves by less than this amount between sweeps.
    """
    coo = tensor.to_coo() if isinstance(tensor, CSFTensor) else tensor
    require(isinstance(coo, COOTensor), "tensor must be a sparse tensor")
    order = coo.order
    require(len(ranks) == order, "need one Tucker rank per mode")
    ranks = [check_positive_int(r, f"ranks[{n}]") for n, r in enumerate(ranks)]
    for n, (r, dim) in enumerate(zip(ranks, coo.shape)):
        require(r <= dim, f"rank {r} exceeds dimension {dim} of mode {n}")

    rng = np.random.default_rng(seed)
    factors: List[np.ndarray] = []
    for dim, r in zip(coo.shape, ranks):
        q, _ = np.linalg.qr(rng.standard_normal((dim, r)))
        factors.append(q)

    norm_t = coo.frobenius_norm()

    # Schedule the mode-n TTMc kernels and the all-mode core kernel once
    # (cached process-wide) and keep one executor per kernel so every sweep
    # reuses the compiled plan.
    kernels = {}
    executors: Dict[int, LoopNestExecutor] = {}
    for mode in range(order):
        placeholder = [np.ones((coo.shape[n], ranks[n])) for n in range(order)]
        kernel, _ = ttmc_kernel(coo, placeholder, mode)
        kernels[mode] = kernel
        executors[mode] = LoopNestExecutor(kernel, cached_schedule(kernel).loop_nest)
    core_kernel, _ = all_mode_ttmc_kernel(
        coo, [np.ones((coo.shape[n], ranks[n])) for n in range(order)]
    )
    core_executor = LoopNestExecutor(
        core_kernel, cached_schedule(core_kernel).loop_nest
    )

    fits: List[float] = []
    previous_fit = -np.inf
    core = np.zeros(tuple(ranks))
    sweeps = 0
    for sweep in range(iterations):
        for mode in range(order):
            kernel = kernels[mode]
            other = [factors[n] for n in range(order) if n != mode]
            mapping = {kernel.sparse_operand.name: coo}
            for op, factor in zip(kernel.dense_operands, other):
                mapping[op.name] = factor
            y = np.asarray(executors[mode].execute(mapping))
            unfolded = y.reshape(coo.shape[mode], -1)
            factors[mode] = _leading_singular_vectors(unfolded, ranks[mode])

        mapping = {core_kernel.sparse_operand.name: coo}
        for op, factor in zip(core_kernel.dense_operands, factors):
            mapping[op.name] = factor
        core = np.asarray(core_executor.execute(mapping))

        # With orthonormal factors, ||T - model||^2 = ||T||^2 - ||core||^2.
        core_norm = float(np.linalg.norm(core))
        residual_sq = max(0.0, norm_t**2 - core_norm**2)
        fit = 1.0 - np.sqrt(residual_sq) / norm_t if norm_t > 0 else 1.0
        fits.append(fit)
        sweeps = sweep + 1
        if abs(fit - previous_fit) < tolerance:
            break
        previous_fit = fit

    return TuckerDecomposition(
        factors=factors, core=core, fits=fits, iterations=sweeps
    )

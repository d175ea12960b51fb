"""CP decomposition of a sparse tensor via alternating least squares (CP-ALS).

Each ALS sweep updates one factor matrix per mode by solving the linear
least-squares problem whose right-hand side is the mode-``n`` MTTKRP of the
sparse tensor with the other factors — the kernel whose scheduling the paper
optimizes.  The Gram-matrix Hadamard product and the normal-equation solve
are tiny dense operations by comparison: the ``R x R`` system is solved by
LU (``np.linalg.solve``), and only an exactly singular one (a zero factor
column, an all-zero tensor) falls back to the pseudo-inverse.  Tensor
values must be finite; a NaN or inf raises ``ValueError`` up front.

The fit is computed without densifying the tensor using the standard
identity ``<T, model> = sum(MTTKRP_n * F_n)`` for the last updated mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.executor import LoopNestExecutor
from repro.engine.plan_cache import cached_schedule
from repro.kernels.mttkrp import mttkrp_kernel
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor
from repro.util.validation import check_positive_int, require

SparseInput = Union[COOTensor, CSFTensor]


@dataclass
class CPDecomposition:
    """Result of :func:`cp_als`."""

    factors: List[np.ndarray]
    weights: np.ndarray
    fits: List[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    def reconstruct(self) -> np.ndarray:
        """Dense reconstruction (only for small tensors / tests)."""
        order = len(self.factors)
        letters = "ijklmnop"[:order]
        spec = ",".join(f"{letters[n]}r" for n in range(order)) + "->" + letters
        scaled = [self.factors[0] * self.weights] + self.factors[1:]
        return np.einsum(spec, *scaled)

    def model_values_at(self, indices: np.ndarray) -> np.ndarray:
        """Model values at the given coordinates (vectorized over rows)."""
        rows = np.ones((indices.shape[0], self.rank), dtype=np.float64)
        for mode, factor in enumerate(self.factors):
            rows *= factor[indices[:, mode]]
        return rows @ self.weights


def _normalize_columns(factor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(factor, axis=0)
    norms = np.where(norms > 0, norms, 1.0)
    return factor / norms, norms


def cp_als(
    tensor: SparseInput,
    rank: int,
    iterations: int = 10,
    seed: Optional[int] = 0,
    tolerance: float = 1.0e-8,
    initial_factors: Optional[Sequence[np.ndarray]] = None,
) -> CPDecomposition:
    """CP-ALS decomposition of a sparse tensor.

    Parameters
    ----------
    tensor:
        Sparse input tensor (COO or CSF).
    rank:
        CP rank ``R``.
    iterations:
        Maximum number of ALS sweeps.
    seed:
        Seed for the random initial factors.
    tolerance:
        Stop when the fit improves by less than this amount between sweeps.
    initial_factors:
        Optional explicit initial factors (one ``(I_n, R)`` array per mode).

    Returns
    -------
    CPDecomposition
        Factors (with unit-norm columns), column weights and per-sweep fits.
    """
    rank = check_positive_int(rank, "rank")
    coo = tensor.to_coo() if isinstance(tensor, CSFTensor) else tensor
    require(isinstance(coo, COOTensor), "tensor must be a sparse tensor")
    require(np.isfinite(coo.values).all(), "tensor values must be finite (no NaN or inf)")
    order = coo.order
    rng = np.random.default_rng(seed)
    if initial_factors is not None:
        require(len(initial_factors) == order, "need one initial factor per mode")
        factors = [np.array(f, dtype=np.float64, copy=True) for f in initial_factors]
        for n, f in enumerate(factors):
            require(
                f.shape == (coo.shape[n], rank),
                f"initial factor {n} has shape {f.shape}, expected "
                f"{(coo.shape[n], rank)}",
            )
    else:
        factors = [rng.random((dim, rank)) for dim in coo.shape]
    weights = np.ones(rank)

    norm_t = coo.frobenius_norm()
    grams = [f.T @ f for f in factors]

    # The MTTKRP schedule is data-independent: look it up once per mode (the
    # process-wide schedule cache amortizes the search across calls) and
    # keep one executor per mode so every sweep reuses the compiled plan —
    # the amortization pattern the paper's runtime enables.
    kernels = {}
    executors: Dict[int, LoopNestExecutor] = {}
    for mode in range(order):
        kernel, _ = mttkrp_kernel(coo, [np.ones((d, rank)) for d in coo.shape], mode)
        schedule = cached_schedule(kernel)
        kernels[mode] = kernel
        executors[mode] = LoopNestExecutor(kernel, schedule.loop_nest)

    fits: List[float] = []
    previous_fit = -np.inf
    sweeps = 0
    for sweep in range(iterations):
        for mode in range(order):
            kernel = kernels[mode]
            other = [factors[n] for n in range(order) if n != mode]
            mapping = {kernel.sparse_operand.name: coo}
            for op, factor in zip(kernel.dense_operands, other):
                mapping[op.name] = factor
            m = np.asarray(executors[mode].execute(mapping))

            v = np.ones((rank, rank))
            for n in range(order):
                if n != mode:
                    v *= grams[n]
            try:
                factor = np.linalg.solve(v, m.T).T
            except np.linalg.LinAlgError:  # v singular: a zero column or tensor
                factor = m @ np.linalg.pinv(v)
            factor, weights = _normalize_columns(factor)
            factors[mode] = factor
            grams[mode] = factor.T @ factor

        # Fit via the last mode's MTTKRP: <T, model> = sum(M * (F_last * w)).
        inner = float(np.sum(m * (factors[order - 1] * weights)))
        norm_model_sq = float(
            np.sum(np.outer(weights, weights) * np.prod(np.stack(grams), axis=0))
        )
        residual_sq = max(0.0, norm_t**2 + norm_model_sq - 2.0 * inner)
        fit = 1.0 - np.sqrt(residual_sq) / norm_t if norm_t > 0 else 1.0
        fits.append(fit)
        sweeps = sweep + 1
        if abs(fit - previous_fit) < tolerance:
            break
        previous_fit = fit

    return CPDecomposition(
        factors=factors, weights=weights, fits=fits, iterations=sweeps
    )

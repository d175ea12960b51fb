"""Measurement-calibrated cost coefficients for :class:`ExecutionCost`.

The scheduler ranks candidate loop nests with
:class:`~repro.core.cost_model.ExecutionCost`, whose four per-op-class
coefficients (interpreted loop iteration, scalar multiply-add, vectorized
element, vectorized-call dispatch) ship as hand-tuned constants.  The
model is *linear* in those coefficients: the cost of any loop nest is

    ``vector_op·F₀ + call_overhead·F₁ + loop_overhead·F₂ + scalar_op·F₃
    + penalty·F₄``

where ``F`` is a per-nest *feature vector* counting vectorized elements,
offloaded calls, interpreted loop iterations, scalar operations and
buffer-bound violations.  This module exploits that linearity to replace
the constants with *measured* per-op-class timings (ROADMAP item 4):

* :func:`cost_features` extracts ``F`` with a tree-separable walk that
  mirrors ``ExecutionCost`` exactly (same offload decision, same trip
  counts) — ``dot(coefficients, F[:4]) + penalty·F₄`` reproduces the
  model's value bit-for-bit, a property the test suite asserts.
* :func:`fit_coefficients` solves a non-negative least-squares problem
  mapping the feature vectors of measured candidates (a ``repro tune
  --calibrate`` sweep, :meth:`~repro.core.autotune.Autotuner.fit_calibration`)
  to their measured seconds, giving coefficients in seconds-per-unit.
* :func:`apply_calibration` installs a fit as the process-wide default
  (:func:`~repro.core.cost_model.set_active_coefficients`), so every
  subsequently constructed ``ExecutionCost`` — the scheduler, the sweeps,
  ``cached_schedule`` — ranks with measured numbers.

The fit changes only when a tune applies one or a warm plan store is
loaded; executing kernels never alters it, so a kernel's loop nest does
not depend on what the process ran before.  This module deliberately
imports only :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import (
    CONSTRAINT_PENALTY,
    DEFAULT_COEFFICIENTS,
    ExecutionCost,
    TreeSeparableCost,
    active_coefficients,
    evaluate_cost,
    set_active_coefficients,
)
from repro.core.contraction_path import ContractionPath
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest

#: Feature-vector component order produced by :func:`cost_features`.
FEATURE_NAMES = (
    "vector_elems",   # scalar multiply-adds inside offloaded subtrees
    "offload_calls",  # vectorized-kernel dispatches
    "loop_iters",     # interpreted loop iterations
    "scalar_ops",     # interpreted innermost multiply-adds
    "violations",     # buffers exceeding the dimension bound
)


@dataclass(frozen=True)
class CostCoefficients:
    """A fitted set of :class:`ExecutionCost` coefficients (seconds/unit)."""

    loop_overhead: float
    scalar_op: float
    vector_op: float
    call_overhead: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "loop_overhead": self.loop_overhead,
            "scalar_op": self.scalar_op,
            "vector_op": self.vector_op,
            "call_overhead": self.call_overhead,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, float]) -> "CostCoefficients":
        return cls(
            loop_overhead=float(doc["loop_overhead"]),
            scalar_op=float(doc["scalar_op"]),
            vector_op=float(doc["vector_op"]),
            call_overhead=float(doc["call_overhead"]),
        )


# --------------------------------------------------------------------------- #
# Feature extraction
# --------------------------------------------------------------------------- #
class _FeatureCost(TreeSeparableCost):
    """Vector-valued twin of :class:`ExecutionCost`.

    Evaluating this cost over a loop nest yields the 5-vector ``F`` such
    that ``ExecutionCost``'s scalar value equals ``coefficients · F[:4] +
    penalty · F[4]``.  The offload decision and trip-count estimates are
    delegated to a real ``ExecutionCost`` instance so the two walks can
    never diverge.
    """

    def __init__(
        self, kernel: SpTTNKernel, buffer_dim_bound: Optional[int] = 2
    ) -> None:
        super().__init__(kernel)
        self._exec = ExecutionCost(kernel, buffer_dim_bound=buffer_dim_bound)

    def identity(self):  # type: ignore[override]
        return np.zeros(len(FEATURE_NAMES))

    def combine(self, a, b):  # type: ignore[override]
        return a + b

    def leaf(self, path, term_position, after_positions, removed):  # type: ignore[override]
        out = np.zeros(len(FEATURE_NAMES))
        out[3] = 2.0  # one multiply + one accumulate
        return out

    def phi(  # type: ignore[override]
        self,
        path: ContractionPath,
        root_index: str,
        inner_positions,
        after_positions,
        removed,
        inner_cost,
    ):
        out = np.zeros(len(FEATURE_NAMES))
        bound = self._exec.buffer_dim_bound
        if bound is not None:
            for _, kept in self.crossing_buffers(
                path, inner_positions, after_positions, removed
            ):
                if len(kept) > bound:
                    out[4] += 1.0
        if self._exec.offloadable(path, inner_positions, root_index, removed):
            elements = self._exec.offload_elements(
                path, inner_positions[0], root_index, removed
            )
            out[0] = 2.0 * elements
            out[1] = 1.0
            return out  # the offloaded subtree's inner cost is subsumed
        trips = self.iteration_count(root_index, inner_positions, removed, path)
        out[2] = trips
        return out + trips * inner_cost


def cost_features(
    kernel: SpTTNKernel,
    nest: LoopNest,
    buffer_dim_bound: Optional[int] = 2,
) -> Tuple[float, ...]:
    """The :data:`FEATURE_NAMES` vector of one loop nest."""
    vector = evaluate_cost(
        kernel, nest.path, nest.order, _FeatureCost(kernel, buffer_dim_bound)
    )
    return tuple(float(x) for x in vector)


def features_value(
    features: Sequence[float],
    coefficients: Dict[str, float],
    penalty: float = CONSTRAINT_PENALTY,
) -> float:
    """``ExecutionCost``'s scalar value implied by a feature vector."""
    return (
        coefficients["vector_op"] * features[0]
        + coefficients["call_overhead"] * features[1]
        + coefficients["loop_overhead"] * features[2]
        + coefficients["scalar_op"] * features[3]
        + penalty * features[4]
    )


# --------------------------------------------------------------------------- #
# Fitting
# --------------------------------------------------------------------------- #
def fit_coefficients(
    rows: Sequence[Tuple[Sequence[float], float]],
) -> Optional[CostCoefficients]:
    """Non-negative least-squares fit of ``(features, seconds)`` rows.

    Rows with a buffer-bound violation or a non-positive measurement are
    excluded (the penalty column is a constraint, not a fitted quantity).
    Returns ``None`` when the system is too underdetermined to trust
    (fewer than two usable rows, or a degenerate solution).
    """
    usable = [
        (tuple(float(x) for x in features), float(seconds))
        for features, seconds in rows
        if float(seconds) > 0.0 and len(features) >= 5 and features[4] == 0.0
    ]
    if len(usable) < 2:
        return None
    matrix = np.array([features[:4] for features, _ in usable])
    target = np.array([seconds for _, seconds in usable])
    from scipy.optimize import nnls

    solution: Optional[np.ndarray] = None
    try:
        solution, _residual = nnls(matrix, target)
    except Exception:
        # the solver failed (e.g. no convergence): clipped least squares
        lsq, *_rest = np.linalg.lstsq(matrix, target, rcond=None)
        solution = np.clip(lsq, 0.0, None)
    if solution is None or not np.all(np.isfinite(solution)):
        return None
    if float(np.sum(solution)) <= 0.0:
        return None
    vector_op, call_overhead, loop_overhead, scalar_op = (
        float(x) for x in solution
    )
    return CostCoefficients(
        loop_overhead=loop_overhead,
        scalar_op=scalar_op,
        vector_op=vector_op,
        call_overhead=call_overhead,
    )


# --------------------------------------------------------------------------- #
# Process-wide calibration state
# --------------------------------------------------------------------------- #
def apply_calibration(coefficients: CostCoefficients) -> None:
    """Install a fit as the process-wide ``ExecutionCost`` default."""
    set_active_coefficients(coefficients.as_dict())


def reset_calibration() -> None:
    """Restore the hand-tuned default coefficients (test isolation)."""
    set_active_coefficients(None)


def calibration_state() -> Dict[str, object]:
    """JSON-safe view of the active coefficients for the stats surfaces.

    ``active`` is true when they differ from the hand-tuned defaults — a
    tune applied a fit, or a warm plan store loaded one.
    """
    coefficients = active_coefficients()
    return {
        "active": coefficients != DEFAULT_COEFFICIENTS,
        "coefficients": coefficients,
    }


def calibrate_from_measurements(
    rows: Sequence[Tuple[Sequence[float], float]],
) -> Optional[CostCoefficients]:
    """Fit *and apply* coefficients from explicit measurement rows."""
    coefficients = fit_coefficients(rows)
    if coefficients is not None:
        apply_calibration(coefficients)
    return coefficients

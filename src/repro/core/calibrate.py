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
  mapping accumulated feature vectors to measured *execute-phase* seconds
  from the :class:`~repro.engine.plan_cache.PlanTimings` registry, giving
  coefficients in seconds-per-unit.
* :func:`apply_calibration` installs a fit as the process-wide default
  (:func:`~repro.core.cost_model.set_active_coefficients`), so every
  subsequently constructed ``ExecutionCost`` — the scheduler, the sweeps,
  ``cached_schedule`` — ranks with measured numbers.
* :func:`maybe_retune` re-fits *online*: the executor registers each
  plan's predicted seconds next to its measurements, and when the
  observed mean drifts from the prediction by more than a configurable
  factor (``REPRO_CALIBRATE_DRIFT``) on enough plans, the coefficients
  are re-fit from the current measurements and re-persisted through the
  plan store.

This module deliberately imports only :mod:`repro.core`; the engine layer
(executor, plan cache) calls *into* it, never vice versa.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import (
    CONSTRAINT_PENALTY,
    DEFAULT_COEFFICIENTS,
    ExecutionCost,
    TreeSeparableCost,
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

#: Environment variable: observed/predicted latency ratio beyond which a
#: plan counts as drifted ("0"/"off" disables online re-tuning).
CALIBRATE_DRIFT_ENV = "REPRO_CALIBRATE_DRIFT"
DEFAULT_DRIFT_FACTOR = 4.0

#: Environment variable: minimum predicted plans before drift is judged.
CALIBRATE_MIN_SAMPLES_ENV = "REPRO_CALIBRATE_MIN_SAMPLES"
DEFAULT_MIN_SAMPLES = 8

#: Fraction of predicted plans that must drift to trigger a re-fit.
_DRIFT_FRACTION = 0.25


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

    def predict_seconds(self, features: Sequence[float]) -> float:
        """Predicted execute-phase seconds of a nest with *features*."""
        return (
            self.vector_op * features[0]
            + self.call_overhead * features[1]
            + self.loop_overhead * features[2]
            + self.scalar_op * features[3]
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


def fit_from_timings(
    timings, engine: Optional[str] = None
) -> Optional[CostCoefficients]:
    """Fit coefficients from a :class:`PlanTimings` registry's records.

    Joins each plan's registered feature vector with its measured
    execute-phase mean (cold-call preparation is recorded under a
    separate phase and never pollutes the fit).
    """
    return fit_coefficients(timings.training_rows(engine=engine))


# --------------------------------------------------------------------------- #
# Process-wide calibration state
# --------------------------------------------------------------------------- #
_state_lock = threading.Lock()
_fitted: Optional[CostCoefficients] = None
_retunes = 0
_retuning = False


def apply_calibration(coefficients: CostCoefficients) -> None:
    """Install a fit as the process-wide ``ExecutionCost`` default."""
    global _fitted
    with _state_lock:
        _fitted = coefficients
    set_active_coefficients(coefficients.as_dict())


def reset_calibration() -> None:
    """Restore the hand-tuned default coefficients (test isolation)."""
    global _fitted, _retunes
    with _state_lock:
        _fitted = None
        _retunes = 0
    set_active_coefficients(None)


def current_calibration() -> Optional[CostCoefficients]:
    """The active fitted coefficients, or ``None`` when uncalibrated."""
    with _state_lock:
        return _fitted


def predict_seconds(features: Sequence[float]) -> Optional[float]:
    """Predicted execute seconds under the active fit (``None`` if none).

    Predictions are only meaningful once a measured fit is installed; the
    hand-tuned defaults are relative magnitudes, not seconds, so no
    prediction (and hence no drift judgement) is made under them.
    """
    fitted = current_calibration()
    if fitted is None:
        return None
    return fitted.predict_seconds(features)


def calibration_state() -> Dict[str, object]:
    """JSON-safe view of the calibration layer for the stats surfaces."""
    with _state_lock:
        fitted = _fitted
        retunes = _retunes
    return {
        "active": fitted is not None,
        "coefficients": (
            fitted.as_dict() if fitted is not None else dict(DEFAULT_COEFFICIENTS)
        ),
        "retunes": retunes,
        "drift_factor": _drift_factor(),
        "min_samples": _min_samples(),
    }


def _drift_factor() -> Optional[float]:
    raw = os.environ.get(CALIBRATE_DRIFT_ENV, "")
    text = raw.strip().lower()
    if not text:
        return DEFAULT_DRIFT_FACTOR
    if text in ("0", "off", "none", "disable", "disabled"):
        return None
    try:
        value = float(text)
    except ValueError:
        return DEFAULT_DRIFT_FACTOR
    if not math.isfinite(value) or value <= 1.0:
        return None
    return value


def _min_samples() -> int:
    raw = os.environ.get(CALIBRATE_MIN_SAMPLES_ENV, "")
    try:
        value = int(raw.strip())
    except ValueError:
        return DEFAULT_MIN_SAMPLES
    return value if value >= 2 else DEFAULT_MIN_SAMPLES


def maybe_retune(timings) -> Optional[CostCoefficients]:
    """Re-fit online when observed latency drifts from prediction.

    Called periodically from the timing-record path with the process
    registry.  A re-fit happens only when (a) a measured calibration is
    already active (the hand-tuned defaults make no seconds predictions),
    (b) online re-tuning is enabled (``REPRO_CALIBRATE_DRIFT``), (c) at
    least ``REPRO_CALIBRATE_MIN_SAMPLES`` predicted plans have execute
    measurements and a quarter of them drift beyond the factor, and (d)
    the re-fit itself succeeds.  Returns the new coefficients when a
    re-fit was applied (the caller persists them), else ``None``.
    """
    global _retunes, _retuning
    with _state_lock:
        if _fitted is None or _retuning:
            return None
        _retuning = True
    try:
        factor = _drift_factor()
        if factor is None:
            return None
        pairs = timings.drift_rows()
        if len(pairs) < _min_samples():
            return None
        drifted = sum(
            1
            for predicted, observed in pairs
            if observed > 0.0
            and max(observed / predicted, predicted / observed) > factor
        )
        if drifted < math.ceil(_DRIFT_FRACTION * len(pairs)):
            return None
        coefficients = fit_from_timings(timings)
        if coefficients is None:
            return None
        apply_calibration(coefficients)
        with _state_lock:
            _retunes += 1
        # refresh the stored predictions so the drift that triggered this
        # re-fit is not re-judged against stale numbers forever
        for key, vector in timings.feature_items():
            timings.record_features(
                key, vector, coefficients.predict_seconds(vector)
            )
        return coefficients
    finally:
        with _state_lock:
            _retuning = False


def calibrate_from_measurements(
    rows: Sequence[Tuple[Sequence[float], float]],
) -> Optional[CostCoefficients]:
    """Fit *and apply* coefficients from explicit measurement rows."""
    coefficients = fit_coefficients(rows)
    if coefficients is not None:
        apply_calibration(coefficients)
    return coefficients

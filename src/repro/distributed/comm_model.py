"""Alpha-beta communication model for the simulated distributed runtime.

Collective costs follow the standard latency/bandwidth (alpha-beta) model
used throughout the communication-avoiding linear algebra literature:

* broadcast / reduce of ``n`` words over ``p`` ranks:
  ``ceil(log2 p) * alpha + n * beta`` (tree algorithms, large-message term
  simplified to a single pass over the data);
* all-reduce: ``2 ceil(log2 p) * alpha + 2 n beta (p-1)/p``
  (reduce-scatter + all-gather);
* point-to-point: ``alpha + n * beta``.

The default constants approximate a commodity cluster interconnect
(1 microsecond latency, 10 GB/s per-link bandwidth); they only set the
absolute scale of the simulated times — the strong-scaling *shape* of
Figure 8 comes from the ratio between compute and communication terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CommunicationEstimate:
    """A decomposed communication-time estimate (seconds)."""

    latency_seconds: float
    bandwidth_seconds: float

    @property
    def total(self) -> float:
        return self.latency_seconds + self.bandwidth_seconds


@dataclass(frozen=True)
class AlphaBetaModel:
    """Latency/bandwidth machine model.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-byte transfer time in seconds (inverse bandwidth).
    word_bytes:
        Size of one tensor element in bytes.
    """

    alpha: float = 1.0e-6
    beta: float = 1.0e-10
    word_bytes: int = 8

    # ------------------------------------------------------------------ #
    def _log2p(self, procs: int) -> int:
        return max(1, int(math.ceil(math.log2(max(2, procs)))))

    def point_to_point(self, elements: float) -> CommunicationEstimate:
        return CommunicationEstimate(
            self.alpha, float(elements) * self.word_bytes * self.beta
        )

    def broadcast(self, elements: float, procs: int) -> CommunicationEstimate:
        if procs <= 1 or elements <= 0:
            return CommunicationEstimate(0.0, 0.0)
        return CommunicationEstimate(
            self._log2p(procs) * self.alpha,
            float(elements) * self.word_bytes * self.beta,
        )

    def reduce(self, elements: float, procs: int) -> CommunicationEstimate:
        if procs <= 1 or elements <= 0:
            return CommunicationEstimate(0.0, 0.0)
        return CommunicationEstimate(
            self._log2p(procs) * self.alpha,
            float(elements) * self.word_bytes * self.beta,
        )

    def allreduce(self, elements: float, procs: int) -> CommunicationEstimate:
        if procs <= 1 or elements <= 0:
            return CommunicationEstimate(0.0, 0.0)
        factor = 2.0 * (procs - 1) / procs
        return CommunicationEstimate(
            2 * self._log2p(procs) * self.alpha,
            float(elements) * self.word_bytes * self.beta * factor,
        )

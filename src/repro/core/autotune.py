"""Measured-time autotuning over enumerated loop nests.

Section 4.1 notes that enumeration "enables autotuning": when an analytic
cost model is insufficient, every candidate loop nest can simply be executed
and timed.  The :class:`Autotuner` does exactly that over a (possibly
sampled) set of loop nests, and is what the Figure 10 reproduction uses to
place the cost-model-picked loop order within the measured distribution of
random loop orders.

Measurement is delegated to :mod:`repro.core.search`, which fans the sweep
over the shared persistent worker pool of :mod:`repro.runtime` (pass
``workers``; ``None`` defers to the ``REPRO_WORKERS`` environment variable)
and ranks candidates with the deterministic ``(seconds, enumeration
index)`` tie-break, so a parallel sweep with a deterministic runner returns
exactly the serial sweep's argmin.  Parallel measurement requires a
picklable runner, e.g. :class:`repro.core.search.ExecutionRunner`; closure
runners fall back to the (identical) serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.contraction_path import ContractionPath
from repro.core.enumeration import enumerate_loop_orders, sample_loop_orders
from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.search import TimedRunner, measure_loop_nests, nests_equal


@dataclass
class AutotuneEntry:
    """One measured candidate."""

    loop_nest: LoopNest
    seconds: float
    max_buffer_dimension: int


@dataclass
class AutotuneResult:
    """All measured candidates, sorted fastest-first."""

    entries: List[AutotuneEntry] = field(default_factory=list)

    @property
    def best(self) -> AutotuneEntry:
        if not self.entries:
            raise ValueError("autotuner measured no candidates")
        return self.entries[0]

    def times(self) -> List[float]:
        return [e.seconds for e in self.entries]

    def rank_of(self, loop_nest: LoopNest) -> Optional[int]:
        """Position of a loop nest (by structural equality) in the ranking."""
        for rank, entry in enumerate(self.entries):
            if nests_equal(entry.loop_nest, loop_nest):
                return rank
        return None


class Autotuner:
    """Times candidate loop nests with a user-provided runner.

    Parameters
    ----------
    kernel:
        The kernel being tuned.
    runner:
        Callable ``runner(loop_nest) -> None`` that executes the kernel with
        the given loop nest on concrete data (typically a closure over
        :class:`repro.engine.executor.LoopNestExecutor`).
    repeats:
        Number of timed repetitions per candidate; the minimum is recorded.
    workers:
        Default worker count for :meth:`tune` (``None`` → the
        ``REPRO_WORKERS`` environment default, ``0`` → serial, ``-1`` → one
        per CPU).  Parallel measurement needs a picklable runner; otherwise
        the sweep silently runs serially.
    """

    def __init__(
        self,
        kernel: SpTTNKernel,
        runner: Callable[[LoopNest], object],
        repeats: int = 1,
        workers: Optional[int] = None,
    ) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.kernel = kernel
        self.runner = runner
        self.repeats = int(repeats)
        self.workers = workers
        # One timed wrapper for the tuner's lifetime, so the per-process
        # warmup execution happens once, not once per measure()/tune() call.
        self._timed = TimedRunner(runner, self.repeats)

    def measure(self, loop_nest: LoopNest) -> AutotuneEntry:
        seconds = self._timed(loop_nest)
        return AutotuneEntry(
            loop_nest=loop_nest,
            seconds=seconds,
            max_buffer_dimension=loop_nest.max_buffer_dimension(),
        )

    def tune(
        self,
        candidates: Sequence[LoopNest],
        workers: Optional[int] = None,
    ) -> AutotuneResult:
        """Measure an explicit list of candidates (optionally in parallel).

        Entries are sorted fastest-first with ties broken by candidate
        order, so the ranking is deterministic for deterministic timings
        regardless of the worker count.
        """
        workers = self.workers if workers is None else workers
        sweep = measure_loop_nests(candidates, self._timed, workers=workers)
        entries = [
            AutotuneEntry(
                loop_nest=entry.nest,
                seconds=entry.value,
                max_buffer_dimension=entry.nest.max_buffer_dimension(),
            )
            for entry in sweep.sorted_entries()
        ]
        return AutotuneResult(entries)

    def tune_path(
        self,
        path: ContractionPath,
        fraction: float = 1.0,
        seed: Optional[int] = None,
        max_candidates: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> AutotuneResult:
        """Measure the loop orders of one contraction path.

        With ``fraction < 1`` a random sample of the CSF-consistent loop
        orders is measured (the Figure 10 protocol uses 25%).
        """
        if fraction >= 1.0:
            orders: List[LoopOrder] = list(
                enumerate_loop_orders(self.kernel, path, limit=max_candidates)
            )
        else:
            orders = sample_loop_orders(
                self.kernel,
                path,
                fraction=fraction,
                seed=seed,
                max_samples=max_candidates,
            )
        return self.tune(
            [LoopNest(path, order) for order in orders], workers=workers
        )

"""SpTTN-Cyclops (this library) wrapped in the baseline interface.

The benchmark harness sweeps all systems through the same
:class:`~repro.frameworks.base.FrameworkBaseline` interface; this adapter
runs the scheduler once per kernel (caching the schedule, since the search
is data-independent) and executes the selected loop nest.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.cost_model import TreeSeparableCost
from repro.core.expr import SpTTNKernel
from repro.core.scheduler import Schedule, SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.frameworks.base import FrameworkBaseline, Output, TensorLike


class SpTTNCyclopsBaseline(FrameworkBaseline):
    """The paper's system: cost-optimal fully-fused loop nest execution."""

    name = "spttn-cyclops"

    def __init__(
        self,
        counter=None,
        buffer_dim_bound: Optional[int] = 2,
        cost: Optional[TreeSeparableCost] = None,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(counter)
        self.buffer_dim_bound = buffer_dim_bound
        self.cost = cost
        self.engine = engine
        self._schedules: Dict[int, Schedule] = {}

    def schedule_for(self, kernel: SpTTNKernel) -> Schedule:
        """Schedule the kernel (cached per kernel object)."""
        key = id(kernel)
        if key not in self._schedules:
            scheduler = SpTTNScheduler(
                kernel, cost=self.cost, buffer_dim_bound=self.buffer_dim_bound
            )
            self._schedules[key] = scheduler.schedule()
        return self._schedules[key]

    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        schedule = self.schedule_for(kernel)
        executor = LoopNestExecutor(
            kernel, schedule.loop_nest, counter=self.counter, engine=self.engine
        )
        return executor.execute(tensors)

    def metadata(self) -> Dict[str, object]:
        meta: Dict[str, object] = {"strategy": "spttn-cyclops"}
        if self._schedules:
            schedule = next(iter(self._schedules.values()))
            meta["max_buffer_dimension"] = schedule.max_buffer_dimension()
            meta["path_rank"] = schedule.path_rank
        return meta

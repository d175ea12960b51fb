"""SpTTN-Cyclops (this library) wrapped in the baseline interface.

The benchmark harness sweeps all systems through the same
:class:`~repro.frameworks.base.FrameworkBaseline` interface; this adapter's
loop nest is the scheduler's pick, looked up in the process-wide schedule
cache (:func:`~repro.engine.plan_cache.cached_schedule`, bounded and keyed
by kernel structure, since the search is data-independent).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.expr import SpTTNKernel
from repro.core.loop_nest import LoopNest
from repro.core.scheduler import Schedule
from repro.engine.plan_cache import cached_schedule
from repro.frameworks.base import FrameworkBaseline


class SpTTNCyclopsBaseline(FrameworkBaseline):
    """The paper's system: cost-optimal fully-fused loop nest execution."""

    name = "spttn-cyclops"

    def __init__(
        self,
        counter=None,
        buffer_dim_bound: Optional[int] = 2,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(counter)
        self.buffer_dim_bound = buffer_dim_bound
        self.engine = engine
        self._last_schedule: Optional[Schedule] = None

    def schedule_for(self, kernel: SpTTNKernel) -> Schedule:
        """The scheduler's pick for *kernel* (searched once per structure)."""
        self._last_schedule = cached_schedule(
            kernel, buffer_dim_bound=self.buffer_dim_bound
        )
        return self._last_schedule

    def build_loop_nest(self, kernel: SpTTNKernel) -> LoopNest:
        return self.schedule_for(kernel).loop_nest

    def metadata(self) -> Dict[str, object]:
        meta: Dict[str, object] = {"strategy": "spttn-cyclops"}
        schedule = self._last_schedule
        if schedule is not None:
            meta["max_buffer_dimension"] = schedule.max_buffer_dimension()
            meta["path_rank"] = schedule.path_rank
        return meta

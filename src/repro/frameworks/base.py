"""Common interface for the baseline execution strategies."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import TensorLike
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import CSFTensor
from repro.util.counters import OpCounter

Output = Union[np.ndarray, COOTensor]


@dataclass
class BaselineResult:
    """Output plus measurement metadata of one baseline run."""

    framework: str
    output: Output
    seconds: float
    counter: OpCounter = field(default_factory=OpCounter)
    metadata: Dict[str, object] = field(default_factory=dict)


class FrameworkBaseline(ABC):
    """One execution strategy (TACO-like, CTF-like, ...).

    Subclasses implement :meth:`_execute`; the public :meth:`run` wraps it
    with timing and operation counting so the benchmark harness treats every
    system identically.
    """

    name: str = "baseline"

    def __init__(self, counter: Optional[OpCounter] = None) -> None:
        self.counter = counter if counter is not None else OpCounter()

    # ------------------------------------------------------------------ #
    def supports(self, kernel: SpTTNKernel) -> bool:
        """Whether this strategy can execute the given kernel."""
        return True

    @abstractmethod
    def _execute(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> Output:
        """Execute the kernel and return its output."""

    def run(
        self, kernel: SpTTNKernel, tensors: Mapping[str, TensorLike]
    ) -> BaselineResult:
        """Execute with timing; raises ``NotImplementedError`` if unsupported."""
        if not self.supports(kernel):
            raise NotImplementedError(
                f"{self.name} does not support kernel {kernel!r}"
            )
        self.counter.reset()
        start = time.perf_counter()
        output = self._execute(kernel, tensors)
        elapsed = time.perf_counter() - start
        return BaselineResult(
            framework=self.name,
            output=output,
            seconds=elapsed,
            counter=self.counter,
            metadata=self.metadata(),
        )

    def metadata(self) -> Dict[str, object]:
        """Extra per-run information (overridden by subclasses)."""
        return {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def as_coo(value: TensorLike) -> COOTensor:
        if isinstance(value, COOTensor):
            return value
        if isinstance(value, CSFTensor):
            return value.to_coo()
        raise TypeError("expected a sparse tensor")

    @staticmethod
    def as_array(value: TensorLike) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

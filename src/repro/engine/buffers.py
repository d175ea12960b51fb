"""Intermediate-buffer management for loop nest execution.

Every intermediate of a contraction path is materialized as a dense NumPy
array whose axes are the buffer's *remaining* indices (the producer's output
indices that are not common-ancestor loops of producer and consumer,
Equation 5 of the paper).  The :class:`BufferSet` allocates those arrays,
translates an index binding into a NumPy indexing key, and performs the
reset-before-produce writes that Algorithm 2 inserts when producer and
consumer separate in the fused forest.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.loop_nest import BufferSpec
from repro.util.counters import OpCounter

IndexKey = Tuple[Union[int, slice], ...]


class BufferSet:
    """Dense buffers for the intermediates of one loop nest."""

    def __init__(
        self,
        specs: Sequence[BufferSpec],
        index_dims: Mapping[str, int],
        counter: Optional[OpCounter] = None,
    ) -> None:
        self.specs: Dict[str, BufferSpec] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.counter = counter
        for spec in specs:
            if spec.name in self.specs:
                raise ValueError(f"duplicate buffer name {spec.name!r}")
            shape = tuple(int(index_dims[idx]) for idx in spec.indices)
            self.specs[spec.name] = spec
            self.arrays[spec.name] = np.zeros(shape if shape else (), dtype=np.float64)

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def array(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def total_elements(self) -> int:
        return sum(int(a.size) for a in self.arrays.values())

    def max_dimension(self) -> int:
        return max((len(s.indices) for s in self.specs.values()), default=0)

    # ------------------------------------------------------------------ #
    def key_for(self, name: str, bound: Mapping[str, int]) -> IndexKey:
        """NumPy indexing key selecting the bound portion of a buffer."""
        return tuple(
            int(bound[idx]) if idx in bound else slice(None)
            for idx in self.specs[name].indices
        )

    def view(self, name: str, bound: Mapping[str, int]) -> np.ndarray:
        """View of the buffer with bound axes fixed (free axes remain)."""
        return self.arrays[name][self.key_for(name, bound)]

    def free_indices(self, name: str, bound: Mapping[str, int]) -> Tuple[str, ...]:
        return tuple(idx for idx in self.specs[name].indices if idx not in bound)

    def reset(self, name: str, bound: Mapping[str, int]) -> None:
        """Zero the portion of the buffer visible under the current binding."""
        key = self.key_for(name, bound)
        arr = self.arrays[name]
        view = arr[key]
        if np.ndim(view) == 0:
            arr[key] = 0.0
        else:
            view[...] = 0.0
        if self.counter is not None:
            self.counter.add_reset()
            self.counter.add_bytes(int(np.size(view)) * 8)

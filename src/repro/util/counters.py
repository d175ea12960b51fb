"""Operation counters used to verify the paper's analytic cost claims.

The evaluation in Section 2.4 of the paper reasons about leading-order scalar
operation counts (e.g. unfactorized MTTKRP performs ``3 nnz(T) * R``
multiply-add operations while the factorize-and-fuse variant performs
``2 nnz_{IJK}(T) * R + 2 nnz_{IJ}(T) * R``).  The execution engine threads an
:class:`OpCounter` through every contraction so tests and the E10 benchmark
can compare measured counts against these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class OpCounter:
    """Counts scalar multiply/add operations, buffer resets and kernel calls.

    Attributes
    ----------
    flops:
        Scalar fused multiply-add operations (a multiply and the accumulate
        that follows are counted as 2 operations, matching the paper).
    buffer_resets:
        Number of intermediate-buffer zero-fills performed, a proxy for the
        overhead of the factorize-and-fuse approach.
    kernel_calls:
        Per-BLAS-level call counts (``{"axpy": n, "ger": m, ...}``).
    """

    flops: int = 0
    buffer_resets: int = 0
    kernel_calls: Dict[str, int] = field(default_factory=dict)

    def add_flops(self, n: int) -> None:
        self.flops += int(n)

    def add_call(self, kernel: str, n: int = 1) -> None:
        self.kernel_calls[kernel] = self.kernel_calls.get(kernel, 0) + int(n)

    def reset(self) -> None:
        self.flops = 0
        self.buffer_resets = 0
        self.kernel_calls.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "flops": self.flops,
            "buffer_resets": self.buffer_resets,
            "kernel_calls": dict(self.kernel_calls),
        }

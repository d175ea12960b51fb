"""Operation counters used to verify the paper's analytic cost claims.

The evaluation in Section 2.4 of the paper reasons about leading-order scalar
operation counts (e.g. unfactorized MTTKRP performs ``3 nnz(T) * R``
multiply-add operations while the factorize-and-fuse variant performs
``2 nnz_{IJK}(T) * R + 2 nnz_{IJ}(T) * R``).  The execution engine threads an
:class:`OpCounter` through every contraction so tests and the E10 benchmark
can compare measured counts against these formulas.  Every execution tier
reports the same count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Counts scalar multiply/add operations.

    Attributes
    ----------
    flops:
        Scalar fused multiply-add operations (a multiply and the accumulate
        that follows are counted as 2 operations, matching the paper).
    """

    flops: int = 0

    def add_flops(self, n: int) -> None:
        self.flops += int(n)

    def reset(self) -> None:
        self.flops = 0

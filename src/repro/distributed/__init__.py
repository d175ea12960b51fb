"""Simulated distributed-memory runtime (Section 5.2 of the paper).

The paper's distributed execution keeps the sparse tensor in place in a
cyclic layout over a multidimensional processor grid, replicates the (small)
dense operands along the grid dimensions they do not share with the sparse
tensor, runs the same fused loop nest locally on every process, and finally
reduces the output.

No MPI implementation is available in this environment, so this subpackage
*simulates* that runtime:

* :mod:`repro.distributed.grid` — multidimensional processor grids;
* :mod:`repro.distributed.distribution` — cyclic partitioning of the sparse
  tensor and replicated placement of dense operands, with exact per-rank
  nonzero counts and communication volumes;
* :mod:`repro.distributed.comm_model` — an alpha-beta (latency/bandwidth)
  model of the collectives (broadcast, reduce, all-reduce);
* :mod:`repro.distributed.runtime` — a virtual-rank runtime that *executes*
  every rank's local kernel — serially or rank-parallel on the shared
  worker pool of :mod:`repro.runtime`, with dense operands broadcast
  through shared memory and partials combined by a deterministic reduction
  tree (bit-identical across tiers) — or *estimates* the parallel runtime
  from the measured single-rank time, the load balance and the
  communication model (used by the strong-scaling benchmarks);
* :mod:`repro.distributed.scaling` — strong-scaling sweeps (Figure 8),
  simulated and measured.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ("ProcessorGrid", "factor_processors"),
    ".distribution": ("CyclicDistribution", "DenseReplication", "partition_sparse_tensor"),
    ".comm_model": ("AlphaBetaModel", "CommunicationEstimate"),
    ".runtime": ("DistributedSpTTN", "SimulatedRun"),
    ".scaling": ("StrongScalingResult", "measured_scaling", "strong_scaling"),
})

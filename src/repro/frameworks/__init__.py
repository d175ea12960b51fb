"""Baseline execution strategies re-implemented on the shared substrate.

The paper compares SpTTN-Cyclops against four external systems.  Those
systems cannot be vendored here, so each is represented by a faithful
re-implementation of its *strategy* on top of this repository's tensor
substrate:

* :class:`~repro.frameworks.taco_like.TacoLikeBaseline` — the default TACO /
  COMET schedule: a single *unfactorized* loop nest that multiplies all
  operands in the innermost loop (Section 2.4.1).
* :class:`~repro.frameworks.ctf_like.CTFLikeBaseline` — CTF-style *pairwise*
  contraction: each term of a contraction path is executed independently and
  its intermediate is fully materialized (Section 2.4.2), with the attendant
  memory blow-up.
* :class:`~repro.frameworks.sparselnr_like.SparseLNRLikeBaseline` —
  factorize-and-fuse with the limited fusion SparseLNR's user-specified
  schedules achieve (only the first sparse index is fused; Section 6/7).
* :class:`~repro.frameworks.splatt_like.SplattLikeBaseline` — a specialized,
  hand-fused CSF MTTKRP in the style of SPLATT.
* :class:`~repro.frameworks.spttn_cyclops.SpTTNCyclopsBaseline` — this
  library's own scheduler + executor, wrapped in the same interface so the
  benchmark harness can sweep all systems uniformly.

SpTTN-Cyclops, SparseLNR and SPLATT are loop-nest builders: each runs its
nest on the one :class:`~repro.engine.executor.LoopNestExecutor` and counts
with its :class:`~repro.util.counters.OpCounter`.  CTF runs every term that
reads the sparse tensor the same way.  Two things stay outside the nest
space, because the executor cannot express them:

* TACO's unfactorized product keeps its per-nonzero ``einsum``: the
  executor's terms are binary and a chain of them hoists loop-invariant
  products, so E10's TTMc would do 1 632 000 scalar operations instead of
  the unfactorized 3 072 000;
* CTF's dense × dense pairs stay one ``einsum`` over the full index space,
  since a loop over a sparse index always descends the CSF: as one nest,
  Fig. 8c's TTTP would do the fused 246 344 operations instead of 4 203 400.
"""

from repro.frameworks.base import BaselineResult, FrameworkBaseline
from repro.frameworks.taco_like import TacoLikeBaseline
from repro.frameworks.ctf_like import CTFLikeBaseline, IntermediateMemoryError
from repro.frameworks.sparselnr_like import SparseLNRLikeBaseline
from repro.frameworks.splatt_like import SplattLikeBaseline
from repro.frameworks.spttn_cyclops import SpTTNCyclopsBaseline

ALL_BASELINES = (
    SpTTNCyclopsBaseline,
    TacoLikeBaseline,
    SparseLNRLikeBaseline,
    CTFLikeBaseline,
    SplattLikeBaseline,
)

__all__ = [
    "BaselineResult",
    "FrameworkBaseline",
    "TacoLikeBaseline",
    "CTFLikeBaseline",
    "IntermediateMemoryError",
    "SparseLNRLikeBaseline",
    "SplattLikeBaseline",
    "SpTTNCyclopsBaseline",
    "ALL_BASELINES",
]

"""E1 — Figure 7: single-thread MTTKRP across frameworks.

The paper compares SpTTN-Cyclops against TACO, SparseLNR, CTF and SPLATT on
FROSTT tensors with rank R = 64 and reports: SpTTN-Cyclops 1.3-3.4x faster
than TACO, roughly on par with SPLATT (0.7-1.7x), SparseLNR equal to TACO
(fusion fails for MTTKRP), and CTF far behind.

Asserted here on executed flops, which hold on any host: ``spttn-cyclops``
executes no more than ``splatt`` and fewer than ``taco-unfactorized``, whose
count is 2 (N - 1) nnz R for an order-N tensor, and ``sparselnr`` equals
``taco-unfactorized`` (its MTTKRP fallback).  Times stay in ``extra_info``,
ungated.  ``ctf-pairwise`` is not ranked: on ``vast-3d`` it executes 395 776
flops, fewer than ``spttn-cyclops``'s 548 352.
"""

from __future__ import annotations

import pytest

from repro.frameworks import (
    CTFLikeBaseline,
    SparseLNRLikeBaseline,
    SplattLikeBaseline,
    SpTTNCyclopsBaseline,
    TacoLikeBaseline,
)
from repro.kernels.mttkrp import mttkrp_kernel

from _workloads import FIG7_DATASETS, FIG7_RANK, factor_matrices, preset_tensor

FRAMEWORKS = {
    "spttn-cyclops": SpTTNCyclopsBaseline,
    "splatt": SplattLikeBaseline,
    "taco-unfactorized": TacoLikeBaseline,
    "sparselnr": SparseLNRLikeBaseline,
    "ctf-pairwise": CTFLikeBaseline,
}


#: Executed flops of (spttn-cyclops, splatt, taco-unfactorized) at R = 64.
FLOPS = {
    "nell-2": (433_792, 433_792, 768_000),
    "nips": (146_944, 198_400, 387_072),
    "vast-3d": (548_352, 618_880, 768_000),
}


def _setup(dataset: str):
    tensor = preset_tensor(dataset)
    factors = factor_matrices(tensor, FIG7_RANK, seed=1)
    kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
    return kernel, tensors


@pytest.mark.parametrize("dataset", FIG7_DATASETS)
@pytest.mark.parametrize("framework", list(FRAMEWORKS))
def test_fig7_mttkrp_single_thread(benchmark, dataset, framework):
    kernel, tensors = _setup(dataset)
    baseline = FRAMEWORKS[framework]()
    if not baseline.supports(kernel):
        pytest.skip(f"{framework} does not support MTTKRP on this preset")
    if isinstance(baseline, SpTTNCyclopsBaseline):
        baseline.schedule_for(kernel)  # schedule once, outside the timed region

    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["framework"] = framework
    benchmark.extra_info["nnz"] = tensors[kernel.sparse_operand.name].nnz
    benchmark.extra_info["rank"] = FIG7_RANK

    result = benchmark.pedantic(
        lambda: baseline.run(kernel, tensors), rounds=3, iterations=1, warmup_rounds=1
    )
    benchmark.extra_info["flops"] = result.counter.flops


@pytest.mark.parametrize("dataset", FIG7_DATASETS)
def test_fig7_spttn_executes_no_more_flops_than_splatt_and_fewer_than_taco(dataset):
    kernel, tensors = _setup(dataset)
    flops = {
        name: FRAMEWORKS[name]().run(kernel, tensors).counter.flops
        for name in ("spttn-cyclops", "splatt", "taco-unfactorized", "sparselnr")
    }
    ours, splatt, taco = FLOPS[dataset]
    tensor = tensors[kernel.sparse_operand.name]
    assert taco == 2 * (tensor.order - 1) * tensor.nnz * FIG7_RANK
    assert (flops["spttn-cyclops"], flops["splatt"], flops["taco-unfactorized"]) == (
        ours, splatt, taco,
    )
    assert ours <= splatt and ours < taco
    assert flops["sparselnr"] == taco


@pytest.mark.smoke
def test_fig7_smoke(benchmark):
    """Tiny CI case: the paper's system on the smallest fig7 preset."""
    kernel, tensors = _setup("nips")
    baseline = SpTTNCyclopsBaseline()
    baseline.schedule_for(kernel)
    result = benchmark.pedantic(
        lambda: baseline.run(kernel, tensors), rounds=1, iterations=1
    )
    assert result.counter.flops > 0

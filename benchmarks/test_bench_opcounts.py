"""E10 — operation-count claims of Section 2.4.

The paper's motivating analysis compares, per kernel, the scalar operation
counts of the execution strategies:

* MTTKRP: unfactorized needs ``3 nnz(T) R`` operations; factorize-and-fuse
  needs ``2 nnz_{IJK}(T) R + 2 nnz_{IJ}(T) R`` — up to a third fewer;
* order-3 TTMc: unfactorized needs ``3 nnz(T) R S``; the factorized schedule
  needs ``2 nnz(T) S + 2 nnz_{IJ}(T) S R`` — an asymptotic reduction;
* CTF-style pairwise execution contracts the same factors in the same
  order, but its second term runs densely over the materialized ``I x J``
  intermediate: ``2 I J R`` (MTTKRP) or ``2 I J R S`` (TTMc) where
  factorize-and-fuse pays only for the ``nnz_{IJ}`` stored fibres.

This benchmark executes each strategy with operation counting enabled and
asserts the exact counts, derived from the tensor's ``nnz``, ``nnz_{IJ}``
and mode sizes.  One departure from the paper: the operation counter
charges a multiply-add for each of the unfactorized nest's two operand
products, so it records ``4 nnz(T) R`` (and ``4 nnz(T) R S``) where the
paper counts the triple product with one add, ``3 nnz(T) R``.  SPLATT's
hand-fused MTTKRP is the factorize-and-fuse count.
"""

from __future__ import annotations

import pytest

from repro.frameworks import (
    CTFLikeBaseline,
    SplattLikeBaseline,
    SpTTNCyclopsBaseline,
    TacoLikeBaseline,
)
from repro.kernels.mttkrp import mttkrp_kernel
from repro.kernels.ttmc import ttmc_kernel
from repro.sptensor import random_dense_matrix, power_law_sparse_tensor

RANK = 16


def _tensor():
    tensor = power_law_sparse_tensor((40, 36, 32), nnz=3000, seed=11, exponent=1.3)
    # the counts below are derived from these: nnz 3 000, nnz_IJ 797, I x J 40 x 36
    assert (tensor.nnz, tensor.nnz_prefix(2)) == (3000, 797)
    return tensor


def _run_all(benchmark, kernel, tensors, baselines):
    ours = baselines["ours"]
    ours.schedule_for(kernel)

    def run_all():
        return {name: b.run(kernel, tensors).counter.flops for name, b in baselines.items()}

    flops = benchmark.pedantic(run_all, rounds=1, iterations=1)
    benchmark.extra_info.update({f"measured_{name}": n for name, n in flops.items()})
    return flops


@pytest.mark.smoke
def test_opcount_mttkrp_unfactorized_vs_fused(benchmark):
    tensor = _tensor()
    factors = [random_dense_matrix(d, RANK, seed=i) for i, d in enumerate(tensor.shape)]
    kernel, tensors = mttkrp_kernel(tensor, factors, mode=0)
    flops = _run_all(
        benchmark,
        kernel,
        tensors,
        {
            "ours": SpTTNCyclopsBaseline(),
            "taco": TacoLikeBaseline(),
            "ctf": CTFLikeBaseline(),
            "splatt": SplattLikeBaseline(),
        },
    )

    nnz, nnz_ij = tensor.nnz, tensor.nnz_prefix(2)
    dim_i, dim_j = tensor.shape[:2]
    fused = 2 * nnz * RANK + 2 * nnz_ij * RANK  # 121 504
    assert flops["ours"] == fused
    assert flops["splatt"] == fused
    assert flops["taco"] == 4 * nnz * RANK  # 192 000
    assert flops["ctf"] == 2 * nnz * RANK + 2 * dim_i * dim_j * RANK  # 142 080
    assert flops["ours"] < flops["ctf"] < flops["taco"]


def test_opcount_ttmc_asymptotic_reduction(benchmark):
    tensor = _tensor()
    factors = [random_dense_matrix(d, RANK, seed=5 + i) for i, d in enumerate(tensor.shape)]
    kernel, tensors = ttmc_kernel(tensor, factors, mode=0)
    flops = _run_all(
        benchmark,
        kernel,
        tensors,
        {"ours": SpTTNCyclopsBaseline(), "taco": TacoLikeBaseline(), "ctf": CTFLikeBaseline()},
    )

    nnz, nnz_ij = tensor.nnz, tensor.nnz_prefix(2)
    dim_i, dim_j = tensor.shape[:2]
    rank_r = rank_s = RANK
    assert flops["ours"] == 2 * nnz * rank_s + 2 * nnz_ij * rank_r * rank_s  # 504 064
    assert flops["taco"] == 4 * nnz * rank_r * rank_s  # 3 072 000
    assert flops["ctf"] == 2 * nnz * rank_s + 2 * dim_i * dim_j * rank_r * rank_s  # 833 280
    benchmark.extra_info["reduction"] = flops["taco"] / flops["ours"]
    # the paper's asymptotic gap: unfactorized pays the extra factor of R
    assert flops["taco"] > 1.5 * flops["ours"]

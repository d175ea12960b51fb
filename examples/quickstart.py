"""Quickstart: schedule and execute an SpTTN kernel.

Builds a random sparse tensor and two dense factor matrices, asks the
library for the minimum-cost fully-fused loop nest of the MTTKRP kernel
``A(i,r) = sum_{j,k} T(i,j,k) B(j,r) C(k,r)``, prints the selected loop
nest (compare with Listings 2-4 of the paper), executes it, and verifies
the result against a dense einsum reference.

Run with:  python examples/quickstart.py
"""

import numpy as np

import repro


def main() -> None:
    # 1. Build the operands: one sparse tensor, several small dense matrices.
    T = repro.random_sparse_tensor((200, 150, 120), nnz=20_000, seed=0)
    rank = 16
    B = repro.random_dense_matrix(T.shape[1], rank, seed=1)
    C = repro.random_dense_matrix(T.shape[2], rank, seed=2)
    print(f"sparse tensor: shape={T.shape}, nnz={T.nnz}")

    # 2. One call does everything: parse the einsum-style kernel, enumerate
    #    contraction paths, run Algorithm 1 to pick the cheapest loop order,
    #    and execute the fused loop nest over the CSF representation.
    output, schedule = repro.contract("ijk,jr,kr->ir", [T, B, C])

    # 3. Inspect what the scheduler chose.
    print("\nselected schedule:")
    print(schedule.describe())
    print(f"\nintermediate buffers: {schedule.loop_nest.buffers()}")

    # 4. Verify against the dense reference (only feasible for small tensors).
    reference = np.einsum("ijk,jr,kr->ir", T.to_dense(), B, C)
    error = np.abs(output - reference).max()
    print(f"\nmax abs error vs dense einsum: {error:.3e}")
    assert error < 1e-8

    # 5. The schedule is data independent: reuse it for new values with the
    #    same sparsity pattern (here: the same pattern with fresh values).
    T2 = T.with_values(np.random.default_rng(3).random(T.nnz))
    executor = repro.LoopNestExecutor(
        repro.parse_kernel("ijk,jr,kr->ir", [T2, B, C]), schedule.loop_nest
    )
    out2 = executor.execute({"T": T2, "A0": B, "A1": C})
    print(f"re-used schedule on new values, output shape {out2.shape}")


if __name__ == "__main__":
    main()

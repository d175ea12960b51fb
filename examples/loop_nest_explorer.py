"""Loop-nest explorer: enumerate, cost, and autotune the schedules of one kernel.

This example exposes the machinery behind the scheduler for the order-3 TTMc
kernel of Figure 1 / Listings 2-4:

* enumerate the contraction paths and rank them by estimated operation count;
* enumerate the CSF-consistent loop orders of the best path and evaluate the
  paper's cost models (maximum buffer dimension/size, cache misses) on each;
* run Algorithm 1 and confirm it returns the enumeration's optimum;
* time a random sample of loop nests (autotuning) and show where the
  cost-model pick lands in the measured distribution (the Figure 10 story).

Run with:  python examples/loop_nest_explorer.py
"""

import repro
from repro.core.cost_model import (
    CacheMissCost,
    ExecutionCost,
    MaxBufferDimCost,
    MaxBufferSizeCost,
    evaluate_cost,
)
from repro.core.enumeration import (
    count_loop_orders,
    enumerate_loop_orders,
    sample_loop_orders,
)
from repro.core.loop_nest import LoopNest
from repro.core.optimizer import find_optimal_loop_order
from repro.core.search import TimedRunner, measure_loop_nests
from repro.engine.executor import LoopNestExecutor


def main() -> None:
    T = repro.random_sparse_tensor((120, 100, 90), nnz=8_000, seed=4)
    U = repro.random_dense_matrix(T.shape[1], 16, seed=5)
    V = repro.random_dense_matrix(T.shape[2], 16, seed=6)
    kernel = repro.parse_kernel("ijk,jr,ks->irs", [T, U, V], names=["T", "U", "V"])
    tensors = {"T": T, "U": U, "V": V}

    # --- contraction paths ---------------------------------------------------
    ranked = repro.rank_contraction_paths(kernel)
    print("contraction paths (by estimated multiply-adds):")
    for path, flops in ranked:
        print(f"  {flops:12.3e}   {path}")
    best_path = ranked[0][0]

    # --- loop orders and cost models ----------------------------------------
    print(f"\nloop orders of the best path: {count_loop_orders(kernel, best_path)}")
    costs = {
        "max buffer dim": MaxBufferDimCost(kernel),
        "max buffer size": MaxBufferSizeCost(kernel),
        "cache misses": CacheMissCost(kernel),
    }
    print(f"{'loop order':44s}" + "".join(f"{name:>18s}" for name in costs))
    for order in enumerate_loop_orders(kernel, best_path):
        row = f"{str(tuple(order.orders)):44s}"
        for cost in costs.values():
            row += f"{evaluate_cost(kernel, best_path, order, cost):18.1f}"
        print(row)

    # --- Algorithm 1 ----------------------------------------------------------
    result = find_optimal_loop_order(kernel, best_path, ExecutionCost(kernel))
    print("\nAlgorithm 1 pick (execution-cost model, buffer dim <= 2):")
    print(LoopNest(best_path, result.order).describe(kernel))
    print(f"search explored {result.stats.subproblems} memoized subproblems")

    # --- autotune a sample (Figure 10 in miniature) ---------------------------
    def runner(nest: LoopNest):
        return LoopNestExecutor(kernel, nest).execute(tensors)

    # one timer for the sample and the pick, so both share its single warmup
    timer = TimedRunner(runner)
    orders = sample_loop_orders(
        kernel, best_path, fraction=0.5, seed=0, max_samples=10
    )
    sampled = measure_loop_nests([LoopNest(best_path, o) for o in orders], timer)
    picked = timer(LoopNest(best_path, result.order))
    print("\nmeasured times of sampled loop orders (fastest first):")
    for entry in sampled.sorted_entries():
        print(f"  {entry.value * 1e3:8.2f} ms   {tuple(entry.nest.order.orders)}")
    print(f"\ncost-model pick: {picked * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()

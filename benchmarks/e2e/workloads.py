"""The four workloads: fixed operation counts and seeded inputs.

Importing this module imports nothing heavy; ``generate``/``load`` pull in
NumPy and ``repro`` when a child process calls them.

What ``--seed`` changes: every number the program computes on (the sparse
tensor's values, every dense factor, every CP/Tucker initialisation).  What it
never changes: the sparsity pattern and the request mix.  Operation time
depends on the pattern (five nell-2-like patterns moved the ``cp_als`` median by
17%) and the gate compares runs made with different seeds, so the pattern is
part of the workload's definition, like the dataset of the paper's Sec. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Timed-section length the counts below were sized for on the 2-core
#: reference box; ``BENCHMARK.json`` records the same number as ``run_seconds``.
RUN_SECONDS = 17

#: Seed of the sparsity patterns and of the request mix (never ``--seed``).
STRUCTURE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: operations in the timed section at ``RUN_SECONDS``
    ops: int
    #: operations in one whole pass over the request stream
    stream: int
    #: fewest operations a reference or traced pass replays
    min_traced: int
    #: operations between two yardstick readings in the timed section
    block: int
    #: lines the yardstick echoes through its child per reading (yardstick.py)
    round_trips: int
    #: nonzeros of the nell-2-like tensor (0: the tiny ``scenario_mix`` pool)
    nnz: int

    def count(self, seconds):
        """Timed operations for ``--seconds``: whole passes, same mix on every build."""
        passes = max(1, round(self.ops / self.stream * seconds / RUN_SECONDS))
        return passes * self.stream

    def traced_count(self, seconds):
        """A quarter of the timed count, in whole passes, at least ``min_traced``."""
        quarter = self.count(seconds) // 4 // self.stream * self.stream
        return max(self.min_traced, quarter)


#: ~1.45 s, ~1.85 s, ~3 ms (12 passes of 512) and ~0.9 s per operation.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cp_als", ops=10, stream=1, min_traced=3, block=1, round_trips=0, nnz=60_000),
        Workload("hooi", ops=8, stream=1, min_traced=3, block=1, round_trips=0, nnz=60_000),
        Workload("serve_small", ops=6144, stream=512, min_traced=1024, block=256,
                 round_trips=2400, nnz=0),
        Workload("serve_bulk", ops=16, stream=1, min_traced=4, block=1, round_trips=0, nnz=40_000),
    )
}

CP_RANK, CP_ITERATIONS = 32, 10
HOOI_RANKS, HOOI_ITERATIONS = (8, 8, 8), 5
BULK_MTTKRP_RANK, BULK_TTMC_RANK = 32, 8


def generate(name, seed, directory):
    """Write the workload's large inputs as ``.npy`` files (untimed, once per run)."""
    import numpy as np
    from repro.sptensor import load_preset

    nnz = WORKLOADS[name].nnz
    if not nnz:
        return
    pattern = load_preset("nell-2", scale=1e-2, max_nnz=nnz, seed=STRUCTURE_SEED)
    directory = Path(directory)
    np.save(directory / "shape.npy", np.asarray(pattern.shape, dtype=np.int64))
    np.save(directory / "indices.npy", pattern.indices)
    np.save(directory / "values.npy", np.random.default_rng(seed).random(pattern.nnz))


def _load_tensor(directory):
    import numpy as np
    from repro.sptensor import COOTensor

    directory = Path(directory)
    shape = tuple(int(d) for d in np.load(directory / "shape.npy"))
    return COOTensor(
        shape,
        np.load(directory / "indices.npy"),
        np.load(directory / "values.npy"),
        sort=False,
    )


def _reseeded_mix(stream, seed):
    """``scenario_mix`` with the mix of ``STRUCTURE_SEED`` and values of *seed*."""
    import numpy as np
    from repro.serve import ContractionRequest, scenario_mix

    rng = np.random.default_rng(seed)
    redrawn = {}

    def redraw(operand):
        if id(operand) not in redrawn:
            if hasattr(operand, "with_values"):
                new = operand.with_values(rng.random(operand.nnz))
            else:
                new = rng.random(operand.shape).astype(operand.dtype)
            # the original is kept alive next to its replacement, so ids stay unique
            redrawn[id(operand)] = (operand, new)
        return redrawn[id(operand)][1]

    return [
        ContractionRequest(
            spec=r.spec,
            operands=tuple(redraw(op) for op in r.operands),
            names=r.names,
            engine=r.engine,
            kind=r.kind,
        )
        for r in scenario_mix(stream, mix="mixed", seed=STRUCTURE_SEED)
    ]


def load(name, seed, directory):
    """The workload's request stream, and its tensor when it has a large one.

    For the application workloads the stream is the set of distinct kernels the
    decomposition runs (checked against the oracle and replayed per tier); for
    the serve workloads it is the traffic itself.
    """
    import numpy as np
    from repro.serve.request import (
        all_mode_ttmc_request,
        mttkrp_request,
        ttmc_request,
    )

    if name == "serve_small":
        return _reseeded_mix(WORKLOADS[name].stream, seed), None
    tensor = _load_tensor(directory)
    rng = np.random.default_rng(seed)

    def factors(rank):
        return [rng.random((dim, rank)) for dim in tensor.shape]

    def without(items, mode):
        return [f for n, f in enumerate(items) if n != mode]

    modes = range(tensor.order)
    if name == "cp_als":
        wide = factors(CP_RANK)
        return [mttkrp_request(tensor, without(wide, m), mode=m) for m in modes], tensor
    if name == "hooi":
        narrow = factors(HOOI_RANKS[0])
        requests = [ttmc_request(tensor, without(narrow, m), mode=m) for m in modes]
        return requests + [all_mode_ttmc_request(tensor, narrow)], tensor
    wide, narrow = factors(BULK_MTTKRP_RANK), factors(BULK_TTMC_RANK)
    batch = [mttkrp_request(tensor, without(wide, m), mode=m) for m in modes]
    batch.append(ttmc_request(tensor, without(narrow, 0), mode=0))
    return batch + batch, tensor

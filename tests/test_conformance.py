"""Cross-tier conformance matrix: kernel × engine × dtype × CSF mode order.

Every named kernel family is executed through all three engine tiers
(``jit``, ``lowered`` and ``interpret``) for every combination of operand
dtype (float64/float32) and CSF mode order (identity, reversed, mixed),
and each cell asserts the full executor contract:

* results match the dense :mod:`repro.engine.reference` within tolerance
  (dense operands are coerced to float64 by all tiers, so the tolerance
  does not degrade for float32 inputs);
* the tiers agree with each other to vectorized-summation reassociation
  (~1 ulp);
* operation counters — flops, bytes moved, buffer resets and per-BLAS-call
  classification — are *bit-equal* between tiers;
* the jit and lowered tiers are asserted *taken* (no silent fallback) in
  every cell;
* no tier writes into an operand: read-only operands — what the daemon
  hands the service, ``np.frombuffer`` views of received bytes — give the
  same bytes and the same counters as writable ones.

This is the deterministic counterpart of the randomized equivalence
property in ``test_property_based.py``: one cell per supported
configuration, so a regression names exactly the kernel/tier/dtype/order
it broke.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expr import SpTTNKernel, parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import ENGINES, LoopNestExecutor
from repro.engine.plan_cache import (
    PlanCache,
    cached_schedule,
    operand_signature,
    plan_key,
    schedule_key,
)
from repro.engine.reference import assert_same_result, reference_output
from repro.kernels.mttkrp import mttkrp_spec
from repro.kernels.ttmc import all_mode_ttmc_spec, ttmc_spec
from repro.kernels.tttc import tttc_spec
from repro.kernels.tttp import tttp_spec
from repro.sptensor import COOTensor, CSFTensor, random_sparse_tensor
from repro.util.counters import OpCounter

#: The order-3 sparse tensor every matrix cell contracts.
_SHAPE = (14, 12, 10)
_NNZ = 130

#: Kernel families: name -> (spec, dense operand shapes as index strings).
_KERNELS = {
    "mttkrp": mttkrp_spec(3, 0),          # ijk,jr,kr->ir
    "ttmc": ttmc_spec(3, 0),              # ijk,jr,ks->irs
    "tttp": tttp_spec(3),                 # ijk,ir,jr,kr->ijk
    "tttc": tttc_spec(3),                 # ijk,ir,rjs->sk (last core removed)
    "all_mode_ttmc": all_mode_ttmc_spec(3),  # ijk,ir,js,kt->rst
}

_DTYPES = ("float64", "float32")

#: CSF storage orders for the order-3 sparse operand: identity, fully
#: reversed, and one mixed permutation.
_MODE_ORDERS = ((0, 1, 2), (2, 1, 0), (1, 0, 2))

_RANK = 4


def _build_case(spec: str, dtype: str, mode_order):
    """Kernel (with the requested CSF mode order) plus concrete operands."""
    tensor = random_sparse_tensor(_SHAPE, nnz=_NNZ, seed=99)
    rng = np.random.default_rng(7)
    lhs = spec.split("->")[0].split(",")
    dims = dict(zip(lhs[0], tensor.shape))
    operands = [tensor]
    for sub in lhs[1:]:
        shape = []
        for idx in sub:
            if idx not in dims:
                dims[idx] = _RANK
            shape.append(dims[idx])
        operands.append(rng.random(tuple(shape)).astype(dtype))
    kernel = parse_kernel(spec, operands)
    csf_order = tuple(kernel.sparse_operand.indices[m] for m in mode_order)
    kernel = SpTTNKernel(
        kernel.operands,
        kernel.output,
        kernel.index_dims,
        csf_mode_order=csf_order,
        sparse_stats=kernel.sparse_stats,
    )
    mapping = {op.name: t for op, t in zip(kernel.operands, operands)}
    return kernel, mapping


@pytest.mark.parametrize("mode_order", _MODE_ORDERS, ids=lambda o: "".join(map(str, o)))
@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_conformance_matrix(name, dtype, mode_order):
    kernel, mapping = _build_case(_KERNELS[name], dtype, mode_order)
    expected = reference_output(kernel, mapping)
    schedule = SpTTNScheduler(kernel).schedule()

    outputs = {}
    counters = {}
    for engine in ENGINES:
        counter = OpCounter()
        executor = LoopNestExecutor(
            kernel, schedule.loop_nest, counter=counter, engine=engine
        )
        output = executor.execute(mapping)
        # the jit/lowered tiers must actually be taken in every matrix
        # cell (all named kernels vectorize — and their programs compile —
        # on their scheduler-chosen orders, under every CSF mode order);
        # otherwise the cross-tier assertions silently compare the
        # interpreter against itself
        if engine in ("jit", "lowered"):
            assert executor.last_engine == engine
        # every tier must match the dense reference...
        assert_same_result(output, expected, rtol=1e-7, atol=1e-9)
        outputs[engine] = (
            output.values if isinstance(output, COOTensor) else np.asarray(output)
        )
        counters[engine] = counter

    # ...the tiers must agree with each other to ~1 ulp...
    for engine in ("jit", "lowered"):
        np.testing.assert_allclose(
            outputs[engine], outputs["interpret"], rtol=1e-12, atol=1e-14
        )
        # ...and the operation counters must be bit-equal across tiers.
        assert counters[engine].as_dict() == counters["interpret"].as_dict()


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_keys_do_not_depend_on_the_sparse_format(name):
    """One statistics path, one key: a kernel built from a COO tensor and
    from the equivalent ``CSFTensor`` share their schedule and plan keys
    (and therefore one search, one compiled plan and one store entry)."""
    _, mapping = _build_case(_KERNELS[name], "float64", (0, 1, 2))
    coo, *dense = mapping.values()
    keys = []
    for sparse in (coo, CSFTensor.from_coo(coo)):
        kernel = parse_kernel(_KERNELS[name], [sparse, *dense])
        tensors = dict(zip(mapping, [sparse, *dense]))
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        keys.append(
            (
                schedule_key(kernel),
                plan_key(kernel, nest, operands=operand_signature(kernel, tensors)),
            )
        )
    assert keys[0] == keys[1]
    assert keys[0][0][1] == coo.nnz  # the statistics are recorded, not absent


def _frozen(tensor):
    """A copy of *tensor* over immutable bytes, as the daemon decodes one."""
    if isinstance(tensor, COOTensor):
        return COOTensor(
            tensor.shape, _frozen(tensor.indices), _frozen(tensor.values), sort=False
        )
    return np.frombuffer(tensor.tobytes(), dtype=tensor.dtype).reshape(tensor.shape)


def _assert_read_only_operands_change_nothing(kernel, nest, mapping):
    frozen = {name: _frozen(tensor) for name, tensor in mapping.items()}
    assert not any(
        array.flags.writeable
        for tensor in frozen.values()
        for array in (
            (tensor.indices, tensor.values)
            if isinstance(tensor, COOTensor)
            else (tensor,)
        )
    )
    for engine in ENGINES:
        results = []
        for operands in (mapping, frozen):
            counter = OpCounter()
            executor = LoopNestExecutor(kernel, nest, counter=counter, engine=engine)
            output = executor.execute(operands)
            assert executor.last_engine == engine
            values = output.values if isinstance(output, COOTensor) else output
            results.append((np.asarray(values), counter.as_dict()))
        (writable, counts), (read_only, frozen_counts) = results
        np.testing.assert_array_equal(read_only, writable, err_msg=engine)
        assert frozen_counts == counts, engine


def _revalued(tensor, rng):
    """*tensor*'s pattern and shape with new values."""
    if isinstance(tensor, COOTensor):
        return tensor.with_values(rng.random(tensor.nnz) - 0.5)
    return rng.random(tensor.shape) - 0.5


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_read_only_operands_conformance_kernels(name):
    kernel, mapping = _build_case(_KERNELS[name], "float64", (0, 1, 2))
    nest = SpTTNScheduler(kernel).schedule().loop_nest
    _assert_read_only_operands_change_nothing(kernel, nest, mapping)
    # warm calls, where pooled buffers are reused and written in place: a
    # second read-only mapping through the same executor
    rng = np.random.default_rng(1)
    second = {name: _frozen(_revalued(t, rng)) for name, t in mapping.items()}
    results = {}
    for engine in ENGINES:
        counter = OpCounter()
        executor = LoopNestExecutor(kernel, nest, counter=counter, engine=engine)
        executor.execute({name: _frozen(t) for name, t in mapping.items()})
        output = executor.execute(second)
        assert executor.last_engine == engine
        values = output.values if isinstance(output, COOTensor) else output
        # a cold plan of the same tier gives the warm call's very bytes
        cold = LoopNestExecutor(kernel, nest, engine=engine, plan_cache=PlanCache())
        output = cold.execute(second)
        cold_values = output.values if isinstance(output, COOTensor) else output
        assert np.asarray(values).tobytes() == np.asarray(cold_values).tobytes(), engine
        results[engine] = (np.asarray(values), counter.as_dict())
    want, counts = results["interpret"]
    for engine in ("jit", "lowered"):
        got, got_counts = results[engine]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=engine)
        assert got_counts == counts, engine


def test_read_only_operands_benchmark_kernels(benchmark_requests):
    for request in benchmark_requests:
        kernel, mapping = request.build()
        nest = cached_schedule(kernel).loop_nest
        _assert_read_only_operands_change_nothing(kernel, nest, mapping)


def test_matrix_covers_every_tier():
    """The matrix is only meaningful if all three engine tiers are
    distinct entries of ENGINES (guards against tier renames silently
    shrinking the matrix)."""
    assert set(ENGINES) == {"interpret", "lowered", "jit"}

"""Property-based tests (hypothesis) for the core data structures and invariants.

These complement the example-based tests with randomized coverage of:

* COO construction / deduplication / densification;
* COO <-> CSF round-trips under arbitrary mode orders;
* executor-vs-reference agreement on randomly generated SpTTN kernels;
* compiled-vs-interpreted engine equivalence (results and exact op
  counters, against ``tests/interpreter.py``) across random kernels, loop
  orders and operand dtypes;
* Algorithm 1 optimality against brute force (Thm 4.7) on every ranked
  contraction path of random kernels, with and without the CSF restriction;
* tree-separable cost evaluation consistency (Eq. 5 ground truth);
* the wire codec: any numeric array, dense or sparse tensor, request or
  result comes back from ``loads(dumps(·))`` with the same bytes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interpreter import TIERS, execute, make_executor
from repro.core.contraction_path import rank_contraction_paths
from repro.core.cost_model import (
    CacheMissCost,
    ExecutionCost,
    MaxBufferDimCost,
    OperationCountCost,
    evaluate_cost,
)
from repro.core.enumeration import (
    count_loop_orders,
    enumerate_loop_orders,
    sample_loop_orders,
)
from repro.core.expr import parse_kernel
from repro.core.loop_nest import LoopNest, max_buffer_dimension
from repro.core.optimizer import find_optimal_loop_order
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.reference import assert_same_result, reference_output
from repro.serve import ContractionRequest, protocol
from repro.sptensor import COOTensor, CSFTensor, random_sparse_tensor
from repro.sptensor.csf import csf_for_mode_order
from repro.util.counters import OpCounter

#: Snapshot of the active profile from conftest.py (``ci`` by default,
#: ``dev`` via HYPOTHESIS_PROFILE) — derandomized, unbounded deadline.
SETTINGS = settings()


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def coo_tensors(draw, min_order=2, max_order=4, max_dim=8, min_nnz=1, max_nnz=30):
    order = draw(st.integers(min_order, max_order))
    shape = tuple(draw(st.integers(2, max_dim)) for _ in range(order))
    nnz = draw(st.integers(min_nnz, max_nnz))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, s - 1) for s in shape]),
            min_size=nnz,
            max_size=nnz,
        )
    )
    values = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    rows = np.asarray(rows, dtype=np.int64).reshape(nnz, order)
    return COOTensor(shape, rows, values)


#: Every ``dtype.kind`` the wire carries (b i u f c), in both byte orders.
WIRE_DTYPES = (
    "bool", "int8", "<i4", ">i4", "int64", "uint8", ">u2", "<u8",
    "float16", "<f4", ">f8", "float64", "complex64", ">c16",
)


@st.composite
def wire_arrays(draw):
    """Arbitrary bit patterns (NaN payloads, -0.0, denormals) under any wire
    dtype; shapes include 0-d and zero-size, layouts non-contiguous views."""
    dtype = np.dtype(draw(st.sampled_from(WIRE_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = rng.integers(0, 256, size=(*shape, dtype.itemsize), dtype=np.uint8)
    if dtype.kind == "b":
        raw %= 2
    arr = raw.view(dtype).reshape(shape)
    layout = draw(st.sampled_from(["C", "transposed", "strided"]))
    if layout == "transposed":
        arr = np.ascontiguousarray(arr.T).T if arr.ndim else arr
    elif layout == "strided" and arr.ndim:
        arr = np.repeat(arr, 2, axis=0)[::2]
    return arr


def _assert_same_bytes(back, sent):
    if isinstance(sent, COOTensor):
        assert isinstance(back, COOTensor) and back.shape == sent.shape
        _assert_same_bytes(back.indices, sent.indices)
        _assert_same_bytes(back.values, sent.values)
    else:
        assert back.dtype == sent.dtype and back.shape == sent.shape
        assert back.tobytes() == sent.tobytes()


@st.composite
def spttn_cases(draw):
    """A random small SpTTN kernel together with its concrete tensors.

    The sparse tensor has order 2 or 3; each sparse mode receives a factor
    matrix sharing one dense rank index with probability ~2/3, and the
    output keeps a random subset of indices (always at least one).
    """
    rng_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(rng_seed)
    order = draw(st.integers(2, 3))
    shape = tuple(int(rng.integers(3, 8)) for _ in range(order))
    nnz = int(rng.integers(1, 15))
    coords = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    values = rng.random(nnz) + 0.1
    T = COOTensor(shape, coords, values)

    sparse_letters = "ijkl"[:order]
    rank_letters = "rst"
    n_factors = draw(st.integers(1, order))
    factor_modes = sorted(
        draw(
            st.lists(
                st.integers(0, order - 1),
                min_size=n_factors,
                max_size=n_factors,
                unique=True,
            )
        )
    )
    shared_rank = draw(st.booleans())
    specs = [sparse_letters]
    tensors = [T]
    rank_dims = {}
    for pos, mode in enumerate(factor_modes):
        rank = rank_letters[0] if shared_rank else rank_letters[pos % 3]
        if rank not in rank_dims:
            rank_dims[rank] = int(rng.integers(2, 5))
        specs.append(sparse_letters[mode] + rank)
        tensors.append(rng.random((shape[mode], rank_dims[rank])))

    # output: indices that remain meaningful — choose among sparse indices not
    # fully contracted plus the rank indices
    candidate_outputs = set(rank_dims.keys()) | set(sparse_letters)
    out = draw(
        st.lists(
            st.sampled_from(sorted(candidate_outputs)),
            min_size=1,
            max_size=min(3, len(candidate_outputs)),
            unique=True,
        )
    )
    spec = ",".join(specs) + "->" + "".join(out)
    try:
        kernel = parse_kernel(spec, tensors)
    except ValueError:
        assume(False)
    mapping = {op.name: t for op, t in zip(kernel.operands, tensors)}
    return kernel, mapping


# --------------------------------------------------------------------------- #
# COO / CSF properties
# --------------------------------------------------------------------------- #
class TestSparseFormatsProperties:
    @SETTINGS
    @given(coo_tensors())
    def test_coo_dense_roundtrip(self, coo):
        back = COOTensor.from_dense(coo.to_dense())
        np.testing.assert_allclose(back.to_dense(), coo.to_dense())

    @SETTINGS
    @given(coo_tensors())
    def test_nnz_bounded_by_inputs(self, coo):
        assert coo.nnz <= coo.indices.shape[0] or coo.nnz == 0
        assert coo.nnz_prefix(coo.order) == coo.nnz

    @SETTINGS
    @given(coo_tensors(), st.integers(0, 100))
    def test_csf_roundtrip_any_mode_order(self, coo, perm_seed):
        rng = np.random.default_rng(perm_seed)
        mode_order = tuple(rng.permutation(coo.order))
        csf = CSFTensor.from_coo(coo, mode_order)
        back = csf.to_coo()
        assert back.same_pattern(coo)
        np.testing.assert_allclose(back.values, coo.values)

    @SETTINGS
    @given(coo_tensors())
    def test_csf_level_counts_match_prefix_counts(self, coo):
        csf = CSFTensor.from_coo(coo)
        for level in range(coo.order):
            assert csf.nnz_at_level(level) == coo.nnz_prefix(level + 1)

    @SETTINGS
    @given(coo_tensors(min_order=1, min_nnz=0))
    def test_csf_level_sizes_are_the_cost_models_prefix_counts(self, coo):
        """One statistics path: ``nnz_{I_1..I_k}`` read from the (memoized)
        CSF equals the COO sorting oracle, for every mode order — including
        empty and single-entry tensors and hits on a warm pattern."""
        for mode_order in itertools.permutations(range(coo.order)):
            for tensor in (coo, coo.with_values(coo.values)):  # miss, then hit
                csf = csf_for_mode_order(tensor, mode_order)
                for k in range(coo.order):
                    prefix = coo.indices[:, list(mode_order[: k + 1])]
                    assert csf.nnz_at_level(k) == len(np.unique(prefix, axis=0))
                np.testing.assert_array_equal(
                    csf.to_coo().to_dense(), coo.to_dense()
                )


# --------------------------------------------------------------------------- #
# Lowered-engine equivalence
# --------------------------------------------------------------------------- #
#: Compiled runs observed by the randomized equivalence cases; asserted
#: after the property test so a regression that leaves the cases without a
#: compiled run cannot pass unnoticed.
_ENGINE_COVERAGE = {"jit": 0, "lowered": 0}


class TestWireProperties:
    @SETTINGS
    @given(wire_arrays(), st.sampled_from([bytes, bytearray]))
    def test_array_round_trip_is_bit_exact(self, arr, received_as):
        wire = protocol.dumps(protocol.encode_array(arr))
        assert len(wire) == wire.index(b"\n") + 1 + arr.nbytes
        back = protocol.decode_array(protocol.loads(received_as(wire)))
        _assert_same_bytes(back, arr)
        if arr.size:  # a view of what was received, writable exactly when that is
            assert back.flags.writeable == (received_as is bytearray)
            assert not back.flags.owndata

    @SETTINGS
    @given(
        coo_tensors(),
        st.lists(wire_arrays(), max_size=3),
        st.sampled_from([None, "jit", "lowered"]),
        st.sampled_from([None, 0.0, 12.5]),
        st.sampled_from([None, "names"]),
    )
    def test_request_round_trip_is_bit_exact(self, tensor, dense, engine, deadline, names):
        operands = (*dense[:1], tensor, *dense[1:])
        request = ContractionRequest(
            spec="ijk,ja->ia",
            operands=operands,
            names=[f"op{n}" for n in range(len(operands))] if names else None,
            engine=engine,
            kind="property",
            deadline_ms=deadline,
        )
        message = {"op": "submit", "id": 7, "request": protocol.encode_request(request)}
        message = protocol.loads(protocol.dumps(message))
        assert (message["op"], message["id"]) == ("submit", 7)
        back = protocol.decode_request(message["request"])
        assert (back.spec, back.kind, back.engine) == ("ijk,ja->ia", "property", engine)
        assert (back.names, back.deadline_ms) == (request.names, deadline)
        assert len(back.operands) == len(operands)
        for got, sent in zip(back.operands, operands):
            _assert_same_bytes(got, sent)

    @SETTINGS
    @given(st.one_of(coo_tensors(), wire_arrays()))
    def test_result_round_trip_is_bit_exact(self, output):
        wire = protocol.dumps(protocol.result_reply("c1", output))
        _assert_same_bytes(protocol.decode_result(protocol.loads(wire)), output)


class TestLoweringProperties:
    """The jit and lowered engines must be observationally equivalent to
    the tests' interpreter for every (kernel, loop order, operand dtype),
    and run compiled code on every nest, an empty sparse operand's
    included.  Results agree to the floating-point reassociation of
    vectorized summation (~1 ulp, the same contract the fused MTTKRP sweep
    established); operation counters agree exactly, and equal the count
    ``OperationCountCost`` models."""

    @SETTINGS
    @given(
        spttn_cases(),
        st.integers(0, 1000),
        st.sampled_from(["float64", "float32", "int64"]),
    )
    def test_lowered_and_interpreted_agree(self, case, seed, dtype):
        kernel, tensors = case
        cast = {}
        for name, value in tensors.items():
            if isinstance(value, np.ndarray):
                # Both engines coerce dense operands to float64 from the
                # same source array, so equivalence must hold per dtype.
                if dtype == "int64":
                    cast[name] = (value * 8).astype(np.int64)
                else:
                    cast[name] = value.astype(dtype)
            else:
                cast[name] = value
        path = rank_contraction_paths(kernel)[0][0]
        nests = [SpTTNScheduler(kernel).schedule().loop_nest]
        nests += [
            LoopNest(path, order)
            for order in sample_loop_orders(
                kernel, path, fraction=0.05, seed=seed, max_samples=2
            )
        ]
        for nest in nests:
            outputs = {}
            counters = {}
            for engine in TIERS:
                counter = OpCounter()
                executor = make_executor(kernel, nest, engine, counter=counter)
                output = execute(executor, cast)
                if isinstance(output, COOTensor):
                    output = output.values
                outputs[engine] = np.asarray(output)
                counters[engine] = counter
                if engine in _ENGINE_COVERAGE:
                    _ENGINE_COVERAGE[engine] += 1
            for engine in ("jit", "lowered"):
                np.testing.assert_allclose(
                    outputs[engine], outputs["interpret"], rtol=1e-12, atol=1e-14
                )
                assert counters[engine].flops == counters["interpret"].flops
            # claim 3(a): every nest executes the operations the model counts
            model = evaluate_cost(kernel, nest.path, nest.order, OperationCountCost(kernel))
            assert counters["interpret"].flops == pytest.approx(model, rel=1e-9)

    def test_fast_paths_were_exercised(self):
        """Guard against the randomized cases running no compiled code:
        at least one example must have run each runtime engine."""
        if sum(_ENGINE_COVERAGE.values()) == 0:
            pytest.skip("randomized equivalence cases did not run")
        assert _ENGINE_COVERAGE["lowered"] > 0
        assert _ENGINE_COVERAGE["jit"] > 0


# --------------------------------------------------------------------------- #
# Kernel-level properties
# --------------------------------------------------------------------------- #
#: Largest loop-order space, summed over every ranked path with and without
#: the CSF restriction, that a property enumerates in full.  Kernels with
#: at most two factors stay below it; a three-factor kernel's unrestricted
#: space alone reaches ~10^6 nests, so there only the first ranked path
#: under the restriction is enumerated.
MAX_BRUTE_FORCE = 3000


def _assert_dp_is_bruteforce_minimum(kernel, make_cost):
    """Thm 4.7: on every path the scheduler may rank, with and without the
    CSF restriction, Algorithm 1 returns an order whose cost is the
    minimum over the enumerated fully-fused loop nests."""
    cost = make_cost(kernel)
    cases = [
        (path, csf)
        for path, _flops in rank_contraction_paths(kernel)
        for csf in (True, False)
    ]
    size = sum(count_loop_orders(kernel, p, enforce_csf_order=c) for p, c in cases)
    if size > MAX_BRUTE_FORCE:
        cases = cases[:1]  # the first ranked path, CSF-restricted
    for path, csf in cases:
        result = find_optimal_loop_order(kernel, path, cost, enforce_csf_order=csf)
        brute = min(
            evaluate_cost(kernel, path, order, cost)
            for order in enumerate_loop_orders(kernel, path, enforce_csf_order=csf)
        )
        assert result.cost == pytest.approx(brute, rel=1e-12)
        assert evaluate_cost(kernel, path, result.order, cost) == pytest.approx(
            result.cost, rel=1e-12
        )


class TestKernelProperties:
    @SETTINGS
    @given(spttn_cases())
    def test_scheduled_execution_matches_reference(self, case):
        kernel, tensors = case
        expected = reference_output(kernel, tensors)
        schedule = SpTTNScheduler(kernel).schedule()
        executor = LoopNestExecutor(kernel, schedule.loop_nest)
        assert_same_result(executor.execute(tensors), expected, rtol=1e-7, atol=1e-9)

    @SETTINGS
    @given(spttn_cases(), st.integers(0, 1000))
    def test_random_loop_order_matches_reference(self, case, seed):
        kernel, tensors = case
        expected = reference_output(kernel, tensors)
        path = rank_contraction_paths(kernel)[0][0]
        orders = sample_loop_orders(kernel, path, fraction=0.05, seed=seed, max_samples=2)
        for order in orders:
            executor = LoopNestExecutor(kernel, LoopNest(path, order))
            assert_same_result(executor.execute(tensors), expected, rtol=1e-7, atol=1e-9)

    @SETTINGS
    @given(spttn_cases())
    def test_dp_matches_bruteforce_buffer_dim(self, case):
        _assert_dp_is_bruteforce_minimum(case[0], MaxBufferDimCost)

    @SETTINGS
    @given(spttn_cases())
    def test_dp_matches_bruteforce_cache_cost(self, case):
        _assert_dp_is_bruteforce_minimum(case[0], CacheMissCost)

    @SETTINGS
    @given(spttn_cases())
    def test_dp_matches_bruteforce_execution_cost(self, case):
        _assert_dp_is_bruteforce_minimum(case[0], ExecutionCost)

    def test_dp_suffix_falls_back_to_a_different_root(self):
        """Directed case for Algorithm 1's "second best with a different
        root": on ``ij,jr,ir->`` the best suffix order of the first path
        starts with the loop just opened, so only its runner-up keeps the
        two loops separate; taking the best would price two ``i`` loops
        while the returned order fuses them into one."""
        rng = np.random.default_rng(0)
        T = random_sparse_tensor((6, 5), nnz=12, seed=0)
        kernel = parse_kernel("ij,jr,ir->", [T, rng.random((5, 3)), rng.random((6, 3))])
        _assert_dp_is_bruteforce_minimum(kernel, ExecutionCost)

    @SETTINGS
    @given(spttn_cases())
    def test_buffer_dim_cost_equals_ground_truth(self, case):
        kernel, _ = case
        path = rank_contraction_paths(kernel)[0][0]
        cost = MaxBufferDimCost(kernel)
        for order in sample_loop_orders(kernel, path, fraction=0.2, seed=0, max_samples=5):
            assert evaluate_cost(kernel, path, order, cost) == max_buffer_dimension(
                path, order
            )

    @SETTINGS
    @given(spttn_cases(), st.integers(1, 8))
    def test_distributed_execution_exact(self, case, n_procs):
        from repro.distributed import DistributedSpTTN

        kernel, tensors = case
        expected = reference_output(kernel, tensors)
        dist = DistributedSpTTN(kernel, tensors)
        assert_same_result(dist.execute(n_procs), expected, rtol=1e-7, atol=1e-9)

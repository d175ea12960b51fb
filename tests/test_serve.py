"""Serving layer: batching, futures, admission control, determinism.

The central contract under test: batched serving — any grouping, any worker
count — produces results *bit-identical* to executing the same requests
sequentially one at a time through the ordinary library path.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import plan_cache
from repro.engine.plan_cache import (
    clear_caches,
    default_schedule_cache,
    schedule_key,
    schedule_search_count,
)
from repro.runtime import shm
from repro.serve import (
    MIXES,
    AdmissionError,
    ContractionRequest,
    ContractionService,
    execute_sequential,
    mttkrp_request,
    scenario_mix,
    ttmc_request,
    tttp_request,
)
from repro.sptensor import (
    COOTensor,
    random_dense_matrix,
    random_sparse_tensor,
)


def _assert_outputs_equal(result, expected) -> None:
    if isinstance(expected, COOTensor):
        assert isinstance(result, COOTensor)
        np.testing.assert_array_equal(result.indices, expected.indices)
        np.testing.assert_array_equal(result.values, expected.values)
    else:
        np.testing.assert_array_equal(np.asarray(result), np.asarray(expected))


@pytest.fixture
def serve_tensor():
    return random_sparse_tensor((16, 14, 12), nnz=140, seed=21)


@pytest.fixture
def serve_factors(serve_tensor):
    return [
        random_dense_matrix(dim, 5, seed=mode)
        for mode, dim in enumerate(serve_tensor.shape)
    ]


class TestRequests:
    def test_named_builders_round_trip(self, serve_tensor, serve_factors):
        for build, kind in (
            (mttkrp_request, "mttkrp"),
            (ttmc_request, "ttmc"),
        ):
            request = build(serve_tensor, serve_factors[1:], mode=0)
            assert request.kind == kind
            kernel, mapping = request.build()
            assert kernel.sparse_operand.name in mapping

    def test_build_is_cached(self, serve_tensor, serve_factors):
        request = tttp_request(serve_tensor, serve_factors)
        kernel1, _ = request.build()
        kernel2, _ = request.build()
        assert kernel1 is kernel2

    def test_arbitrary_spec_request(self, serve_tensor, serve_factors):
        request = ContractionRequest(
            spec="ijk,ja,ka->ia", operands=(serve_tensor, *serve_factors[1:])
        )
        service = ContractionService(workers=0)
        out = service.run([request])[0]
        expected = execute_sequential([request])[0]
        _assert_outputs_equal(out, expected)


class TestBatching:
    def test_identical_structure_forms_one_batch(self, serve_tensor, serve_factors):
        requests = [
            mttkrp_request(serve_tensor, serve_factors[1:], mode=0)
            for _ in range(6)
        ]
        misses_before = default_schedule_cache().stats()["misses"]
        service = ContractionService(workers=0)
        results = service.run(requests)
        assert service.stats.batches == 1
        assert service.stats.amortized == 5
        # one schedule search served the whole batch (stats survive the
        # autouse cache clear, so compare deltas)
        assert default_schedule_cache().stats()["misses"] == misses_before + 1
        for r in results[1:]:
            _assert_outputs_equal(r, results[0])

    def test_distinct_structures_form_distinct_batches(
        self, serve_tensor, serve_factors
    ):
        requests = [
            mttkrp_request(serve_tensor, serve_factors[1:], mode=0),
            ttmc_request(serve_tensor, serve_factors[1:], mode=0),
            mttkrp_request(serve_tensor, serve_factors[1:], mode=0),
        ]
        service = ContractionService(workers=0)
        service.run(requests)
        assert service.stats.batches == 2
        assert service.stats.amortized == 1

    def test_engine_override_splits_batches(self, serve_tensor, serve_factors):
        requests = [
            mttkrp_request(serve_tensor, serve_factors[1:], engine="lowered"),
            mttkrp_request(serve_tensor, serve_factors[1:], engine="jit"),
        ]
        service = ContractionService(workers=0)
        results = service.run(requests)
        assert service.stats.batches == 2
        # engines agree to vectorized-summation reassociation (~1 ulp)
        np.testing.assert_allclose(
            np.asarray(results[0]), np.asarray(results[1]), rtol=1e-12, atol=1e-14
        )


class TestFutures:
    def test_results_resolve_in_submission_order(self, serve_tensor, serve_factors):
        requests = scenario_mix(10, mix="mixed", seed=3)
        service = ContractionService(workers=0)
        futures = service.submit_many(requests)
        assert all(not f.done for f in futures)
        service.flush()
        assert all(f.done for f in futures)
        expected = execute_sequential(requests)
        for future, exp in zip(futures, expected):
            _assert_outputs_equal(future.result(), exp)

    def test_result_triggers_flush(self, serve_tensor, serve_factors):
        service = ContractionService(workers=0)
        future = service.submit(
            mttkrp_request(serve_tensor, serve_factors[1:], mode=0)
        )
        assert not future.done
        out = future.result()  # implicit flush
        assert future.done and service.pending == 0
        assert out.shape == (serve_tensor.shape[0], 5)


class TestAdmission:
    def test_queue_bound(self, serve_tensor, serve_factors):
        service = ContractionService(workers=0, max_pending=2)
        request = mttkrp_request(serve_tensor, serve_factors[1:], mode=0)
        service.submit(request)
        service.submit(request)
        with pytest.raises(AdmissionError, match="queue full"):
            service.submit(request)
        assert service.stats.rejected == 1
        service.flush()
        service.submit(request)  # room again after the flush

    def test_invalid_spec_rejected_at_submission(self, serve_tensor):
        service = ContractionService(workers=0)
        bad = ContractionRequest(spec="ijk,xy->zz", operands=(serve_tensor,))
        with pytest.raises(AdmissionError, match="invalid request"):
            service.submit(bad)
        assert service.stats.rejected == 1
        assert service.pending == 0

    def test_shape_mismatch_rejected_at_submission(self, serve_tensor):
        wrong = np.ones((serve_tensor.shape[1] + 1, 4))
        service = ContractionService(workers=0)
        with pytest.raises(AdmissionError):
            service.submit(
                ContractionRequest(
                    spec="ijk,ja->ia", operands=(serve_tensor, wrong)
                )
            )

    def test_execution_failure_isolated_to_its_future(
        self, serve_tensor, serve_factors
    ):
        good = mttkrp_request(serve_tensor, serve_factors[1:], mode=0)
        bad = mttkrp_request(
            serve_tensor, serve_factors[1:], mode=0, engine="no-such-engine"
        )
        service = ContractionService(workers=0)
        f_good, f_bad, f_good2 = service.submit_many([good, bad, good])
        service.flush()
        _assert_outputs_equal(f_good.result(), f_good2.result())
        with pytest.raises(RuntimeError, match="no-such-engine"):
            f_bad.result()
        assert service.stats.served == 2
        assert service.stats.failed == 1


class TestParallelServing:
    def test_parallel_equals_serial_bitwise(self):
        requests = scenario_mix(12, mix="mixed", seed=5)
        serial = ContractionService(workers=0).run(requests)
        clear_caches()
        parallel = ContractionService(workers=2).run(requests)
        for a, b in zip(parallel, serial):
            _assert_outputs_equal(a, b)

    def test_shared_operands_are_broadcast(self, serve_tensor, serve_factors):
        # six requests sharing one factor set and one sparse tensor: both
        # must ride shared memory, not per-task pickles
        requests = [
            mttkrp_request(serve_tensor, serve_factors[1:], mode=0)
            for _ in range(6)
        ]
        service = ContractionService(workers=2)
        results = service.run(requests)
        if shm._shm is not None:
            sparse_bytes = (
                serve_tensor.indices.nbytes + serve_tensor.values.nbytes
            )
            dense_bytes = sum(f.nbytes for f in serve_factors[1:])
            assert service.stats.shared_bytes >= sparse_bytes + dense_bytes
        for r in results[1:]:
            _assert_outputs_equal(r, results[0])

    def test_shared_dense_tensor_wrappers_stay_bitwise(self, serve_tensor):
        # float32 factors cross the shm broadcast as float32 and are widened
        # to float64 in the worker; results must still match serial serving
        # bit for bit
        factors = [
            np.random.default_rng(m).random((serve_tensor.shape[m], 4), dtype=np.float32)
            for m in range(3)
        ]
        requests = [
            mttkrp_request(serve_tensor, factors[1:], mode=0) for _ in range(4)
        ]
        serial = ContractionService(workers=0).run(requests)
        clear_caches()
        parallel = ContractionService(workers=2).run(requests)
        for a, b in zip(parallel, serial):
            _assert_outputs_equal(a, b)


class TestServeProperties:
    """Hypothesis: any interleaved request mix serves bit-identically to
    sequential one-at-a-time execution, on both runtime tiers."""

    @settings(max_examples=8)
    @given(
        seed=st.integers(0, 1000),
        mix=st.sampled_from(MIXES),
        n=st.integers(2, 8),
    )
    def test_serving_matches_sequential(self, seed, mix, n):
        requests = scenario_mix(n, mix=mix, seed=seed)
        clear_caches()
        expected = execute_sequential(requests)
        for workers in (0, 2):
            clear_caches()
            service = ContractionService(workers=workers)
            results = service.run(requests)
            assert service.stats.served == n
            for result, exp in zip(results, expected):
                _assert_outputs_equal(result, exp)


class TestBatchAmortization:
    def test_a_mixed_mix_searches_once_per_schedule_key(self):
        # the serving claim as counts: one schedule search per distinct
        # scheduling problem, every other request of a batch rides along
        requests = scenario_mix(64, mix="mixed", seed=0)
        keys = {schedule_key(r.build()[0]) for r in requests}
        searches = schedule_search_count()
        service = ContractionService(workers=0)
        service.run(requests)
        assert schedule_search_count() - searches == len(keys)
        assert service.stats.batches < len(requests)
        assert service.stats.amortized == len(requests) - service.stats.batches


class TestDeriveOnce:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_warm_request_derives_its_plan_identity_once(self, workers, monkeypatch):
        # the request's identity is derived at admission and read by the
        # schedule, executor and plan lookups of both group paths; a SHA-1
        # name of it is computed only for the quarantine
        requests = scenario_mix(48, mix="mixed", seed=0)
        service = ContractionService(workers=workers)
        expected = service.run(requests)  # warm: every lookup below hits
        calls = dict.fromkeys(("kernel_signature", "operand_signature", "signature_digest"), 0)

        def counting(name, function):
            def count(*args):
                calls[name] += 1
                return function(*args)

            return count

        for name in ("kernel_signature", "operand_signature"):
            function = getattr(plan_cache, name)
            for module in list(sys.modules.values()):
                if module.__name__.startswith("repro") and vars(module).get(name) is function:
                    monkeypatch.setattr(module, name, counting(name, function))
        digest = counting("signature_digest", ContractionService.signature_digest)
        monkeypatch.setattr(ContractionService, "signature_digest", staticmethod(digest))

        fresh = [
            ContractionRequest(r.spec, r.operands, names=r.names, engine=r.engine, kind=r.kind)
            for r in requests
        ]
        outputs = service.run(fresh)
        assert calls["kernel_signature"] <= len(fresh)
        assert calls["operand_signature"] <= len(fresh)
        assert calls["signature_digest"] == 0
        for result, want in zip(outputs, expected):
            _assert_outputs_equal(result, want)


class TestServeBulkOpCount:
    def test_the_serve_bulk_batch_executes_its_golden_scalar_op_count(
        self, tmp_path, harness_workloads, executed_scalar_ops
    ):
        # the harness's own inputs (nell-2 at scale 1e-2, 40 000 nnz, its
        # STRUCTURE_SEED pattern)
        harness_workloads.generate("serve_bulk", 0, tmp_path)
        batch, tensor = harness_workloads.load("serve_bulk", 0, tmp_path)
        assert (len(batch), tensor.nnz) == (8, 40_000)
        execute_sequential(batch)  # any tier: op counts are tier-independent
        assert executed_scalar_ops[0] == 20_784_640

    def test_a_serve_small_request_executes_its_golden_median_scalar_op_count(
        self, tmp_path, harness_workloads, executed_scalar_ops
    ):
        # one pass of the harness's 512-request mix; the benchmark reports the
        # median per operation, and one operation is one request
        stream, _ = harness_workloads.load("serve_small", 0, tmp_path)
        assert len(stream) == 512
        counts = []
        for request in stream:
            before = executed_scalar_ops[0]
            execute_sequential([request])
            counts.append(executed_scalar_ops[0] - before)
        assert float(np.median(counts)) == 6_552

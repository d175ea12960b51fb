"""Tests for the jit/codegen execution tier (repro.engine.lowering.codegen).

The contract under test: ``compile_program`` turns a lowered
:class:`~repro.engine.lowering.ir.Program` into one fused callable that

* is cached on the plan (tri-state ``plan.jit``) and shared by every
  executor resolving the same plan, like ``plan.lowered``;
* binds per CSF *structure* (the identity of the level arrays every tensor
  of one sparsity pattern shares) through a bounded MRU prep cache
  (``CompiledJit.MAX_BINDS``) whose hits/misses/evictions/rebinds surface
  in :func:`~repro.engine.lowering.codegen.jit_stats`;
* never reaches ``np.add.at`` or a lane-expanded einsum on the benchmark
  kernels: scatter-adds are bind-time CSR products, and each fused unit
  has one body (no ``else:`` in the generated source);
* reuses its pooled intermediate buffers across runs (warm executions
  allocate nothing) while staying bit-identical when the bound tensor's
  shapes change;
* compiles the same program without its peephole pass for the
  ``lowered`` tier, a callable of its own;
* falls back to the interpreter transparently when compilation declines
  or fails, and on empty tensors — without changing results or counters.
"""

import re

import numpy as np
import pytest

from repro.core.expr import parse_kernel
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.lowering import CompiledJit, compile_program, lower_plan
from repro.engine.lowering import codegen as codegen_mod
from repro.engine.lowering.codegen import jit_stats, reset_jit_stats
from repro.engine.plan_cache import (
    PlanCache,
    approx_nbytes,
    cached_executor,
    cached_schedule,
    caches_snapshot,
)
from repro.serve import protocol
from repro.serve.request import mttkrp_request
from repro.sptensor import COOTensor, random_sparse_tensor
from repro.sptensor.csf import default_structure_memo
from repro.util.counters import OpCounter


def _run(kernel, tensors, nest, engine="jit", **kwargs):
    counter = OpCounter()
    executor = LoopNestExecutor(kernel, nest, counter=counter, engine=engine, **kwargs)
    output = executor.execute(tensors)
    return executor, np.asarray(output), counter


def _spec_case(spec, tensor, dtype="float64", rank=4):
    """Kernel + operands for *spec* over *tensor* with random dense factors."""
    rng = np.random.default_rng(5)
    subs = spec.split("->")[0].split(",")
    dims = dict(zip(subs[0], tensor.shape))
    operands = [tensor]
    for sub in subs[1:]:
        shape = tuple(dims.setdefault(idx, rank) for idx in sub)
        operands.append(rng.random(shape).astype(dtype))
    kernel = parse_kernel(spec, operands)
    tensors = {op.name: t for op, t in zip(kernel.operands, operands)}
    return kernel, tensors, SpTTNScheduler(kernel).schedule().loop_nest


@pytest.fixture
def count_add_at(monkeypatch):
    """Counts ``np.add.at`` calls made from here on (the real one still runs)."""
    calls = []
    real = np.add.at
    monkeypatch.setattr(
        np.add, "at", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    return calls


class TestPlanCaching:
    def test_compiled_callable_cached_on_plan(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, _, _ = _run(kernel, tensors, nest)
        assert executor.last_engine == "jit"
        plan = executor._plan
        assert isinstance(plan.jit, CompiledJit)
        compiled = plan.jit
        # a second executor sharing the process-wide plan cache reuses the
        # compiled callable — no recompilation
        before = jit_stats()["compiles"]
        other, _, _ = _run(kernel, tensors, nest)
        assert other._plan is plan
        assert other._plan.jit is compiled
        assert jit_stats()["compiles"] == before

    def test_codegen_cache_key_is_the_plan(self, mttkrp_setup, ttmc_setup):
        """Structurally different kernels get distinct compiled callables."""
        k1, t1 = mttkrp_setup
        k2, t2 = ttmc_setup
        e1, _, _ = _run(k1, t1, SpTTNScheduler(k1).schedule().loop_nest)
        e2, _, _ = _run(k2, t2, SpTTNScheduler(k2).schedule().loop_nest)
        assert e1._plan is not e2._plan
        assert e1._plan.jit is not e2._plan.jit

    def test_generated_source_is_inspectable(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, _, _ = _run(kernel, tensors, nest)
        source = executor._plan.jit.source
        assert "def _fused(V, D, O, OV, P, B, C):" in source


class TestPrepBinding:
    def test_rebind_on_new_tensor(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, out1, _ = _run(kernel, tensors, nest)
        compiled = executor._plan.jit
        misses0 = jit_stats()["misses"]
        # same tensors again: the prep cache hits, no new bind
        _, out2, _ = _run(kernel, tensors, nest)
        assert jit_stats()["misses"] == misses0
        np.testing.assert_array_equal(out1, out2)
        # a different sparse tensor (new shapes/nnz) forces a fresh bind
        other = dict(tensors)
        other["T"] = random_sparse_tensor((18, 15, 12), density=0.05, seed=21)
        version = compiled.version
        _, out3, ctr3 = _run(kernel, other, nest)
        assert jit_stats()["misses"] == misses0 + 1
        assert compiled.version > version
        # and agrees with the interpreter on the new tensor
        _, ref, ctr_ref = _run(kernel, other, nest, engine="interpret")
        np.testing.assert_allclose(out3, ref, rtol=1e-12, atol=1e-14)
        assert ctr3.as_dict() == ctr_ref.as_dict()
        # more tensors of a bound pattern add nothing to the plan's byte
        # accounting: selectors and CSR index arrays are held once per
        # structure, only the data vector is swapped
        size = approx_nbytes(executor._plan)
        rng = np.random.default_rng(0)
        for _ in range(3):
            again = dict(other, T=other["T"].with_values(rng.random(other["T"].nnz)))
            _run(kernel, again, nest)
        assert jit_stats()["misses"] == misses0 + 1
        assert approx_nbytes(executor._plan) == size

    def test_bind_cache_eviction(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, _, _ = _run(kernel, tensors, nest)
        compiled = executor._plan.jit
        evictions0 = jit_stats()["evictions"]
        # bind MAX_BINDS + 2 distinct patterns: the MRU prep cache stays
        # bounded and the overflow is counted as evictions
        variants = []
        for seed in range(CompiledJit.MAX_BINDS + 2):
            case = dict(tensors)
            case["T"] = random_sparse_tensor((18, 15, 12), density=0.04, seed=seed)
            variants.append(case)
            _run(kernel, case, nest)
        assert len(compiled._binds) == CompiledJit.MAX_BINDS
        assert jit_stats()["evictions"] > evictions0
        # an evicted structure binds again from scratch, correctly
        misses0 = jit_stats()["misses"]
        _, out, _ = _run(kernel, variants[0], nest)
        assert jit_stats()["misses"] == misses0 + 1
        _, ref, _ = _run(kernel, variants[0], nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_buffer_pool_reused_across_runs(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, _, _ = _run(kernel, tensors, nest)
        compiled = executor._plan.jit
        warm = {key: buf for key, buf in compiled.pool.items()}
        assert warm, "the fused callable should pool intermediate buffers"
        _run(kernel, tensors, nest)
        for key, buf in warm.items():
            assert compiled.pool[key] is buf


class TestStructureKeyedBinds:
    """Binds are keyed by the CSF level arrays, not by the tensor object."""

    N = 8

    def _serve(self, requests, cache):
        outputs = []
        for request in requests:
            kernel, tensors = request.build()
            nest = cached_schedule(kernel).loop_nest
            executor = cached_executor(kernel, nest, engine="jit", cache=cache)
            outputs.append(np.asarray(executor.execute(tensors)))
            assert executor.last_engine == "jit"
        return outputs, executor

    @pytest.mark.parametrize("mode", [0, 2])
    def test_wire_decoded_and_with_values_tensors_share_one_bind(self, mode):
        source = random_sparse_tensor((18, 15, 12), nnz=150, seed=3)
        rng = np.random.default_rng(1)
        factors = [rng.random((d, 5)) for n, d in enumerate(source.shape) if n != mode]
        line = protocol.dumps(
            protocol.encode_request(mttkrp_request(source, factors, mode=mode))
        )
        decoded = [
            protocol.decode_request(protocol.loads(line)) for _ in range(self.N)
        ]
        revalued = [
            mttkrp_request(
                source.with_values(rng.random(source.nnz)), factors, mode=mode
            )
            for _ in range(self.N)
        ]
        before = jit_stats()
        outputs, executor = self._serve(decoded + revalued, PlanCache())
        after = jit_stats()
        # one bind for the one (plan, mode order); every later tensor hits
        # and only re-points the SpMM data at its own values
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 2 * self.N - 1
        assert after["rebinds"] - before["rebinds"] == 2 * self.N - 1
        # ... on the SpMM path, the fused unit's only body
        compiled = executor._plan.jit
        assert "_spmm(" in compiled.source
        assert "else:" not in compiled.source
        # bit-equal to a fresh bind of each tensor
        for request, got in zip(decoded + revalued, outputs):
            kernel, tensors = request.build()
            nest = cached_schedule(kernel).loop_nest
            _, fresh, _ = _run(kernel, tensors, nest, plan_cache=PlanCache())
            np.testing.assert_array_equal(got, fresh)
        for got in outputs[1 : self.N]:
            np.testing.assert_array_equal(got, outputs[0])

    def test_same_shape_and_nnz_different_coordinates_never_share(self):
        a = random_sparse_tensor((18, 15, 12), nnz=150, seed=3)
        b = random_sparse_tensor((18, 15, 12), nnz=150, seed=4)
        assert a.shape == b.shape and a.nnz == b.nnz
        factors = [np.random.default_rng(2).random((d, 5)) for d in a.shape[1:]]
        requests = [mttkrp_request(t, factors) for t in (a, b, a, b)]
        misses0, hits0 = jit_stats()["misses"], jit_stats()["hits"]
        outputs, _ = self._serve(requests, PlanCache())
        assert jit_stats()["misses"] == misses0 + 2
        assert jit_stats()["hits"] == hits0 + 2
        for tensor, got in zip((a, b, a, b), outputs):
            want = np.einsum("ijk,jr,kr->ir", tensor.to_dense(), *factors)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_structure_evicted_from_the_memo_rebinds(self):
        source = random_sparse_tensor((18, 15, 12), nnz=150, seed=3)
        rng = np.random.default_rng(1)
        factors = [rng.random((d, 5)) for d in source.shape[:2]]
        cache = PlanCache()
        first = mttkrp_request(source, factors, mode=2)
        self._serve([first], cache)
        # the pattern's level arrays are rebuilt: new arrays, new identity,
        # so the old bind (and its indptr) must not be reused
        default_structure_memo().clear()
        rebuilt = source.with_values(rng.random(source.nnz))
        misses0 = jit_stats()["misses"]
        (got,), _ = self._serve([mttkrp_request(rebuilt, factors, mode=2)], cache)
        assert jit_stats()["misses"] == misses0 + 1
        want = np.einsum("ijk,ir,jr->kr", rebuilt.to_dense(), *factors)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


#: spec -> text the fused call leaves in ``CompiledJit.source``
_PEEPHOLES = {
    # non-direct ScatterAdd, gathered axis leading -> unit CSR selector
    "ijk,ir,kr->jr": "O += _spmm(",
    # values x lane-expanded register feeding that ScatterAdd -> one SpMM
    "ijk,ir,jr->kr": "= V\n    O += _spmm(",
    # spmm_scatter -> SegmentReduce composed; Contract -> LaneSum as a GEMM
    "ijk,ir,js->krs": "_lane_dot(",
    "ijk,ir,js,kt->rst": "_lane_dot(",
}


class TestScatterPeepholes:
    @pytest.mark.parametrize("spec", sorted(_PEEPHOLES))
    def test_fused_call_matches_lowered(self, spec, random_coo3, count_add_at):
        kernel, tensors, nest = _spec_case(spec, random_coo3)
        executor, out, ctr = _run(kernel, tensors, nest)
        assert executor.last_engine == "jit"
        compiled = executor._plan.jit
        assert _PEEPHOLES[spec] in compiled.source
        assert "_sum0(" not in compiled.source
        assert "else:" not in compiled.source
        assert count_add_at == []
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
        assert ctr.as_dict() == ref_ctr.as_dict()

    def test_composed_scatter_reduce_builds_no_per_fibre_buffer(self, random_coo3):
        kernel, tensors, nest = _spec_case("ijk,ir,js->krs", random_coo3)
        executor, _, _ = _run(kernel, tensors, nest)
        compiled = executor._plan.jit
        assert "_scatter_lanes(" not in compiled.source
        assert kernel.csf_mode_order == ("i", "j", "k")
        fibres = np.unique(random_coo3.indices[:, :2], axis=0).shape[0]
        per_fibre = fibres * random_coo3.shape[2] * 4 * 8  # (ij-fibre, k, s)
        assert all(buf.nbytes < per_fibre for buf in compiled.pool.values())

    def test_float32_operands_match_the_unfused_callable(self, random_coo3):
        # ``execute`` coerces dense operands to float64; a direct caller of
        # the compiled callable may not.  Two float32 factors make a float32
        # lane product, which the values x register SpMM multiplies by the
        # float64 values — the same upcast the un-fused einsum applies
        from repro.sptensor.csf import csf_for_mode_order

        kernel, tensors, nest = _spec_case("ijk,ir,jr->kr", random_coo3)
        executor, out64, _ = _run(kernel, tensors, nest)
        plan = executor._plan
        csf = csf_for_mode_order(random_coo3, (0, 1, 2))
        dense = {
            name: t.astype(np.float32) for name, t in tensors.items()
            if isinstance(t, np.ndarray)
        }
        got, want = np.zeros_like(out64), np.zeros_like(out64)
        ctr, ref_ctr = OpCounter(), OpCounter()
        plan.jit.run(csf, dense, got, None, ctr)
        compile_program(plan.lowered, fuse=False).run(csf, dense, want, None, ref_ctr)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got, out64, rtol=1e-5)
        assert ctr.as_dict() == ref_ctr.as_dict()

    def test_non_leading_gather_axis_stays_on_add_at(self, random_coo3, count_add_at):
        kernel, tensors, nest = _spec_case("ijk,ir,kr->rj", random_coo3)
        del count_add_at[:]
        executor, out, ctr = _run(kernel, tensors, nest)
        assert executor.last_engine == "jit"
        assert "O += _spmm(" not in executor._plan.jit.source
        assert len(count_add_at) == 1
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
        assert ctr.as_dict() == ref_ctr.as_dict()


_CONFORMANCE_FIXTURES = ["mttkrp_setup", "ttmc_setup", "ttmc4_setup", "tttp_setup", "allmode_setup"]


class TestNoAddAtOnTheJitPath:
    """``np.add.at`` is unreachable from a jit run of the benchmark kernels."""

    @pytest.fixture
    def trap_add_at(self, monkeypatch):
        def arm():
            def trap(*args, **kwargs):
                raise AssertionError("np.add.at reached from the jit tier")

            monkeypatch.setattr(np.add, "at", trap)

        return arm

    def test_benchmark_kernels(self, benchmark_requests, trap_add_at):
        cases = []
        for request in benchmark_requests:
            kernel, tensors = request.build()  # CSF construction sorts here
            cases.append((kernel, tensors, cached_schedule(kernel).loop_nest))
        trap_add_at()
        for kernel, tensors, nest in cases:
            executor, out, _ = _run(kernel, tensors, nest)
            assert executor.last_engine == "jit"
            assert "else:" not in executor._plan.jit.source
            assert np.isfinite(out).all() and out.any()

    @pytest.mark.parametrize("fixture", _CONFORMANCE_FIXTURES)
    def test_conformance_kernels(self, fixture, request, trap_add_at):
        kernel, tensors = request.getfixturevalue(fixture)
        nest = SpTTNScheduler(kernel).schedule().loop_nest

        def run(engine):
            executor = LoopNestExecutor(kernel, nest, engine=engine)
            out = executor.execute(tensors)
            assert executor.last_engine == engine
            if engine == "jit":
                assert "else:" not in executor._plan.jit.source
            return out.values if isinstance(out, COOTensor) else out

        ref = run("lowered")
        trap_add_at()
        np.testing.assert_allclose(run("jit"), ref, rtol=1e-12, atol=1e-14)


class TestTiers:
    """``lowered`` is the same program compiled without the peephole pass."""

    @pytest.mark.parametrize("fixture", _CONFORMANCE_FIXTURES)
    def test_lowered_callable_is_unfused(self, fixture, request):
        kernel, tensors = request.getfixturevalue(fixture)
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        lowered, _, _ = _run(kernel, tensors, nest, engine="lowered")
        assert lowered.last_engine == "lowered"
        plan = _run(kernel, tensors, nest)[0]._plan
        assert plan is lowered._plan
        assert isinstance(plan.unfused, CompiledJit) and plan.unfused is not plan.jit
        source = plan.unfused.source
        assert "_seg_outer(" not in source and "_lane_dot(" not in source
        assert not re.search(r"^ +r\d+ = _spmm\(", source, re.MULTILINE)

    def test_benchmark_kernels_compile_on_both_tiers(self, benchmark_requests):
        rejections, cache = jit_stats()["rejections"], PlanCache()  # compile afresh
        for request in benchmark_requests:
            kernel, tensors = request.build()
            nest = cached_schedule(kernel).loop_nest
            for engine in ("jit", "lowered"):
                executor = _run(kernel, tensors, nest, engine=engine, plan_cache=cache)[0]
                assert executor.last_engine == engine
        assert jit_stats()["rejections"] == rejections


class TestFallback:
    def test_compile_failure_falls_back_to_interpret(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setattr(
            "repro.engine.executor.compile_program", lambda program, fuse=True: None
        )
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="interpret")
        for engine in ("jit", "lowered"):
            executor, out, ctr = _run(kernel, tensors, nest, engine=engine, plan_cache=PlanCache())
            assert executor.last_engine == "interpret"
            slot = "jit" if engine == "jit" else "unfused"
            assert getattr(executor._plan, slot) is False  # the decline is cached
            np.testing.assert_array_equal(out, ref)
            assert ctr.as_dict() == ref_ctr.as_dict()

    def test_internal_errors_count_as_rejections(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor = LoopNestExecutor(kernel, nest, engine="interpret")
        executor._prepare(tensors)
        program = lower_plan(executor)
        monkeypatch.setattr(
            codegen_mod, "_compile", lambda program: (_ for _ in ()).throw(RuntimeError)
        )
        rejections0 = jit_stats()["rejections"]
        assert compile_program(program) is None
        assert jit_stats()["rejections"] == rejections0 + 1

    def test_empty_tensor_interprets(self, mttkrp_setup):
        from repro.sptensor import COOTensor

        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        empty = dict(tensors)
        empty["T"] = COOTensor.empty(tensors["T"].shape)
        executor, out, _ = _run(kernel, empty, nest)
        assert executor.last_engine == "interpret"
        assert np.all(out == 0.0)

    def test_env_variable_selects_jit(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", "jit")
        executor = LoopNestExecutor(kernel, nest)
        assert executor.engine == "jit"
        executor.execute(tensors)
        assert executor.last_engine == "jit"


class TestStats:
    def test_jit_stats_in_caches_snapshot(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        _run(kernel, tensors, nest)
        snapshot = caches_snapshot()
        assert "jit" in snapshot
        stats = snapshot["jit"]
        # the shared six-column cache-stat shape plus codegen extras
        for key in ("entries", "hits", "misses", "evictions", "rejections", "bytes"):
            assert key in stats
        assert stats["entries"] >= 1
        assert stats["compiles"] >= 1
        assert stats["runs"] >= 1
        assert stats["bytes"] > 0  # pooled buffers are byte-accounted

    def test_reset_jit_stats(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        _run(kernel, tensors, nest)
        assert jit_stats()["compiles"] >= 1
        reset_jit_stats()
        stats = jit_stats()
        assert stats["compiles"] == 0 and stats["runs"] == 0
        assert stats["misses"] == 0 and stats["evictions"] == 0


class TestReduceRoute:
    """``_reduce`` picks its route by layout: C-contiguous float64 lanes go
    through the CSR selector, any other lanes through ``np.add.reduceat``
    (the route that keeps strided lanes bit for bit)."""

    BOUNDS = np.array([0, 2, 3, 7, 10])
    LANES = np.random.default_rng(3).random((10, 4, 3))

    @pytest.fixture
    def reduceat_calls(self, monkeypatch):
        calls = []
        real = codegen_mod._bufpool.reduceat_into

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(codegen_mod._bufpool, "reduceat_into", spy)
        return calls

    def test_contiguous_float64_lanes_take_the_selector(self, reduceat_calls):
        got = codegen_mod._reduce({}, 0, self.LANES, codegen_mod._reduce_prep(self.BOUNDS))
        assert reduceat_calls == []
        want = np.add.reduceat(self.LANES, self.BOUNDS[:-1], axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("layout", ["strided", "float32"])
    def test_other_lanes_take_reduceat_bit_for_bit(self, layout, reduceat_calls):
        lanes = {"strided": self.LANES.transpose(0, 2, 1), "float32": self.LANES.astype("f4")}
        lanes = lanes[layout]
        got = codegen_mod._reduce({}, 0, lanes, codegen_mod._reduce_prep(self.BOUNDS))
        assert reduceat_calls == [1]
        assert got.dtype == lanes.dtype
        np.testing.assert_array_equal(got, np.add.reduceat(lanes, self.BOUNDS[:-1], axis=0))

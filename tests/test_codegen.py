"""Tests for the jit/codegen execution tier (repro.engine.lowering.codegen).

The contract under test: ``compile_program`` turns a lowered
:class:`~repro.engine.lowering.ir.Program` into one fused callable that

* is cached on the plan (``plan.jit``) and shared by every
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
  shapes change, and runs an elementwise product in the buffer of an
  operand that dies at it, never in a live register's, a view's or a
  caller's array;
* compiles the same program without its peephole pass for the
  ``lowered`` tier, a callable of its own;
* compiles every nest the scheduler picks, an empty tensor's included,
  and raises out of ``execute()`` when compilation fails; a kernel past
  the einsum letters is refused when it is parsed.
"""

import re
import tracemalloc

import numpy as np
import pytest

from interpreter import execute, make_executor
from repro.core.contraction_path import enumerate_contraction_paths
from repro.core.cost_model import OperationCountCost, evaluate_cost
from repro.core.expr import MAX_INDICES, parse_kernel
from repro.core.loop_nest import LoopNest, LoopOrder
from repro.core.scheduler import SpTTNScheduler
from repro.engine.executor import LoopNestExecutor
from repro.engine.lowering import CompiledJit, compile_program, ir
from repro.engine.lowering import codegen as codegen_mod
from repro.engine.lowering.codegen import jit_stats
from repro.engine.plan_cache import (
    PlanCache,
    cached_executor,
    cached_schedule,
    caches_snapshot,
)
from repro.engine.reference import reference_output
from repro.kernels.mttkrp import mttkrp_spec
from repro.kernels.ttmc import ttmc_spec
from repro.serve import protocol
from repro.serve.request import mttkrp_request
from repro.serve.scenarios import _RAW_SPECS
from repro.sptensor import COOTensor, random_sparse_tensor
from repro.sptensor.csf import csf_for_mode_order, default_structure_memo
from repro.util.counters import OpCounter
from test_conformance import _KERNELS, _MODE_ORDERS, _build_case


def _run(kernel, tensors, nest, engine="jit", **kwargs):
    """Execute on *engine* (``"interpret"``: the tests' interpreter),
    asserting that a runtime engine ran compiled code."""
    counter = OpCounter()
    executor = make_executor(kernel, nest, engine, counter=counter, **kwargs)
    output = execute(executor, tensors)
    return executor, np.asarray(output), counter


def _spec_operands(spec, tensor, dtype="float64", rank=4):
    """Kernel + operands for *spec* over *tensor* with random dense factors."""
    rng = np.random.default_rng(5)
    subs = spec.split("->")[0].split(",")
    dims = dict(zip(subs[0], tensor.shape))
    operands = [tensor]
    for sub in subs[1:]:
        shape = tuple(dims.setdefault(idx, rank) for idx in sub)
        operands.append(rng.random(shape).astype(dtype))
    kernel = parse_kernel(spec, operands)
    return kernel, {op.name: t for op, t in zip(kernel.operands, operands)}


def _spec_case(spec, tensor, dtype="float64", rank=4):
    kernel, tensors = _spec_operands(spec, tensor, dtype, rank)
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

    @pytest.mark.parametrize("engine", ["jit", "lowered"])
    def test_the_counter_sees_one_flop_total(self, engine, ttmc_setup):
        """A compiled callable touches the counter once, with the flop total
        the interpreter reaches one kernel call at a time."""
        kernel, tensors = ttmc_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        executor, _, counter = _run(kernel, tensors, nest, engine=engine)
        _, _, ref = _run(kernel, tensors, nest, engine="interpret")
        compiled = executor._plan.jit if engine == "jit" else executor._plan.unfused
        assert re.findall(r"\bC\.\w+ \+=", compiled.source) == ["C.flops +="]
        assert counter.flops == ref.flops > 0

    @pytest.mark.parametrize("fuse", [True, False])
    def test_an_unknown_op_does_not_compile(self, fuse):
        program = ir.Program((ir.LoadValues(dst=0), "not an op"), n_regs=1)
        with pytest.raises(ValueError, match="unknown lowered op"):
            compile_program(program, fuse=fuse)


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
        _, out3, ctr3 = _run(kernel, other, nest)
        assert jit_stats()["misses"] == misses0 + 1
        # and agrees with the interpreter on the new tensor
        _, ref, ctr_ref = _run(kernel, other, nest, engine="interpret")
        np.testing.assert_allclose(out3, ref, rtol=1e-12, atol=1e-14)
        assert ctr3.flops == ctr_ref.flops
        # more tensors of a bound pattern add nothing to the plan: selectors
        # and CSR index arrays are held once per structure, only the data
        # vector is swapped
        rebinds, n_binds, prep = (
            jit_stats()["rebinds"], len(compiled._binds), compiled._binds[0].prep
        )
        rng = np.random.default_rng(0)
        for _ in range(3):
            again = dict(other, T=other["T"].with_values(rng.random(other["T"].nnz)))
            _run(kernel, again, nest)
        assert jit_stats()["misses"] == misses0 + 1
        assert jit_stats()["rebinds"] == rebinds + 3
        assert len(compiled._binds) == n_binds
        assert compiled._binds[0].prep is prep

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
            outputs.append(np.asarray(execute(executor, tensors)))
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
    # lane outer product feeding that ScatterAdd -> GEMMs on row-grouped lanes
    "ijk,ir,ks->jrs": "] += _seg_outer(",
}

_OUTER_EINSUM = re.compile(r"^ +(r\d+) = _einsum\(B, \d+, '(\w+),(\w+)->(\w+)'", re.MULTILINE)
_SELECTOR = re.compile(r"^ +O \+= _spmm\(P\[\d+\], (r\d+)\)$", re.MULTILINE)


def outer_products_fed_to_selectors(source):
    """Registers that a lane outer-product ``_einsum`` writes and a selector
    SpMM (``O += _spmm(``) reads in generated source: the lane-expanded
    chain the row-grouped GEMM unit replaces."""
    outer = {
        reg
        for reg, lhs, rhs, out in _OUTER_EINSUM.findall(source)
        if len(out) > max(len(lhs), len(rhs))
    }
    return outer & set(_SELECTOR.findall(source))


class TestScatterPeepholes:
    @pytest.mark.parametrize("spec", sorted(_PEEPHOLES))
    def test_fused_call_matches_lowered(self, spec, random_coo3, count_add_at):
        kernel, tensors, nest = _spec_case(spec, random_coo3)
        executor, out, ctr = _run(kernel, tensors, nest)
        compiled = executor._plan.jit
        assert _PEEPHOLES[spec] in compiled.source
        assert "_sum0(" not in compiled.source
        assert "else:" not in compiled.source
        assert not outer_products_fed_to_selectors(compiled.source)
        assert count_add_at == []
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
        assert ctr.flops == ref_ctr.flops

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
        assert ctr.flops == ref_ctr.flops

    def test_non_leading_gather_axis_stays_on_add_at(self, random_coo3, count_add_at):
        kernel, tensors, nest = _spec_case("ijk,ir,kr->rj", random_coo3)
        del count_add_at[:]
        executor, out, ctr = _run(kernel, tensors, nest)
        assert "O += _spmm(" not in executor._plan.jit.source
        assert len(count_add_at) == 1
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
        assert ctr.flops == ref_ctr.flops


def _run_compiled(compiled, coo, dense, out):
    """Run a compiled callable straight on *coo*'s (i, j, k) CSF, as a caller
    bypassing ``execute`` (no dtype or layout coercion) would."""
    counter = OpCounter()
    compiled.run(csf_for_mode_order(coo, tuple(range(coo.order))), dense, out, None, counter)
    return counter


class TestRowGroupedScatter:
    """A lane outer product scattered by leading gathered axes runs as
    ``_seg_outer`` on lanes grouped by output row, then ``O[rows] +=``."""

    SPEC = "ijk,ir,ks->jrs"

    def _case(self, tensor, dtype="float64", rank=4):
        kernel, tensors, nest = _spec_case(self.SPEC, tensor, rank=rank)
        assert kernel.csf_mode_order == ("i", "j", "k")
        plan = _run(kernel, tensors, nest)[0]._plan
        dense = {n: t.astype(dtype) for n, t in tensors.items() if isinstance(t, np.ndarray)}
        shape = (tensor.shape[1], rank, rank)
        return plan, dense, shape

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_rows_without_lanes_stay_exactly_zero(self, random_coo3, dtype):
        # every odd j is empty; float32 lanes reduce through np.add.reduceat,
        # which would fold a zero-length segment's neighbour into the row
        keep = random_coo3.indices[:, 1] % 2 == 0
        tensor = COOTensor(random_coo3.shape, random_coo3.indices[keep], random_coo3.values[keep])
        plan, dense, shape = self._case(tensor, dtype)
        got, want = np.zeros(shape), np.zeros(shape)
        ctr = _run_compiled(plan.jit, tensor, dense, got)
        ref_ctr = _run_compiled(compile_program(plan.lowered, fuse=False), tensor, dense, want)
        assert np.all(got[1::2] == 0.0) and got[::2].any()
        np.testing.assert_allclose(got, want, rtol=1e-5 if dtype == "float32" else 1e-12)
        assert ctr.flops == ref_ctr.flops

    def test_grouped_lanes_build_no_permutation(self, random_coo3):
        ctx = codegen_mod._Ctx(csf_for_mode_order(random_coo3, (0, 1, 2)))
        assert ctx.row_groups(((0,), 1))[0] is None  # i ids: already sorted
        order, (bounds, _), (rows,) = ctx.row_groups(((1,), 1))  # j ids: not
        assert order is not None
        j = ctx.ids(1, 1)[order]
        assert np.all(np.diff(bounds) > 0)  # one segment per present row
        np.testing.assert_array_equal(rows, np.unique(j))
        np.testing.assert_array_equal(ctx.ids(1, 1, ((1,), 1)), j)

    def test_large_segments_take_the_gemm_path(self):
        # ~280 lanes per output row x rank 8: past _GEMM_MIN_FLOPS_PER_SEG
        tensor = random_sparse_tensor((400, 6, 400), nnz=3000, seed=3)
        kernel, tensors, nest = _spec_case(self.SPEC, tensor, rank=8)
        executor, out, ctr = _run(kernel, tensors, nest)
        assert "] += _seg_outer(" in executor._plan.jit.source
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert ctr.flops == ref_ctr.flops
        # the (lanes, 8, 8) outer product is never materialised
        lanes = np.unique(tensor.indices[:, :2], axis=0).shape[0]
        assert all(buf.nbytes < lanes * 64 * 8 for buf in executor._plan.jit.pool.values())

    def test_unregrouped_operand_is_gathered_and_small_segments_match_bit_for_bit(
        self, random_coo3
    ):
        # r1 has a second reader, so its producer cannot emit grouped lanes:
        # the unit gathers it into row order at run time.  Small segments
        # take einsum + selector over the same lane order as the un-fused
        # selector SpMM, so the bits agree.
        gather = (("gather", 0), ("keep", -1)), (("gather", 1), ("keep", -1))
        program = ir.Program(
            (
                ir.ReadArray(dst=0, slot=("dense", "A"), level=1, axes=gather[0]),
                ir.ReadArray(dst=1, slot=("dense", "C"), level=1, axes=gather[1]),
                ir.Contract(dst=2, spec="ab,ac->abc", srcs=(0, 1)),
                ir.Contract(dst=3, spec="ac,ac->ac", srcs=(1, 1)),
                ir.ScatterAdd(src=2, level=1, axes=(("gather", 1),) + (("keep", -1),) * 2,
                              direct=False),
            ),
            n_regs=4,
        )
        rng = np.random.default_rng(2)
        dense = {"A": rng.random((18, 3)), "C": rng.random((15, 4))}
        jit = compile_program(program)
        assert "] += _seg_outer(B, ('row', 2), 'ab,ac->abc', r0, _take(" in jit.source
        got, want = np.zeros((15, 3, 4)), np.zeros((15, 3, 4))
        _run_compiled(jit, random_coo3, dense, got)
        _run_compiled(compile_program(program, fuse=False), random_coo3, dense, want)
        np.testing.assert_array_equal(got, want)
        i, j, _ = random_coo3.indices.T
        pairs = np.unique(np.stack([i, j], 1), axis=0)
        ref = np.zeros((15, 3, 4))
        np.add.at(ref, pairs[:, 1], np.einsum("ab,ac->abc", dense["A"][pairs[:, 0]],
                                              dense["C"][pairs[:, 1]]))
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_new_values_rebind_the_regrouped_spmm(self, random_coo3):
        # the values x gather SpMM feeding the unit emits its rows grouped,
        # so its data is a permuted copy of the values, rebound per tensor
        kernel, tensors, nest = _spec_case(self.SPEC, random_coo3)
        _run(kernel, tensors, nest)
        rebinds = jit_stats()["rebinds"]
        values = np.random.default_rng(3).random(random_coo3.nnz)
        other = dict(tensors, T=random_coo3.with_values(values))
        _, got, _ = _run(kernel, other, nest)
        assert jit_stats()["rebinds"] == rebinds + 1
        _, want, _ = _run(kernel, other, nest, plan_cache=PlanCache())
        np.testing.assert_array_equal(got, want)

    def test_two_level_row_head(self, random_coo4):
        # rows are (k, j) pairs, against the CSF's (j, k) order
        kernel, tensors, nest = _spec_case("ijkl,ir,ls->kjrs", random_coo4)
        executor, out, ctr = _run(kernel, tensors, nest)
        assert "] += _seg_outer(" in executor._plan.jit.source
        _, ref, ref_ctr = _run(kernel, tensors, nest, engine="lowered")
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
        assert ctr.flops == ref_ctr.flops

    def test_rows_scatter_through_a_strided_output(self, random_coo3):
        plan, dense, shape = self._case(random_coo3)
        got = np.zeros(shape[::-1]).T  # Fortran order: a reshape would copy
        want = np.zeros(shape)
        _run_compiled(plan.jit, random_coo3, dense, got)
        _run_compiled(plan.jit, random_coo3, dense, want)
        assert got.any()
        np.testing.assert_array_equal(got, want)


_CONFORMANCE_FIXTURES = ["mttkrp_setup", "ttmc_setup", "ttmc4_setup", "tttp_setup", "allmode_setup"]

#: Kernels whose scheduled nests must compile: every conformance kernel at
#: each of its CSF mode orders, MTTKRP and TTMc at order 4, and the raw
#: ``scenario_mix`` specs (``None``: identity mode order, built here).
_CHOSEN = {
    f"{name}-{''.join(map(str, order))}": (spec, order)
    for name, spec in sorted(_KERNELS.items())
    for order in _MODE_ORDERS
}
_CHOSEN.update(mttkrp4=(mttkrp_spec(4, 0), None), ttmc4=(ttmc_spec(4, 0), None))
_CHOSEN.update((f"raw{order}", (spec, None)) for order, spec in _RAW_SPECS.items())


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
            assert "else:" not in executor._plan.jit.source
            assert np.isfinite(out).all() and out.any()

    @pytest.mark.parametrize("fixture", _CONFORMANCE_FIXTURES)
    def test_conformance_kernels(self, fixture, request, trap_add_at):
        kernel, tensors = request.getfixturevalue(fixture)
        nest = SpTTNScheduler(kernel).schedule().loop_nest

        def run(engine):
            executor = LoopNestExecutor(kernel, nest, engine=engine)
            out = execute(executor, tensors)
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
        plan = _run(kernel, tensors, nest)[0]._plan
        assert plan is lowered._plan
        assert isinstance(plan.unfused, CompiledJit) and plan.unfused is not plan.jit
        source = plan.unfused.source
        assert "_seg_outer(" not in source and "_lane_dot(" not in source
        assert not re.search(r"^ +r\d+ = _spmm\(", source, re.MULTILINE)

    def test_benchmark_kernels_compile_on_both_tiers(self, benchmark_requests):
        cache = PlanCache()  # compile afresh
        for request in benchmark_requests:
            kernel, tensors = request.build()
            nest = cached_schedule(kernel).loop_nest
            for engine in ("jit", "lowered"):
                _run(kernel, tensors, nest, engine=engine, plan_cache=cache)

    @pytest.mark.parametrize("spec, mode_order", _CHOSEN.values(), ids=list(_CHOSEN))
    def test_chosen_nests_compile_on_both_tiers(self, spec, mode_order):
        """The nest the scheduler picks at every buffer-dimension bound
        lowers and compiles on both tiers."""
        if mode_order is None:
            order = len(spec.split(",")[0])
            tensor = random_sparse_tensor((9, 8, 7, 6)[:order], nnz=80, seed=11)
            kernel, tensors = _spec_operands(spec, tensor, rank=3)
        else:
            kernel, tensors = _build_case(spec, "float64", mode_order)
        cache = PlanCache()
        for bound in (None, 1, 2):
            nest = cached_schedule(kernel, buffer_dim_bound=bound).loop_nest
            for engine in ("jit", "lowered"):
                _run(kernel, tensors, nest, engine=engine, plan_cache=cache)


class TestFallback:
    def test_compile_failure_raises(self, mttkrp_setup, monkeypatch):
        """A codegen error on a chosen nest raises out of ``execute()`` and
        caches no callable on the plan."""
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest

        def broken(program, fuse):
            raise RuntimeError("injected codegen error")

        monkeypatch.setattr(codegen_mod, "_compile", broken)
        for engine in ("jit", "lowered"):
            executor = LoopNestExecutor(kernel, nest, engine=engine, plan_cache=PlanCache())
            with pytest.raises(RuntimeError, match="injected codegen error"):
                executor.execute(tensors)
            assert executor._plan.jit is None and executor._plan.unfused is None

    def test_sparse_output_behind_a_buffer_descends(self, tttp_setup):
        """``T*A -> X; B*C -> Y; X*Y -> O``: the last term reads only
        buffers, yet its loops over ``i, j, k`` descend the CSF (each one's
        earlier levels are bound), so the sparse output is written by
        descent, the nest lowers, and it executes the modelled count."""
        kernel, tensors = tttp_setup
        path = next(
            p for p in enumerate_contraction_paths(kernel)
            if [(t.lhs, t.rhs) for t in p][:2] == [("T", "A"), ("B", "C")]
        )
        order = LoopOrder((("i", "j", "k", "r"), ("j", "r", "k"), ("i", "j", "k", "r")))
        nest = LoopNest(path, order)
        model = evaluate_cost(kernel, path, order, OperationCountCost(kernel))
        expected = reference_output(kernel, tensors).values
        for engine in ("jit", "interpret"):
            executor = make_executor(kernel, nest, engine)
            out = execute(executor, tensors)
            assert executor.counter.flops == pytest.approx(model, rel=1e-12)
            np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    def test_letter_limit_is_refused_at_parse(self):
        """A kernel with more distinct indices than the einsum letters left
        beside the lane axis is refused when it is parsed, by a message
        naming the limit; one at the limit parses.  Index names need not
        be einsum letters: the lowering assigns its own."""
        assert MAX_INDICES == 51
        names = "ab" + "αβγδ" + "cdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for n, ok in ((MAX_INDICES, True), (MAX_INDICES + 1, False)):
            spec = "ab," + ",".join(names[2:n]) + "->a"
            operands = [COOTensor.empty((2, 2))] + [np.ones(1)] * (n - 2)
            if ok:
                assert len(parse_kernel(spec, operands).index_dims) == n
            else:
                with pytest.raises(ValueError, match=f"at most {MAX_INDICES} are supported"):
                    parse_kernel(spec, operands)

    def test_empty_tensor_runs_compiled(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        empty = dict(tensors)
        empty["T"] = COOTensor.empty(tensors["T"].shape)
        for engine in ("jit", "lowered"):
            _, out, counter = _run(kernel, empty, nest, engine=engine)
            assert np.all(out == 0.0) and counter.flops == 0

    @pytest.mark.parametrize("engine", ["jit", "interpret"])
    @pytest.mark.parametrize("nnz", [0, 5])
    def test_order_one_tensor(self, nnz, engine):
        """An order-1 sparse operand: the root is the leaf's parent, so the
        interpreter's fiber offload starts at the virtual root; an empty
        one runs compiled too."""
        tensor = random_sparse_tensor((9,), nnz=nnz, seed=4) if nnz else COOTensor.empty((9,))
        operands = (tensor, np.random.default_rng(4).random((9, 3)))
        kernel = parse_kernel("i,ir->r", operands)
        tensors = {op.name: t for op, t in zip(kernel.operands, operands)}
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        _, out, _ = _run(kernel, tensors, nest, engine=engine)
        np.testing.assert_allclose(out, reference_output(kernel, tensors), rtol=1e-12)

    def test_env_variable_selects_jit(self, mttkrp_setup, monkeypatch):
        kernel, tensors = mttkrp_setup
        nest = SpTTNScheduler(kernel).schedule().loop_nest
        monkeypatch.setenv("REPRO_ENGINE", "jit")
        executor = LoopNestExecutor(kernel, nest)
        assert executor.engine == "jit"
        execute(executor, tensors)


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
        assert stats["rejections"] == 0  # every plan lowers and compiles
        assert stats["entries"] >= 1
        assert stats["compiles"] >= 1
        assert stats["runs"] >= 1
        assert stats["bytes"] > 0  # pooled buffers are byte-accounted


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


class TestGatherRoute:
    """``_take`` gathers into its pooled buffer with ``mode="clip"`` only
    after a range check: under ``mode="raise"`` NumPy copies ``out=``
    through a temporary, and any ids the check rejects keep that route."""

    ARR = np.random.default_rng(4).random((50, 40, 3))

    def _take_warm(self, arr, ids, axis):
        pool = {}
        codegen_mod._bufpool.take_into(pool, "k", arr, ids, axis)
        buf = pool["k"]
        got = codegen_mod._bufpool.take_into(pool, "k", arr, ids, axis)
        assert pool["k"] is buf
        return got

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_in_range_ids_equal_np_take(self, axis, dtype):
        arr = self.ARR.astype(dtype)
        ids = np.random.default_rng(5).integers(0, arr.shape[axis], 300)
        got = self._take_warm(arr, ids, axis)
        assert got.dtype == arr.dtype
        np.testing.assert_array_equal(got, np.moveaxis(np.take(arr, ids, axis=axis), axis, 0))

    def test_negative_ids_wrap(self):
        ids = np.array([-1, 0, -50, 7, -3])
        got = self._take_warm(self.ARR, ids, 0)
        np.testing.assert_array_equal(got, self.ARR[[49, 0, 0, 7, 47]])

    def test_out_of_range_id_raises(self):
        pool = {}
        codegen_mod._bufpool.take_into(pool, "k", self.ARR, np.array([0, 1]), 0)
        with pytest.raises(IndexError):
            codegen_mod._bufpool.take_into(pool, "k", self.ARR, np.array([0, 50]), 0)

    def test_empty_ids(self):
        got = self._take_warm(self.ARR, np.array([], dtype=np.int64), 1)
        assert got.shape == (0, 50, 3)

    def test_shape_mismatch_reallocates(self):
        pool = {}
        codegen_mod._bufpool.take_into(pool, "k", self.ARR, np.arange(5), 0)
        old = pool["k"]
        got = codegen_mod._bufpool.take_into(pool, "k", self.ARR, np.arange(9), 0)
        assert pool["k"] is not old and pool["k"].shape == (9, 40, 3)
        np.testing.assert_array_equal(got, self.ARR[:9])

    def test_warm_gather_allocates_no_temporary(self):
        rng = np.random.default_rng(6)
        arr = rng.random((2000, 32))
        ids = rng.integers(0, 2000, 7752)
        pool = {}
        codegen_mod._bufpool.take_into(pool, "k", arr, ids, 0)
        tracemalloc.start()
        try:
            codegen_mod._bufpool.take_into(pool, "k", arr, ids, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool["k"].nbytes / 4


_EINSUM_SPEC = re.compile(r"_einsum\(B, [^']+'([\w,]+)->(\w*)'")


def elementwise_einsums(source):
    """Specs of the ``_einsum`` calls in generated source that sum nothing
    (both inputs carry exactly the output subscripts, ``'ab,ab->ab'``)."""
    return [
        f"{ins}->{out}"
        for ins, out in _EINSUM_SPEC.findall(source)
        if ins == f"{out},{out}"
    ]


class TestElementwiseMultiply:
    """A two-operand ``Contract`` whose inputs both carry its output
    subscripts sums nothing: both tiers compile it to one pooled
    ``np.multiply`` (``_mul``), bit-identical to the tests' interpreter."""

    #: kernel -> the equal-subscript contract its chosen nest lowers to
    CASES = {
        "ijk,ij->ijk": "a,a->a",
        "ijk,jr,kr->ir": "ab,ab->ab",
        "ijk,jrs,krs->irs": "abc,abc->abc",
    }

    @staticmethod
    def _execute(kernel, tensors, nest, engine):
        counter = OpCounter()
        executor = make_executor(kernel, nest, engine, counter=counter)
        out = execute(executor, tensors)
        return executor, (out.values if isinstance(out, COOTensor) else out), counter

    @pytest.mark.parametrize("engine", ["jit", "lowered"])
    @pytest.mark.parametrize("spec", sorted(CASES))
    def test_compiles_to_a_pooled_multiply(self, spec, engine):
        # 30 nonzeros in 30^3: sums so short that every tier adds them in one order
        tensor = random_sparse_tensor((30, 30, 30), nnz=30, seed=11)
        kernel, tensors, nest = _spec_case(spec, tensor)
        # negative factors with -0.0 rows: the multiply makes -0.0 products
        # where einsum made +0.0, and no output may show them
        for op in kernel.dense_operands:
            tensors[op.name] = -tensors[op.name]
            tensors[op.name][::2] = -0.0
        executor, out, counter = self._execute(kernel, tensors, nest, engine)
        plan = executor._plan
        compiled = plan.jit if engine == "jit" else plan.unfused
        assert self.CASES[spec] in [
            op.spec for op in plan.lowered.ops if isinstance(op, ir.Contract)
        ]
        ((slot, a, b),) = re.findall(r"= _mul\(B, (\d+), r(\d+), r(\d+)\)", compiled.source)
        assert elementwise_einsums(compiled.source) == []
        # the product is written into its gathered operand's pooled buffer;
        # a `_multigather` (a fresh copy, pooled nowhere) leaves it its own
        takes = dict(re.findall(r"r(\d+) = _take\(B, (\d+), ", compiled.source))
        if spec == "ijk,ij->ijk":
            assert f"r{b} = _multigather(" in compiled.source and not takes
        else:
            assert [takes[r] for r in (a, b) if r in takes] == [slot]

        _, ref, ref_counter = self._execute(kernel, tensors, nest, "interpret")
        assert out.tobytes() == ref.tobytes()
        assert counter.flops == ref_counter.flops

        buf, keys = compiled.pool[int(slot)], set(compiled.pool)
        assert (np.signbit(buf) & (buf == 0)).any()
        _, warm, _ = self._execute(kernel, tensors, nest, engine)
        assert compiled.pool[int(slot)] is buf and set(compiled.pool) == keys
        assert warm.tobytes() == ref.tobytes()

    def test_reallocates_on_a_shape_change(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((6, 4)), rng.random((6, 4))
        pool = {}
        codegen_mod._bufpool.multiply_into(pool, "k", a, b)
        small = codegen_mod._bufpool.multiply_into(pool, "k", a[:1], b[:1])
        assert small.shape == (1, 4) and pool["k"] is small
        got = codegen_mod._bufpool.multiply_into(pool, "k", a, b[:1])  # broadcast
        np.testing.assert_array_equal(got, np.einsum("ab,ab->ab", a, b[:1]))


def _lane_pairs(coo):
    """The level-1 lanes' ``(i, j)`` ids of *coo*'s identity-order CSF."""
    return np.unique(coo.indices[:, :2], axis=0).T


class TestInPlaceProduct:
    """A ``_mul`` takes over the pool slot of an operand that dies at it, if
    that operand's register *is* its pooled buffer (an axis-0 ``_take``,
    a ``_mul`` / ``_einsum`` output): the product then overwrites it in
    place.  The slot stays taken while the product lives, and neither a
    ``moveaxis`` view's buffer nor a caller's array is ever written."""

    PAIR = (("gather", 0), ("gather", 1), ("keep", -1))

    @staticmethod
    def _read(dst, name, axes):
        return ir.ReadArray(dst=dst, slot=("dense", name), level=1, axes=axes)

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("again", ["regathered", "still_live"])
    def test_a_live_register_is_never_overwritten(self, random_coo3, again, fuse):
        # (A[i] * B[j]) * A[i], the second A[i] either gathered anew while
        # the product lives (r0's shape signature) or r0 itself, live past r2
        rows = (("gather", 0), ("keep", -1))
        ops = [
            self._read(0, "A", rows),
            self._read(1, "B", (("gather", 1), ("keep", -1))),
            ir.Contract(dst=2, spec="ab,ab->ab", srcs=(0, 1)),
        ]
        if again == "regathered":
            ops.append(self._read(3, "A", rows))
        ops += [
            ir.Contract(dst=4, spec="ab,ab->ab", srcs=(2, 3 if again == "regathered" else 0)),
            ir.ScatterAdd(src=4, level=1, axes=self.PAIR, direct=True),
        ]
        compiled = compile_program(ir.Program(tuple(ops), n_regs=5), fuse=fuse)
        slot = dict(re.findall(r"r(\d+) = _(?:take|mul)\(B, (\d+), ", compiled.source))
        if again == "regathered":
            assert slot["2"] == slot["0"] == slot["4"] != slot["3"]
        else:
            assert slot["2"] == slot["1"] == slot["4"] != slot["0"]
        rng = np.random.default_rng(3)
        dense = {"A": rng.random((18, 4)), "B": rng.random((15, 4))}
        i, j = _lane_pairs(random_coo3)
        want = np.zeros((18, 15, 4))
        want[i, j] = dense["A"][i] * dense["B"][j] * dense["A"][i]
        for _ in range(3):  # cold, then two warm calls
            got = np.zeros((18, 15, 4))
            _run_compiled(compiled, random_coo3, dense, got)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("case", ["moveaxis_view", "id_less"])
    def test_no_foreign_buffer_is_written(self, random_coo3, case, fuse):
        i, j = _lane_pairs(random_coo3)
        rng = np.random.default_rng(4)
        if case == "moveaxis_view":  # r0 = A[:, i].T, a view of its buffer
            axes, dense = (("keep", -1), ("gather", 0)), {"A": rng.random((4, 18))}
            lanes = dense["A"][:, i].T
        else:  # no ids: r0 is the caller's array itself, already in lanes
            axes, dense = (("gather", 0), ("keep", -1)), {"A": rng.random((i.size, 4))}
            lanes = dense["A"]
        dense["B"] = rng.random((15, 4))
        program = ir.Program(
            (
                self._read(0, "A", axes),
                self._read(1, "B", (("gather", 1), ("keep", -1))),
                ir.Contract(dst=2, spec="ab,ab->ab", srcs=(0, 1)),
                ir.ScatterAdd(src=2, level=1, axes=self.PAIR, direct=True),
            ),
            n_regs=3,
        )
        compiled = compile_program(program, fuse=fuse)
        if case == "id_less":
            (k,) = re.findall(r"r0 = _take\(B, \d+, _d\d+, P\[(\d+)\]", compiled.source)
            compiled._prep_builders[int(k)] = lambda ctx: None
        callers = {name: arr.copy() for name, arr in dense.items()}
        want = np.zeros((18, 15, 4))
        want[i, j] = lanes * dense["B"][j]
        for call in range(4):  # cold, then three warm calls
            got = np.zeros((18, 15, 4))
            _run_compiled(compiled, random_coo3, dense, got)
            assert got.tobytes() == want.tobytes()
            if not call:
                buffers = dict(compiled.pool)
            assert compiled.pool.keys() == buffers.keys()
            assert all(compiled.pool[key] is buf for key, buf in buffers.items())
        for name, arr in dense.items():
            assert arr.tobytes() == callers[name].tobytes()

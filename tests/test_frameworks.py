"""Tests for the baseline execution strategies (TACO/CTF/SparseLNR/SPLATT-like).

Every supported baseline must produce the reference result; the operation
counters must reflect the algorithmic differences the paper describes
(unfactorized > factorized operation counts, pairwise intermediate blow-up).
"""

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.engine.plan_cache import cached_schedule, default_schedule_cache
from repro.engine.reference import assert_same_result, reference_output
from repro.frameworks import (
    ALL_BASELINES,
    CTFLikeBaseline,
    IntermediateMemoryError,
    SparseLNRLikeBaseline,
    SplattLikeBaseline,
    SpTTNCyclopsBaseline,
    TacoLikeBaseline,
)
from repro.kernels.mttkrp import mttkrp_kernel
from repro.sptensor import CSFTensor, random_dense_matrix

KERNELS = ["mttkrp_setup", "ttmc_setup", "tttp_setup", "allmode_setup", "ttmc4_setup"]


@pytest.mark.parametrize("fixture_name", KERNELS)
@pytest.mark.parametrize("baseline_cls", ALL_BASELINES)
class TestBaselineCorrectness:
    def test_matches_reference(self, fixture_name, baseline_cls, request):
        kernel, tensors = request.getfixturevalue(fixture_name)
        baseline = baseline_cls()
        if not baseline.supports(kernel):
            pytest.skip(f"{baseline.name} does not support this kernel")
        expected = reference_output(kernel, tensors)
        result = baseline.run(kernel, tensors)
        assert_same_result(result.output, expected)
        assert result.seconds >= 0.0
        assert result.framework == baseline.name


class TestSupportMatrix:
    def test_splatt_only_supports_mttkrp(self, mttkrp_setup, ttmc_setup):
        splatt = SplattLikeBaseline()
        assert splatt.supports(mttkrp_setup[0])
        assert not splatt.supports(ttmc_setup[0])

    def test_splatt_rejects_unsupported_run(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        with pytest.raises(NotImplementedError):
            SplattLikeBaseline().run(kernel, tensors)

    def test_splatt_supports_order4_mttkrp(self, random_coo4):
        from repro.kernels.mttkrp import mttkrp_kernel

        factors = [np.ones((d, 3)) for d in random_coo4.shape]
        kernel, tensors = mttkrp_kernel(random_coo4, factors, mode=2)
        assert SplattLikeBaseline().supports(kernel)

    def test_generic_baselines_support_everything(self, tttp_setup):
        kernel, _ = tttp_setup
        for cls in (TacoLikeBaseline, CTFLikeBaseline, SparseLNRLikeBaseline):
            assert cls().supports(kernel)


class TestOperationCountShapes:
    """The relative operation counts must reproduce Section 2.4's analysis."""

    def test_unfactorized_mttkrp_costs_more_than_fused(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        taco = TacoLikeBaseline().run(kernel, tensors)
        ours = SpTTNCyclopsBaseline().run(kernel, tensors)
        # 3 nnz R  vs  2 nnz R + 2 nnz_IJ R
        assert taco.counter.flops > ours.counter.flops

    def test_unfactorized_ttmc_costs_much_more(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        taco = TacoLikeBaseline().run(kernel, tensors)
        ours = SpTTNCyclopsBaseline().run(kernel, tensors)
        # 3 nnz R S  vs  2 nnz S + 2 nnz_IJ S R: asymptotic reduction
        assert taco.counter.flops > 1.5 * ours.counter.flops

    def test_ctf_pairwise_intermediate_blowup(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        ctf = CTFLikeBaseline()
        ctf.run(kernel, tensors)
        fused_footprint = SpTTNCyclopsBaseline()
        schedule = fused_footprint.schedule_for(kernel)
        fused_elems = sum(
            b.size(kernel.index_dims) for b in schedule.loop_nest.buffers()
        )
        assert ctf.metadata()["max_intermediate_elements"] > fused_elems

    def test_ctf_memory_limit_enforced(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        tiny_limit = CTFLikeBaseline(memory_limit_elements=10)
        with pytest.raises(IntermediateMemoryError):
            tiny_limit.run(kernel, tensors)

    def test_splatt_flops_match_fused(self, mttkrp_setup):
        """SPLATT and SpTTN-Cyclops implement the same factorized algorithm:
        ``2 nnz R + 2 nnz_IJ R`` = 2·97·5 + 2·85·5 on the fixture."""
        kernel, tensors = mttkrp_setup
        csf = CSFTensor.from_coo(tensors["T"], (0, 1, 2))
        assert (csf.nnz, csf.nnz_at_level(1)) == (97, 85)
        splatt = SplattLikeBaseline().run(kernel, tensors)
        ours = SpTTNCyclopsBaseline().run(kernel, tensors)
        assert splatt.counter.flops == ours.counter.flops == 1820

    @pytest.mark.parametrize("coo_fixture", ["random_coo3", "random_coo4"])
    def test_splatt_contracts_one_factor_per_level_of_the_rooted_csf(
        self, coo_fixture, request
    ):
        """Every mode runs ``2R (nnz + sum_{d=1}^{N-2} nnz_at_level(d))`` over
        the CSF rooted at the target mode: the deepest level's factor once
        per nonzero, each other non-root level's once per node."""
        coo = request.getfixturevalue(coo_fixture)
        rank = 3
        factors = [random_dense_matrix(d, rank, seed=d) for d in coo.shape]
        for mode in range(coo.order):
            kernel, tensors = mttkrp_kernel(coo, factors, mode=mode)
            rooted = (mode,) + tuple(m for m in range(coo.order) if m != mode)
            csf = CSFTensor.from_coo(coo, rooted)
            inner = sum(csf.nnz_at_level(d) for d in range(1, coo.order - 1))
            result = SplattLikeBaseline().run(kernel, tensors)
            assert result.counter.flops == 2 * rank * (csf.nnz + inner)
            assert_same_result(result.output, reference_output(kernel, tensors))


class TestSparseLNRBehaviour:
    def test_mttkrp_falls_back_to_unfactorized(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        lnr = SparseLNRLikeBaseline()
        lnr.run(kernel, tensors)
        assert lnr.metadata().get("fallback") == "unfactorized"

    def test_ttmc_uses_limited_fusion(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        lnr = SparseLNRLikeBaseline()
        lnr.run(kernel, tensors)
        meta = lnr.metadata()
        assert "max_buffer_dimension" in meta
        # SparseLNR's TTMc intermediate is K x R (dimension 2), larger than
        # the optimum's single dense vector
        ours = SpTTNCyclopsBaseline()
        schedule = ours.schedule_for(kernel)
        assert meta["max_buffer_dimension"] >= schedule.max_buffer_dimension()

    def test_build_loop_nest_is_valid(self, ttmc4_setup):
        from repro.core.loop_nest import validate_loop_order

        kernel, _ = ttmc4_setup
        nest = SparseLNRLikeBaseline().build_loop_nest(kernel)
        validate_loop_order(kernel, nest.path, nest.order)


class TestSpTTNCyclopsAdapter:
    def test_schedule_cached(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        baseline = SpTTNCyclopsBaseline()
        s1 = baseline.schedule_for(kernel)
        s2 = baseline.schedule_for(kernel)
        assert s1 is s2

    def test_metadata_after_run(self, ttmc_setup):
        kernel, tensors = ttmc_setup
        baseline = SpTTNCyclopsBaseline()
        baseline.run(kernel, tensors)
        meta = baseline.metadata()
        assert meta["max_buffer_dimension"] <= 2

    def test_schedules_come_from_the_bounded_structural_cache(
        self, mttkrp_setup, ttmc_setup
    ):
        """Alternating two kernel structures holds two schedules, however
        many runs, and metadata describes the last run's."""
        baseline = SpTTNCyclopsBaseline()
        for _ in range(10):
            for kernel, tensors in (ttmc_setup, mttkrp_setup):
                baseline.run(kernel, tensors)
        assert default_schedule_cache().stats()["entries"] == 2
        last = cached_schedule(mttkrp_setup[0])
        assert baseline.schedule_for(mttkrp_setup[0]) is last
        assert baseline.metadata()["path_rank"] == last.path_rank
        assert baseline.metadata()["max_buffer_dimension"] == last.max_buffer_dimension()

    def test_buffer_bound_reaches_the_schedule(self, allmode_setup):
        kernel, _ = allmode_setup
        wide = SpTTNCyclopsBaseline(buffer_dim_bound=3).schedule_for(kernel)
        assert wide is cached_schedule(kernel, buffer_dim_bound=3)

    def test_counter_reset_between_runs(self, mttkrp_setup):
        kernel, tensors = mttkrp_setup
        baseline = SpTTNCyclopsBaseline()
        first = baseline.run(kernel, tensors).counter.flops
        second = baseline.run(kernel, tensors).counter.flops
        assert first == second


class TestRunCLI:
    RUN = ["run", "--repeats", "1", "--seed", "0"]

    @staticmethod
    def _flops(out):
        """``{system: flops}`` from the table ``repro run`` prints."""
        rows = [line.split() for line in out.splitlines()]
        return {r[0]: int(r[2].replace(",", "")) for r in rows if len(r) == 3}

    def test_buffer_bound_selects_the_executed_nest(self, capsys):
        """``run --buffer-bound 3`` executes the nest ``schedule --buffer-bound
        3`` picks (a dimension-3 buffer), not the bound-2 one (188 416)."""
        rc = cli_main(
            self.RUN
            + ["--spec", "ijk,ir,js,kt->rst", "--shape", "20,16,12", "--buffer-bound", "3"]
        )
        assert rc == 0
        assert self._flops(capsys.readouterr().out) == {"spttn": 161_792}

    def test_compare_prints_every_baseline(self, capsys):
        rc = cli_main(
            self.RUN
            + ["--spec", "ijk,jr,kr->ir", "--shape", "40,30,20"]
            + ["--compare", "taco", "splatt", "sparselnr", "ctf"]
        )
        assert rc == 0
        assert self._flops(capsys.readouterr().out) == {
            "spttn": 4_064,
            "taco": 4_096,
            "splatt": 4_064,
            "sparselnr": 4_096,
            "ctf": 40_448,
        }

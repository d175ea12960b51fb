"""Self-tests of the end-to-end harness.  They never launch a workload."""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def names(section):
    return [entry["name"] for entry in SPEC[section]]


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    for q in (0, 10, 50, 90, 99, 100):
        assert spans.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert spans.median([7.0]) == 7.0
    assert spans.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert metrics.tail([1.0] * 99, 90.0) == 0.0
    assert metrics.tail([0.001] * 100, 90.0) == pytest.approx(1.0)
    assert metrics.tail([0.001] * 999, 99.0) == 0.0


def test_times_are_relative_to_the_yardstick_beside_them():
    # two blocks of two operations; the host runs at half speed in the second
    latencies, walls = [1.0, 3.0, 2.0, 6.0], [4.0, 8.0]
    readings = [0.1, 0.1, 0.3]
    assert metrics.beside(readings) == pytest.approx([0.1, 0.2])
    gated = metrics.end_to_end(latencies, walls, readings, 2, 2.0, 100.0, 50, 1)
    assert gated["latency_p50_rel"] == pytest.approx(20.0)   # of 10, 30, 10, 30
    assert gated["throughput_rel"] == pytest.approx(4 / (40.0 + 40.0))
    assert gated["ok_share"] == pytest.approx(0.98)
    raw = metrics.raw_times(latencies, walls, readings)
    assert raw["latency_p50_ms"] == pytest.approx(2500.0)
    assert raw["throughput_ops_s"] == pytest.approx(4 / 12.0)
    slow = metrics.end_to_end([2 * x for x in latencies], [2 * w for w in walls],
                              [2 * r for r in readings], 2, 2.0, 100.0, 50, 1)
    assert slow["latency_p50_rel"] == pytest.approx(gated["latency_p50_rel"])
    assert slow["throughput_rel"] == pytest.approx(gated["throughput_rel"])


def synthetic_spans():
    rows = [
        # name, start, end, parent, op, value, tid
        ["apps.dense_update", 0.0, 10.0, None, None, 0.0, 1],
        ["kernels.build", 1.0, 3.0, 0, None, 0.0, 1],
        ["engine.execute", 4.0, 8.0, 0, None, 600.0, 1],
        ["sptensor.csf_build", 5.0, 6.0, 2, None, 0.0, 1],
        ["engine.execute", 20.0, 23.0, None, None, 300.0, 1],   # second operation
        ["engine.execute", 50.0, 51.0, None, None, 1.0, 1],     # outside every window
    ]
    return spans.load(rows)


def test_self_time_subtracts_direct_children_only():
    recorded = synthetic_spans()
    own = spans.self_times(recorded)
    assert own[id(recorded[0])] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[id(recorded[2])] == pytest.approx(4.0 - 1.0)
    assert own[id(recorded[3])] == pytest.approx(1.0)


def test_per_op_assigns_by_window_and_drops_the_rest():
    recorded = synthetic_spans()
    windows = [(0.0, 10.5), (19.0, 24.0)]
    totals = spans.per_op(recorded, windows)
    assert totals[0]["engine.execute"] == [pytest.approx(3.0), 1, 600.0]
    assert totals[1] == {"engine.execute": [pytest.approx(3.0), 1, 300.0]}
    assert [s.op for s in recorded] == [0, 0, 0, 0, 1, None]
    layer = spans.layer_medians(totals)
    assert layer["engine.execute"] == (pytest.approx(3000.0), 1.0, 450.0)
    assert layer["kernels.build"][0] == pytest.approx(1000.0)  # median of 2 s and 0
    share, gap_ms = metrics.closure(totals, windows)
    assert share == pytest.approx((10.0 / 10.5 + 3.0 / 5.0) / 2)
    assert gap_ms == pytest.approx((500.0 + 2000.0) / 2)


def test_recorder_wraps_functions_and_classmethods():
    class Layer:
        calls = 0

        @classmethod
        def build(cls, n):
            cls.calls += 1
            return [0] * n

        def outer(self):
            return len(self.build(3))

    recorder = spans.Recorder()
    recorder.wrap(Layer, "build", "inner", size=len)
    recorder.wrap(Layer, "outer", "outer")
    recorder.op = 7
    assert Layer().outer() == 3 and Layer.calls == 1
    outer, inner = recorder.spans
    assert (outer.name, inner.name, inner.parent, inner.value) == ("outer", "inner", outer, 3)
    assert outer.op == inner.op == 7 and outer.start <= inner.start <= inner.end <= outer.end
    rebuilt = spans.load(json.loads(json.dumps(recorder.dump())))
    assert rebuilt[1].parent is rebuilt[0]
    events = spans.chrome_trace(rebuilt)["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"] and events[1]["args"]["parent"] == 0


# --------------------------------------------------------------------------- #
# Names, counts, environment
# --------------------------------------------------------------------------- #
def test_benchmark_json_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(n) for n in every)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # the contract wants set-up to have the largest bound, at most 0.25; the
    # issue allows no other bound past a tenth
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"]) <= 0.25
    assert all(0 < e["bound"] <= 0.10 for e in SPEC["end_to_end"] if e is not setup)
    assert len(SPEC["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_code_emits_exactly_the_named_metrics():
    assert set(run.dry_values(0)) == set(names("end_to_end"))
    assert set(run.dry_values(1)) == set(names("per_layer"))
    assert names("workloads") == list(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS


def test_dry_run_prints_every_name(tmp_path):
    out = tmp_path / "dry.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--dry-run", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    (only,) = document["runs"]
    for workload in names("workloads"):
        assert set(only[workload]["end_to_end"]["metrics"]) == set(names("end_to_end"))
        assert set(only[workload]["per_layer"]["metrics"]) == set(names("per_layer"))
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert re.search(
                rf"^{workload}\s+{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}$",
                done.stdout, re.M,
            )
    stamp = document["stamp"]
    assert {"commit", "nproc", "python", "pinned_env", "scrubbed_env", "seed",
            "op_counts"} <= set(stamp)


def test_driver_mode_ends_with_the_result_object():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--dry-run", "--workload", "hooi",
         "--seed", "3", "--seconds", "15", "--trace", "1"],
        capture_output=True, text=True, timeout=60,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == names("per_layer")
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_child_env_scrubs_repro_variables_and_pins_threads():
    env, scrubbed = run.child_env(
        {"REPRO_ENGINE": "jit", "REPRO_TRACE": "1", "HOME": "/h", "PYTHONPATH": "/p",
         "OMP_NUM_THREADS": "8"}
    )
    assert scrubbed == ["REPRO_ENGINE", "REPRO_TRACE"]
    assert not [name for name in env if name.startswith("REPRO_")]
    assert env["HOME"] == "/h" and env["PYTHONHASHSEED"] == "0"
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["MKL_NUM_THREADS"] == "1"
    src, here, inherited = env["PYTHONPATH"].split(":")
    assert src.endswith("/src") and here == str(HERE) and inherited == "/p"


@pytest.mark.parametrize("seconds", [1, 6.5, workloads.RUN_SECONDS, 30, 60])
def test_fixed_counts_are_whole_stream_passes(seconds):
    for workload in workloads.WORKLOADS.values():
        count, traced = workload.count(seconds), workload.traced_count(seconds)
        assert count >= workload.stream and count % workload.stream == 0
        assert traced >= workload.min_traced and traced % workload.stream == 0
        assert workload.min_traced % workload.stream == 0
        assert count % workload.block == 0
        if seconds == workloads.RUN_SECONDS:
            assert count == workload.ops


# --------------------------------------------------------------------------- #
# compare.py and the oracle
# --------------------------------------------------------------------------- #
def run_set(latency, throughput, failed=0):
    section = {"metrics": {"latency_p50_rel": latency, "throughput_rel": throughput,
                           "setup_s": 2.0, "peak_rss_mb": 100.0, "ok_share": 1.0},
               "failed": failed}
    return {"runs": [{"cp_als": {"end_to_end": section}}] * 3}


def test_compare_is_direction_aware():
    bound = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    slower = 100.0 * (1 + bound["latency_p50_rel"])
    fewer = 10.0 * (1 - bound["throughput_rel"])
    base = run_set(100.0, 10.0)
    sink = io.StringIO()
    assert compare.compare(base, run_set(slower - 1, fewer + 0.1), sink) == []
    assert compare.compare(base, run_set(50.0, 20.0), sink) == []      # better
    assert compare.compare(base, run_set(slower + 1, 10.0), sink) == [
        ("cp_als", "latency_p50_rel")]
    assert compare.compare(base, run_set(100.0, fewer - 0.1), sink) == [
        ("cp_als", "throughput_rel")]
    assert "REGRESSION" in sink.getvalue()
    # one failure among any number of operations is a regression
    assert compare.compare(base, run_set(100.0, 10.0, failed=1), sink) == [
        ("cp_als", "failed")]
    assert compare.compare(run_set(100.0, 10.0, failed=1), base, sink) == []


class Sparse:
    """The three attributes and one method the oracle reads."""

    def __init__(self, shape, indices, values):
        self.shape, self.indices, self.values = shape, indices, values

    def to_dense(self):
        dense = np.zeros(self.shape)
        dense[tuple(self.indices.T)] = self.values
        return dense


@pytest.mark.parametrize(
    "spec", ["ijk,jr,kr->ir", "ijk,ir,kr->jr", "ijk,jr,ks->irs", "ijk,ir,js,kt->rst"]
)
def test_oracle_paths_agree(spec, monkeypatch):
    rng = np.random.default_rng(0)
    shape = (6, 5, 4)
    flat = rng.choice(np.prod(shape), size=40, replace=False)
    tensor = Sparse(shape, np.stack(np.unravel_index(np.sort(flat), shape), axis=1),
                    rng.random(40))
    dims = dict(zip("ijk", shape))
    operands = [tensor] + [
        rng.random((dims[subs[0]], 3)) for subs in spec.split("->")[0].split(",")[1:]
    ]
    dense = oracle.expected(spec, operands)
    monkeypatch.setattr(oracle, "DENSE_LIMIT", 0)
    gathered = oracle.expected(spec, operands)
    assert np.allclose(dense, gathered, rtol=1e-12)
    assert oracle.check(spec, operands, dense)
    assert not oracle.check(spec, operands, dense * (1 + 1e-6))
    narrow = [tensor] + [op.astype(np.float32) for op in operands[1:]]
    assert oracle.rtol_for(narrow) == oracle.RTOL_F32
    assert oracle.same_bits([dense, 1.0], [dense.copy(), 1.0])
    assert not oracle.same_bits(dense, dense.astype(np.float32))

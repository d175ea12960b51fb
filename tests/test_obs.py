"""Observability subsystem: tracer, metrics registry, export, plan timings.

The contracts under test:

* span nesting is correct within a thread, isolated across threads, and
  worker-process spans merge back into the parent with their own identity;
* disabled tracing is effectively free — the per-site cost extrapolated
  over a warm serving workload stays under the 2% acceptance bound;
* the metrics registry round-trips through the daemon's ``stats`` and
  ``metrics`` operations (JSON and Prometheus text) without disturbing the
  pre-existing stats schema;
* the exporter writes valid Chrome-trace JSON that covers every
  instrumented layer of a parallel daemon session;
* per-plan timing rows accumulate on each executed plan, one row per
  engine and phase, shared by the threads executing it.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine.plan_cache import clear_caches, plan_timings_snapshot
from repro.obs import (
    MetricsRegistry,
    Tracer,
    capture_spans,
    default_tracer,
    disable_tracing,
    drain_spans,
    enable_tracing,
    metrics_snapshot,
    prometheus_text,
    reset_metrics,
    span,
    trace_events,
    tracing_enabled,
    write_trace,
)
from repro.runtime import WorkerPool
from repro.serve import (
    ContractionService,
    ServeClient,
    scenario_mix,
    start_daemon_thread,
)
from repro.sptensor import COOTensor


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off and fresh buffers."""
    disable_tracing()
    default_tracer().reset()
    reset_metrics()
    clear_caches()
    yield
    disable_tracing()
    default_tracer().reset()
    reset_metrics()
    clear_caches()


# --------------------------------------------------------------------------- #
# Tracer core
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_span_is_noop_singleton(self):
        assert not tracing_enabled()
        first = span("a", "cat")
        second = span("b", "other")
        assert first is second  # the shared null context manager
        with first:
            pass
        assert drain_spans() == []

    def test_records_name_category_attrs_and_duration(self):
        enable_tracing()
        with span("work", "layer", items=3):
            time.sleep(0.001)
        (recorded,) = drain_spans()
        assert recorded.name == "work"
        assert recorded.category == "layer"
        assert recorded.attrs == {"items": 3}
        assert recorded.duration_s >= 0.001
        assert recorded.parent_id is None

    def test_nesting_links_parent_ids(self):
        enable_tracing()
        with span("outer", "t"):
            with span("inner", "t"):
                pass
            with span("sibling", "t"):
                pass
        by_name = {s.name: s for s in drain_spans()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_nesting_is_isolated_across_threads(self):
        enable_tracing()
        barrier = threading.Barrier(2)

        def worker(label: str) -> None:
            with span(f"outer-{label}", "t"):
                barrier.wait(5.0)  # both outers open simultaneously
                with span(f"inner-{label}", "t"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(label,)) for label in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {s.name: s for s in drain_spans()}
        assert len(by_name) == 4
        for label in ("a", "b"):
            inner, outer = by_name[f"inner-{label}"], by_name[f"outer-{label}"]
            assert inner.parent_id == outer.span_id
            assert inner.tid == outer.tid
        assert by_name["outer-a"].tid != by_name["outer-b"].tid

    def test_capture_spans_redirects_and_forces(self):
        assert not tracing_enabled()
        with capture_spans(force=True) as captured:
            with span("forced", "t"):
                pass
        assert not tracing_enabled()  # force is scoped to the context
        assert [s.name for s in captured] == ["forced"]
        assert drain_spans() == []  # nothing leaked into the buffer

    def test_buffer_is_bounded(self):
        tracer = Tracer(enabled=True, max_spans=4)
        for i in range(8):
            with tracer.span("s", "t"):
                pass
        assert len(tracer.drain()) == 4
        assert tracer.dropped == 4


class TestPoolSpanMerge:
    def test_worker_spans_ship_back_with_results(self):
        enable_tracing()
        with WorkerPool(workers=2) as pool:
            results = pool.map(_square, list(range(6)))
        assert results == [n * n for n in range(6)]
        spans = drain_spans()
        names = {(s.category, s.name) for s in spans}
        assert ("pool", "map") in names
        assert ("pool", "task") in names
        tasks = [s for s in spans if s.name == "task"]
        assert len(tasks) == 6
        # worker identity survives the merge: tasks ran in forked processes
        # (or, on the serial fallback, in this one — either way pid is set)
        assert all(s.pid > 0 for s in tasks)

    def test_serial_map_records_no_pool_wrapper_overhead_when_disabled(self):
        assert not tracing_enabled()
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert drain_spans() == []


def _square(n: int) -> int:
    return n * n


# --------------------------------------------------------------------------- #
# Overhead guard
# --------------------------------------------------------------------------- #
def test_disabled_tracing_overhead_under_two_percent():
    """Extrapolated cost of disabled instrumentation sites stays <2%.

    Measures the per-call cost of a disabled :func:`span` site, counts how
    many sites one warm serving workload actually crosses (by running it
    once with tracing on), and asserts per-call cost x site count is under
    2% of the workload's warm serving time.  This bounds the disabled
    overhead without the noise of differencing two end-to-end timings.
    """
    assert not tracing_enabled()
    requests = scenario_mix(8, seed=5)
    service = ContractionService(workers=0)
    service.run(requests)  # warm every cache

    start = time.perf_counter()
    service.run(requests)
    warm_s = time.perf_counter() - start

    enable_tracing()
    service.run(requests)
    span_count = len(drain_spans())
    disable_tracing()
    assert span_count > 0

    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("probe", "overhead"):
            pass
    per_call_s = (time.perf_counter() - start) / calls

    assert per_call_s * span_count < 0.02 * warm_s, (
        f"disabled tracing would cost {per_call_s * span_count * 1e6:.1f}us "
        f"across {span_count} sites vs warm workload {warm_s * 1e3:.1f}ms"
    )


def test_tracing_on_serves_the_same_bytes():
    """Tracing observes what the service computes and never changes it."""
    requests = scenario_mix(8, mix="mixed", seed=5)
    enable_tracing()
    try:
        traced = ContractionService(workers=0).run(requests)
        spans = drain_spans()
    finally:
        disable_tracing()
    clear_caches()  # both passes cold: same searches, plans and compiles
    untraced = ContractionService(workers=0).run(requests)
    assert len(spans) > 0
    for got, want in zip(traced, untraced):
        if isinstance(want, COOTensor):
            np.testing.assert_array_equal(got.indices, want.indices)
            got, want = got.values, want.values
        np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        hist = registry.histogram("latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "histograms", "sources"}
        assert snap["counters"]["hits"] == 3
        latency = snap["histograms"]["latency"]
        assert latency["count"] == 3
        assert latency["sum"] == pytest.approx(5.55)
        assert latency["buckets"] == [[0.1, 1], [1.0, 2]]

    def test_sources_are_lazily_snapshotted(self):
        registry = MetricsRegistry()
        registry.register_source("layer", lambda: {"value": 42})
        snap = registry.snapshot()
        assert snap["sources"]["layer"] == {"value": 42}
        assert "sources" not in registry.snapshot(include_sources=False)

    def test_broken_source_is_isolated(self):
        registry = MetricsRegistry()

        def boom():
            raise RuntimeError("kaput")

        registry.register_source("bad", boom)
        registry.register_source("good", lambda: 1)
        snap = registry.snapshot()
        assert snap["sources"]["good"] == 1
        assert "kaput" in snap["sources"]["bad"]["error"]

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("serve.served").inc(5)
        registry.histogram("serve.flush", buckets=(0.5,)).observe(0.1)
        text = prometheus_text(registry=registry, prefix="repro")
        assert "# TYPE repro_serve_served_total counter" in text
        assert "repro_serve_served_total 5" in text
        assert 'repro_serve_flush_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_serve_flush_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_flush_seconds_count 1" in text

    def test_service_populates_default_registry(self):
        service = ContractionService(workers=0)
        service.run(scenario_mix(4, seed=2))
        snap = metrics_snapshot()
        assert snap["counters"]["serve.served"] == 4
        assert snap["counters"]["serve.flushes"] == 1
        for stage in ("queue_wait", "schedule", "build", "execute", "reduce"):
            assert snap["histograms"][f"serve.stage.{stage}"]["count"] == 4
        # producer-registered sources embed the cache and pool views
        assert set(snap["sources"]) >= {"caches", "plan_timings", "pool"}


# --------------------------------------------------------------------------- #
# Plan timings
# --------------------------------------------------------------------------- #
def test_plan_timings_record_per_signature(ttmc_setup):
    from repro.core.scheduler import SpTTNScheduler
    from repro.engine.executor import LoopNestExecutor

    kernel, tensors = ttmc_setup
    nest = SpTTNScheduler(kernel).schedule().loop_nest
    executor = LoopNestExecutor(kernel, nest)
    for _ in range(3):
        executor.execute(tensors)
    rows = plan_timings_snapshot()
    # one plan signature, two phases: cold-call preparation (CSF
    # conversion, plan build, JIT) and steady-state execution
    assert len(rows) == 2
    assert {row["phase"] for row in rows} == {"prepare", "execute"}
    assert len({row["digest"] for row in rows}) == 1
    for row in rows:
        assert row["count"] == 3
        assert row["total_s"] > 0
        assert row["mean_s"] == pytest.approx(row["total_s"] / 3)
        # cumulative [le, count] buckets: non-decreasing, and every
        # observation (all far below 10 s) lands in a finite bucket
        counts = [count for _, count in row["buckets"]]
        assert counts == sorted(counts) and counts[-1] == 3
        assert "ijk,jr,ks->irs [" in row["plan"]
        assert len(row["digest"]) == 16  # truncated sha256, 8 bytes hex


def test_plan_timings_threads_share_one_row_per_phase(mttkrp_setup):
    from repro.engine.executor import LoopNestExecutor
    from repro.engine.plan_cache import cached_schedule

    kernel, tensors = mttkrp_setup
    nest = cached_schedule(kernel).loop_nest
    executor = LoopNestExecutor(kernel, nest)
    executor.execute(tensors)
    plan = executor._plan
    plan.timings.clear()  # the threads race on each row's first observation
    calls = 20
    barrier = threading.Barrier(2)
    errors = []

    def run() -> None:
        # a compiled plan is run by one thread at a time (its pooled
        # buffers are shared), so the threads record what runs would
        try:
            barrier.wait(timeout=30)
            for _ in range(calls):
                plan.record_timing("jit", "prepare", 1e-4)
                plan.record_timing("jit", "execute", 1e-3)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    rows = plan_timings_snapshot()
    # both threads recorded into the one shared plan's histograms
    assert sorted(row["phase"] for row in rows) == ["execute", "prepare"]
    assert {row["engine"] for row in rows} == {"jit"}
    assert all(row["count"] == 2 * calls for row in rows)


# --------------------------------------------------------------------------- #
# Chrome-trace export
# --------------------------------------------------------------------------- #
class TestExport:
    def test_written_file_is_valid_chrome_trace(self, tmp_path):
        enable_tracing()
        with span("outer", "t", detail="x"):
            with span("inner", "t"):
                pass
        path = write_trace(tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2 and len(meta) == 1
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] > 0
        outer = next(e for e in complete if e["name"] == "outer")
        inner = next(e for e in complete if e["name"] == "inner")
        assert outer["args"] == {"detail": "x"}
        # the outer interval contains the inner one on the timeline
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_non_json_attrs_are_stringified(self):
        enable_tracing()
        with span("s", "t", obj=object()):
            pass
        (event,) = [e for e in trace_events(drain_spans()) if e["ph"] == "X"]
        assert isinstance(event["args"]["obj"], str)


# --------------------------------------------------------------------------- #
# Daemon integration
# --------------------------------------------------------------------------- #
class TestDaemonObservability:
    def test_stats_carries_metrics_and_plan_timings(self):
        requests = scenario_mix(4, mix="mttkrp", seed=1)
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                client.run(requests)
                stats = client.stats()
        # the pre-existing schema is untouched; the new keys are top-level
        assert set(stats["caches"]) == {"plan", "schedule", "executor", "jit", "csf"}
        assert stats["metrics"]["counters"]["serve.served"] == 4
        assert "sources" not in stats["metrics"]  # already top-level keys
        assert len(stats["plan_timings"]) >= 1
        assert stats["plan_timings"][0]["count"] >= 1

    def test_metrics_op_json_and_prometheus(self):
        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                client.run(scenario_mix(2, mix="mttkrp", seed=2))
                snap = client.metrics()
                text = client.metrics(format="prometheus")
        assert snap["counters"]["serve.served"] == 2
        assert set(snap["sources"]) >= {"caches", "plan_timings", "pool"}
        assert isinstance(text, str)
        assert "repro_serve_served_total 2" in text

    def test_replies_carry_stage_timings(self):
        from repro.serve.service import STAGES

        with start_daemon_thread(workers=0) as handle:
            with ServeClient(*handle.address, timeout=30) as client:
                pending = client.submit_many(scenario_mix(3, mix="ttmc", seed=3))
                for reply in pending:
                    reply.result()
                    assert reply.timings is not None
                    assert set(reply.timings) == set(STAGES)
                    assert all(v >= 0.0 for v in reply.timings.values())
                histograms = client.metrics()["histograms"]
        # both ends of the wire are stages: the daemon times what it decodes
        # as well as what it encodes
        for stage in ("wire_decode", "wire_encode"):
            assert stage in STAGES
            assert histograms[f"serve.stage.{stage}"]["count"] == 3

    def test_trace_dir_session_covers_all_layers(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        self._check_trace_session(tmp_path, tier_category="jit")

    def test_trace_dir_session_on_the_pinned_lowered_tier(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENGINE", "lowered")
        self._check_trace_session(tmp_path, tier_category="lowered")

    def _check_trace_session(self, tmp_path, tier_category):
        # one kernel family -> repeated plan signatures -> the parallel
        # dispatch path engages and pool workers record task spans
        requests = scenario_mix(8, mix="mttkrp", seed=3)
        with start_daemon_thread(workers=2, trace_dir=tmp_path) as handle:
            with ServeClient(*handle.address, timeout=60) as client:
                daemon_outputs = client.run(requests)
                client.shutdown_server()
        port = handle.address[1]
        path = tmp_path / f"trace-daemon-{port}.json"
        assert path.exists()  # written before the daemon thread joined
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        categories = {e["cat"] for e in events}
        # the acceptance criterion: spans from scheduler, plan cache, the
        # execution tier that ran (the jit default, or the pinned one),
        # pool workers and the daemon itself, in one loadable trace
        assert {
            "scheduler", "cache", tier_category, "pool", "daemon", "serve"
        } <= categories
        own_pid = {e["pid"] for e in events if e["cat"] == "daemon"}
        task_pids = {
            e["pid"] for e in events if e["cat"] == "pool" and e["name"] == "task"
        }
        assert task_pids - own_pid, "pool task spans must come from workers"
        assert len(daemon_outputs) == len(requests)
        # a fresh daemon session starts a fresh trace: tracing was enabled
        # by the constructor, then the shutdown path drained the buffer
        assert drain_spans() == []

"""Turns raw measurements into the metrics ``BENCHMARK.json`` names.

Pure Python: ``run.py --dry-run`` and the self-tests call these functions on
empty measurements to learn the names the real runs emit.
"""

from __future__ import annotations

from spans import SPAN_NAMES, layer_medians, median, percentile

STAGES = ("queue_wait", "schedule", "build", "execute", "reduce", "wire_encode")
TIERS = ("lowered", "jit")


def beside(readings):
    """Per block: the mean of the yardstick readings just before and after it."""
    return [(a + b) / 2.0 for a, b in zip(readings, readings[1:])]


def latency_p50_rel(latencies, readings, block):
    """Median over operations of latency / yardstick time beside its block."""
    pace = beside(readings)
    return median([latency / pace[i // block] for i, latency in enumerate(latencies)])


def end_to_end(latencies, walls, readings, block, setup_s, rss_mb, attempted, failed):
    """The five gated metrics of one timed section.

    *latencies* are per operation, *walls* per block of *block* operations and
    *readings* the yardstick times around the blocks, all in seconds.
    """
    pace = beside(readings)
    return {
        "latency_p50_rel": latency_p50_rel(latencies, readings, block),
        "throughput_rel": len(latencies) / sum(w / y for w, y in zip(walls, pace)),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        # 1 - failed share: the contract wants a healthy value that is not 0
        "ok_share": 1.0 - failed / attempted,
    }


def raw_times(latencies, walls, readings):
    """The same timed section in plain units: for the reader, never gated."""
    return {
        "latency_p50_ms": median(latencies) * 1e3,
        "throughput_ops_s": len(latencies) / sum(walls),
        "yardstick_ms": median(readings) * 1e3,
    }


def tail(latencies, q):
    """The q-th percentile in ms, or 0 with fewer than ten samples beyond it."""
    if len(latencies) * (100.0 - q) / 100.0 < 10.0:
        return 0.0
    return percentile(latencies, q) * 1e3


def closure(totals, windows):
    """Median over operations of (attributed share of wall, unattributed ms)."""
    if not windows:
        return 0.0, 0.0
    shares, gaps = [], []
    for op, (start, end) in zip(totals, windows):
        named = sum(row[0] for row in op.values())
        shares.append(named / (end - start))
        gaps.append((end - start - named) * 1e3)
    return median(shares), median(gaps)


def per_layer(
    totals=(),
    windows=(),
    reference=(),
    reference_wall=0.0,
    yardstick=(),
    span_overhead=0.0,
    trace_overhead=0.0,
    stages=(),
    cache_misses=(0, 0),
    tiers=None,
    serve=None,
    runtime=None,
):
    """Every per-layer metric by name; what a workload does not exercise reads 0.

    *totals*/*windows* come from ``spans.per_op`` on the traced pass,
    *reference* are the latencies (s) of the untraced pass over the same
    operations, *reference_wall* its wall time and *yardstick* the readings (s)
    taken around its blocks; *span_overhead*/*trace_overhead* compare the
    ``latency_p50_rel`` of the traced and the ``REPRO_TRACE=1`` pass with its;
    *stages* are the ``timings`` objects of the traced daemon's replies.
    """
    spans = layer_medians(list(totals))
    out = {}
    for name in SPAN_NAMES:
        out[name + "_ms"] = spans[name][0]
    for name in ("sptensor.csf_build", "kernels.build", "core.search",
                 "engine.execute", "runtime.pool_map"):
        out[name + "_calls"] = spans[name][1]
    execute_ms, _, scalar_ops = spans["engine.execute"]
    out["engine.scalar_ops"] = scalar_ops
    out["engine.mflops"] = scalar_ops / (execute_ms * 1e3) if execute_ms else 0.0
    out["serve.wire_request_bytes"] = spans["serve.wire_encode_request"][2]
    out["serve.wire_reply_bytes"] = spans["serve.wire_encode_reply"][2]
    out["runtime.shm_bytes"] = spans["runtime.shm_publish"][2]

    for tier in TIERS:
        out[f"engine.tier.{tier}_ms"] = (tiers or {}).get(tier, 0.0)
    out["engine.cache.schedule_misses"], out["engine.cache.plan_misses"] = cache_misses

    for stage in STAGES:
        values = [t[stage] for t in stages if t and stage in t]
        out[f"serve.stage.{stage}_ms"] = median(values) * 1e3 if values else 0.0
    attributed, gap_ms = closure(totals, windows)
    serve = serve or {}
    out["serve.daemon_residual_ms"] = gap_ms if serve else 0.0
    for name in ("inprocess_ms", "wire_overhead_x", "batch_size_mean",
                 "amortized_share", "rejected", "failed", "expired"):
        out["serve." + name] = serve.get(name, 0.0)

    # the pool replay has its own operations; where it ran, its numbers replace
    # the zeros the daemon path (--workers 0) records under the same span names
    for name in ("pool_spawn_ms", "pool_tasks", "pool_serial_maps", "pool_retries"):
        out["runtime." + name] = 0.0
    out.update({"runtime." + name: value for name, value in (runtime or {}).items()})

    out["client.latency_p50_ms"] = median(reference) * 1e3 if reference else 0.0
    out["client.throughput_ops_s"] = len(reference) / reference_wall if reference else 0.0
    out["client.latency_p90_ms"] = tail(reference, 90.0)
    out["client.latency_p99_ms"] = tail(reference, 99.0)
    out["client.samples"] = len(reference)
    out["obs.trace_overhead_share"] = trace_overhead
    out["bench.yardstick_ms"] = median(yardstick) * 1e3 if yardstick else 0.0
    out["bench.span_overhead_share"] = span_overhead
    out["bench.attributed_share"] = attributed
    return out

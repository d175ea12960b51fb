"""Observability: span tracing, metrics and Chrome-trace export.

The obs subsystem is the introspection layer the serving north star
demands: :mod:`repro.obs.trace` records nested wall-clock spans across
every layer (scheduler sweeps, plan-cache builds, compiled-tier runs, worker
pool tasks, shm broadcasts, the serving path) at near-zero cost when
disabled; :mod:`repro.obs.metrics` keeps process-wide counters and latency
histograms behind one snapshot API; :mod:`repro.obs.export` turns
drained spans into Perfetto-loadable Chrome-trace JSON.

This package imports only the standard library and :mod:`repro.util` —
every other layer imports *it*, registering its stats snapshot as a lazy
metrics source, so there are no import cycles.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".export": ("trace_events", "write_trace"),
    ".metrics": (
        "DEFAULT_LATENCY_BUCKETS", "Counter", "Histogram", "MetricsRegistry", "inc_counter",
        "metrics_snapshot", "observe", "prometheus_text", "register_source", "reset_metrics",
    ),
    ".trace": (
        "Span", "Tracer", "add_spans", "capture_spans", "default_tracer", "disable_tracing",
        "drain_spans", "enable_tracing", "span", "tracing_enabled",
    ),
})

"""Shared utilities: validation, timers, operation counters, fault injection."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".validation": (
        "check_axis", "check_dtype_real", "check_positive_int", "check_shape", "require",
    ),
    ".timing": ("Timer", "timed"),
    ".counters": ("OpCounter",),
    ".faults": (
        "FAULTS_ENV", "FaultInjected", "configure_faults", "fault_point", "faults_active",
        "faults_snapshot", "reset_faults",
    ),
})

"""Shared utilities: validation, timing, operation counters, the LRU, settings, fault injection."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".validation": (
        "check_positive_int", "check_shape", "require",
    ),
    ".timing": ("timed",),
    ".counters": ("OpCounter",),
    ".lru": ("LRUCache",),
    ".config": ("SETTINGS", "resolved", "setting"),
    ".faults": (
        "FaultInjected", "configure_faults", "fault_point", "faults_active", "faults_snapshot",
        "reset_faults",
    ),
})

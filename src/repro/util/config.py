"""The ``REPRO_*`` environment variables: one table, one reader.

:data:`SETTINGS` maps each variable to ``(parse, default)``.
:func:`setting` reads :data:`os.environ` at call time and strips the value.
Unset or blank gives the default.  A value its parse rejects warns
(``RuntimeWarning`` naming the variable and the value) and gives the
default, so a deployment typo is never silent.  ``REPRO_ENGINE`` and
``REPRO_FAULTS`` parse to strings: their consumers validate them and
raise, because a typo there would change what runs.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, Dict, Tuple


def _positive(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """*parse*, with a value ≤ 0 meaning ``None`` (off)."""
    def parse_positive(raw: str) -> Any:
        value = parse(raw)
        return value if value > 0 else None
    return parse_positive


#: ``name → (parse, default)`` of every environment variable the package reads.
SETTINGS: Dict[str, Tuple[Callable[[str], Any], Any]] = {
    "REPRO_ENGINE": (str.lower, "jit"),
    "REPRO_PLAN_STORE": (str, None),
    "REPRO_WORKERS": (int, None),
    "REPRO_TASK_TIMEOUT": (_positive(float), None),
    "REPRO_TASK_RETRIES": (lambda raw: max(0, int(raw)), 1),
    "REPRO_QUARANTINE_TTL": (lambda raw: max(0.0, float(raw)), 30.0),
    "REPRO_IDLE_TIMEOUT": (_positive(float), None),
    "REPRO_FAULTS": (str, None),
    "REPRO_FAULTS_SEED": (int, 0),
    "REPRO_TRACE": (lambda raw: raw != "0", False),
    "REPRO_TRACE_DIR": (str, None),
}


def setting(name: str) -> Any:
    """The value of environment variable *name*, parsed by its :data:`SETTINGS` row."""
    parse, default = SETTINGS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {name}={raw!r}; using the default {default!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def resolved() -> Dict[str, Any]:
    """Every setting's current value, by name (the daemon's ``stats["config"]``)."""
    return {name: setting(name) for name in SETTINGS}


__all__ = ["SETTINGS", "resolved", "setting"]

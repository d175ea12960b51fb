"""Deterministic fault injection for chaos testing the serving stack.

Production failure modes — a pool worker SIGKILLed by the OOM killer, a
native kernel segfaulting mid-batch, a plan-store write hitting a full
disk, an execution stalling long enough to blow a request deadline —
are rare and nondeterministic in the wild.  This module makes them
*injectable and reproducible*: well-known call sites in the runtime and
serving layers call :func:`fault_point` with a stable name, and a fault
plan configured via ``REPRO_FAULTS`` (or :func:`configure_faults`)
decides, with a seeded per-point RNG, whether that hit kills the
process, raises, or sleeps.

Fault plan grammar (comma-separated specs)::

    point:mode[:arg[:limit]]

    pool.task:kill:1.0:1        # first pool task hit SIGKILLs its worker
    serve.execute:delay:0.2     # every service execute sleeps 200 ms
    store.write:raise:0.5       # half of plan-store writes raise
    shm.publish:raise           # every shm publish raises

Modes:

* ``kill`` — ``SIGKILL`` the *current process*, but only when it is a
  child process (``multiprocessing.parent_process()`` is set).  In the
  parent the kill downgrades to a no-op, so supervised serial fallbacks
  and the daemon itself survive a kill plan by construction.  *arg* is
  the firing probability (default 1).
* ``raise`` — raise :class:`FaultInjected`.  *arg* is the probability.
* ``delay`` — ``time.sleep(arg)`` seconds (default 0.05), always fires.

``limit`` caps how many times the point fires in one process; pool
workers forked after configuration inherit the plan with fresh counters,
so ``pool.task:kill:1.0:1`` kills exactly one task per worker process.
Decisions come from a per-point ``random.Random`` seeded from
``REPRO_FAULTS_SEED`` and the point name — the same plan, seed and call
sequence always injects the same faults.

The registry is import-cheap and hot-path-cheap: with no plan configured
:func:`fault_point` is one module-global check.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, Optional

#: Environment variable holding the fault plan (empty/unset → no faults).
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable seeding the per-point decision RNGs.
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Injection modes understood by the spec grammar.
MODES = ("kill", "raise", "delay")

#: Call sites instrumented across the stack (documentation aid; specs may
#: name any point, unknown names simply never fire).
KNOWN_POINTS = ("pool.task", "shm.publish", "store.write", "serve.execute")


class FaultInjected(RuntimeError):
    """Raised by ``raise``-mode fault points; never raised organically."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``point:mode[:arg[:limit]]`` clause of a fault plan."""

    point: str
    mode: str
    arg: float
    limit: Optional[int]


class _PointState:
    """Mutable per-process firing state for one configured point."""

    __slots__ = ("spec", "rng", "hits", "fired")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"{seed}:{spec.point}:{spec.mode}")
        self.hits = 0
        self.fired = 0


def parse_faults(text: Optional[str]) -> Dict[str, FaultSpec]:
    """Parse a fault plan string into specs keyed by point name.

    Raises ``ValueError`` on malformed clauses so misconfigured chaos
    runs fail loudly instead of silently injecting nothing.
    """
    specs: Dict[str, FaultSpec] = {}
    if not text or not text.strip():
        return specs
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or len(parts) > 4:
            raise ValueError(f"bad fault spec {clause!r} (want point:mode[:arg[:limit]])")
        point, mode = parts[0].strip(), parts[1].strip()
        if not point:
            raise ValueError(f"bad fault spec {clause!r} (empty point name)")
        if mode not in MODES:
            raise ValueError(f"bad fault spec {clause!r} (mode must be one of {MODES})")
        arg = 0.05 if mode == "delay" else 1.0
        if len(parts) >= 3 and parts[2].strip():
            try:
                arg = float(parts[2])
            except ValueError:
                raise ValueError(f"bad fault spec {clause!r} (arg must be a number)") from None
            if arg < 0:
                raise ValueError(f"bad fault spec {clause!r} (arg must be >= 0)")
        limit = None
        if len(parts) == 4 and parts[3].strip():
            try:
                limit = int(parts[3])
            except ValueError:
                raise ValueError(f"bad fault spec {clause!r} (limit must be an int)") from None
            if limit < 0:
                raise ValueError(f"bad fault spec {clause!r} (limit must be >= 0)")
        specs[point] = FaultSpec(point=point, mode=mode, arg=arg, limit=limit)
    return specs


# Lazily loaded state: None means "not yet loaded from the environment".
_STATE: Optional[Dict[str, _PointState]] = None
_CONFIGURED: Optional[str] = None
_SEED: int = 0


def _default_seed() -> int:
    raw = os.environ.get(FAULTS_SEED_ENV)
    if raw is None or not raw.strip():
        return 0
    try:
        return int(raw)
    except ValueError:
        return 0


def _load() -> Dict[str, _PointState]:
    global _STATE, _CONFIGURED, _SEED
    if _STATE is None:
        _CONFIGURED = os.environ.get(FAULTS_ENV) or None
        _SEED = _default_seed()
        specs = parse_faults(_CONFIGURED)
        _STATE = {name: _PointState(spec, _SEED) for name, spec in specs.items()}
    return _STATE


def configure_faults(plan: Optional[str], seed: int = 0) -> None:
    """Install a fault plan programmatically (overrides the environment).

    ``None``/empty disables every point.  Pool workers forked *after* the
    call inherit the plan; already-running workers keep their old state,
    so chaos tests shut the shared pools down before configuring.
    """
    global _STATE, _CONFIGURED, _SEED
    _CONFIGURED = plan or None
    _SEED = seed
    specs = parse_faults(plan)
    _STATE = {name: _PointState(spec, seed) for name, spec in specs.items()}


def reset_faults() -> None:
    """Drop any installed plan; the next hit reloads from the environment."""
    global _STATE, _CONFIGURED
    _STATE = None
    _CONFIGURED = None


def faults_active() -> bool:
    """Whether any fault point is configured in this process."""
    return bool(_load())


def fault_active(name: str) -> bool:
    """Whether the named point is configured (cheap wrap-or-not check)."""
    return name in _load()


def fault_point(name: str) -> None:
    """Fire the named injection point if the active plan targets it.

    No-op (one dict lookup) when no plan is configured or the plan does
    not name this point.
    """
    state = _load()
    if not state:
        return
    point = state.get(name)
    if point is None:
        return
    point.hits += 1
    spec = point.spec
    if spec.limit is not None and point.fired >= spec.limit:
        return
    if spec.mode != "delay" and spec.arg < 1.0 and point.rng.random() >= spec.arg:
        return
    point.fired += 1
    if spec.mode == "delay":
        time.sleep(spec.arg)
        return
    if spec.mode == "raise":
        raise FaultInjected(f"injected fault at {name!r}")
    # kill: only child processes die — the parent (daemon, serial
    # fallback, test process) treats a kill plan as survivable noise.
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)


def faults_snapshot() -> dict:
    """Plan + per-point hit/fire counters (metrics source, daemon stats)."""
    state = _load()
    return {
        "configured": _CONFIGURED,
        "seed": _SEED,
        "points": {
            name: {
                "mode": point.spec.mode,
                "arg": point.spec.arg,
                "limit": point.spec.limit,
                "hits": point.hits,
                "fired": point.fired,
            }
            for name, point in state.items()
        },
    }

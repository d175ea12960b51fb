"""Disk-backed schedule store: plan-cache persistence across processes.

The in-memory caches of :mod:`repro.engine.plan_cache` amortize schedule
search *within* one process; this module extends the amortization across
process boundaries (ROADMAP item 4).  A :class:`PlanStore` is a directory
of JSON documents, one per schedule, keyed by the canonical serialization
(:mod:`repro.engine.keys`) of the same ``schedule_key`` the in-memory LRU
uses — so a restarted daemon, a fresh CLI invocation or a second CI run
against the same store directory skips schedule search entirely and
reloads the previously selected loop nests.

Design points:

* **What is stored.**  Search *results* (contraction-path terms, per-term
  loop orders, cost metadata), never compiled plans: compiled plans embed
  specialized NumPy closures that cannot be serialized, and rebuilding a
  plan from a known loop nest is the cheap part.  The loop nest is
  reconstructed against the *caller's* kernel object, which by key
  equality has the same structure.
* **Versioning and tolerance.**  Every document records
  :data:`STORE_VERSION` and its own canonical key.  A version mismatch, a
  truncated or corrupt file, or a digest collision (stored key differs
  from the requested one) is treated as a miss — the caller falls back to
  a fresh search and overwrites the entry — never as an error that
  propagates.
* **Atomic writes.**  Entries are written to a unique temporary file in
  the store directory and ``os.replace``-d into place, so concurrent
  writers (several processes warming one store) can only ever race
  complete documents; readers never observe a half-written file.
* **Calibration rides along.**  The measured cost-model coefficients of
  :mod:`repro.core.calibrate` persist as ``calibration.json`` next to the
  schedule entries, so a warm start restores both the schedules and the
  cost model that selected them.

The process default store is configured with the ``REPRO_PLAN_STORE``
environment variable (a directory path, created on first write); unset
means no persistence, the pre-store behaviour.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.contraction_path import ContractionPath, ContractionTerm
from repro.core.cost_model import set_active_coefficients
from repro.core.loop_nest import LoopNest, LoopOrder, validate_loop_order
from repro.core.scheduler import Schedule
from repro.core.expr import SpTTNKernel
from repro.engine.keys import _jsonable, canonical_key, key_digest
from repro.obs.metrics import register_source
from repro.obs.trace import span as _span
from repro.util.config import setting
from repro.util.faults import FaultInjected, fault_point

#: On-disk format version; bumped whenever the schedule payload or the key
#: schema changes.  Mismatching entries are ignored (treated as misses),
#: so an old store directory degrades to a cold start, never to an error.
STORE_VERSION = 1

#: Filename of the persisted calibration coefficients inside a store.
CALIBRATION_FILENAME = "calibration.json"


# --------------------------------------------------------------------------- #
# Schedule (de)serialization
# --------------------------------------------------------------------------- #
def schedule_payload(schedule: Schedule) -> Dict[str, object]:
    """JSON-safe document of one schedule's search result (kernel-free)."""
    nest = schedule.loop_nest
    return {
        "terms": [
            [t.lhs, t.rhs, t.out, list(t.lhs_indices),
             list(t.rhs_indices), list(t.out_indices)]
            for t in nest.path
        ],
        "order": [list(order) for order in nest.order],
        "cost_value": float(schedule.cost_value),
        "flop_estimate": float(schedule.flop_estimate),
        "path_rank": int(schedule.path_rank),
        "candidates_considered": int(schedule.candidates_considered),
        "search_stats": _jsonable(dict(schedule.search_stats)),
    }


def schedule_from_payload(
    kernel: SpTTNKernel, payload: Dict[str, object]
) -> Schedule:
    """Rebuild a :class:`Schedule` against the caller's kernel object.

    Raises on malformed payloads (wrong arity, mismatched term counts);
    :meth:`PlanStore.get` has already validated the envelope, and
    :func:`~repro.engine.plan_cache.cached_schedule` treats any raise
    here as a store miss.
    """
    terms = tuple(
        ContractionTerm(
            lhs=str(lhs), rhs=str(rhs), out=str(out),
            lhs_indices=tuple(li), rhs_indices=tuple(ri),
            out_indices=tuple(oi),
        )
        for lhs, rhs, out, li, ri, oi in payload["terms"]
    )
    nest = LoopNest(
        ContractionPath(terms),
        LoopOrder(tuple(tuple(o) for o in payload["order"])),
    )
    # raises for a payload that does not fit this kernel (foreign entry
    # behind a digest collision, hand-edited store): the caller treats it
    # as a miss and re-searches
    validate_loop_order(kernel, nest.path, nest.order)
    return Schedule(
        kernel=kernel,
        loop_nest=nest,
        cost_value=float(payload["cost_value"]),
        flop_estimate=float(payload["flop_estimate"]),
        path_rank=int(payload["path_rank"]),
        candidates_considered=int(payload["candidates_considered"]),
        search_stats=dict(payload.get("search_stats") or {}),
    )


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #
class PlanStore:
    """A directory of versioned schedule documents with atomic writes.

    Thread-safe for counters; file operations rely on ``os.replace``
    atomicity for cross-process safety.  All failure modes of :meth:`get`
    (missing file, corrupt JSON, version mismatch, foreign key) count as
    misses so callers always have the fresh-search fallback.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    # -- paths ---------------------------------------------------------- #
    def _entry_path(self, key: object) -> Path:
        return self.root / f"{key_digest(key, digest_size=16)}.json"

    def _write_atomic(self, path: Path, document: Dict[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}.", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, separators=(",", ":"))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- schedule entries ------------------------------------------------ #
    def get(self, key: object) -> Optional[Dict[str, object]]:
        """The stored payload for *key*, or ``None`` (counted as a miss)."""
        path = self._entry_path(key)
        with _span("store_get", "store", digest=path.stem):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                with self._lock:
                    self.misses += 1
                return None
            except (OSError, ValueError):
                # truncated/corrupt file: fall back to a fresh search
                with self._lock:
                    self.misses += 1
                    self.errors += 1
                return None
            if (
                not isinstance(doc, dict)
                or doc.get("version") != STORE_VERSION
                or doc.get("key") != canonical_key(key)
                or not isinstance(doc.get("payload"), dict)
            ):
                with self._lock:
                    self.misses += 1
                    self.errors += 1
                return None
            with self._lock:
                self.hits += 1
            return doc["payload"]

    def put(self, key: object, payload: Dict[str, object]) -> bool:
        """Persist *payload* under *key* atomically; False on IO failure."""
        document = {
            "version": STORE_VERSION,
            "key": canonical_key(key),
            "payload": _jsonable(payload),
        }
        path = self._entry_path(key)
        with _span("store_put", "store", digest=path.stem):
            try:
                fault_point("store.write")
                self._write_atomic(path, document)
            except (OSError, FaultInjected):
                # Injected write faults take the same degrade-to-miss path
                # as a full disk: counted, non-fatal, serving continues.
                with self._lock:
                    self.errors += 1
                return False
        with self._lock:
            self.writes += 1
        return True

    def note_invalid(self) -> None:
        """Reclassify the last hit as a miss (payload failed reconstruction).

        :func:`~repro.engine.plan_cache.cached_schedule` calls this when a
        structurally valid envelope holds a payload that does not rebuild
        against the requesting kernel, so ``misses`` stays an exact count
        of "searches this store did not save".
        """
        with self._lock:
            self.hits -= 1
            self.misses += 1
            self.errors += 1

    # -- calibration ----------------------------------------------------- #
    def load_calibration(self) -> Optional[Dict[str, float]]:
        """The persisted cost coefficients, or ``None`` when absent/corrupt."""
        path = self.root / CALIBRATION_FILENAME
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("version") != STORE_VERSION
            or not isinstance(doc.get("coefficients"), dict)
        ):
            return None
        try:
            return {
                str(name): float(value)
                for name, value in doc["coefficients"].items()
            }
        except (TypeError, ValueError):
            return None

    def save_calibration(self, coefficients: Dict[str, float]) -> bool:
        """Persist cost coefficients next to the schedule entries."""
        document = {
            "version": STORE_VERSION,
            "coefficients": {
                str(name): float(value)
                for name, value in coefficients.items()
            },
        }
        try:
            self._write_atomic(self.root / CALIBRATION_FILENAME, document)
        except OSError:
            with self._lock:
                self.errors += 1
            return False
        return True

    # -- introspection ---------------------------------------------------- #
    def __len__(self) -> int:
        return sum(
            1
            for p in self.root.glob("*.json")
            if p.name != CALIBRATION_FILENAME
        ) if self.root.is_dir() else 0

    def clear(self) -> int:
        """Delete every schedule entry (calibration is kept); count removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                if path.name == CALIBRATION_FILENAME:
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, object]:
        """Counters plus an on-disk census (entries and bytes)."""
        entries = 0
        nbytes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                if path.name == CALIBRATION_FILENAME:
                    continue
                try:
                    nbytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        with self._lock:
            return {
                "path": str(self.root),
                "entries": entries,
                "bytes": nbytes,
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "errors": self.errors,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanStore({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


# --------------------------------------------------------------------------- #
# The process default store
# --------------------------------------------------------------------------- #
# (resolved path, store) — re-resolved whenever the environment variable
# changes so tests can point the default at temporary directories.
_DEFAULT_STORE: tuple = ("", None)
_DEFAULT_STORE_LOCK = threading.Lock()


def default_plan_store() -> Optional[PlanStore]:
    """The store named by ``REPRO_PLAN_STORE``, or ``None`` when unset.

    Creating the default store for a directory that already carries a
    ``calibration.json`` applies the persisted coefficients to the active
    cost model (:func:`repro.core.cost_model.set_active_coefficients`), so
    a warm-started process searches — when it must search at all — with
    the same calibrated model that populated the store.
    """
    path = setting("REPRO_PLAN_STORE") or ""
    global _DEFAULT_STORE
    with _DEFAULT_STORE_LOCK:
        cached_path, cached_store = _DEFAULT_STORE
        if path == cached_path:
            return cached_store
        if not path:
            _DEFAULT_STORE = ("", None)
            return None
        store = PlanStore(path)
        _DEFAULT_STORE = (path, store)
    coefficients = store.load_calibration()
    if coefficients:
        set_active_coefficients(coefficients)
    return store


def plan_store_snapshot() -> Dict[str, object]:
    """Stats of the default store (``{"configured": False}`` when unset)."""
    store = default_plan_store()
    if store is None:
        return {"configured": False}
    stats = store.stats()
    stats["configured"] = True
    return stats


# Registered by the producer (like "caches"/"plan_timings") so the metrics
# registry's snapshots embed the store view without engine-layer imports.
register_source("plan_store", plan_store_snapshot)

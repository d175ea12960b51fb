"""The one bounded LRU of the process.

Every amortisation table of the library is an instance of
:class:`LRUCache`: the engine's plan, schedule and executor caches
(:mod:`repro.engine.plan_cache`, where it is also named ``PlanCache``), the
CSF structure memo of :func:`repro.sptensor.csf.csf_for_mode_order` and the
serving workers' table of attached broadcast tensors.  It lives here, below
the engine, so the sparse-tensor layer can use it without importing it.
Only the CSF structure memo sets a byte budget; the engine's caches are
bounded by entry count.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional

from repro.obs.trace import span as _span


class LRUCache:
    """Bounded LRU cache with hit/miss/eviction counters and a byte budget.

    Two independent bounds apply, each optional:

    * ``max_entries`` — entry-count LRU;
    * ``max_bytes`` — a memory budget.  A budgeted cache's values report
      their (fixed) size as ``value.nbytes``; least-recently-used entries
      are evicted until the total fits.  A single value larger than the
      whole budget is *not admitted*: it is returned to the caller but
      never stored (and counted in ``rejections``), so one oversized entry
      cannot flush the entire working set.

    Locked: one lock guards the bookkeeping, while factories run outside
    it.  Threads racing on one cold key each build (each build is a miss),
    the first insert wins and the later builders get the stored value back,
    so a key is stored and byte-accounted once.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 512,
        max_bytes: Optional[int] = None,
        name: str = "cache",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be None or >= 1")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        self.bytes = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[object]:
        """Peek without touching the counters or the LRU order."""
        return self._entries.get(key)

    def values(self) -> List[object]:
        """The cached values, least recently used first (a locked copy)."""
        with self._lock:
            return list(self._entries.values())

    def _measure(self, value: object) -> int:
        # no budget, no accounting: the engine's values have no ``nbytes``
        return 0 if self.max_bytes is None else int(value.nbytes)

    def _evict_lru(self) -> None:
        _, value = self._entries.popitem(last=False)
        self.bytes -= self._measure(value)
        self.evictions += 1

    def _shrink_to_budget(self) -> None:
        """Evict LRU entries until both bounds hold (never the newest)."""
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._evict_lru()
        if self.max_bytes is not None:
            while self.bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_lru()

    def get_or_create(self, key: Hashable, factory: Callable[[], object]) -> object:
        """Return the cached value for *key*, building it on first use."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return value
            self.misses += 1
        with _span("build", "cache", cache=self.name):
            value = factory()
        size = self._measure(value)
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:  # a racing builder inserted first
                self._entries.move_to_end(key)
                return stored
            if self.max_bytes is not None and size > self.max_bytes:
                # admission control: serve the value, never cache it
                self.rejections += 1
                return value
            self._entries[key] = value
            self.bytes += size
            self._shrink_to_budget()
        return value

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejections": self.rejections,
                "bytes": self.bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache({self.name!r}, entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, bytes={self.bytes})"
        )

"""The one bounded, byte-budgeted LRU of the process.

Every amortisation table of the library is an instance of
:class:`LRUCache`: the engine's plan, schedule and executor caches
(:mod:`repro.engine.plan_cache`, where it is also named ``PlanCache``), the
CSF structure memo of :func:`repro.sptensor.csf.csf_for_mode_order` and the
serving workers' table of attached broadcast tensors.  It lives here, below
the engine, so the sparse-tensor layer can use it without importing it.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from repro.obs.trace import span as _span

#: Flat size charged for callables (specialized offload closures bound into
#: plan steps) and other opaque leaves the size walker does not descend into.
_OPAQUE_BYTES = 256


def approx_nbytes(value: object, _seen: Optional[set] = None) -> int:
    """Approximate in-memory footprint of one cache entry, in bytes.

    A structural walk rather than serialization: plan steps embed
    specialized NumPy closures that cannot be pickled, and pickling would
    copy every lowered-program array just to count it.  Arrays report their
    buffer size; containers and objects (``__dict__``/``__slots__``) are
    recursed with cycle protection; callables and unknown leaves are
    charged a flat :data:`_OPAQUE_BYTES`.  Shared substructure is counted
    once per entry, so totals are an upper-ish bound good enough for a
    budget, not an exact accounting.
    """
    if value is None or isinstance(value, (bool, int, float, complex, np.generic)):
        return 32
    # the cycle/dedup guard must precede the array and string leaves: an
    # array referenced from several steps of one plan is charged once
    if _seen is None:
        _seen = set()
    oid = id(value)
    if oid in _seen:
        return 0
    _seen.add(oid)
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 128
    if isinstance(value, (str, bytes)):
        return sys.getsizeof(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sys.getsizeof(value) + sum(
            approx_nbytes(item, _seen) for item in value
        )
    if isinstance(value, dict):
        return sys.getsizeof(value) + sum(
            approx_nbytes(k, _seen) + approx_nbytes(v, _seen)
            for k, v in list(value.items())  # a copy: plans grow while in use
        )
    if callable(value):
        return _OPAQUE_BYTES
    total = _OPAQUE_BYTES
    attrs = getattr(value, "__dict__", None)
    if attrs:
        total += approx_nbytes(attrs, _seen)
    for slot in getattr(type(value), "__slots__", ()):
        total += approx_nbytes(getattr(value, slot, None), _seen)
    return total


class LRUCache:
    """Bounded LRU cache with hit/miss/eviction counters and a byte budget.

    Two independent bounds apply, each optional:

    * ``max_entries`` — entry-count LRU;
    * ``max_bytes`` — a memory budget.  Entries are size-accounted (with
      ``size_of``, defaulting to :func:`approx_nbytes`) on insertion and on
      :meth:`reaccount`, and least-recently-used entries are evicted until
      the total fits.  A single value larger than the whole budget is
      *not admitted*: it is returned to the caller but never stored (and
      counted in ``rejections``), so one oversized entry cannot flush the
      entire working set.

    Locked: one lock guards the bookkeeping, while factories and size
    probes run outside it.  Threads racing on one cold key each build (each
    build is a miss), the first insert wins and the later builders get the
    stored value back, so a key is stored and byte-accounted once.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 512,
        max_bytes: Optional[int] = None,
        size_of: Optional[Callable[[object], int]] = None,
        name: str = "cache",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be None or >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be None or >= 1")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.size_of = size_of if size_of is not None else approx_nbytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        self.bytes = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
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
        if self.max_bytes is None:
            # no budget: skip the size probe entirely
            return 0
        return max(1, int(self.size_of(value)))

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self.bytes -= self._sizes.pop(key, 0)
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
            self._sizes[key] = size
            self.bytes += size
            self._shrink_to_budget()
        return value

    def reaccount(self, key: Hashable) -> None:
        """Re-measure one entry whose value grew after insertion.

        Compiled plans are populated *lazily* (recursion sites during the
        first interpreted execution, the lowered program on the first
        lowered one), so their insertion-time size is near zero; the
        executor calls this after any execution that changed its plan.  The
        entry is treated as most-recently used; if it now exceeds the whole
        budget it is dropped and counted as a rejection.
        """
        value = self._entries.get(key)
        if value is None:
            return
        size = self._measure(value)
        with self._lock:
            if self._entries.get(key) is not value:  # evicted meanwhile
                return
            if self.max_bytes is not None and size > self.max_bytes:
                del self._entries[key]
                self.bytes -= self._sizes.pop(key, 0)
                self.rejections += 1
                return
            self.bytes += size - self._sizes.get(key, 0)
            self._sizes[key] = size
            self._entries.move_to_end(key)
            self._shrink_to_budget()

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self.bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = self.rejections = 0

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

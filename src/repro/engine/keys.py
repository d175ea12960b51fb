"""Canonical serialization of plan/schedule cache keys.

The structural keys built in :mod:`repro.engine.plan_cache`
(:func:`~repro.engine.plan_cache.plan_key`,
:func:`~repro.engine.plan_cache.schedule_key`) are nested tuples of
strings, numbers and booleans — hashable and perfectly fine as
*in-process* dictionary keys.  They are not, however, stable *between*
processes when rendered with ``repr()``: sparsity statistics flow out of
NumPy reductions as ``np.int64`` scalars, whose repr changed between
NumPy 1.x (``5``) and 2.x (``np.int64(5)``), and a future key element
could pick up any other repr quirk.  Anything persisted across processes
(the on-disk plan store of :mod:`repro.engine.plan_store`, the timing
digests correlated across daemon snapshots) therefore needs one
*canonical* serialization, defined here and shared by every consumer:

* :func:`canonical_key` — the key rendered as compact, sort-keyed JSON
  with NumPy scalars normalized to their Python equivalents.  Two keys
  that compare equal always serialize identically, in every process, on
  every supported NumPy version.
* :func:`key_digest` — a short (truncated ``sha256``) hex digest of that
  canonical form, used as the store's filename stem and as the stable
  ``digest`` column of the per-plan timing snapshots.

This module sits below the cache layer on purpose: both
:mod:`repro.engine.plan_cache` and :mod:`repro.engine.plan_store` import
it, neither imports the other through it.
"""

from __future__ import annotations

import json
from typing import Hashable, Tuple

import numpy as np

from repro.util.digest import content_digest

PlanKey = Tuple[Hashable, ...]


def _jsonable(value: object) -> object:
    """Normalize one key element to a canonical JSON-encodable value.

    Tuples and lists both become JSON arrays (keys only ever use tuples,
    so no aliasing arises); NumPy scalars become their Python
    equivalents; dicts are rekeyed with string keys (``json.dumps`` with
    ``sort_keys`` then fixes their order).  Unknown leaf types fall back
    to ``repr`` — not canonical, but such values never appear in keys
    built by this library, and a stable-enough fallback beats raising
    inside introspection paths.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def canonical_key(key: object) -> str:
    """The canonical, process-independent serialization of a cache key."""
    return json.dumps(
        _jsonable(key), sort_keys=True, separators=(",", ":")
    )


def key_digest(key: object, digest_size: int = 8) -> str:
    """Short stable hex digest of :func:`canonical_key` (truncated sha256)."""
    return content_digest(
        canonical_key(key).encode("utf-8"), digest_size=digest_size
    ).hex()

"""The library's one content-hashing scheme: blake2s over raw bytes.

Both users sit above this module and must not import each other:
:mod:`repro.engine.keys` digests the canonical JSON form of plan/schedule
keys, :mod:`repro.sptensor.coo` digests a sparsity pattern's index buffer.
"""

from __future__ import annotations

import hashlib


def blake2s_digest(*buffers, digest_size: int = 16) -> bytes:
    """blake2s over the concatenation of *buffers*, hashed in place.

    Each buffer is anything exposing a C-contiguous buffer (``bytes``, a
    C-contiguous ``ndarray`` of any shape); nothing is copied.
    """
    digest = hashlib.blake2s(digest_size=digest_size)
    for buffer in buffers:
        digest.update(buffer)
    return digest.digest()

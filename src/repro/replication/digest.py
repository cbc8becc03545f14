"""Merkle-style state digests for divergence detection.

A replica that applied every committed change must hold byte-identical
logical state: the serialized document and the id allocator's high-water
mark (ids are part of the contract — a replica must answer node-id reads
with the primary's ids).  The digest hashes the serialized document in
fixed-size chunks and folds the chunk hashes into a root, merkle-style,
so two stores disagree on the root iff they disagree on some chunk —
and ``digest_chunks`` pinpoints *which* chunk, which turns "the replica
diverged" into an actionable offset instead of a shrug.

The digest is computed from committed state only: it serializes via the
store's read path, which never sees uncommitted transaction buffers, and
the caller compares it at catch-up boundaries where no transaction is in
flight.
"""

from __future__ import annotations

import hashlib
from typing import List

DIGEST_CHUNK_BYTES = 4096


def digest_chunks(store, chunk_bytes: int = DIGEST_CHUNK_BYTES) -> List[str]:
    """Per-chunk sha256 hex digests of the store's serialized document."""
    data = store.read_bytes()
    return [
        hashlib.sha256(data[offset : offset + chunk_bytes]).hexdigest()
        for offset in range(0, max(len(data), 1), chunk_bytes)
    ]


def state_digest(store, chunk_bytes: int = DIGEST_CHUNK_BYTES) -> str:
    """The merkle root over document chunks plus the id high-water mark."""
    root = hashlib.sha256()
    for chunk in digest_chunks(store, chunk_bytes):
        root.update(chunk.encode("ascii"))
    root.update(str(store.id_scheme.high_water_mark).encode("ascii"))
    return root.hexdigest()


def first_divergent_chunk(primary, replica, chunk_bytes: int = DIGEST_CHUNK_BYTES):
    """Index of the first differing chunk, or ``None`` when identical."""
    ours = digest_chunks(primary, chunk_bytes)
    theirs = digest_chunks(replica, chunk_bytes)
    for index in range(max(len(ours), len(theirs))):
        left = ours[index] if index < len(ours) else None
        right = theirs[index] if index < len(theirs) else None
        if left != right:
            return index
    return None

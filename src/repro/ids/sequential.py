"""Sequential integer identifiers — the paper's experimental scheme.

"Stable identifiers can be obtained by assigning unique integer numbers to
nodes at insert times" (§6.2).  The scheme allocates a dense interval per
bulk insert, which gives every Range a contiguous ``[startId, endId]`` and
makes the Range Index's interval lookup possible.  Ids are stable (never
reassigned), comparable *within* a range (allocation order = document
order inside one insert), and regenerable: the id factory is simply
"previous id + 1 on every node-starting token".
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import IdSchemeError
from repro.ids.base import StoreIdScheme
from repro.xmltoken.tokens import TokenKind

_STATE = struct.Struct("<q")


class SequentialIdScheme(StoreIdScheme[int]):
    """Unique integers handed out at insert time, starting from 1."""

    name = "sequential"

    def __init__(self, next_id: int = 1) -> None:
        if next_id < 1:
            raise IdSchemeError("sequential ids start at 1")
        self._next = next_id

    @property
    def high_water_mark(self) -> int:
        """The next id that would be allocated."""
        return self._next

    def allocate_interval(self, count: int) -> Tuple[int, int]:
        if count < 1:
            raise IdSchemeError(f"cannot allocate {count} ids")
        first = self._next
        self._next += count
        return first, first + count - 1

    def seek(self, next_id: int) -> None:
        """Move the allocation cursor.

        Transaction-commit replay pins each op's recorded pre-op cursor
        before re-executing it, so the op allocates exactly the ids it
        allocated live even when interleaved transactions (committed in a
        different order, or never committed) consumed ids in between.
        The caller restores the high-water mark afterwards.
        """
        if next_id < 1:
            raise IdSchemeError("sequential ids start at 1")
        self._next = next_id

    def next_id(self, current: int, kind: TokenKind) -> int:
        # The kind argument is part of the idFactory signature
        # (``{ID} x {token} -> {ID}``); sequential ids do not depend on it.
        return current + 1

    def encode(self, node_id: int) -> bytes:
        return _STATE.pack(node_id)

    def decode(self, data: bytes) -> int:
        if len(data) != _STATE.size:
            raise IdSchemeError(f"bad sequential id encoding ({len(data)} bytes)")
        return _STATE.unpack(data)[0]

    def to_catalog(self) -> bytes:
        return _STATE.pack(self._next)

    def restore_catalog(self, data: bytes) -> None:
        self._next = _STATE.unpack(data)[0]

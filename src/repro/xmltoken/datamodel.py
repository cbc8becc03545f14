"""XQuery Data Model helpers over token sequences.

The token-list models (:class:`~repro.testing.reference.ReferenceStore`,
:class:`~repro.concurrency.tokendoc.TokenDocument`) find a node's extent
here.  Their tokens come from the record parser
(:mod:`repro.xmltoken.parser`), which yields a well-nested forest by
construction, so nothing here checks for one.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import TokenStreamError
from repro.xmltoken.tokens import Token


def node_end_offset(tokens: Sequence[Token], start: int) -> int:
    """Index one past the last token of the node starting at ``start``.

    For atomic nodes (text, comment, PI, namespace) that is ``start + 1``;
    for nested nodes it is the index after the matching end token.
    """
    token = tokens[start]
    if not token.starts_node:
        raise TokenStreamError(f"token at {start} does not start a node: {token!r}")
    if not token.is_begin:
        return start + 1
    depth = 0
    for index in range(start, len(tokens)):
        current = tokens[index]
        if current.is_begin:
            depth += 1
        elif current.is_end:
            depth -= 1
            if depth == 0:
                return index + 1
    raise TokenStreamError(f"node starting at {start} is never closed")

"""Structured integrity checking: every invariant, individually reported.

:meth:`XMLStore.check_integrity` historically raised on the first broken
invariant and said nothing on success — fine for tests, useless for an
operator asking *which* invariant failed and whether the others still
hold.  This module runs each invariant as its own named check and
assembles an :class:`IntegrityReport` (the ``repro verify`` subcommand's
payload, JSON-able and renderable):

* ``layout`` — ranges tile the token chain exactly, in document order;
* ``range-index`` — the index holds exactly one entry per non-empty
  range, and lookups agree with the range table;
* ``id-density`` — replaying each range's tokens regenerates exactly its
  dense id interval ``[start_id, end_id]`` (the soundness condition of
  the paper's id-regeneration trick, §4.3);
* ``partial-memo`` — every partial-index entry that *resolves* agrees
  with a from-scratch scan: the token at the (range, offset) its logical
  address resolves to is the begin token whose regenerated id is the
  entry's key, and it lives where the chain's block counts say it does.
  Entries that no longer resolve are legal — they are dropped on probe —
  but a resolving entry naming the wrong token would silently corrupt
  reads, which is exactly what the crash-consistency harness hunts for;
* ``full-index`` — the same, for every entry of the full index (vacuous
  when the policy maintains none);
* ``block-checksum`` — an out-of-band scrub pass: every owned block's
  raw device image verifies against its checksum frame (vacuous on a
  legacy no-checksum store, and dirty/pending-free blocks are skipped —
  see :mod:`repro.storage.scrub`);
* ``quarantine`` — the buffer pool holds no quarantined (known-bad)
  blocks; after a repair this must be empty again.

Every check runs even when an earlier one fails, so one corrupted
structure does not mask the state of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ReproError, StoreError


@dataclass
class IntegrityCheck:
    """Outcome of one invariant check."""

    name: str
    description: str
    ok: bool
    #: what broke, verbatim (None when the check passed)
    error: str = None  # type: ignore[assignment]
    #: check-specific counts (ranges inspected, entries verified, ...)
    detail: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "ok": self.ok,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class IntegrityReport:
    """All invariant checks for one store, in a fixed order."""

    checks: List[IntegrityCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failed(self) -> List[IntegrityCheck]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    def render(self) -> str:
        """Human-readable per-check report (the CLI's ``verify`` output)."""
        lines = []
        for check in self.checks:
            status = "ok" if check.ok else "FAILED"
            detail = " ".join(f"{k}={v}" for k, v in check.detail.items())
            line = f"{check.name:<12} {status:<6} {check.description}"
            if detail:
                line += f" ({detail})"
            lines.append(line)
            if check.error is not None:
                lines.append(f"{'':<12} {check.error}")
        verdict = (
            "integrity ok"
            if self.ok
            else "integrity FAILED: "
            + ", ".join(check.name for check in self.failed())
        )
        lines.append(verdict)
        return "\n".join(lines)


def _check_id_density(store) -> Dict[str, int]:
    """Scanning each range must regenerate exactly its id interval."""
    ranges = 0
    for meta in store.ranges.in_order():
        ranges += 1
        ids = [
            item.last_id
            for item in store.locator.scan_range(meta)
            if item.starts_node
        ]
        if not meta.has_interval:
            if ids:
                raise StoreError(f"{meta!r} has node tokens but no interval")
            continue
        expected = list(range(meta.start_id, meta.end_id + 1))
        if ids != expected:
            raise StoreError(
                f"{meta!r} regenerates ids {ids[:5]}..."
                f"{ids[-5:] if len(ids) > 5 else ''}, "
                f"expected [{meta.start_id}..{meta.end_id}]"
            )
    return {"ranges": ranges}


def _check_addresses(store, entries, what: str) -> Dict[str, int]:
    """Every entry that resolves must name the begin token of its node."""
    #: range id -> {offset: ids of the nodes whose entries resolve to it},
    #: so that each range is scanned once however many entries it holds
    claims: Dict[int, Dict[int, List[int]]] = {}
    stale = 0
    for entry in entries:
        resolved = store.ranges.resolve(entry.origin, entry.address)
        if resolved is None:
            stale += 1  # legal: dropped (or repaired) on the next lookup
            continue
        meta, offset = resolved
        claims.setdefault(meta.range_id, {}).setdefault(offset, []).append(
            entry.node_id
        )
    checked = 0
    for range_id, offsets in claims.items():
        meta = store.ranges.get(range_id)
        for item in store.locator.scan_range(meta):
            node_ids = offsets.get(item.offset)
            if node_ids is None:
                continue
            for node_id in node_ids:
                if not item.starts_node or item.last_id != node_id:
                    found = (
                        f"node {item.last_id}"
                        if item.starts_node
                        else "a non-node token"
                    )
                    raise StoreError(
                        f"{what} entry for node {node_id} resolves to {found} "
                        f"(offset {item.offset} of {meta!r})"
                    )
            derived = store.layout.position_of(meta, item.offset)
            if derived != item.pos:
                raise StoreError(
                    f"block counts place offset {item.offset} of {meta!r} at "
                    f"{tuple(derived)} but the token lives at {tuple(item.pos)}"
                )
            checked += len(node_ids)
    return {"entries": checked, "stale": stale}


def _check_partial_memo(store) -> Dict[str, int]:
    if store.partial_index is None:
        return {"entries": 0}
    for node_id, entry in store.partial_index._entries.items():
        if entry.node_id != node_id:
            raise StoreError(
                f"memo keyed {node_id} holds entry for node {entry.node_id}"
            )
    return _check_addresses(store, store.partial_index._entries.values(), "memo")


def _check_full_index(store) -> Dict[str, int]:
    if store.full_index is None:
        return {"entries": 0}
    return _check_addresses(store, store.full_index.entries(), "full-index")


def integrity_report(store) -> IntegrityReport:
    """Run every invariant check against ``store``; never raises for a
    *failed invariant* (that lands in the report), only for errors
    outside the checks' contract."""
    def check_layout() -> Dict[str, int]:
        store.layout.check_integrity()
        return {"ranges": len(store.ranges)}

    def check_range_index() -> Dict[str, int]:
        store.range_index.check_integrity(store.ranges)
        return {}

    def check_checksums() -> Dict[str, int]:
        from repro.storage.scrub import scrub_store

        report = scrub_store(store)
        if report.issues:
            raise StoreError(
                f"{len(report.issues)} block(s) failed out-of-band checksum "
                f"verification: {report.bad_blocks()}"
            )
        detail = {
            "checked": report.blocks_checked,
            "skipped": report.blocks_skipped,
        }
        if report.legacy:
            detail["legacy"] = 1
        return detail

    def check_quarantine() -> Dict[str, int]:
        blocks = store.pool.quarantined_blocks()
        if blocks:
            raise StoreError(f"{len(blocks)} quarantined block(s): {blocks}")
        return {"blocks": 0}

    specs = (
        (
            "layout",
            "ranges tile the token chain in document order",
            check_layout,
        ),
        (
            "range-index",
            "one index entry per non-empty range, intervals agree",
            check_range_index,
        ),
        (
            "id-density",
            "replaying each range regenerates exactly [start_id..end_id]",
            lambda: _check_id_density(store),
        ),
        (
            "partial-memo",
            "memo entries that resolve agree with a from-scratch scan",
            lambda: _check_partial_memo(store),
        ),
        (
            "full-index",
            "full-index entries that resolve agree with a from-scratch scan",
            lambda: _check_full_index(store),
        ),
        (
            "block-checksum",
            "every owned block's device image verifies out-of-band",
            check_checksums,
        ),
        (
            "quarantine",
            "the buffer pool holds no known-bad blocks",
            check_quarantine,
        ),
    )
    checks: List[IntegrityCheck] = []
    for name, description, run in specs:
        try:
            detail = run()
        except ReproError as error:
            checks.append(
                IntegrityCheck(name, description, ok=False, error=str(error))
            )
        else:
            checks.append(
                IntegrityCheck(name, description, ok=True, detail=detail or {})
            )
    return IntegrityReport(checks=list(checks))

"""Online scrubber: verify every block's checksum against the raw device.

The buffer pool verifies blocks *on fetch* — which only catches rot on
blocks the workload happens to read.  The scrubber closes the gap: it
walks every block the store owns (the data chain plus the range/full
index trees), reads the **raw device image** (the pool's cache would
mask media rot with a clean in-memory copy) and verifies the checksum
frame out-of-band.

Two block categories are deliberately *skipped*, not verified:

* blocks whose cached page is dirty in the pool — the device image is
  stale by design and will be overwritten at the next flush, so rot
  under it self-heals;
* blocks on the pool's deferred-free list — their images are
  garbage-to-be.

Scrubbing is *budgeted*: :meth:`Scrubber.step` verifies at most
``budget`` blocks per call, so it can run online between store
operations; :func:`scrub_store` is the run-to-completion convenience.
Detected blocks are quarantined in the buffer pool (every later fetch
fails fast) and reported via a :class:`ScrubReport`, which the ``scrub``
CLI subcommand renders and :func:`repro.core.repair.repair_store`
consumes.

On a legacy (no-checksum) store the scrub is *vacuous*: raw pages carry
no checksum, so every block passes and the report says so
(``legacy=True``) instead of pretending to a guarantee it cannot give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ChecksumError, ReproError

#: Block owners, in scrub order.
DATA_CHAIN = "data-chain"
RANGE_INDEX = "range-index"
FULL_INDEX = "full-index"


@dataclass
class ScrubIssue:
    """One block that failed out-of-band verification."""

    block_no: int
    owner: str  # DATA_CHAIN / RANGE_INDEX / FULL_INDEX
    kind: str  # "checksum" | "unreadable"
    expected_crc: Optional[int] = None
    actual_crc: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "block_no": self.block_no,
            "owner": self.owner,
            "kind": self.kind,
            "expected_crc": self.expected_crc,
            "actual_crc": self.actual_crc,
        }


@dataclass
class ScrubReport:
    """Outcome of one (possibly incremental) scrub pass."""

    issues: List[ScrubIssue] = field(default_factory=list)
    blocks_total: int = 0
    blocks_checked: int = 0
    #: dirty-in-pool or pending-free blocks (device image not authoritative)
    blocks_skipped: int = 0
    #: True when the store has no checksum framing: the pass is vacuous
    legacy: bool = False
    #: False while an incremental scrub has blocks left to visit
    complete: bool = False

    @property
    def ok(self) -> bool:
        return not self.issues

    def bad_blocks(self) -> List[int]:
        return sorted({issue.block_no for issue in self.issues})

    def to_dict(self) -> dict:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "legacy": self.legacy,
            "complete": self.complete,
            "blocks_total": self.blocks_total,
            "blocks_checked": self.blocks_checked,
            "blocks_skipped": self.blocks_skipped,
            "issues": [issue.to_dict() for issue in self.issues],
        }

    def render(self) -> str:
        lines = []
        status = "OK" if self.ok else f"{len(self.issues)} BAD BLOCK(S)"
        if self.legacy:
            status += " (legacy store: no checksums, scrub is vacuous)"
        if not self.complete:
            status += " [incremental: pass incomplete]"
        lines.append(f"scrub: {status}")
        lines.append(
            f"  blocks: {self.blocks_checked}/{self.blocks_total} verified, "
            f"{self.blocks_skipped} skipped (dirty/pending-free)"
        )
        for issue in self.issues:
            detail = ""
            if issue.expected_crc is not None:
                detail = (
                    f" stored=0x{issue.expected_crc:08x}"
                    f" computed=0x{(issue.actual_crc or 0):08x}"
                )
            lines.append(
                f"  block {issue.block_no} [{issue.owner}]: {issue.kind}{detail}"
            )
        return "\n".join(lines)


class Scrubber:
    """Budgeted out-of-band checksum verification over one store.

    The block list is captured at construction (chain order first, then
    the index trees); :meth:`step` advances through it, so interleaving
    scrub steps with store operations verifies each block against the
    device image current when its turn comes.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.report = ScrubReport(legacy=not store.codec.checksums)
        self._blocks = self._collect_blocks()
        self.report.blocks_total = len(self._blocks)
        self._cursor = 0
        self._completion_recorded = False

    def _collect_blocks(self) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        # chain membership comes from the catalog links: no device reads
        for block_no in self.store.layout.chain.blocks():
            out.append((block_no, DATA_CHAIN))
        out.extend(self._index_blocks(self.store.range_index._tree, RANGE_INDEX))
        if self.store.full_index is not None:
            out.extend(self._index_blocks(self.store.full_index._tree, FULL_INDEX))
        return out

    def _index_blocks(self, tree, owner: str) -> List[Tuple[int, str]]:
        """Defensive root-first walk: enumerating index blocks requires
        *reading* internal nodes, so a corrupt one is recorded as an
        issue immediately and its subtree (unreachable) is not descended
        into."""
        out: List[Tuple[int, str]] = []
        stack = [tree.root_block]
        while stack:
            block_no = stack.pop()
            out.append((block_no, owner))
            try:
                node = tree._load(block_no)
                # entries decode on demand: touch them all here, so that a
                # malformed one makes this block unreadable
                node.keys
                children = [] if node.is_leaf else node.children
            except ChecksumError as error:
                self._record(
                    ScrubIssue(
                        block_no, owner, "checksum",
                        expected_crc=error.expected_crc,
                        actual_crc=error.actual_crc,
                    )
                )
                continue
            except ReproError:
                self._record(ScrubIssue(block_no, owner, "unreadable"))
                continue
            stack.extend(reversed(children))
        return out

    def _record(self, issue: ScrubIssue) -> None:
        if any(existing.block_no == issue.block_no for existing in self.report.issues):
            return
        self.report.issues.append(issue)
        pool = self.store.pool
        if not pool.is_quarantined(issue.block_no):
            pool.quarantine(
                issue.block_no,
                ChecksumError(
                    f"block {issue.block_no} failed scrub verification",
                    block_no=issue.block_no,
                    expected_crc=issue.expected_crc,
                    actual_crc=issue.actual_crc,
                ),
                source="scrub",
                owner=issue.owner,
            )
        if self.store.event_log.enabled:
            self.store.event_log.emit(
                "fault",
                "scrub_bad_block",
                severity="error",
                block=issue.block_no,
                owner=issue.owner,
                expected_crc=issue.expected_crc,
                actual_crc=issue.actual_crc,
            )

    def step(self, budget: Optional[int] = None) -> bool:
        """Verify up to ``budget`` more blocks (None = all remaining);
        returns True once the pass is complete."""
        pool = self.store.pool
        device = self.store.device
        codec = self.store.codec
        remaining = len(self._blocks) - self._cursor
        count = remaining if budget is None else max(0, min(budget, remaining))
        dirty = set(pool.dirty_blocks())
        pending = set(pool.pending_free_blocks())
        for _ in range(count):
            block_no, owner = self._blocks[self._cursor]
            self._cursor += 1
            if block_no in dirty or block_no in pending:
                self.report.blocks_skipped += 1
                continue
            self.report.blocks_checked += 1
            try:
                data = device.read_block(block_no)
            except ReproError:
                self._record(ScrubIssue(block_no, owner, "unreadable"))
                continue
            ok, stored, computed = codec.inspect(data, block_no)
            if not ok:
                self._record(
                    ScrubIssue(
                        block_no, owner, "checksum",
                        expected_crc=stored, actual_crc=computed,
                    )
                )
        self.report.complete = self._cursor >= len(self._blocks)
        if self.report.complete and not self._completion_recorded:
            # scrub recency: the health report and the
            # repro_storage_scrub_* series read these store-side marks
            self._completion_recorded = True
            self.store.scrub_completions += 1
            self.store.operations_at_last_scrub = (
                self.store.operations.read_ops + self.store.operations.updates
            )
        if self.report.complete and self.store.event_log.enabled:
            self.store.event_log.emit(
                "fault" if self.report.issues else "recovery",
                "scrub_complete",
                severity="error" if self.report.issues else "info",
                checked=self.report.blocks_checked,
                skipped=self.report.blocks_skipped,
                bad=len(self.report.issues),
            )
        return self.report.complete


def scrub_store(store, blocks_per_call: Optional[int] = None) -> ScrubReport:
    """Run a full scrub pass (optionally in ``blocks_per_call`` chunks)
    and return its report."""
    scrubber = Scrubber(store)
    while not scrubber.step(blocks_per_call):
        pass
    return scrubber.report

"""Block/buffer heatmap: which blocks the workload actually touches.

The paper's cost argument is physical — an access path is cheap or
expensive according to the *blocks* it drags through the buffer pool.
:class:`BlockHeatmap` sits inside :class:`~repro.storage.buffer.BufferPool`
and counts, per block number: page fetches, pool misses (fetches that hit
the device), and write-backs.  The report functions then join those counts
with the range table to answer the questions the paper raises:

* which blocks are hot (:func:`heatmap_report` ``blocks`` section, with
  each block classified as ``data`` — some range's tokens reside there —
  or ``index`` for B+-tree/overhead pages);
* which *ranges* are hot (``ranges`` section: per-range block lists and
  aggregate touch counts — the physical view of Table 2/3);
* is the partial index earning its keep (``partial_index`` section:
  probe outcomes, hit rate, and the estimated tokens a hit avoided
  re-scanning, following partial-index efficacy reporting à la
  Stonebraker).

The disabled twin :data:`NOOP_HEATMAP` keeps the buffer pool's hot path
at one attribute check when the heatmap is off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class BlockHeat:
    """Access counters for one block."""

    fetches: int = 0
    misses: int = 0
    writes: int = 0

    @property
    def touches(self) -> int:
        return self.fetches + self.writes


class BlockHeatmap:
    """Per-block access counters recorded by the buffer pool."""

    enabled = True

    def __init__(self) -> None:
        self._blocks: Dict[int, BlockHeat] = {}

    def record_fetch(self, block_no: int, hit: bool) -> None:
        heat = self._blocks.get(block_no)
        if heat is None:
            heat = self._blocks[block_no] = BlockHeat()
        heat.fetches += 1
        if not hit:
            heat.misses += 1

    def record_write(self, block_no: int) -> None:
        heat = self._blocks.get(block_no)
        if heat is None:
            heat = self._blocks[block_no] = BlockHeat()
        heat.writes += 1

    def counts(self) -> Dict[int, BlockHeat]:
        return dict(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def clear(self) -> None:
        self._blocks.clear()


class NoopHeatmap:
    """Disabled heatmap: recording is a no-op, reports are empty."""

    __slots__ = ()
    enabled = False

    def record_fetch(self, block_no: int, hit: bool) -> None:
        pass

    def record_write(self, block_no: int) -> None:
        pass

    def counts(self) -> Dict[int, BlockHeat]:
        return {}

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        pass


NOOP_HEATMAP = NoopHeatmap()


def create_heatmap(enabled: bool):
    """The configured heatmap: live when enabled, shared no-op otherwise."""
    if not enabled:
        return NOOP_HEATMAP
    return BlockHeatmap()


# ------------------------------------------------------------------ reports --

def heatmap_report(store, top: int = 10) -> Dict[str, object]:
    """The full heatmap report for ``store`` as a JSON-ready dict."""
    from repro.obs.schema import SCHEMA_VERSION

    counts = store.heatmap.counts()
    # the exact block<->range join, derived here from each range's start,
    # its token count and the chain's block counts
    blocks_of = {
        meta.range_id: store.layout.blocks_of(meta)
        for meta in store.ranges.in_order()
    }
    blocks = _block_rows(blocks_of, counts, top)
    ranges = _range_rows(store, blocks_of, counts, top)
    return {
        "schema_version": SCHEMA_VERSION,
        "blocks_touched": len(counts),
        "blocks": blocks,
        "ranges": ranges,
        "partial_index": _partial_efficacy(store),
    }


def heatmap_json(store, top: int = 10) -> str:
    return json.dumps(heatmap_report(store, top=top), indent=2, sort_keys=True)


def render_heatmap(store, top: int = 10) -> str:
    """Human-readable heatmap report (the CLI's ``heatmap`` output)."""
    report = heatmap_report(store, top=top)
    lines: List[str] = []
    lines.append(f"block heatmap ({report['blocks_touched']} blocks touched)")
    lines.append("")
    lines.append(f"hottest blocks (top {top})")
    lines.append("  block  kind   fetches  misses  writes  ranges")
    for row in report["blocks"]:
        resident = ",".join(str(r) for r in row["ranges"]) or "-"
        lines.append(
            f"  {row['block']:>5}  {row['kind']:<5}  {row['fetches']:>7}"
            f"  {row['misses']:>6}  {row['writes']:>6}  {resident}"
        )
    if not report["blocks"]:
        lines.append("  (no block accesses recorded)")
    lines.append("")
    lines.append(f"hottest ranges (top {top})")
    lines.append("  range  interval         blocks  fetches  misses  writes")
    for row in report["ranges"]:
        interval = (
            f"[{row['start_id']}..{row['end_id']}]"
            if row["start_id"] is not None
            else "(empty)"
        )
        lines.append(
            f"  {row['range_id']:>5}  {interval:<15}  {row['blocks']:>6}"
            f"  {row['fetches']:>7}  {row['misses']:>6}  {row['writes']:>6}"
        )
    if not report["ranges"]:
        lines.append("  (no ranges touched)")
    partial = report["partial_index"]
    lines.append("")
    lines.append("partial-index efficacy")
    if partial is None:
        lines.append("  (policy maintains no partial index)")
    else:
        lines.append(
            f"  probes={partial['probes']}  hits={partial['hits']}"
            f"  misses={partial['misses']}  stale={partial['stale_hits']}"
            f"  hit_rate={partial['hit_rate']:.2f}"
        )
        lines.append(
            f"  entries={partial['entries']}  inserts={partial['inserts']}"
            f"  evictions={partial['evictions']}"
            f"  est_tokens_avoided={partial['est_tokens_avoided']:.0f}"
        )
    return "\n".join(lines)


def _block_rows(blocks_of, counts, top: int) -> List[Dict[str, object]]:
    ranges_in: Dict[int, List[int]] = {}
    for range_id, blocks in blocks_of.items():
        for block_no in blocks:
            ranges_in.setdefault(block_no, []).append(range_id)
    rows = []
    for block_no, heat in counts.items():
        residents = sorted(ranges_in.get(block_no, ()))
        rows.append(
            {
                "block": block_no,
                "kind": "data" if residents else "index",
                "fetches": heat.fetches,
                "misses": heat.misses,
                "writes": heat.writes,
                "ranges": residents,
            }
        )
    rows.sort(key=lambda r: (-(r["fetches"] + r["writes"]), r["block"]))
    return rows[:top]


def _range_rows(store, blocks_of, counts, top: int) -> List[Dict[str, object]]:
    rows = []
    for meta in store.ranges.in_order():
        blocks = blocks_of[meta.range_id]
        fetches = sum(counts[b].fetches for b in blocks if b in counts)
        misses = sum(counts[b].misses for b in blocks if b in counts)
        writes = sum(counts[b].writes for b in blocks if b in counts)
        if fetches == 0 and writes == 0:
            continue
        rows.append(
            {
                "range_id": meta.range_id,
                "start_id": meta.start_id,
                "end_id": meta.end_id,
                "tokens": meta.token_count,
                "blocks": len(blocks),
                "fetches": fetches,
                "misses": misses,
                "writes": writes,
            }
        )
    rows.sort(key=lambda r: (-(r["fetches"] + r["writes"]), r["range_id"]))
    return rows[:top]


def _partial_efficacy(store) -> Optional[Dict[str, object]]:
    if store.partial_index is None:
        return None
    stats = store.partial_index.stats
    locator = store.locator.stats
    # a hit skipped one range scan; estimate its savings with the mean
    # observed scan length
    avg_scan = (
        locator.tokens_scanned / locator.scan_resolutions
        if locator.scan_resolutions
        else 0.0
    )
    return {
        "probes": stats.probes,
        "hits": stats.hits,
        "misses": stats.misses,
        "stale_hits": stats.stale_hits,
        "hit_rate": stats.hit_rate,
        "inserts": stats.inserts,
        "evictions": stats.evictions,
        "entries": len(store.partial_index),
        "est_tokens_avoided": stats.hits * avg_scan,
    }

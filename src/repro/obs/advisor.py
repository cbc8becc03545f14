"""Evidence-backed tuning advisor: from history to recommendations.

The paper leaves adaptivity at "the store should observe its workload
and adjust" (§2.1, §9).  This module is the deliberate, explainable half
of that loop: given a store's workload history it emits
:class:`Recommendation` rows — split/merge range granularity, resize the
partial index, grow the buffer pool, run a compaction — where every row
carries

* the **evidence**: the specific history counters (and the snapshot
  window they came from) that triggered the rule, and
* a **what-if estimate**: projected simulated cost under the recommended
  setting, priced with the *same* cost model the benchmarks run on
  (:class:`~repro.storage.disk.DiskCostModel` plus the per-token CPU
  charges), so a recommendation is an auditable claim, not a hunch.

Rules are deliberately simple threshold checks over deterministic
counters: two runs of the same operation stream produce byte-identical
reports (the CI gate diffs exactly that).  The advisor is **vacuous by
design** when it lacks evidence — an empty store, a legacy store opened
without history, or fewer than :data:`MIN_OPERATIONS` observed
operations all yield a report with zero recommendations and a stated
reason, never a crash and never a guess.

:func:`apply_recommendations` turns a report back into a
:class:`~repro.core.config.StoreConfig` (the A/B benchmark applies it
and must beat the default on the skewed workload — the acceptance test
of this subsystem).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import fingerprint as fp
from repro.obs.fingerprint import (
    WorkloadFingerprint,
    drift_series,
    fingerprint_window,
)
from repro.obs.history import HistorySnapshot

#: Below this many observed operations the advisor refuses to advise.
MIN_OPERATIONS = 32

#: split-ranges rule: minimum scan resolutions and average scan depth.
SPLIT_MIN_SCANS = 16
SPLIT_MIN_AVG_DEPTH = 256.0
SPLIT_TARGET_MIN = 64
SPLIT_TARGET_MAX = 4096

#: partial-index grow rule: eviction floor (absolute and vs. inserts).
PARTIAL_GROW_MIN_EVICTIONS = 16
PARTIAL_GROW_EVICTION_FRACTION = 0.25

#: partial-index shrink rule: hit-rate ceiling and entry floor.
PARTIAL_SHRINK_MAX_HIT_RATE = 0.02
PARTIAL_SHRINK_MIN_ENTRIES = 256

#: buffer-pool rule: miss-rate floor.
BUFFER_MIN_MISS_RATE = 0.2

#: compaction rule: fragmentation floors.
COMPACT_MIN_RANGES = 32
COMPACT_MAX_AVG_TOKENS = 128.0
COMPACT_MIN_READ_FRACTION = 0.5


def _pow2_at_least(value: float) -> int:
    power = 1
    while power < value:
        power *= 2
    return power


def _pow2_at_most(value: float) -> int:
    power = 1
    while power * 2 <= value:
        power *= 2
    return power


@dataclass
class Evidence:
    """One counter reading that supports a recommendation."""

    metric: str
    value: float
    #: [first_seq, last_seq] of the history window the value covers
    window: Tuple[int, int]
    note: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "value": self.value,
            "window": list(self.window),
            "note": self.note,
        }


@dataclass
class WhatIf:
    """Simulated-cost estimate for one recommendation, priced by the
    store's own cost model."""

    description: str
    current_simulated_seconds: float
    projected_simulated_seconds: float

    @property
    def saving_simulated_seconds(self) -> float:
        return self.current_simulated_seconds - self.projected_simulated_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "description": self.description,
            "current_simulated_seconds": self.current_simulated_seconds,
            "projected_simulated_seconds": self.projected_simulated_seconds,
            "saving_simulated_seconds": self.saving_simulated_seconds,
        }


@dataclass
class Recommendation:
    """One advised change, with its evidence and what-if estimate."""

    rule: str
    #: StoreConfig field to change, or ``maintenance:<op>`` for actions
    knob: str
    current: object
    recommended: object
    summary: str
    evidence: List[Evidence] = field(default_factory=list)
    what_if: Optional[WhatIf] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "knob": self.knob,
            "current": self.current,
            "recommended": self.recommended,
            "summary": self.summary,
            "evidence": [item.to_dict() for item in self.evidence],
            "what_if": self.what_if.to_dict() if self.what_if else None,
        }


@dataclass
class AdvisorReport:
    """The advisor's full output for one store."""

    #: None when recommendations were produced; otherwise why not
    vacuous_reason: Optional[str]
    #: operations covered by the evidence window
    operations: float
    #: [first_seq, last_seq] of the history window, or None
    window: Optional[Tuple[int, int]]
    fingerprint: Optional[Dict[str, float]]
    #: rolling drift points (see :func:`repro.obs.fingerprint.drift_series`)
    drift: List[Dict[str, object]] = field(default_factory=list)
    recommendations: List[Recommendation] = field(default_factory=list)

    @property
    def vacuous(self) -> bool:
        return self.vacuous_reason is not None

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "vacuous": self.vacuous,
            "vacuous_reason": self.vacuous_reason,
            "operations": self.operations,
            "window": list(self.window) if self.window else None,
            "fingerprint": self.fingerprint,
            "drift": self.drift,
            "recommendations": [rec.to_dict() for rec in self.recommendations],
        }

    def render(self) -> str:
        lines: List[str] = []
        if self.vacuous:
            lines.append(f"advisor: no recommendations ({self.vacuous_reason})")
            return "\n".join(lines)
        lines.append(
            f"advisor: {len(self.recommendations)} recommendation(s) from "
            f"{self.operations:.0f} operations "
            f"(snapshots {self.window[0]}..{self.window[1]})"
        )
        if self.drift:
            latest = self.drift[-1]
            lines.append(f"  workload drift (latest window): {latest['drift']:.3f}")
        if not self.recommendations:
            lines.append("  configuration looks fit for the observed workload")
        for rec in self.recommendations:
            lines.append(f"  [{rec.rule}] {rec.summary}")
            lines.append(
                f"    {rec.knob}: {rec.current!r} -> {rec.recommended!r}"
            )
            for item in rec.evidence:
                note = f" ({item.note})" if item.note else ""
                lines.append(
                    f"    evidence: {item.metric}={item.value:g} over "
                    f"snapshots {item.window[0]}..{item.window[1]}{note}"
                )
            if rec.what_if is not None:
                lines.append(
                    f"    what-if: {rec.what_if.description}: "
                    f"{rec.what_if.current_simulated_seconds:.6f}s -> "
                    f"{rec.what_if.projected_simulated_seconds:.6f}s simulated "
                    f"({rec.what_if.saving_simulated_seconds:+.6f}s)"
                )
        return "\n".join(lines)


# ------------------------------------------------------------------- rules --


def _window_of(snapshots: Sequence[HistorySnapshot]) -> Tuple[int, int]:
    return (snapshots[0].seq, snapshots[-1].seq)


def _total(snapshots: Sequence[HistorySnapshot], key: str) -> float:
    return sum(snap.delta(key) for snap in snapshots)


def _total_tokens(store) -> int:
    return sum(meta.token_count for meta in store.ranges.in_order())


def _rule_split_ranges(
    store, snapshots: Sequence[HistorySnapshot], finger: WorkloadFingerprint
) -> Optional[Recommendation]:
    """Deep scans dominating lookups: cut range granularity (Ablation A —
    the paper's "few, coarse" vs "many, granular" axis)."""
    scans = _total(snapshots, fp.K_PATH_SCAN)
    tokens = _total(snapshots, fp.K_TOKENS_SCANNED)
    if scans < SPLIT_MIN_SCANS:
        return None
    avg_depth = tokens / scans
    if avg_depth < SPLIT_MIN_AVG_DEPTH:
        return None
    target = max(
        SPLIT_TARGET_MIN,
        min(SPLIT_TARGET_MAX, _pow2_at_most(avg_depth / 4)),
    )
    current = store.config.max_range_tokens
    if current is not None and current <= 2 * target:
        return None
    from repro.core.store import CPU_COST_PER_INDEX_ENTRY, CPU_COST_PER_SCAN_TOKEN

    # what-if: a scan inside a `target`-token range averages target/2
    # tokens, plus the extra index descent the finer ranges cost
    total_tokens = max(1, _total_tokens(store))
    projected_ranges = max(2, -(-total_tokens // target))
    extra_entries = max(1, projected_ranges.bit_length())
    current_cost = tokens * CPU_COST_PER_SCAN_TOKEN
    projected_cost = scans * (
        (target / 2.0) * CPU_COST_PER_SCAN_TOKEN
        + extra_entries * CPU_COST_PER_INDEX_ENTRY
    )
    window = _window_of(snapshots)
    return Recommendation(
        rule="split-ranges",
        knob="max_range_tokens",
        current=current,
        recommended=target,
        summary=(
            f"scans average {avg_depth:.0f} tokens; cap ranges at "
            f"{target} tokens so lookups scan less"
        ),
        evidence=[
            Evidence(fp.K_PATH_SCAN, scans, window, "scan-path resolutions"),
            Evidence(fp.K_TOKENS_SCANNED, tokens, window, "tokens scanned"),
        ],
        what_if=WhatIf(
            "window's scan CPU at current vs. recommended granularity",
            current_cost,
            projected_cost,
        ),
    )


def _latest_partial(
    snapshots: Sequence[HistorySnapshot],
) -> Optional[Dict[str, object]]:
    for snap in reversed(snapshots):
        if snap.partial_index is not None:
            return snap.partial_index
    return None


def _rule_partial_resize(
    store, snapshots: Sequence[HistorySnapshot], finger: WorkloadFingerprint
) -> Optional[Recommendation]:
    """Partial index thrashing (grow) or dead weight (shrink)."""
    if store.partial_index is None:
        return None
    latest = _latest_partial(snapshots)
    if latest is None:
        return None
    inserts = _total(snapshots, "repro_partial_index_inserts_total")
    evictions = _total(snapshots, "repro_partial_index_evictions_total")
    hits = _total(snapshots, 'repro_partial_index_probes_total{result="hit"}')
    misses = _total(snapshots, 'repro_partial_index_probes_total{result="miss"}')
    entries = float(latest.get("entries", 0))
    window = _window_of(snapshots)
    config = store.config
    current = config.partial_index_capacity
    scans = _total(snapshots, fp.K_PATH_SCAN)
    tokens = _total(snapshots, fp.K_TOKENS_SCANNED)
    avg_depth = tokens / scans if scans else 0.0
    if (
        evictions >= max(PARTIAL_GROW_MIN_EVICTIONS,
                         PARTIAL_GROW_EVICTION_FRACTION * inserts)
        and hits > 0
        and current is not None
    ):
        target = _pow2_at_least(entries + evictions)
        if target <= current:
            return None
        # what-if: an entry that survives instead of being evicted turns
        # one future scan-miss into a memo hit
        avoided = min(evictions, misses)
        from repro.core.store import CPU_COST_PER_SCAN_TOKEN

        current_cost = misses * avg_depth * CPU_COST_PER_SCAN_TOKEN
        projected_cost = (
            max(0.0, misses - avoided) * avg_depth * CPU_COST_PER_SCAN_TOKEN
        )
        return Recommendation(
            rule="grow-partial-index",
            knob="partial_index_capacity",
            current=current,
            recommended=target,
            summary=(
                f"partial index evicted {evictions:.0f} entries in the "
                f"window (capacity {current}); grow to {target}"
            ),
            evidence=[
                Evidence(
                    "repro_partial_index_evictions_total", evictions, window
                ),
                Evidence("repro_partial_index_inserts_total", inserts, window),
                Evidence(
                    'repro_partial_index_probes_total{result="miss"}',
                    misses,
                    window,
                ),
            ],
            what_if=WhatIf(
                "scan CPU of memo misses at current vs. grown capacity",
                current_cost,
                projected_cost,
            ),
        )
    probes = hits + misses + _total(
        snapshots, 'repro_partial_index_probes_total{result="stale"}'
    )
    hit_rate = hits / probes if probes else 0.0
    if (
        probes > 0
        and hit_rate < PARTIAL_SHRINK_MAX_HIT_RATE
        and entries >= PARTIAL_SHRINK_MIN_ENTRIES
    ):
        target = max(
            PARTIAL_SHRINK_MIN_ENTRIES, _pow2_at_most(entries / 4)
        )
        if current is not None and target >= current:
            return None
        return Recommendation(
            rule="shrink-partial-index",
            knob="partial_index_capacity",
            current=current,
            recommended=target,
            summary=(
                f"partial index hit rate {hit_rate:.1%} over {probes:.0f} "
                f"probes; shrink to {target} and reclaim memory"
            ),
            evidence=[
                Evidence(
                    'repro_partial_index_probes_total{result="hit"}',
                    hits,
                    window,
                ),
                Evidence("partial_index.entries", entries, window, "resident"),
            ],
            what_if=WhatIf(
                "memo probes are memory-priced; simulated cost unchanged",
                0.0,
                0.0,
            ),
        )
    return None


def _rule_buffer_pool(
    store, snapshots: Sequence[HistorySnapshot], finger: WorkloadFingerprint
) -> Optional[Recommendation]:
    """Hot working set larger than the pool: grow the pool to cover it."""
    heat = None
    for snap in reversed(snapshots):
        if snap.heatmap is not None:
            heat = snap.heatmap
            break
    if heat is None:
        return None
    hot80 = int(heat.get("hot80_blocks", 0))
    hits = _total(snapshots, fp.K_BUFFER_HITS)
    misses = _total(snapshots, fp.K_BUFFER_MISSES)
    accesses = hits + misses
    if not accesses:
        return None
    miss_rate = misses / accesses
    capacity = store.config.buffer_pool_capacity
    if hot80 <= capacity or miss_rate <= BUFFER_MIN_MISS_RATE:
        return None
    target = _pow2_at_least(hot80)
    window = _window_of(snapshots)
    miss_cost = store.config.cost_model.cost(sequential=False, is_write=False)
    # what-if: with the hot set fully resident, misses scale down by the
    # fraction of hot-set blocks the pool could not hold
    projected_misses = misses * (capacity / hot80)
    return Recommendation(
        rule="grow-buffer-pool",
        knob="buffer_pool_capacity",
        current=capacity,
        recommended=target,
        summary=(
            f"80% of block touches land on {hot80} blocks but the pool "
            f"holds {capacity}; grow to {target}"
        ),
        evidence=[
            Evidence("heatmap.hot80_blocks", hot80, window, "hot working set"),
            Evidence(fp.K_BUFFER_MISSES, misses, window,
                     f"miss rate {miss_rate:.1%}"),
        ],
        what_if=WhatIf(
            "device cost of window misses at current vs. grown pool",
            misses * miss_cost,
            projected_misses * miss_cost,
        ),
    )


def _rule_compaction(
    store, snapshots: Sequence[HistorySnapshot], finger: WorkloadFingerprint
) -> Optional[Recommendation]:
    """Read-mostly store fragmented into many tiny ranges: compact."""
    n_ranges = len(store.ranges)
    if n_ranges < COMPACT_MIN_RANGES:
        return None
    total_tokens = _total_tokens(store)
    avg_tokens = total_tokens / n_ranges if n_ranges else 0.0
    if avg_tokens > COMPACT_MAX_AVG_TOKENS:
        return None
    if finger.read_fraction < COMPACT_MIN_READ_FRACTION:
        return None
    window = _window_of(snapshots)
    # what-if: a sequential scan seeks once per range head; compaction
    # merges adjacent ranges back toward one-per-insert-unit
    projected_ranges = max(2, n_ranges // 8)
    seek = store.config.cost_model.seek_seconds
    return Recommendation(
        rule="compact-ranges",
        knob="maintenance:compact",
        current=n_ranges,
        recommended=projected_ranges,
        summary=(
            f"{n_ranges} ranges averaging {avg_tokens:.0f} tokens on a "
            f"read-mostly workload; run compact()"
        ),
        evidence=[
            Evidence("ranges.count", n_ranges, window, "range-table size"),
            Evidence("fingerprint.read_fraction", finger.read_fraction, window),
        ],
        what_if=WhatIf(
            "per-scan seek cost at current vs. compacted range count",
            n_ranges * seek,
            projected_ranges * seek,
        ),
    )


_RULES = (
    _rule_split_ranges,
    _rule_partial_resize,
    _rule_buffer_pool,
    _rule_compaction,
)


# -------------------------------------------------------------- entry points --


def advise(
    store,
    snapshots: Optional[Sequence[HistorySnapshot]] = None,
    window: int = 4,
) -> AdvisorReport:
    """Produce an :class:`AdvisorReport` for ``store``.

    ``snapshots`` defaults to the store's own history.  The report is
    vacuous (zero recommendations, reason stated) on an empty store, on
    any store without history evidence — which covers legacy stores
    opened read-only — and below :data:`MIN_OPERATIONS`.
    """
    rows = list(snapshots) if snapshots is not None else store.history.snapshots()
    if store.is_empty:
        return AdvisorReport(
            vacuous_reason="store is empty",
            operations=0.0,
            window=_window_of(rows) if rows else None,
            fingerprint=None,
        )
    if not rows:
        return AdvisorReport(
            vacuous_reason=(
                "no workload history (enable history_enabled or pass "
                "snapshots)"
            ),
            operations=0.0,
            window=None,
            fingerprint=None,
        )
    finger = fingerprint_window(rows)
    if finger is None or finger.operations < MIN_OPERATIONS:
        observed = finger.operations if finger is not None else 0.0
        return AdvisorReport(
            vacuous_reason=(
                f"insufficient evidence ({observed:.0f} operations "
                f"observed, need >= {MIN_OPERATIONS})"
            ),
            operations=observed,
            window=_window_of(rows),
            fingerprint=finger.to_dict() if finger is not None else None,
        )
    recommendations = []
    for rule in _RULES:
        produced = rule(store, rows, finger)
        if produced is not None:
            recommendations.append(produced)
    return AdvisorReport(
        vacuous_reason=None,
        operations=finger.operations,
        window=_window_of(rows),
        fingerprint=finger.to_dict(),
        drift=drift_series(rows, window=window),
        recommendations=recommendations,
    )


#: StoreConfig fields :func:`apply_recommendations` may change.
_APPLICABLE_KNOBS = frozenset(
    {"max_range_tokens", "partial_index_capacity", "buffer_pool_capacity"}
)


def apply_recommendations(config, report: AdvisorReport):
    """A new :class:`~repro.core.config.StoreConfig` with every
    config-knob recommendation applied (maintenance recommendations —
    ``maintenance:*`` knobs — are actions, not config, and are skipped)."""
    changes: Dict[str, object] = {}
    for rec in report.recommendations:
        if rec.knob in _APPLICABLE_KNOBS:
            changes[rec.knob] = rec.recommended
    if not changes:
        return config
    return replace(config, **changes)

"""Exporters: Prometheus text format, JSON-lines events, and a human view.

Three consumers, three formats:

* :func:`prometheus_text` — the standard ``# HELP``/``# TYPE`` text
  exposition, suitable for scraping or for golden-file tests;
* :func:`events_jsonl` — one JSON object per completed span, oldest
  first, for offline trace analysis;
* :func:`render_top` — a ``top``-style table of the busiest span names
  by cumulative wall time, plus the non-span counters and gauges;
* :func:`render_classic_summary` — reproduces the historical
  ``StoreStatistics.summary()`` wording from a projected registry, so
  examples and scripts that parse that text keep working.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    format_value,
    sample_key,
)
from repro.obs.tracing import SpanEvent


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        rendered = ",".join(
            f'{name}="{_escape_label_value(value)}"' for name, value in sample.labels
        )
        return f"{sample.name}{{{rendered}}} {format_value(sample.value)}"
    return f"{sample.name} {format_value(sample.value)}"


def prometheus_text(families: Iterable[MetricFamily]) -> str:
    """Prometheus text exposition format (one trailing newline)."""
    lines: List[str] = []
    for family in families:
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            lines.append(_render_sample(sample))
    return "\n".join(lines) + "\n" if lines else ""


def events_jsonl(events: Iterable[SpanEvent]) -> str:
    """One JSON object per span event, newline-delimited."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=True, default=str) for event in events
    ]
    return "\n".join(lines) + "\n" if lines else ""


# ------------------------------------------------------------------ top view --

def _format_rows(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    lines = [render(headers), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def render_top(families: Iterable[MetricFamily], limit: int = 15) -> str:
    """A ``top``-style summary: span names ranked by cumulative wall
    time, followed by the remaining counters and gauges."""
    families = list(families)
    spans: Dict[str, Dict[str, float]] = {}
    scalars: List[Tuple[str, float]] = []
    for family in families:
        if family.name == "repro_spans_total":
            for sample in family.samples:
                name = dict(sample.labels).get("span", "?")
                spans.setdefault(name, {})["count"] = sample.value
        elif family.name in ("repro_span_seconds", "repro_span_simulated_seconds"):
            field = "wall" if family.name == "repro_span_seconds" else "sim"
            for sample in family.samples:
                if not sample.name.endswith("_sum"):
                    continue
                name = dict(sample.labels).get("span", "?")
                spans.setdefault(name, {})[field] = sample.value
        elif family.kind in ("counter", "gauge"):
            for sample in family.samples:
                scalars.append((sample_key(sample), sample.value))

    lines: List[str] = []
    if spans:
        ranked = sorted(
            spans.items(), key=lambda item: item[1].get("wall", 0.0), reverse=True
        )[:limit]
        rows = []
        for name, data in ranked:
            count = data.get("count", 0.0)
            wall = data.get("wall", 0.0)
            sim = data.get("sim", 0.0)
            per_call = wall / count if count else 0.0
            rows.append(
                (
                    name,
                    format_value(count),
                    f"{wall * 1000:.3f}",
                    f"{per_call * 1e6:.1f}",
                    f"{sim * 1000:.3f}",
                )
            )
        lines.append("spans (by cumulative wall time)")
        lines.append(
            _format_rows(
                ("span", "count", "wall ms", "us/call", "sim ms"), rows
            )
        )
    if scalars:
        if lines:
            lines.append("")
        lines.append("counters and gauges")
        rows = [(key, format_value(value)) for key, value in scalars[: limit * 4]]
        lines.append(_format_rows(("metric", "value"), rows))
    if not lines:
        return "no telemetry recorded\n"
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- classic summary view --

def render_classic_summary(registry: MetricsRegistry) -> str:
    """The historical ``StoreStatistics.summary()`` text, rebuilt from a
    projected registry (see :mod:`repro.obs.bridge`).  Output format is
    stable: scripts and examples parse these exact lines."""
    values = registry.snapshot()

    def get(key: str) -> float:
        return values.get(key, 0.0)

    updates = int(
        get('repro_store_operations_total{op="load"}')
        + get('repro_store_operations_total{op="insert"}')
        + get('repro_store_operations_total{op="delete"}')
        + get('repro_store_operations_total{op="replace"}')
    )
    read_ops = int(
        get('repro_store_operations_total{op="read"}')
        + get('repro_store_operations_total{op="node_read"}')
    )
    lines = [
        "operations: {updates} updates, {reads} reads "
        "({created} ranges created, {split} split)".format(
            updates=updates,
            reads=read_ops,
            created=int(get('repro_store_ranges_total{event="created"}')),
            split=int(get('repro_store_ranges_total{event="split"}')),
        ),
        "locator: {partial} via partial index, {full} via full index, "
        "{scan} via range scan ({tokens} tokens scanned)".format(
            partial=int(get('repro_locator_resolutions_total{path="partial"}')),
            full=int(get('repro_locator_resolutions_total{path="full"}')),
            scan=int(get('repro_locator_resolutions_total{path="scan"}')),
            tokens=int(get("repro_locator_tokens_scanned_total")),
        ),
        "disk: {reads} reads ({seq} seq), {writes} writes, "
        "{sim:.2f} ms simulated".format(
            reads=int(get('repro_disk_io_total{op="read",pattern="random"}')
                      + get('repro_disk_io_total{op="read",pattern="sequential"}')),
            seq=int(get('repro_disk_io_total{op="read",pattern="sequential"}')),
            writes=int(get('repro_disk_io_total{op="write",pattern="random"}')
                       + get('repro_disk_io_total{op="write",pattern="sequential"}')),
            sim=get("repro_disk_simulated_seconds_total") * 1000.0,
        ),
    ]
    accesses = get('repro_buffer_accesses_total{result="hit"}') + get(
        'repro_buffer_accesses_total{result="miss"}'
    )
    hits = get('repro_buffer_accesses_total{result="hit"}')
    hit_rate = hits / accesses if accesses else 0.0
    lines.append(
        "buffer pool: {rate:.1%} hit rate ({hits}/{accesses})".format(
            rate=hit_rate, hits=int(hits), accesses=int(accesses)
        )
    )
    if any(key.startswith("repro_partial_index_") for key in values):
        probes = (
            get('repro_partial_index_probes_total{result="hit"}')
            + get('repro_partial_index_probes_total{result="miss"}')
            + get('repro_partial_index_probes_total{result="stale"}')
        )
        partial_hits = get('repro_partial_index_probes_total{result="hit"}')
        partial_rate = partial_hits / probes if probes else 0.0
        lines.append(
            "partial index: {rate:.1%} hit rate, {inserts} inserts, "
            "{evictions} evictions, {stale} stale".format(
                rate=partial_rate,
                inserts=int(get("repro_partial_index_inserts_total")),
                evictions=int(get("repro_partial_index_evictions_total")),
                stale=int(get('repro_partial_index_probes_total{result="stale"}')),
            )
        )
    return "\n".join(lines)

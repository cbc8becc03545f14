"""Unified post-mortem timeline over persisted observability artifacts.

Every earlier observability layer persists its own trail next to the
store: alert transitions (``store.alerts.jsonl``), workload-history
snapshots (``store.history.jsonl``), the degraded-repair sidecar
(``store.repair.json``) and — since the flight recorder — incident
bundles (``store.incidents/incident-<n>/``).  After an unattended
failure an operator is left hand-correlating four formats.  This module
is the merge: it loads whatever artifacts exist **without opening the
store** (it must work on a store too corrupt to open), normalises each
row into a :class:`TimelineEntry`, and orders them causally — by the
Table-1 operation counter first, the simulated clock second, never wall
time — into one readable post-mortem narrative.

On top of the timeline, :func:`diagnose` builds a
:class:`DiagnosisReport`: the incident inventory, a root-cause summary
extracted from the earliest fault evidence (recorder fault entries
inside bundles beat alert transitions, which beat incident records),
and a verdict mapped onto the CLI's canonical exit-code scheme —

* ``clean`` / exit 0: no incidents, no fault evidence;
* ``degraded`` / exit 1: no incidents, but a configured replica's
  replication checkpoint is stale (no recent apply progress), or a
  degraded-repair sidecar is present (readable or not);
* ``resolved`` / exit 1: incidents occurred but a later repair left the
  store integrity-clean (degraded-but-diagnosed);
* ``unresolved`` / exit 2: incidents with no clean repair after them.

:func:`write_support_bundle` packs the same artifacts plus the
diagnosis into one portable tarball for hand-off.  The tar is written
deterministically (plain ``w`` mode — gzip embeds an mtime — zeroed
member metadata, sorted order), so two identical seeded runs produce
byte-identical support bundles; CI relies on this.

Everything here is read-only with respect to the store: pages, WAL and
catalog are never modified (the replication-staleness check reads the
primary's WAL bytes to find the stream head, but only ever reads).
"""

from __future__ import annotations

import io
import json
import os
import tarfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.repair import read_sidecar
from repro.log import get_logger
from repro.obs.incident import bundle_names
from repro.obs.schema import (
    ALERTS_FILE,
    HISTORY_FILE,
    INCIDENTS_DIR,
    SIDECAR_FILE,
    read_jsonl,
)

_log = get_logger("obs.timeline")


@dataclass
class TimelineEntry:
    """One causally-ordered row of the merged post-mortem timeline."""

    #: Artifact family: "alert" | "history" | "incident" | "recorder" |
    #: "repair-sidecar".
    source: str
    #: Row type within the family (alert state, snapshot label, trigger
    #: kind, recorder entry kind, sidecar mode).
    kind: str
    #: One-line human summary.
    summary: str
    #: Cumulative Table-1 operations at the row's moment (None when the
    #: artifact does not carry the counter — sorted after counted rows).
    operations: Optional[int] = None
    #: Simulated clock at the row's moment (never wall time).
    simulated: Optional[float] = None
    #: The raw artifact row (schema stamp stripped).
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "kind": self.kind,
            "summary": self.summary,
            "operations": self.operations,
            "simulated": self.simulated,
            "detail": dict(self.detail),
        }


def _sort_key(indexed: Tuple[int, TimelineEntry]) -> Tuple:
    index, entry = indexed
    # rows without an operation counter (repair sidecar, store-less
    # incidents) happen after the run they diagnose: sort them last,
    # stable among themselves
    if entry.operations is None:
        return (1, 0, index)
    # ties on the operation counter fall back to artifact append order,
    # not the simulated stamp: CLI invocations each reset the simulated
    # clock, so across invocations only file order is causal
    return (0, entry.operations, index)


def _strip_stamp(payload: Dict[str, object]) -> Dict[str, object]:
    out = dict(payload)
    out.pop("schema_version", None)
    return out


# ------------------------------------------------------------------ loaders --


def _read_json(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (ValueError, OSError):
        return None
    return payload if isinstance(payload, dict) else None


def load_bundles(store_path: str) -> List[Dict[str, object]]:
    """All complete incident bundles under ``store.incidents``, by
    bundle sequence.  ``incident-<n>.tmp`` leftovers from a crashed
    dump are deliberately ignored — a partial bundle is noise, not
    evidence."""
    directory = os.path.join(store_path, INCIDENTS_DIR)
    bundles: List[Dict[str, object]] = []
    for seq, name in bundle_names(directory):
        base = os.path.join(directory, name)
        record = _read_json(os.path.join(base, "incident.json"))
        if record is None:
            continue
        bundles.append(
            {
                "name": name,
                "seq": seq,
                "incident": record,
                "recorder": _read_json(os.path.join(base, "recorder.json")),
                "health": _read_json(os.path.join(base, "health.json")),
                "integrity": _read_json(os.path.join(base, "integrity.json")),
                "wal": _read_json(os.path.join(base, "wal.json")),
                "quarantine": _read_json(os.path.join(base, "quarantine.json")),
            }
        )
    return bundles


# ----------------------------------------------------------------- building --


def _trail_entries(store_path: str) -> List[TimelineEntry]:
    """The rows of the two JSONL trails, alert transitions first."""
    trails = (
        (ALERTS_FILE, "alert", "state", lambda row: (
            f"alert {row.get('rule', '?')} -> {row.get('state', '?')}"
            f" ({row.get('severity', '?')}): {row.get('summary', '')}"
        )),
        (HISTORY_FILE, "history", "label", lambda row: (
            f"history snapshot #{row.get('seq', '?')}"
            f" ({row.get('label', '?')}, {len(row.get('deltas') or {})} deltas)"
        )),
    )
    return [
        TimelineEntry(
            source=source,
            kind=str(row.get(kind, "?")),
            summary=summary(row),
            operations=row.get("operations"),
            simulated=row.get("simulated_seconds"),
            detail=_strip_stamp(row),
        )
        for name, source, kind, summary in trails
        for row in read_jsonl(os.path.join(store_path, name))
    ]


def _sidecar_entry(row: Optional[Dict[str, object]]) -> List[TimelineEntry]:
    if row is None:
        return []
    return [
        TimelineEntry(
            source="repair-sidecar",
            kind=str(row.get("mode", "?")),
            summary=(
                f"degraded repair sidecar: mode={row.get('mode', '?')}"
                f" lost_ids={row.get('lost_ids', 0)}"
                f" integrity_ok={row.get('integrity_ok')}"
            ),
            detail=_strip_stamp(row),
        )
    ]


def _incident_entries(bundles: List[Dict[str, object]]) -> List[TimelineEntry]:
    entries = []
    for bundle in bundles:
        record = bundle["incident"]
        entries.append(
            TimelineEntry(
                source="incident",
                kind=str(record.get("kind", "?")),
                summary=(
                    f"incident {bundle['name']}: {record.get('kind', '?')}"
                    + (
                        f" [{record.get('key')}]"
                        if record.get("key")
                        else ""
                    )
                ),
                operations=record.get("operations"),
                simulated=record.get("simulated_seconds"),
                detail=_strip_stamp(record),
            )
        )
        recorder = bundle.get("recorder") or {}
        for row in recorder.get("entries") or []:
            if not isinstance(row, dict):
                continue
            operations = _recorder_operations(row)
            if operations is None:
                # event/alert rows carry no counter of their own: they
                # happened at (or just before) the incident that dumped
                # them, so sort them with it
                operations = record.get("operations")
            entries.append(
                TimelineEntry(
                    source="recorder",
                    kind=str(row.get("kind", "?")),
                    summary=(
                        f"[{bundle['name']}] recorder"
                        f" {row.get('kind', '?')}:"
                        f" {row.get('source', '?')}/{row.get('label', '?')}"
                    ),
                    operations=operations,
                    simulated=row.get("simulated"),
                    detail=_strip_stamp(row),
                )
            )
    return entries


def _recorder_operations(row: Dict[str, object]) -> Optional[int]:
    payload = row.get("payload")
    if isinstance(payload, dict):
        operations = payload.get("operations")
        if isinstance(operations, int):
            return operations
    return None


def build_timeline(
    store_path: str, bundles: Optional[List[Dict[str, object]]] = None
) -> List[TimelineEntry]:
    """The merged, causally-ordered timeline of every artifact found
    under ``store_path``.  Purely file-based: never opens the store."""
    if bundles is None:
        bundles = load_bundles(store_path)
    entries = (
        _trail_entries(store_path)
        + _incident_entries(bundles)
        + _sidecar_entry(read_sidecar(store_path))
    )
    # seen-order index keeps the sort stable and deterministic across
    # runs (artifact files are read in a fixed order)
    ordered = sorted(enumerate(entries), key=_sort_key)
    return [entry for _, entry in ordered]


# ---------------------------------------------------------------- diagnosis --


def _root_cause(
    timeline: List[TimelineEntry], bundles: List[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """The earliest fault evidence, strongest source first: a recorder
    fault event (the black box caught the failure itself) beats a
    critical alert transition, which beats the bare incident record."""
    for entry in timeline:
        if entry.source == "recorder" and entry.kind == "event":
            if entry.detail.get("source") == "fault":
                return {
                    "origin": "recorder",
                    "kind": entry.detail.get("label"),
                    "operations": entry.operations,
                    "simulated": entry.simulated,
                    "summary": entry.summary,
                    "detail": entry.detail.get("payload"),
                }
    for entry in timeline:
        if entry.source == "alert" and entry.kind == "fired":
            if entry.detail.get("severity") == "critical":
                return {
                    "origin": "alert",
                    "kind": entry.detail.get("rule"),
                    "operations": entry.operations,
                    "simulated": entry.simulated,
                    "summary": entry.summary,
                    "detail": dict(entry.detail),
                }
    for bundle in bundles:
        record = bundle["incident"]
        if record.get("kind") != "repair":
            return {
                "origin": "incident",
                "kind": record.get("kind"),
                "operations": record.get("operations"),
                "simulated": record.get("simulated_seconds"),
                "summary": f"incident {bundle['name']}: {record.get('kind')}",
                "detail": dict(record.get("detail") or {}),
            }
    return None


def _resolution(
    bundles: List[Dict[str, object]], sidecar: Optional[Dict[str, object]]
) -> Tuple[str, Optional[Dict[str, object]]]:
    """(verdict, resolving-repair-detail).  Resolved means the *last*
    repair incident came back integrity-clean and not degraded, and no
    degraded sidecar outlives it."""
    faults = [b for b in bundles if b["incident"].get("kind") != "repair"]
    repairs = [b for b in bundles if b["incident"].get("kind") == "repair"]
    if not faults and not repairs:
        return ("clean", None)
    if not repairs:
        return ("unresolved", None)
    last = repairs[-1]["incident"]
    detail = dict(last.get("detail") or {})
    report = detail.get("report") if isinstance(detail.get("report"), dict) else detail
    integrity_ok = bool(report.get("integrity_ok"))
    degraded = bool(report.get("degraded"))
    if integrity_ok and not degraded and sidecar is None:
        return ("resolved", detail)
    return ("unresolved", detail)


def _replication_staleness(store_path: str) -> Optional[Dict[str, object]]:
    """Stale-replica evidence from files alone, or None when healthy.

    A store with a replica registry whose replicas' persisted
    checkpoints trail the primary's stream head beyond the staleness
    bound has silently stopped replicating — ``diagnose`` must
    not call that clean (the absence-rule alert fires on the live store;
    this is the post-mortem, file-only view of the same condition).
    """
    from repro.replication.replica import read_checkpoint
    from repro.replication.service import (
        STALE_AFTER_OPS,
        list_replicas,
        stream_head_of,
    )

    replicas = list_replicas(store_path)
    if not replicas:
        return None
    head = stream_head_of(store_path)
    if head is None:
        return None
    stale = []
    for entry in replicas:
        checkpoint = read_checkpoint(entry.get("path", ""))
        cursor = int(checkpoint["cursor"]) if checkpoint else 0
        lag = max(0, head - cursor)
        if lag > STALE_AFTER_OPS:
            stale.append(
                {
                    "name": entry.get("name", "?"),
                    "cursor": cursor,
                    "lag": lag,
                    "has_checkpoint": checkpoint is not None,
                }
            )
    if not stale:
        return None
    return {
        "head": head,
        "stale_after_ops": STALE_AFTER_OPS,
        "stale_replicas": stale,
        "configured_replicas": len(replicas),
    }


@dataclass
class DiagnosisReport:
    """What happened to this store, reconstructed from artifacts alone."""

    store_path: str
    verdict: str  # "clean" | "degraded" | "resolved" | "unresolved"
    timeline: List[TimelineEntry]
    incidents: List[Dict[str, object]]
    root_cause: Optional[Dict[str, object]] = None
    resolution: Optional[Dict[str, object]] = None
    #: bundle the diagnosis focused on (``--incident``), if any
    focus: Optional[str] = None
    #: stale-replication evidence (None when replicas are healthy or
    #: none are configured)
    replication: Optional[Dict[str, object]] = None

    @property
    def exit_code(self) -> int:
        """The canonical CLI scheme (see README): 0 clean, 1 incidents
        resolved by a clean repair or replication gone stale (degraded),
        2 unresolved."""
        return {"clean": 0, "degraded": 1, "resolved": 1}.get(self.verdict, 2)

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import stamp

        return stamp(
            {
                "store_path": self.store_path,
                "verdict": self.verdict,
                "exit_code": self.exit_code,
                "incident_count": len(self.incidents),
                "incidents": [dict(record) for record in self.incidents],
                "root_cause": self.root_cause,
                "resolution": self.resolution,
                "focus": self.focus,
                "replication": self.replication,
                "timeline": [entry.to_dict() for entry in self.timeline],
            }
        )

    def render(self) -> str:
        lines = [
            f"post-mortem diagnosis: {self.store_path}",
            f"  verdict: {self.verdict} (exit {self.exit_code})",
            f"  incidents: {len(self.incidents)}",
        ]
        if self.root_cause is not None:
            cause = self.root_cause
            lines.append(
                f"  root cause [{cause.get('origin')}]: {cause.get('kind')}"
                + (
                    f" at op {cause.get('operations')}"
                    if cause.get("operations") is not None
                    else ""
                )
            )
        if self.resolution is not None:
            lines.append(f"  resolution: repair ({self.verdict})")
        if self.replication is not None:
            stale = self.replication.get("stale_replicas") or []
            names = ", ".join(
                f"{r.get('name')} (lag {r.get('lag')})" for r in stale
            )
            lines.append(
                f"  replication: {len(stale)} stale replica(s): {names}"
            )
        lines.append("")
        lines.append("timeline (causal order):")
        if not self.timeline:
            lines.append("  (no observability artifacts found)")
        for entry in self.timeline:
            moment = (
                f"op {entry.operations:>6}"
                if entry.operations is not None
                else "post-run "
            )
            lines.append(f"  {moment}  {entry.source:>14}  {entry.summary}")
        return "\n".join(lines) + "\n"


def diagnose(
    store_path: str, incident: Optional[str] = None
) -> DiagnosisReport:
    """Build the post-mortem report for ``store_path`` from persisted
    artifacts alone.  ``incident`` narrows the recorder timeline to one
    named bundle (``incident-3``) — the incident inventory and verdict
    still consider everything."""
    bundles = load_bundles(store_path)
    focus = None
    if incident is not None:
        matches = [b for b in bundles if b["name"] == incident]
        if not matches:
            from repro.errors import ObservabilityError

            known = ", ".join(b["name"] for b in bundles) or "none"
            raise ObservabilityError(
                f"no incident bundle {incident!r} under {store_path}"
                f" (found: {known})"
            )
        focus = incident
        timeline_bundles = matches
    else:
        timeline_bundles = bundles
    timeline = build_timeline(store_path, bundles=timeline_bundles)
    sidecar = read_sidecar(store_path)
    verdict, resolution = _resolution(bundles, sidecar)
    replication = _replication_staleness(store_path)
    if verdict == "clean" and (replication is not None or sidecar is not None):
        # replicas configured but none keeping up, or a repair that lost
        # data: not clean — an operator pointed here must see it
        verdict = "degraded"
    return DiagnosisReport(
        store_path=store_path,
        verdict=verdict,
        timeline=timeline,
        incidents=[dict(b["incident"]) for b in bundles],
        root_cause=_root_cause(timeline, timeline_bundles),
        resolution=resolution,
        focus=focus,
        replication=replication,
    )


# ------------------------------------------------------------ support bundle --


def _bundle_members(store_path: str) -> List[str]:
    """Relative paths of every artifact worth shipping, sorted."""
    members = []
    for name in (ALERTS_FILE, HISTORY_FILE, SIDECAR_FILE):
        if os.path.exists(os.path.join(store_path, name)):
            members.append(name)
    incidents = os.path.join(store_path, INCIDENTS_DIR)
    if os.path.isdir(incidents):
        for root, dirs, files in os.walk(incidents):
            dirs[:] = sorted(d for d in dirs if not d.endswith(".tmp"))
            for file_name in sorted(files):
                full = os.path.join(root, file_name)
                members.append(os.path.relpath(full, store_path))
    return sorted(members)


def _tar_add_bytes(archive: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name=name)
    info.size = len(data)
    # zeroed metadata keeps the archive a pure function of its contents
    info.mtime = 0
    info.uid = info.gid = 0
    info.uname = info.gname = ""
    info.mode = 0o644
    archive.addfile(info, io.BytesIO(data))


def write_support_bundle(store_path: str, output: str) -> Dict[str, object]:
    """Pack every observability artifact plus a fresh diagnosis into a
    portable, deterministic tarball at ``output``.  Returns the stamped
    manifest (also embedded as ``MANIFEST.json``)."""
    from repro.obs.schema import stamp

    report = diagnose(store_path)
    members = _bundle_members(store_path)
    manifest = stamp(
        {
            "store_path": store_path,
            "verdict": report.verdict,
            "incident_count": len(report.incidents),
            "members": list(members),
        }
    )
    diagnosis_data = (
        json.dumps(report.to_dict(), indent=2, sort_keys=True, default=str)
        + "\n"
    ).encode("utf-8")
    manifest_data = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    parent = os.path.dirname(os.path.abspath(output))
    os.makedirs(parent, exist_ok=True)
    # plain (uncompressed) mode: gzip embeds a timestamp, which would
    # break the byte-identity CI diffs
    with tarfile.open(output, "w") as archive:
        _tar_add_bytes(archive, "MANIFEST.json", manifest_data)
        _tar_add_bytes(archive, "diagnosis.json", diagnosis_data)
        for member in members:
            with open(os.path.join(store_path, member), "rb") as handle:
                _tar_add_bytes(archive, member, handle.read())
    _log.info(
        "support bundle: %d artifact members -> %s", len(members), output
    )
    return manifest

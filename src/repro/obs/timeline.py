"""Post-mortem timeline: the journal read in order, plus a diagnosis.

A directory store's journal (:mod:`repro.obs.journal`) holds its history
captures, alert transitions and incidents, numbered by one ``seq`` that
survives reopen; each incident bundle (``store.incidents/incident-<n>.json``)
adds the ring rows (events, metric frames) the flight recorder held when
it fired, numbered by the same ``seq``.  The timeline is those rows in
``seq`` order, each entry built from its kind's declaration in
:data:`~repro.obs.journal.JOURNAL_KINDS`, then the degraded-repair sidecar
(``store.repair.json``: state, not a trail).  Nothing here opens the
store, so it works on a store too corrupt to open.

:func:`diagnose` adds the incident inventory, a root cause (the earliest
fault evidence: a fault event in the ring beats a critical alert
transition, which beats an incident row) and a verdict on the CLI's
exit-code scheme — ``clean`` (0): no incidents, no fault evidence;
``degraded`` (1): no incidents, but a configured replica's checkpoint is
stale or a degraded-repair sidecar is present (readable or not);
``resolved`` (1): a later repair left the store integrity-clean;
``unresolved`` (2): incidents with no clean repair after them.

:func:`write_support_bundle` packs the same artifacts plus the diagnosis
into one deterministic tarball (plain ``w`` mode — gzip embeds an mtime —
zeroed member metadata, sorted order): two identical seeded runs produce
byte-identical support bundles, which CI relies on.  Everything here only
reads (the replication-staleness check reads the primary's WAL bytes to
find the stream head).
"""

from __future__ import annotations

import io
import json
import os
import tarfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.repair import read_sidecar
from repro.errors import ObservabilityError
from repro.log import get_logger
from repro.obs.incident import bundle_files
from repro.obs.journal import (
    JOURNAL_FILE,
    JOURNAL_KINDS,
    Row,
    check_row,
    read_journal,
    warn_legacy,
)
from repro.obs.schema import INCIDENTS_DIR, SIDECAR_FILE

_log = get_logger("obs.timeline")


def _strip_stamp(payload: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in payload.items() if key != "schema_version"}


def _summary(row: Row) -> str:
    return JOURNAL_KINDS[row["kind"]].summary(row)  # type: ignore[index]


def _ring_of(store_path: str, bundle: str) -> List[Row]:
    """The ring rows of bundle ``bundle``; none when it is missing, has no
    ring or is malformed (a partial bundle is noise, not evidence)."""
    path = os.path.join(store_path, INCIDENTS_DIR, bundle + ".json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            ring = json.load(handle).get("ring") or {}
        return [check_row(row, path) for row in ring.get("entries") or []]
    except (OSError, ValueError, AttributeError, ObservabilityError):
        return []


def _timeline_rows(
    store_path: str, rows: List[Row], focus: Optional[str] = None
) -> List[Row]:
    """The journal's ``rows`` and their bundles' ring-only rows, in ``seq``
    order; ``focus`` keeps one bundle's incident and ring."""
    by_seq = {
        row["seq"]: row
        for row in rows
        if focus is None or row["kind"] != "incident" or row["bundle"] == focus
    }
    for incident in list(by_seq.values()):
        if incident["kind"] == "incident" and incident["bundle"]:
            for row in _ring_of(store_path, incident["bundle"]):  # type: ignore[arg-type]
                if not JOURNAL_KINDS[row["kind"]].persisted:  # type: ignore[index]
                    by_seq.setdefault(row["seq"], row)
    return [by_seq[seq] for seq in sorted(by_seq)]  # type: ignore[type-var]


def _entry(row: Row) -> Dict[str, object]:
    """One timeline entry, as the row's kind declares it."""
    return {
        "source": row["kind"],
        "kind": row[JOURNAL_KINDS[row["kind"]].subkind],  # type: ignore[index]
        "summary": _summary(row),
        "operations": row["op"],
        "simulated": row["sim"],
        "detail": _strip_stamp(row),
    }


def _sidecar_entry(row: Optional[Dict[str, object]]) -> List[Dict[str, object]]:
    if row is None:
        return []
    mode = row.get("mode", "?")
    summary = (
        f"degraded repair sidecar: mode={mode} lost_ids={row.get('lost_ids', 0)}"
        f" integrity_ok={row.get('integrity_ok')}"
    )
    return [{"source": "repair-sidecar", "kind": str(mode), "summary": summary,
             "operations": None, "simulated": None, "detail": _strip_stamp(row)}]


def build_timeline(
    store_path: str, focus: Optional[str] = None
) -> List[Dict[str, object]]:
    """The timeline of ``store_path``; each entry has six keys: ``source``
    (the row kind), ``kind`` (its sub-kind), ``summary``, ``operations``,
    ``simulated`` and ``detail`` (the row)."""
    rows = read_journal(os.path.join(store_path, JOURNAL_FILE))
    return [_entry(row) for row in _timeline_rows(store_path, rows, focus)] + (
        _sidecar_entry(read_sidecar(store_path))
    )


#: Root-cause evidence, strongest first: (origin, the rows that count, the
#: field naming the cause, the detail reported).
_EVIDENCE = (
    ("recorder", lambda row: row["kind"] == "event" and row["source"] == "fault",
     "label", lambda row: row["payload"]),
    ("alert", lambda row: row["kind"] == "alert" and row["state"] == "fired"
     and row["severity"] == "critical", "rule", _strip_stamp),
    ("incident", lambda row: row["kind"] == "incident" and row["trigger"] != "repair",
     "trigger", lambda row: dict(row["detail"])),
)


def _root_cause(rows: List[Row]) -> Optional[Dict[str, object]]:
    """The earliest row of the strongest evidence there is."""
    for origin, counts, cause, detail in _EVIDENCE:
        for row in filter(counts, rows):
            return {"origin": origin, "kind": row[cause], "operations": row["op"],
                    "simulated": row["sim"], "summary": _summary(row),
                    "detail": detail(row)}
    return None


def _resolution(
    incidents: List[Row], sidecar: Optional[Dict[str, object]]
) -> Tuple[str, Optional[Dict[str, object]]]:
    """(verdict, resolving-repair-detail).  Resolved means the *last*
    repair incident came back integrity-clean and not degraded, and no
    degraded sidecar outlives it."""
    repairs = [row for row in incidents if row["trigger"] == "repair"]
    if not incidents:
        return ("clean", None)
    if not repairs:
        return ("unresolved", None)
    detail = dict(repairs[-1]["detail"])  # type: ignore[call-overload]
    report = detail.get("report") if isinstance(detail.get("report"), dict) else detail
    if report.get("integrity_ok") and not report.get("degraded") and sidecar is None:
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
    timeline: List[Dict[str, object]]
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
        from dataclasses import asdict

        from repro.obs.schema import stamp

        return stamp(
            {**asdict(self), "exit_code": self.exit_code,
             "incident_count": len(self.incidents)}
        )

    def render(self) -> str:
        lines = [
            f"post-mortem diagnosis: {self.store_path}",
            f"  verdict: {self.verdict} (exit {self.exit_code})",
            f"  incidents: {len(self.incidents)}",
        ]
        cause = self.root_cause
        if cause is not None:
            at = "" if cause["operations"] is None else f" at op {cause['operations']}"
            lines.append(f"  root cause [{cause['origin']}]: {cause['kind']}{at}")
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
                f"op {entry['operations']:>6}"
                if entry["operations"] is not None
                else "post-run "
            )
            lines.append(f"  {moment}  {entry['source']:>14}  {entry['summary']}")
        return "\n".join(lines) + "\n"


def diagnose(
    store_path: str, incident: Optional[str] = None
) -> DiagnosisReport:
    """Build the post-mortem report for ``store_path`` from persisted
    artifacts alone.  ``incident`` narrows the recorder timeline to one
    named bundle (``incident-3``) — the incident inventory and verdict
    still consider everything."""
    warn_legacy(store_path)
    rows = read_journal(os.path.join(store_path, JOURNAL_FILE))
    incidents = [row for row in rows if row["kind"] == "incident"]
    if incident is not None and incident not in [row["bundle"] for row in incidents]:
        known = ", ".join(str(row["bundle"]) for row in incidents if row["bundle"])
        raise ObservabilityError(
            f"no incident bundle {incident!r} under {store_path}"
            f" (found: {known or 'none'})"
        )
    timeline_rows = _timeline_rows(store_path, rows, incident)
    sidecar = read_sidecar(store_path)
    verdict, resolution = _resolution(incidents, sidecar)
    replication = _replication_staleness(store_path)
    if verdict == "clean" and (replication is not None or sidecar is not None):
        # replicas configured but none keeping up, or a repair that lost
        # data: not clean — an operator pointed here must see it
        verdict = "degraded"
    return DiagnosisReport(
        store_path=store_path,
        verdict=verdict,
        timeline=[_entry(row) for row in timeline_rows] + _sidecar_entry(sidecar),
        incidents=incidents,
        root_cause=_root_cause(timeline_rows),
        resolution=resolution,
        focus=incident,
        replication=replication,
    )


# ------------------------------------------------------------ support bundle --


def _bundle_members(store_path: str) -> List[str]:
    """Relative paths of every artifact worth shipping, sorted."""
    members = [
        name
        for name in (JOURNAL_FILE, SIDECAR_FILE)
        if os.path.exists(os.path.join(store_path, name))
    ]
    members.extend(
        os.path.join(INCIDENTS_DIR, name)
        for name in bundle_files(os.path.join(store_path, INCIDENTS_DIR))
    )
    return sorted(members)


def _tar_add_bytes(archive: tarfile.TarFile, name: str, data: bytes) -> None:
    # TarInfo's defaults zero the metadata (mtime, owner, mode 0o644), so
    # the archive is a pure function of its contents
    info = tarfile.TarInfo(name=name)
    info.size = len(data)
    archive.addfile(info, io.BytesIO(data))


def write_support_bundle(store_path: str, output: str) -> Dict[str, object]:
    """Pack every observability artifact plus a fresh diagnosis into a
    portable, deterministic tarball at ``output``.  Returns the stamped
    manifest (also embedded as ``MANIFEST.json``)."""
    from repro.obs.schema import stamp

    report = diagnose(store_path)
    members = _bundle_members(store_path)
    manifest = stamp(
        {"store_path": store_path, "verdict": report.verdict,
         "incident_count": len(report.incidents), "members": list(members)}
    )
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    # plain (uncompressed) mode: gzip embeds a timestamp, which would
    # break the byte-identity CI diffs
    with tarfile.open(output, "w") as archive:
        for name, payload in (("MANIFEST.json", manifest), ("diagnosis.json", report.to_dict())):
            data = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
            _tar_add_bytes(archive, name, data.encode("utf-8"))
        for member in members:
            with open(os.path.join(store_path, member), "rb") as handle:
                _tar_add_bytes(archive, member, handle.read())
    _log.info(
        "support bundle: %d artifact members -> %s", len(members), output
    )
    return manifest

"""Incident triggers and schema-stamped bundle dumps.

The flight recorder (:mod:`repro.obs.recorder`) holds the last moments
of context in memory; this module decides *when that context is worth
persisting* and writes it out as an **incident bundle** — a
self-contained directory an operator (or ``repro diagnose``) can read
long after the process is gone.

Trigger kinds (:data:`TRIGGER_KINDS`):

``critical-alert``
    a critical alert rule transitioned to ``fired``
    (:meth:`~repro.obs.alerts.AlertEngine._emit`);
``checksum-quarantine``
    the buffer pool quarantined a block after failed verification —
    whether detected on fetch or by the scrubber;
``crash-recovery``
    WAL replay found records past the last checkpoint (the store did
    not shut down cleanly);
``repair``
    :func:`repro.core.repair.repair_directory` ran (store-less path,
    see :func:`record_directory_incident`);
``slo-budget-exhausted``
    the simulated-latency error budget went negative.

Each ``(kind, key)`` pair fires **once per store instance** (a rotted
chain does not dump a hundred identical bundles), bounded overall by
:data:`DEFAULT_LIMIT`.  Bundles land in
``store.incidents/incident-<seq>/`` as a set of individually
schema-stamped JSON files: the recorder ring dump, the health verdict,
the integrity report, the effective configuration, a WAL tail summary
and the quarantine state.

Crash safety: a bundle is written into ``incident-<seq>.tmp/`` first
and renamed into place only when complete, and every byte goes through
plain files *outside* the store's pages and WAL — a crash mid-dump can
leave an ignorable ``.tmp`` directory, never a corrupt store.  Dump
failures are logged and swallowed: diagnostics must never take the
store down.

Determinism: bundle contents are pure functions of deterministic
counters and on-disk state (the recorder strips wall readings; health
restricts itself to the simulated axis), so two identical seeded runs
dump byte-identical bundles — CI diffs them.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ObservabilityError
from repro.log import get_logger

#: Directory (inside a store directory) incident bundles land in.
INCIDENTS_DIR = "store.incidents"

DEFAULT_LIMIT = 16

TRIGGER_KINDS = (
    "critical-alert",
    "checksum-quarantine",
    "crash-recovery",
    "repair",
    "slo-budget-exhausted",
)

_BUNDLE_NAME = re.compile(r"^incident-(\d+)$")

_log = get_logger("obs.incident")


@dataclass
class IncidentRecord:
    """One recorded incident (bundle on disk when ``bundle`` is set)."""

    seq: int
    kind: str
    key: str
    operations: Optional[int]
    simulated_seconds: Optional[float]
    detail: Dict[str, object] = field(default_factory=dict)
    #: bundle directory name under ``store.incidents`` (None = in-memory
    #: store, or the dump failed and was swallowed)
    bundle: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        from repro.obs.schema import stamp

        return stamp(
            {
                "seq": self.seq,
                "kind": self.kind,
                "key": self.key,
                "operations": self.operations,
                "simulated_seconds": self.simulated_seconds,
                "detail": dict(self.detail),
                "bundle": self.bundle,
            }
        )


def _config_payload(config, cost_model=None) -> Dict[str, object]:
    """The effective configuration, stamped: the
    :class:`~repro.core.config.StoreConfig` with enums flattened to
    JSON-safe values, plus the device's disk cost model (the default
    model when none is given)."""
    import dataclasses
    from enum import Enum

    from repro.obs.schema import stamp
    from repro.storage.disk import DiskCostModel

    out: Dict[str, object] = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, Enum):
            value = value.value
        elif not isinstance(value, (bool, int, float, str, type(None))):
            value = str(value)
        out[spec.name] = value
    out["cost_model"] = dataclasses.asdict(cost_model or DiskCostModel())
    return stamp(out)


def _wal_summary(store) -> Dict[str, object]:
    """WAL tail summary: totals plus the records past the last
    checkpoint, bucketed by record type."""
    from repro.errors import ReproError
    from repro.obs.schema import stamp

    wal = store.wal
    out: Dict[str, object] = {
        "appends": wal.appends,
        "fsyncs": wal.fsyncs,
        "size_bytes": wal.size_bytes,
    }
    try:
        pending = wal.records_after_last_checkpoint()
    except ReproError as error:
        out["pending_records"] = None
        out["pending_error"] = str(error)
        return stamp(out)
    by_type: Dict[str, int] = {}
    for record in pending:
        by_type[record.type_name] = by_type.get(record.type_name, 0) + 1
    out["pending_records"] = len(pending)
    out["pending_first_lsn"] = pending[0].lsn if pending else None
    out["pending_last_lsn"] = pending[-1].lsn if pending else None
    out["pending_by_type"] = by_type
    return stamp(out)


def _quarantine_payload(store) -> Dict[str, object]:
    from repro.obs.schema import stamp

    return stamp(
        {
            "blocks": store.pool.quarantined_blocks(),
            "checksum_errors": store.stats.buffer.checksum_errors,
        }
    )


def _next_bundle_seq(directory: str) -> int:
    """One past the highest ``incident-<n>`` already on disk (``.tmp``
    leftovers from a crashed dump are ignored, like everywhere else)."""
    if not os.path.isdir(directory):
        return 0
    highest = -1
    for name in os.listdir(directory):
        match = _BUNDLE_NAME.match(name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def _write_bundle_file(directory: str, name: str, payload) -> None:
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


class IncidentManager:
    """Trigger framework: dedup, bound, dump.  A manager built with
    ``enabled=False`` owns no directory and is never triggered."""

    def __init__(
        self,
        directory: Optional[str] = None,
        limit: int = DEFAULT_LIMIT,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        directory = directory if enabled else None
        self.directory = directory
        self.limit = limit
        #: incidents recorded, by trigger kind (``repro_incidents_total``)
        self.counts: Dict[str, int] = {}
        #: triggers dropped because the per-instance limit was reached
        self.suppressed = 0
        self._records: List[IncidentRecord] = []
        self._seen: set = set()
        self._next_seq = _next_bundle_seq(directory) if directory else 0
        self._store = None
        self._store_path = (
            os.path.dirname(os.path.abspath(directory)) if directory else None
        )
        self._dumping = False

    def attach(self, store) -> None:
        """Bind the owning store (``XMLStore._setup_telemetry``); a
        disabled manager keeps no reference to it."""
        if self.enabled:
            self._store = store

    # ------------------------------------------------------------- triggering --

    def trigger(
        self, kind: str, key: str = "", **detail: object
    ) -> Optional[IncidentRecord]:
        """Record one incident (and dump its bundle on directory stores).

        Returns None when the trigger was deduplicated, suppressed by
        the limit, or re-entrant (a trigger firing *during* a dump —
        e.g. the bundle's own integrity walk tripping over a second
        rotten block — is dropped rather than recursing)."""
        if kind not in TRIGGER_KINDS:
            raise ObservabilityError(
                f"unknown incident trigger {kind!r}; use one of {TRIGGER_KINDS}"
            )
        if self._dumping:
            return None
        dedup = (kind, str(key))
        if dedup in self._seen:
            return None
        if len(self._records) >= self.limit:
            self.suppressed += 1
            return None
        self._seen.add(dedup)
        store = self._store
        record = IncidentRecord(
            seq=self._next_seq,
            kind=kind,
            key=str(key),
            operations=(
                store.operations.read_ops + store.operations.updates
                if store is not None
                else None
            ),
            simulated_seconds=(
                store.simulated_seconds if store is not None else None
            ),
            detail={name: detail[name] for name in sorted(detail)},
        )
        self._next_seq += 1
        if self.directory is not None and store is not None:
            self._dumping = True
            try:
                record.bundle = self._dump(record, store)
            except Exception as error:  # noqa: BLE001 - never break the store
                _log.warning(
                    "incident bundle dump failed (%s); incident %d recorded "
                    "in memory only",
                    error,
                    record.seq,
                )
            finally:
                self._dumping = False
        self._records.append(record)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        _log.error(
            "incident %d (%s%s) recorded%s",
            record.seq,
            kind,
            f": {record.key}" if record.key else "",
            f" -> {record.bundle}" if record.bundle else "",
        )
        return record

    # ---------------------------------------------------------------- dumping --

    def _dump(self, record: IncidentRecord, store) -> str:
        """Write the bundle crash-safely: everything into ``.tmp``, one
        rename into place.  Every file is individually stamped."""
        os.makedirs(self.directory, exist_ok=True)
        name = f"incident-{record.seq}"
        final = os.path.join(self.directory, name)
        temporary = final + ".tmp"
        if os.path.isdir(temporary):
            import shutil

            shutil.rmtree(temporary)
        os.makedirs(temporary)
        _write_bundle_file(temporary, "incident.json", record.to_dict())
        _write_bundle_file(temporary, "recorder.json", store.recorder.to_dict())
        _write_bundle_file(
            temporary, "config.json", _config_payload(store.config, store.cost_model)
        )
        _write_bundle_file(temporary, "wal.json", _wal_summary(store))
        _write_bundle_file(
            temporary, "quarantine.json", _quarantine_payload(store)
        )
        _write_bundle_file(
            temporary, "health.json", self._health_payload(store)
        )
        _write_bundle_file(
            temporary, "integrity.json", self._integrity_payload(store)
        )
        os.rename(temporary, final)
        return name

    def _health_payload(self, store) -> Dict[str, object]:
        """Best-effort health verdict: a store too broken to diagnose
        still gets a bundle (with the failure recorded instead)."""
        from repro.obs.schema import stamp

        try:
            from repro.obs.health import health_report

            return health_report(store, store_path=self._store_path).to_dict()
        except Exception as error:  # noqa: BLE001 - best effort by design
            return stamp({"error": str(error), "verdict": None})

    def _integrity_payload(self, store) -> Dict[str, object]:
        from repro.obs.schema import stamp

        try:
            from repro.core.integrity import integrity_report

            return integrity_report(store).to_dict()
        except Exception as error:  # noqa: BLE001 - best effort by design
            return stamp({"error": str(error), "ok": None})

    # ---------------------------------------------------------------- reading --

    def incidents(self) -> List[IncidentRecord]:
        """Incidents recorded through this instance, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


def record_directory_incident(
    path: str, kind: str, detail: Dict[str, object], config=None
) -> Optional[str]:
    """Store-less bundle dump for code paths that operate on a *closed*
    directory store (``repair_directory``): no live recorder or health
    walk exists there, so the bundle carries the trigger detail and the
    effective config only.  Best-effort: returns the bundle name, or
    None when anything failed (diagnostics never break repair)."""
    try:
        directory = os.path.join(path, INCIDENTS_DIR)
        seq = _next_bundle_seq(directory)
        record = IncidentRecord(
            seq=seq,
            kind=kind,
            key="",
            operations=None,
            simulated_seconds=None,
            detail={name: detail[name] for name in sorted(detail)},
        )
        os.makedirs(directory, exist_ok=True)
        name = f"incident-{seq}"
        final = os.path.join(directory, name)
        temporary = final + ".tmp"
        if os.path.isdir(temporary):
            import shutil

            shutil.rmtree(temporary)
        os.makedirs(temporary)
        record.bundle = name
        _write_bundle_file(temporary, "incident.json", record.to_dict())
        if config is not None:
            _write_bundle_file(
                temporary, "config.json", _config_payload(config)
            )
        os.rename(temporary, final)
        return name
    except Exception as error:  # noqa: BLE001 - best effort by design
        _log.warning("store-less incident dump for %s failed: %s", path, error)
        return None

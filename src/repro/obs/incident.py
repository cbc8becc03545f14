"""Incident triggers and schema-stamped bundle dumps.

The flight recorder (:mod:`repro.obs.recorder`) holds the last moments
of context in memory; this module decides *when that context is worth
persisting*.  Trigger kinds (:data:`TRIGGER_KINDS`): ``critical-alert``
and ``slo-budget-exhausted`` (an alert fired on the watch tick whose row
of :data:`~repro.obs.rules.RULES` names that kind), ``checksum-quarantine``
(the pool quarantined a block, on fetch or scrub), ``crash-recovery``
(WAL replay found records past the last checkpoint) and ``repair``
(:func:`repro.core.repair.repair_directory` ran; see
:func:`record_directory_incident`).

Each ``(kind, key)`` pair fires **once per store instance**, bounded by
:data:`DEFAULT_LIMIT`.  Every incident is an ``incident`` row of the
store's journal (:mod:`repro.obs.journal`); on a directory store it also
dumps a bundle, one stamped file ``store.incidents/incident-<n>.json``
holding the row, the recorder's ring, and the configuration, WAL tail,
quarantine, health and integrity payloads, each stamped on its own.

A bundle is written to ``incident-<n>.json.tmp`` and renamed into place
when complete, outside the store's pages and WAL: a crash mid-dump leaves
an ignorable ``.tmp`` file, never a corrupt store.  Dump failures are
logged and swallowed (the row then names no bundle).  Bundle contents are
pure functions of deterministic counters and on-disk state, so identical
seeded runs dump byte-identical bundles — CI diffs them.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional

from repro.errors import ObservabilityError
from repro.log import get_logger
from repro.obs.journal import JOURNAL_FILE, Journal, Row
from repro.obs.schema import INCIDENTS_DIR, stamp

DEFAULT_LIMIT = 16

TRIGGER_KINDS = (
    "critical-alert",
    "checksum-quarantine",
    "crash-recovery",
    "repair",
    "slo-budget-exhausted",
)

#: A complete bundle (``incident-<n>.json.tmp`` is a dump cut short).
_BUNDLE_FILE = re.compile(r"^incident-(\d+)\.json$")

_log = get_logger("obs.incident")


def _config_payload(config, cost_model=None) -> Dict[str, object]:
    """The effective configuration, stamped: the
    :class:`~repro.core.config.StoreConfig` with enums flattened to
    JSON-safe values, plus the device's disk cost model (the default
    model when none is given)."""
    import dataclasses
    from enum import Enum

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
    return stamp(
        {
            "blocks": store.pool.quarantined_blocks(),
            "checksum_errors": store.stats.buffer.checksum_errors,
        }
    )


def bundle_files(directory: str) -> List[str]:
    """The complete bundles under ``directory``, by number (the ``.tmp``
    leftover of a crashed dump is not one)."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    return sorted(filter(_BUNDLE_FILE.match, names), key=_bundle_number)


def _bundle_number(name: str) -> int:
    return int(_BUNDLE_FILE.match(name).group(1))  # type: ignore[union-attr]


def _best_effort(report, **failure) -> Dict[str, object]:
    """``report()`` as a dict, or the error that stopped it: a store too
    broken to diagnose still gets a bundle."""
    try:
        return report().to_dict()
    except Exception as error:  # noqa: BLE001 - best effort by design
        return stamp({"error": str(error), **failure})


def _write_bundle(directory: str, name: str, payload: Dict[str, object]) -> None:
    """Write bundle ``name`` crash-safely: the stamped ``payload`` into
    ``<name>.json.tmp``, then one rename into place."""
    final = os.path.join(directory, name + ".json")
    temporary = final + ".tmp"
    os.makedirs(directory, exist_ok=True)
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(stamp(payload), handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    os.rename(temporary, final)


class IncidentManager:
    """Trigger framework: dedup, bound, dump.  A manager built with
    ``enabled=False`` records into a disabled journal and is never
    triggered."""

    def __init__(
        self,
        journal: Optional[Journal] = None,
        limit: int = DEFAULT_LIMIT,
        enabled: bool = True,
        config=None,
    ) -> None:
        self.enabled = enabled
        self.journal = journal if journal is not None else Journal(enabled=enabled)
        path = self.journal.path
        #: where bundles dump (None: the journal has no file)
        self.directory = path and os.path.join(os.path.dirname(path), INCIDENTS_DIR)
        self.limit = limit
        #: a store-less bundle's configuration (a store's bundle reads its own)
        self.config = config
        #: incidents recorded, by trigger kind (``repro_incidents_total``)
        self.counts: Dict[str, int] = {}
        #: triggers dropped because the per-instance limit was reached
        self.suppressed = 0
        self._rows: List[Row] = []
        self._seen: set = set()
        bundles = bundle_files(self.directory) if self.directory else []
        self._next_number = _bundle_number(bundles[-1]) + 1 if bundles else 0
        self._store = None
        self._dumping = False

    def attach(self, store) -> None:
        """Bind the owning store (``XMLStore._setup_telemetry``); a
        disabled manager keeps no reference to it."""
        if self.enabled:
            self._store = store

    # ------------------------------------------------------------- triggering --

    def trigger(self, kind: str, key: str = "", **detail: object) -> Optional[Row]:
        """Record one incident row (and dump its bundle on directory
        stores); returns the row.

        Returns None when the trigger was deduplicated, suppressed by
        the limit, or re-entrant (a trigger firing *during* a dump —
        e.g. the bundle's own integrity walk tripping over a second
        rotten block — is dropped rather than recursing)."""
        if kind not in TRIGGER_KINDS:
            raise ObservabilityError(
                f"unknown incident trigger {kind!r}; use one of {TRIGGER_KINDS}"
            )
        if self._dumping or not self.journal.enabled:
            return None
        dedup = (kind, str(key))
        if dedup in self._seen:
            return None
        if len(self._rows) >= self.limit:
            self.suppressed += 1
            return None
        self._seen.add(dedup)
        store = self._store
        name = f"incident-{self._next_number}" if self.directory else None
        self._next_number += 1
        row = self.journal.append(
            "incident",
            store.operations.total if store is not None else None,
            store.simulated_seconds if store is not None else None,
            {"trigger": kind, "key": str(key), "bundle": name,
             "detail": {field: detail[field] for field in sorted(detail)}},
            write=False,  # the row reaches the file once its bundle's fate is known
        )
        if name is not None:
            self._dumping = True
            try:
                _write_bundle(self.directory, name, self._bundle(row, store))
            except Exception as error:  # noqa: BLE001 - never break the store
                row["bundle"] = None
                _log.warning("incident bundle %s dump failed (%s); the incident "
                             "is in the journal only", name, error)
            finally:
                self._dumping = False
        self.journal.write(row)
        self._rows.append(row)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        _log.error("incident %s (%s%s) recorded%s", row["seq"], kind,
                   f": {row['key']}" if row["key"] else "",
                   f" -> {row['bundle']}" if row["bundle"] else "")
        return row

    def _bundle(self, row: Row, store) -> Dict[str, object]:
        """A bundle's payload: the incident row plus what the store (or,
        store-less, the configuration) says about the moment."""
        if store is None:  # store-less: the configuration, when given
            known = {} if self.config is None else {"config": _config_payload(self.config)}
            return {"incident": row, **known}
        from repro.core.integrity import integrity_report
        from repro.obs.rules import health_report

        store_path = os.path.dirname(os.path.abspath(self.directory))
        return {
            "incident": row,
            "ring": store.recorder.to_dict(),
            "config": _config_payload(store.config, store.cost_model),
            "wal": _wal_summary(store),
            "quarantine": _quarantine_payload(store),
            "health": _best_effort(
                lambda: health_report(store, store_path=store_path),
                verdict=None,
            ),
            "integrity": _best_effort(lambda: integrity_report(store), ok=None),
        }

    def alert_fired(self, rule, event) -> None:
        """The incident a fired :class:`~repro.obs.rules.AlertEvent` of
        ``rule`` triggers: the row's ``incident`` kind, if it names one.
        The detail names the rule when the trigger kind does not."""
        if not rule.incident:
            return
        detail = dict(value=event.value, bound=event.bound, summary=event.summary)
        if rule.incident != rule.name:
            detail["rule"] = rule.name
        self.trigger(rule.incident, key=rule.name, **detail)

    # ---------------------------------------------------------------- reading --

    def incidents(self) -> List[Row]:
        """Incident rows recorded through this instance, oldest first."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def record_directory_incident(
    path: str, kind: str, detail: Dict[str, object], config=None
) -> Optional[str]:
    """The incident of a code path that works on a *closed* directory
    store (``repair_directory``): an ``incident`` row appended to the
    store's journal, and a bundle carrying that row and the effective
    config only (no live recorder or health walk exists there).
    Best-effort: returns the bundle name, or None when anything failed
    (diagnostics never break repair)."""
    try:
        journal = Journal(os.path.join(path, JOURNAL_FILE))
        manager = IncidentManager(journal, config=config)
        row = manager.trigger(kind, **detail)
        return row["bundle"] if row is not None else None
    except Exception as error:  # noqa: BLE001 - best effort by design
        _log.warning("store-less incident dump for %s failed: %s", path, error)
        return None

"""Artifact schema versioning: every exported JSON carries its format.

PRs 1-5 grew a family of JSON artifacts — EXPLAIN reports, heatmaps,
cost profiles, calibration reports, torture/scrub/repair reports, the
``BENCH_table5.json`` rows — and this PR adds two longitudinal ones
(workload-history snapshots and advisor reports) that are *persisted*
and read back across runs.  Longitudinal artifacts can only evolve
safely if every record says which format it was written in, so:

* every top-level exported dict carries ``schema_version`` (stamped via
  :func:`stamp` at its ``to_dict``/report-builder site);
* readers call :func:`check_schema_version` and refuse payloads from a
  *newer* writer (or a missing stamp where one is required) instead of
  misinterpreting them;
* ``tools/bench_compare.py`` asserts the stamp on both benchmark files,
  so a baseline produced by an incompatible writer fails loudly (exit
  2, malformed input) rather than producing nonsense ratios.

The version is global across artifact kinds — one repo-wide format
epoch, bumped whenever any exported shape changes incompatibly — which
keeps the check trivial and the evolution story auditable in one place.

The artifacts a store directory carries beside its pages and WAL are
named here too, and the two JSONL trails among them (workload history,
alert transitions) are read and written by :func:`read_jsonl` and
:func:`write_jsonl` alone.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.errors import ObservabilityError

#: The format epoch this tree writes.  Bump on any incompatible change
#: to an exported JSON artifact, and teach the readers that care
#: (:func:`check_schema_version` callers) how to migrate or refuse.
SCHEMA_VERSION = 1

#: Workload-history snapshots (:mod:`repro.obs.history`), one per line.
HISTORY_FILE = "store.history.jsonl"
#: Alert transitions (:mod:`repro.obs.alerts`), one per line.
ALERTS_FILE = "store.alerts.jsonl"
#: The directory incident bundles dump into (:mod:`repro.obs.incident`).
INCIDENTS_DIR = "store.incidents"
#: The degraded-repair sidecar (:mod:`repro.core.repair`).
SIDECAR_FILE = "store.repair.json"


def stamp(payload: Dict[str, object]) -> Dict[str, object]:
    """Stamp ``payload`` with the current schema version (returns it)."""
    payload["schema_version"] = SCHEMA_VERSION
    return payload


def check_schema_version(
    payload: Dict[str, object],
    where: str,
    required: bool = True,
) -> Optional[int]:
    """Validate one payload's ``schema_version``; returns it.

    Raises :class:`~repro.errors.ObservabilityError` when the stamp is
    missing (unless ``required=False``, for tolerating pre-versioning
    legacy artifacts), is not an integer, or was written by a *newer*
    format epoch than this reader understands.  Older-but-stamped
    versions are accepted — readers stay backward compatible within an
    epoch; writers never emit anything but the current one.
    """
    version = payload.get("schema_version")
    if version is None:
        if not required:
            return None
        raise ObservabilityError(
            f"{where}: missing schema_version (expected {SCHEMA_VERSION}); "
            "regenerate the artifact with the current tree"
        )
    if not isinstance(version, int) or isinstance(version, bool):
        raise ObservabilityError(
            f"{where}: schema_version must be an integer, got {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise ObservabilityError(
            f"{where}: schema_version {version} is newer than this reader "
            f"supports ({SCHEMA_VERSION}); upgrade before reading it"
        )
    return version


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """The stamped rows of one JSONL trail; none when the file is absent.

    Text after the last newline is a torn append — what a crash midway
    through :func:`write_jsonl` leaves — and is dropped, the way the WAL
    drops a torn frame.  Any complete line that is not a stamped JSON
    object raises :class:`~repro.errors.ObservabilityError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return []
    except OSError as error:
        raise ObservabilityError(f"cannot read {path}: {error}") from error
    rows: List[Dict[str, object]] = []
    for number, line in enumerate(data.split(b"\n")[:-1], start=1):
        if not line.strip():
            continue
        where = f"{path}:{number}"
        try:
            payload = json.loads(line)
        except ValueError as error:
            raise ObservabilityError(f"{where}: malformed line ({error})") from error
        if not isinstance(payload, dict):
            raise ObservabilityError(f"{where}: malformed line (not an object)")
        check_schema_version(payload, where)
        rows.append(payload)
    return rows


def write_jsonl(
    path: str, rows: Iterable[Dict[str, object]], append: bool = True
) -> None:
    """Write ``rows`` to a JSONL trail, one sorted-key line each: appended,
    or (``append=False``) replacing the file through a rename.  An append
    first cuts off a torn final line, so its rows start on a fresh line."""
    data = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if not append:
        temporary = path + ".tmp"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(temporary, path)
        return
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                handle.truncate(handle.read().rfind(b"\n") + 1)
        handle.write(data.encode("utf-8"))

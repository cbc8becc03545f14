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
named here too (the journal's own file is named by
:mod:`repro.obs.journal`, its only reader and writer).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ObservabilityError

#: The format epoch this tree writes.  Bump on any incompatible change
#: to an exported JSON artifact, and teach the readers that care
#: (:func:`check_schema_version` callers) how to migrate or refuse.
SCHEMA_VERSION = 1

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

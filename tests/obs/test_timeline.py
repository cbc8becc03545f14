"""Post-mortem timeline, diagnosis verdicts, and the support bundle.

``diagnose``'s contract: everything is reconstructed from persisted
artifacts alone — the store is never opened — and the verdict maps
onto the CLI's canonical exit-code scheme (0 clean / 1 resolved /
2 unresolved).  The support tarball must be deterministic byte-for-byte
across identical runs.
"""

import json
import os
import tarfile

import pytest

from repro.core.config import StoreConfig
from repro.core.filestore import close_directory, open_directory
from repro.errors import ObservabilityError
from repro.obs.incident import INCIDENTS_DIR, record_directory_incident
from repro.obs.timeline import (
    build_timeline,
    diagnose,
    load_bundles,
    write_support_bundle,
)


def _fault_store(tmp_path, repair=False):
    """A directory store that hit a checksum quarantine (bundle dumped),
    optionally followed by a clean full-log repair."""
    from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
    from repro.core.store import XMLStore
    from repro.storage.disk import FileBlockDevice
    from repro.storage.scrub import scrub_store

    path = tmp_path / "store"
    store = open_directory(
        str(path),
        config=StoreConfig(
            events_enabled=True,
            recorder_enabled=True,
            history_enabled=True,
            checksums_enabled=True,
        ),
    )
    store.load_document("<r><a>x</a><b>y</b></r>")
    close_directory(str(path), store)
    config = StoreConfig(checksums_enabled=True)
    with open(path / CATALOG_FILE, "rb") as handle:
        catalog = handle.read()
    device = FileBlockDevice(
        str(path / DEVICE_FILE), block_size=config.page_size
    )
    view = XMLStore.from_catalog(device, catalog, config=config)
    block = next(iter(view.layout.chain.blocks()))
    image = bytearray(device.read_block(block))
    image[-1] ^= 0x55
    device.write_block(block, bytes(image))
    device.close()
    device = FileBlockDevice(
        str(path / DEVICE_FILE), block_size=config.page_size
    )
    scrub_view = XMLStore.from_catalog(
        device,
        catalog,
        config=StoreConfig(
            checksums_enabled=True,
            events_enabled=True,
            recorder_enabled=True,
            artifacts_dir=str(path),
        ),
    )
    scrub_store(scrub_view)
    device.close()
    if repair:
        from repro.core.repair import repair_directory

        repair_directory(
            str(path), config=StoreConfig(checksums_enabled=True)
        )
    return path


class TestTimeline:
    def test_empty_directory_yields_an_empty_timeline(self, tmp_path):
        assert build_timeline(str(tmp_path)) == []

    def test_merges_all_artifact_families_in_causal_order(self, tmp_path):
        path = _fault_store(tmp_path, repair=True)
        timeline = build_timeline(str(path))
        sources = {entry.source for entry in timeline}
        assert {"history", "incident", "recorder"} <= sources
        # causal order: rows carrying an operation counter come sorted,
        # counter-less rows (the post-run repair) after them
        counted = [
            e.operations for e in timeline if e.operations is not None
        ]
        assert counted == sorted(counted)
        first_uncounted = next(
            i for i, e in enumerate(timeline) if e.operations is None
        )
        assert all(
            e.operations is None for e in timeline[first_uncounted:]
        )

    def test_tmp_bundles_are_ignored(self, tmp_path):
        path = _fault_store(tmp_path)
        leftover = path / INCIDENTS_DIR / "incident-9.tmp"
        os.makedirs(leftover)
        (leftover / "incident.json").write_text("{}")
        assert [b["name"] for b in load_bundles(str(path))] == ["incident-0"]

    def test_garbled_artifact_lines_are_skipped(self, tmp_path):
        path = _fault_store(tmp_path)
        # simulate a crash-truncated history tail
        with open(path / "store.history.jsonl", "a") as handle:
            handle.write('{"schema_version": 1, "trunca')
        timeline = build_timeline(str(path))
        assert any(entry.source == "history" for entry in timeline)


class TestDiagnose:
    def test_clean_store_is_verdict_clean(self, tmp_path):
        report = diagnose(str(tmp_path))
        assert report.verdict == "clean"
        assert report.exit_code == 0
        assert report.root_cause is None

    def test_unrepaired_fault_is_unresolved(self, tmp_path):
        report = diagnose(str(_fault_store(tmp_path)))
        assert report.verdict == "unresolved"
        assert report.exit_code == 2
        # root cause comes from the recorder dump inside the bundle
        assert report.root_cause["origin"] == "recorder"
        assert report.root_cause["kind"] == "checksum_error"

    def test_clean_repair_resolves_the_incident(self, tmp_path):
        report = diagnose(str(_fault_store(tmp_path, repair=True)))
        assert report.verdict == "resolved"
        assert report.exit_code == 1
        assert len(report.incidents) == 2

    def test_reconstructs_fault_to_repair_from_artifacts_alone(
        self, tmp_path
    ):
        # the acceptance walk: fault -> quarantine -> repair, read back
        # without ever opening the store
        report = diagnose(str(_fault_store(tmp_path, repair=True)))
        kinds = [entry.kind for entry in report.timeline]
        fault = next(
            i
            for i, e in enumerate(report.timeline)
            if e.source == "recorder" and e.kind == "event"
            and e.detail.get("source") == "fault"
        )
        quarantine = next(
            i
            for i, e in enumerate(report.timeline)
            if e.source == "incident" and e.kind == "checksum-quarantine"
        )
        repair = next(
            i
            for i, e in enumerate(report.timeline)
            if e.source == "incident" and e.kind == "repair"
        )
        assert quarantine < repair
        assert fault < repair
        del kinds

    def test_focus_on_a_named_incident(self, tmp_path):
        path = _fault_store(tmp_path, repair=True)
        report = diagnose(str(path), incident="incident-0")
        assert report.focus == "incident-0"
        # the verdict still considers every bundle
        assert report.verdict == "resolved"
        with pytest.raises(ObservabilityError):
            diagnose(str(path), incident="incident-99")

    def test_report_is_schema_stamped_and_renders(self, tmp_path):
        report = diagnose(str(_fault_store(tmp_path)))
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["exit_code"] == 2
        text = report.render()
        assert "verdict: unresolved" in text
        assert "root cause" in text

    def test_degraded_sidecar_blocks_resolution(self, tmp_path):
        path = _fault_store(tmp_path, repair=True)
        with open(path / "store.repair.json", "w") as handle:
            json.dump({"mode": "salvage", "lost_ids": 3}, handle)
        assert diagnose(str(path)).verdict == "unresolved"

    def test_repair_only_history_counts_as_resolved(self, tmp_path):
        record_directory_incident(
            str(tmp_path),
            "repair",
            {"report": {"mode": "wal-rebuild", "integrity_ok": True,
                        "degraded": False}},
        )
        assert diagnose(str(tmp_path)).verdict == "resolved"


class TestSupportBundle:
    def test_bundle_contains_manifest_diagnosis_and_artifacts(
        self, tmp_path
    ):
        path = _fault_store(tmp_path, repair=True)
        output = tmp_path / "support.tar"
        manifest = write_support_bundle(str(path), str(output))
        assert manifest["schema_version"] == 1
        with tarfile.open(output) as archive:
            names = archive.getnames()
            assert "MANIFEST.json" in names
            assert "diagnosis.json" in names
            assert any(n.startswith("store.incidents/") for n in names)
            diagnosis = json.load(
                archive.extractfile("diagnosis.json")
            )
        assert diagnosis["verdict"] == "resolved"

    def test_bundle_is_byte_deterministic(self, tmp_path):
        path = _fault_store(tmp_path)
        first = tmp_path / "a.tar"
        second = tmp_path / "b.tar"
        write_support_bundle(str(path), str(first))
        write_support_bundle(str(path), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_tar_member_metadata_is_zeroed(self, tmp_path):
        path = _fault_store(tmp_path)
        output = tmp_path / "support.tar"
        write_support_bundle(str(path), str(output))
        with tarfile.open(output) as archive:
            for member in archive.getmembers():
                assert member.mtime == 0
                assert member.uid == 0 and member.gid == 0

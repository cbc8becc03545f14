"""The composite health verdict (repro.obs.rules.health_report) and its CLI
exit codes."""

import dataclasses
import io
import json
import os

import pytest

from repro.cli import run
from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.errors import ChecksumError, StoreCorruptError, StoreDegradedError
from repro.core.repair import RepairReport
from repro.obs import rules
from repro.obs.rules import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthReport,
    health_report,
)
from repro.obs.schema import SIDECAR_FILE
from repro.storage.scrub import scrub_store


def _store(**config):
    store = XMLStore.open(StoreConfig(**config))
    root = store.load_document("<r><a>x</a><b>y</b></r>")
    store.read(root + 1)
    return store


def _component(report, name):
    return next(c for c in report.components if c.name == name)


def _bound(monkeypatch, component, bound):
    """Judge ``component`` against ``bound``: its row of the table,
    replaced."""
    monkeypatch.setattr(rules, "RULES", tuple(
        dataclasses.replace(rule, bound=bound) if rule.component == component
        else rule
        for rule in rules.RULES
    ))


def _degraded_sidecar():
    """The sidecar a degraded salvage writes: a real RepairReport's dict."""
    report = RepairReport(
        mode="salvage", bad_blocks=[3], lost_intervals=[(4, 6), (9, 9)]
    )
    return report.to_dict()


class TestVerdicts:
    def test_clean_store_is_healthy(self):
        report = health_report(_store())
        assert report.verdict == HEALTHY
        assert report.exit_code == 0
        assert report.failed() == []
        names = [c.name for c in report.components]
        assert names == [
            "integrity", "quarantine", "checksum-errors", "repair",
            "scrub", "wal", "drift", "slo", "replication",
        ]

    def test_quarantine_makes_the_store_unhealthy(self):
        store = _store()
        store.pool.quarantine(0, ChecksumError("bad", block_no=0))
        report = health_report(store)
        assert report.verdict == UNHEALTHY
        assert report.exit_code == 2
        assert _component(report, "quarantine").status == UNHEALTHY
        assert 0 in _component(report, "quarantine").detail["blocks"]

    def test_checksum_errors_degrade(self):
        store = _store()
        store.stats.buffer.checksum_errors += 1
        report = health_report(store)
        assert _component(report, "checksum-errors").status == DEGRADED
        assert report.verdict == DEGRADED
        assert report.exit_code == 1

    def test_repair_sidecar_degrades(self, tmp_path):
        sidecar = _degraded_sidecar()
        (tmp_path / SIDECAR_FILE).write_text(json.dumps(sidecar))
        report = health_report(_store(), store_path=str(tmp_path))
        component = _component(report, "repair")
        assert component.status == DEGRADED
        assert component.detail["sidecar"] == sidecar
        assert component.detail["lost"] == sidecar["lost_ids"] == 4

    def test_in_memory_store_has_no_sidecar_check(self):
        component = _component(health_report(_store()), "repair")
        assert component.status == HEALTHY
        assert "in-memory" in component.summary

    def test_scrub_recency(self, monkeypatch):
        # young store, never scrubbed: healthy
        report = health_report(_store())
        assert _component(report, "scrub").status == HEALTHY
        # old store, never scrubbed: overdue (each scenario gets a fresh
        # store — polling health itself scrubs, via the integrity walk)
        _bound(monkeypatch, "scrub", 1)
        overdue = health_report(_store())
        assert _component(overdue, "scrub").status == DEGRADED
        # freshly scrubbed: healthy even against a tight bound
        store = _store()
        scrub_store(store)
        fresh = health_report(store)
        assert _component(fresh, "scrub").status == HEALTHY
        # and ageing past the bound degrades once more
        store.read(2)
        store.read(2)
        aged = health_report(store)
        assert _component(aged, "scrub").status == DEGRADED

    def test_scrub_not_applicable_without_checksums(self, monkeypatch):
        store = _store(checksums_enabled=False)
        _bound(monkeypatch, "scrub", 1)
        report = health_report(store)
        component = _component(report, "scrub")
        assert component.status == HEALTHY
        assert "not applicable" in component.summary

    def test_wal_backlog_degrades(self, monkeypatch):
        store = _store()
        _bound(monkeypatch, "wal", 0)
        report = health_report(store)
        component = _component(report, "wal")
        assert component.status == DEGRADED
        assert component.detail["pending_records"] > 0
        store.checkpoint()
        after = health_report(store)
        assert _component(after, "wal").status == HEALTHY

    def test_drift_disabled_without_history(self):
        component = _component(health_report(_store()), "drift")
        assert component.status == HEALTHY
        assert "disabled" in component.summary

    def test_slo_component_reads_the_simulated_axis(self):
        store = _store(telemetry_enabled=True, alerts_enabled=True)
        component = _component(health_report(store), "slo")
        assert component.status == HEALTHY
        statuses = component.detail["statuses"]
        assert statuses
        assert all(s["axis"] == "simulated" for s in statuses)


class TestReportShape:
    def test_to_dict_is_stamped(self):
        payload = health_report(_store()).to_dict()
        assert payload["schema_version"] == 1
        assert payload["verdict"] == HEALTHY
        assert payload["exit_code"] == 0
        assert len(payload["components"]) == 9

    def test_render_lists_components_with_markers(self):
        store = _store()
        store.stats.buffer.checksum_errors += 1
        text = health_report(store).render()
        assert text.startswith("health: degraded (exit 1)")
        assert "[  ok] integrity:" in text
        assert "[WARN] checksum-errors:" in text

    def test_verdict_is_the_worst_component(self):
        from repro.obs.rules import HealthComponent

        report = HealthReport(components=[
            HealthComponent("a", HEALTHY, "s"),
            HealthComponent("b", UNHEALTHY, "s"),
            HealthComponent("c", DEGRADED, "s"),
        ])
        assert report.verdict == UNHEALTHY
        assert report.exit_code == 2
        assert [c.name for c in report.failed()] == ["b", "c"]

    def test_identical_stores_report_identically(self):
        def capture():
            return health_report(
                _store(telemetry_enabled=True, alerts_enabled=True)
            ).to_dict()

        assert capture() == capture()


class TestHealthCLI:
    """The acceptance path: exit 0 / 1 / 2 on clean / degraded / corrupt."""

    def _build_store(self, store_dir, orders=6):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        for index in range(orders):
            run([store_dir, "insert-last", "1", f"<e n='{index}'>t{index}</e>"])

    def _corrupt_chain_block(self, store_dir):
        from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
        from repro.storage.disk import FileBlockDevice

        config = StoreConfig()
        with open(os.path.join(store_dir, CATALOG_FILE), "rb") as handle:
            catalog = handle.read()
        device = FileBlockDevice(
            os.path.join(store_dir, DEVICE_FILE), block_size=config.page_size
        )
        store = XMLStore.from_catalog(device, catalog, config=config)
        victim = next(iter(store.layout.chain.blocks()))
        image = bytearray(device.read_block(victim))
        image[-1] ^= 0x33
        device.write_block(victim, bytes(image))
        device.close()

    def test_clean_store_exits_zero(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._build_store(store_dir)
        out = run([store_dir, "health"])
        assert out.startswith("health: healthy (exit 0)")

    def test_degraded_sidecar_exits_one(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._build_store(store_dir)
        with open(os.path.join(store_dir, SIDECAR_FILE), "w") as handle:
            json.dump(_degraded_sidecar(), handle)
        with pytest.raises(StoreDegradedError) as excinfo:
            run([store_dir, "health"])
        assert excinfo.value.exit_code == 1

    def test_corrupt_store_exits_two(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError) as excinfo:
            run([store_dir, "health"])
        assert excinfo.value.exit_code == 2

    def test_health_json_is_delivered_before_the_failure(self, tmp_path):
        store_dir = str(tmp_path / "store")
        self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        target = tmp_path / "health.json"
        with pytest.raises(StoreCorruptError):
            run([store_dir, "health", "--json", "--output", str(target)])
        payload = json.loads(target.read_text())
        assert payload["verdict"] == "unhealthy"
        assert payload["exit_code"] == 2

    def test_exit_codes_documented_in_help(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        with pytest.raises(SystemExit):
            run([store_dir, "health", "--help"])
        out = capsys.readouterr().out
        assert "0 = healthy" in out
        assert "2 = unhealthy" in out

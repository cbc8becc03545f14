"""`repro replicate` / `repro lag` end to end, plus the staleness
surfacing contract: a configured replica whose checkpoint shows no
apply progress must degrade `health` and `diagnose` — never "clean"."""

import io
import json

import pytest

from repro.cli import run
from repro.core.filestore import StoreDirectory
from repro.errors import ReplicaDivergenceError, ReproError, StoreDegradedError
from repro.obs.schema import SCHEMA_VERSION
from repro.replication.service import STALE_AFTER_OPS


@pytest.fixture
def primary(tmp_path):
    path = str(tmp_path / "primary")
    run([path, "load", "-"], stdin=io.StringIO("<lib><a>one</a></lib>"))
    run([path, "insert-last", "1", "<b>two</b>"])
    return path


@pytest.fixture
def replica(tmp_path):
    return str(tmp_path / "replica")


def _advance(primary, ops):
    with StoreDirectory(primary) as store:
        for index in range(ops):
            store.insert_into_last(1, f"<e>{index}</e>")


class TestReplicate:
    def test_replica_serves_the_primary_document(self, primary, replica):
        out = run([primary, "replicate", replica])
        assert "caught up" in out and "digest ok" in out
        # the replica is a standard store: every read surface works
        assert run([replica, "read"]) == run([primary, "read"])
        assert "match(es)" in run([replica, "xpath", "/lib/b"])

    def test_catch_up_resumes_incrementally(self, primary, replica):
        run([primary, "replicate", replica])
        _advance(primary, 3)
        out = run([primary, "replicate", replica])
        assert "applied 3" in out
        assert run([replica, "read"]) == run([primary, "read"])

    def test_faulty_channel_converges_deterministically(
        self, primary, replica
    ):
        _advance(primary, 6)
        out = run(
            [
                primary, "replicate", replica,
                "--channel-faults", "all", "--seed", "3",
                "--fault-rate", "0.8", "--max-attempts", "20",
            ]
        )
        assert "digest ok" in out
        assert run([replica, "read"]) == run([primary, "read"])

    def test_json_report_is_stamped(self, primary, replica):
        payload = json.loads(run([primary, "replicate", replica, "--json"]))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["converged"] is True
        assert payload["digest_match"] is True
        assert payload["lag_trace"]

    def test_force_diverge_is_detected_and_healed(self, primary, replica):
        run([primary, "replicate", replica])
        out = run([primary, "replicate", replica, "--force-diverge"])
        assert "1 resync(s)" in out and "digest ok" in out
        # the healed replica is byte-identical AND still reopenable —
        # the resync rebuilt catalog and device, not just the WAL
        assert run([replica, "read"]) == run([primary, "read"])
        assert "healthy" in run([replica, "health"])

    def test_force_diverge_without_resync_is_typed(self, primary, replica):
        run([primary, "replicate", replica])
        with pytest.raises(ReplicaDivergenceError) as failure:
            run([primary, "replicate", replica, "--force-diverge", "--no-resync"])
        assert failure.value.exit_code == 2

    def test_replica_must_differ_from_primary(self, primary):
        with pytest.raises(ReproError, match="must differ"):
            run([primary, "replicate", primary])


class TestLag:
    def test_fresh_replica_exits_zero(self, primary, replica):
        run([primary, "replicate", replica])
        out = run([primary, "lag"])
        assert "lag      0" in out and "[fresh]" in out

    def test_no_replicas_is_not_an_error(self, primary):
        assert "no replicas configured" in run([primary, "lag"])

    def test_stale_replica_exits_one(self, primary, replica):
        run([primary, "replicate", replica])
        _advance(primary, 4)
        with pytest.raises(StoreDegradedError, match="stale"):
            run([primary, "lag", "--stale-after", "2"])

    def test_json_is_stamped_with_rows(self, primary, replica):
        run([primary, "replicate", replica])
        payload = json.loads(run([primary, "lag", "--json"]))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["stale_count"] == 0
        (row,) = payload["replicas"]
        assert row["name"] == "replica"
        assert row["lag"] == 0 and row["has_checkpoint"] is True


class TestStalenessSurfacing:
    """Satellite contract: a stale replication checkpoint must surface
    in health (9th component) and diagnose (verdict degraded, exit 1) —
    the absence of progress is the alert, not an exception."""

    def test_health_gains_a_replication_component(self, primary, replica):
        run([primary, "replicate", replica])
        payload = json.loads(run([primary, "health", "--json"]))
        component = next(
            c for c in payload["components"] if c["name"] == "replication"
        )
        assert component["status"] == "healthy"
        assert component["detail"]["replicas"][0]["lag"] == 0

    def test_stale_checkpoint_degrades_health(self, primary, replica):
        run([primary, "replicate", replica])
        _advance(primary, STALE_AFTER_OPS + 2)
        with pytest.raises(StoreDegradedError, match="replication"):
            run([primary, "health"])

    def test_stale_checkpoint_degrades_diagnose(self, primary, replica, tmp_path):
        run([primary, "replicate", replica])
        _advance(primary, STALE_AFTER_OPS + 2)
        report_path = str(tmp_path / "diag.json")
        with pytest.raises(StoreDegradedError, match="replication stale"):
            run([primary, "diagnose", "--json", "--output", report_path])
        payload = json.load(open(report_path))
        assert payload["verdict"] == "degraded"
        assert payload["exit_code"] == 1
        (stale,) = payload["replication"]["stale_replicas"]
        assert stale["name"] == "replica"
        # and catching the replica up clears the verdict back to clean
        run([primary, "replicate", replica])
        assert "verdict: clean" in run([primary, "diagnose"])

    def test_fresh_replicas_leave_diagnose_clean(self, primary, replica):
        run([primary, "replicate", replica])
        out = run([primary, "diagnose"])
        assert "verdict: clean" in out

    def test_lag_gauges_and_stale_alert(self, primary, replica):
        from repro.obs.bridge import deterministic_snapshot, store_registry
        from repro.obs.metrics import sample_key
        from repro.obs.rules import RULES, evaluate_rule, store_view

        run([primary, "replicate", replica])
        _advance(primary, STALE_AFTER_OPS + 2)
        with StoreDirectory(primary) as store:
            store.read()  # absence rules stay silent on zero-op stores
            values = {
                sample_key(sample): sample.value
                for family in store_registry(store).collect()
                for sample in family.samples
            }
            assert values["repro_replication_replicas"] == 1.0
            assert values["repro_replication_lag_ops"] > STALE_AFTER_OPS
            # stalled: the absence-rule sentinel value
            assert values["repro_replication_apply_progress"] == -1.0
            view = store_view(store, deterministic_snapshot(store))
            firing = {
                rule.name
                for rule in RULES
                if evaluate_rule(rule, view)[0]
            }
        assert "replication-stale" in firing

    def test_progressing_replica_does_not_fire_the_alert(
        self, primary, replica
    ):
        from repro.obs.bridge import deterministic_snapshot, store_registry
        from repro.obs.metrics import sample_key
        from repro.obs.rules import RULES, evaluate_rule, store_view

        run([primary, "replicate", replica])
        with StoreDirectory(primary) as store:
            values = {
                sample_key(sample): sample.value
                for family in store_registry(store).collect()
                for sample in family.samples
            }
            assert values["repro_replication_apply_progress"] > 0.0
            view = store_view(store, deterministic_snapshot(store))
            firing = {
                rule.name
                for rule in RULES
                if evaluate_rule(rule, view)[0]
            }
        assert "replication-stale" not in firing
        assert "replication-lag" not in firing

"""Integration tests for the command-line interface."""

import io

import pytest

from repro.cli import run


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestCLI:
    def test_load_from_file_and_read(self, store_dir, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text("<r><a/></r>")
        out = run([store_dir, "load", str(doc)])
        assert "first node id = 1" in out
        assert run([store_dir, "read"]) == "<r><a/></r>"

    def test_load_from_stdin(self, store_dir):
        out = run([store_dir, "load", "-"], stdin=io.StringIO("<x>hi</x>"))
        assert "first node id" in out
        assert run([store_dir, "read"]) == "<x>hi</x>"

    def test_read_single_node(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>1</a></r>"))
        assert run([store_dir, "read", "2"]) == "<a>1</a>"

    def test_pretty_read(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a><b/></a></r>"))
        out = run([store_dir, "read", "--pretty"])
        assert "\n" in out

    def test_xpath(self, store_dir):
        run([store_dir, "load", "-"],
            stdin=io.StringIO("<r><a n='1'/><a n='2'/></r>"))
        out = run([store_dir, "xpath", "/r/a[@n = '2']"])
        assert out.startswith("1 match(es)")
        assert 'n="2"' in out

    def test_updates_persist_across_invocations(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<log/>"))
        run([store_dir, "insert-last", "1", "<e1/>"])
        run([store_dir, "insert-last", "1", "<e2/>"])
        run([store_dir, "insert-before", "2", "<e0/>"])
        assert run([store_dir, "read"]) == "<log><e0/><e1/><e2/></log>"

    def test_delete_and_replace(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/><b/></r>"))
        run([store_dir, "delete", "2"])
        run([store_dir, "replace", "3", "<B/>"])
        assert run([store_dir, "read"]) == "<r><B/></r>"

    def test_ranges_snapshot(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        out = run([store_dir, "ranges"])
        assert "RangeId" in out
        assert len(out.splitlines()) >= 2

    def test_stats(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "stats"])
        assert "operations" in out

    def test_stats_json(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        out = run([store_dir, "stats", "--json"])
        values = json.loads(out)
        # counters are per-invocation: this invocation only reopened the
        # store, so the open span fired and the Table-1 series sit at zero
        assert values['repro_spans_total{span="store.open"}'] == 1
        assert values['repro_spans_total{span="load_document"}'] == 0
        assert "repro_buffer_hit_rate" in values
        assert "repro_wal_appends_total" in values
        # ... and nothing walked the chain: reopening reads no block
        assert values['repro_disk_io_total{op="read",pattern="random"}'] == 0
        assert values['repro_disk_io_total{op="read",pattern="sequential"}'] == 0

    def test_stats_prometheus(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "stats", "--prometheus"])
        assert "# TYPE repro_store_operations_total counter" in out
        assert "# TYPE repro_buffer_hit_rate gauge" in out
        assert "# TYPE repro_span_seconds histogram" in out

    def test_stats_top(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "stats", "--top"])
        assert "spans (by cumulative wall time)" in out
        assert "store.open" in out

    def test_trace_emits_json_lines(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "trace"])
        events = [json.loads(line) for line in out.splitlines()]
        assert any(e["name"] == "store.open" for e in events)
        for event in events:
            assert {"seq", "name", "depth", "wall_seconds"} <= event.keys()

    def test_trace_limit(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "trace", "--limit", "1"])
        assert len(out.splitlines()) == 1

    def test_trace_limit_must_be_positive(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit):
                run([store_dir, "trace", "--limit", bad])

    def test_compact(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        for index in range(4):
            run([store_dir, "insert-last", "1", f"<e{index}/>"])
        out = run([store_dir, "compact"])
        assert "compacted" in out
        assert run([store_dir, "verify"]).splitlines()[-1] == "integrity ok"

    def test_full_index_outlives_an_open_under_another_policy(self, store_dir):
        # the CLI opens every directory under its default policy; a store
        # built under FULL must keep its index, maintained, through that
        from repro.core.config import IndexingPolicy, StoreConfig
        from repro.core.filestore import close_directory, open_directory

        full = StoreConfig(policy=IndexingPolicy.FULL)
        store = open_directory(store_dir, full)
        store.load_document("<r><a/></r>")
        close_directory(store_dir, store)
        assert "first node id = 3" in run([store_dir, "insert-last", "1", "<b>new</b>"])
        assert run([store_dir, "verify"]).splitlines()[-1] == "integrity ok"
        store = open_directory(store_dir, full)
        try:
            assert [entry.node_id for entry in store.full_index.entries()] == [1, 2, 3, 4]
            assert store.read(3) == "<b>new</b>"
            stats = store.locator.stats
            assert (stats.full_resolutions, stats.scan_resolutions) == (1, 0)
            store.check_integrity()
        finally:
            close_directory(store_dir, store)

    def test_verify(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "verify"])
        # per-check report: one line per invariant, verdict last
        for name in ("layout", "range-index", "id-density", "partial-memo"):
            assert name in out
        assert out.splitlines()[-1] == "integrity ok"

    def test_verify_json(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        payload = json.loads(run([store_dir, "verify", "--json"]))
        assert payload["ok"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "layout", "range-index", "id-density", "partial-memo",
            "full-index", "block-checksum", "quarantine",
        ]

    def test_error_surfaces_as_repro_error(self, store_dir):
        from repro.errors import NodeNotFoundError

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        with pytest.raises(NodeNotFoundError):
            run([store_dir, "delete", "99"])


class TestExplainCommand:
    def test_explain_read(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "explain", "read", "2"])
        assert "EXPLAIN read 2" in out
        assert "access path:" in out
        assert "tokens: replayed=" in out

    def test_explain_xpath_distinguishes_miss_from_hit(self, store_dir):
        """The CLI acceptance path: the same query's second run within
        one invocation resolves through the partial index."""
        import json

        run([store_dir, "load", "-"],
            stdin=io.StringIO("<r>" + "".join(f"<a n='{i}'/>" for i in range(20)) + "</r>"))
        query = "/r/a[@n='7']"
        first = json.loads(run([store_dir, "explain", "xpath", query, "--json"]))
        assert first["access_path"] == "range-scan"
        assert first["partial"]["misses"] > 0
        # the store checkpoints between invocations but the partial index
        # is memory-only, so warm it and re-explain in one process
        from repro.core.config import StoreConfig
        from repro.core.filestore import close_directory, open_directory
        from repro.obs.explain import explain_operation

        store = open_directory(
            store_dir,
            config=StoreConfig(telemetry_enabled=True, events_enabled=True),
        )
        try:
            miss = explain_operation(store, "xpath", [query])
            hit = explain_operation(store, "xpath", [query])
        finally:
            close_directory(store_dir, store)
        assert miss.access_path == "range-scan"
        assert hit.access_path == "partial-hit"

    def test_explain_mutation(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "explain", "insert-last", "1", "<a/>"])
        assert "wal: appends=" in out
        assert run([store_dir, "read"]) == "<r><a/></r>"

    def test_explain_json(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        payload = json.loads(run([store_dir, "explain", "read", "--json"]))
        assert payload["operation"] == "read"
        assert "events" in payload

    def test_explain_unknown_op_fails(self, store_dir):
        from repro.errors import InvalidOperationError

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        with pytest.raises(InvalidOperationError):
            run([store_dir, "explain", "compact"])


class TestHeatmapCommand:
    def test_heatmap_renders_sections(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "heatmap"])
        assert "block heatmap" in out
        assert "hottest blocks" in out
        assert "partial-index efficacy" in out

    def test_heatmap_xpath_warms_the_map(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "heatmap", "--xpath", "/r/a", "--top", "2"])
        assert "hottest blocks (top 2)" in out

    def test_heatmap_json(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        payload = json.loads(run([store_dir, "heatmap", "--json"]))
        assert "blocks_touched" in payload


class TestProfileCommand:
    def test_profile_top(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "profile", "read", "2"])
        assert "PROFILE read" in out
        assert "components:" in out
        assert "token-emit" in out

    def test_profile_components_parse_back_exactly(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "profile", "read", "--format", "components"])
        values = {}
        for line in out.splitlines():
            component, value = line.rsplit(" ", 1)
            values[component] = float(value)
        assert values["token-emit"] > 0  # reading emits tokens
        assert "disk" in values

    def test_profile_collapsed(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "profile", "read", "--format", "collapsed"])
        for line in out.splitlines():
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0

    def test_profile_speedscope(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        payload = json.loads(
            run([store_dir, "profile", "read", "--format", "speedscope"])
        )
        assert payload["$schema"].startswith("https://www.speedscope.app/")
        assert len(payload["profiles"]) == 2

    def test_profile_json(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        payload = json.loads(
            run([store_dir, "profile", "read", "--format", "json"])
        )
        assert payload["operation"] == "read"
        assert payload["components"]
        assert "tree" in payload

    def test_profile_wall_axis(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        # wall-axis output renders without error (values are nondeterministic)
        run([store_dir, "profile", "read", "--format", "collapsed",
             "--axis", "wall"])

    def test_sample_requires_a_stack_format(self, store_dir):
        from repro.errors import ReproError

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        with pytest.raises(ReproError, match="--sample"):
            run([store_dir, "profile", "read", "--sample"])

    def test_sample_collapsed_runs(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "profile", "read", "--sample",
                   "--format", "collapsed"])
        # a fast op may yield zero samples; the command must still succeed
        assert isinstance(out, str)

    def test_sample_speedscope_runs(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        out = run([store_dir, "profile", "read", "--sample",
                   "--format", "speedscope"])
        payload = json.loads(out)
        assert payload["profiles"][0]["type"] == "sampled"

    def test_profile_unknown_op_fails(self, store_dir):
        from repro.errors import InvalidOperationError

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        with pytest.raises(InvalidOperationError):
            run([store_dir, "profile", "compact"])


class TestOutputOption:
    @pytest.mark.parametrize(
        "command",
        [
            ["trace"],
            ["explain", "read"],
            ["profile", "read"],
            ["heatmap"],
            ["verify"],
        ],
        ids=["trace", "explain", "profile", "heatmap", "verify"],
    )
    def test_output_writes_file(self, store_dir, tmp_path, command):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        target = tmp_path / "out.txt"
        out = run([store_dir] + command + ["--output", str(target)])
        assert out == f"wrote {target}"
        assert target.read_text().strip()

    @pytest.mark.parametrize(
        "command",
        [
            ["trace"],
            ["explain", "read"],
            ["profile", "read"],
            ["heatmap"],
            ["verify"],
        ],
        ids=["trace", "explain", "profile", "heatmap", "verify"],
    )
    def test_unwritable_output_exits_nonzero(self, store_dir, command, monkeypatch, capsys):
        from repro import cli

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a/></r>"))
        bad = "/nonexistent-dir/deeply/out.txt"
        monkeypatch.setattr(
            "sys.argv", ["repro.cli", store_dir] + command + ["--output", bad]
        )
        assert cli.main() == 1
        assert "cannot write" in capsys.readouterr().err


class TestVerboseFlag:
    def test_verbose_logs_lifecycle_to_stderr(self, store_dir, capsys):
        import logging

        from repro.log import get_logger

        run([store_dir, "--verbose", "load", "-"], stdin=io.StringIO("<r/>"))
        try:
            err = capsys.readouterr().err
            assert "repro.core.filestore" in err
        finally:
            # drop the handler --verbose installed so later tests stay quiet
            root = get_logger()
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)


class TestTortureCommand:
    def test_torture_reports_all_points_clean(self, store_dir):
        out = run([store_dir, "torture", "--seed", "3", "--ops", "6"])
        assert "crash points" in out
        assert "all tested crash points recovered verify-clean" in out

    def test_torture_never_touches_the_store_dir(self, store_dir):
        import os

        run([store_dir, "torture", "--ops", "5"])
        assert not os.path.exists(store_dir)

    def test_torture_json_and_cap(self, store_dir):
        import json

        payload = json.loads(
            run([store_dir, "torture", "--ops", "8", "--json",
                 "--crash-points", "6"])
        )
        assert payload["ok"] is True
        assert payload["tested_points"] == 6
        assert payload["failures"] == []

    def test_torture_insert_workload_and_fault_classes(self, store_dir):
        import json

        payload = json.loads(
            run([store_dir, "torture", "--ops", "6", "--workload", "insert",
                 "--fault-classes", "torn-wal,reorder", "--json",
                 "--crash-points", "5"])
        )
        assert payload["ok"] is True
        assert payload["workload"] == "insert"
        assert payload["fault_classes"]["torn_page_writes"] is False
        assert payload["fault_classes"]["torn_wal_appends"] is True

    def test_torture_output_file(self, store_dir, tmp_path):
        target = tmp_path / "torture.json"
        out = run([store_dir, "torture", "--ops", "5", "--json",
                   "--crash-points", "4", "--output", str(target)])
        assert out == f"wrote {target}"
        import json

        assert json.loads(target.read_text())["ok"] is True

    def test_torture_unknown_fault_class_fails(self, store_dir):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run([store_dir, "torture", "--fault-classes", "torn-floppy"])


class TestScrubRepairCLI:
    """The self-healing loop end to end, with the documented exit codes:
    0 clean, 1 degraded-but-working, 2 corrupt."""

    def _build_store(self, store_dir, orders=6):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        for index in range(orders):
            run([store_dir, "insert-last", "1", f"<e n='{index}'>tok-{index}</e>"])
        return run([store_dir, "read"])

    def _corrupt_chain_block(self, store_dir):
        import os

        from repro.core.config import StoreConfig
        from repro.core.filestore import CATALOG_FILE, DEVICE_FILE
        from repro.core.store import XMLStore
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
        return victim

    def test_scrub_clean_store_exits_zero(self, store_dir):
        self._build_store(store_dir)
        out = run([store_dir, "scrub"])
        assert "scrub: OK" in out

    def test_scrub_finds_corruption_and_exits_two(self, store_dir):
        from repro.errors import StoreCorruptError

        self._build_store(store_dir)
        victim = self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError) as excinfo:
            run([store_dir, "scrub"])
        assert excinfo.value.exit_code == 2
        assert str(victim) in str(excinfo.value)

    def test_scrub_json_report_is_delivered_before_the_failure(
        self, store_dir, tmp_path
    ):
        import json

        from repro.errors import StoreCorruptError

        self._build_store(store_dir)
        victim = self._corrupt_chain_block(store_dir)
        target = tmp_path / "scrub.json"
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub", "--json", "--output", str(target)])
        payload = json.loads(target.read_text())
        assert payload["ok"] is False
        assert victim in [issue["block_no"] for issue in payload["issues"]]

    def test_scrub_budget_flag(self, store_dir):
        self._build_store(store_dir)
        assert "scrub: OK" in run([store_dir, "scrub", "--budget", "1"])

    def test_repair_after_corruption_restores_verify_clean(self, store_dir):
        """The headline loop: corrupt, scrub refuses (2), repair
        full-log-rebuilds (0), verify comes back clean (0)."""
        from repro.errors import StoreCorruptError

        expected = self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub"])
        out = run([store_dir, "repair"])
        assert "mode=wal-rebuild" in out
        assert run([store_dir, "verify"]).splitlines()[-1] == "integrity ok"
        assert run([store_dir, "read"]) == expected

    def test_degraded_repair_exits_one_and_verify_reports_the_sidecar(
        self, store_dir
    ):
        import os

        from repro.errors import StoreDegradedError

        self._build_store(store_dir, orders=10)
        self._corrupt_chain_block(store_dir)
        os.remove(os.path.join(store_dir, "store.wal"))  # salvage only
        try:
            run([store_dir, "repair"])
        except StoreDegradedError as error:
            # data really was lost: exit 1, and verify keeps saying so
            assert error.exit_code == 1
            assert os.path.exists(os.path.join(store_dir, "store.repair.json"))
            with pytest.raises(StoreDegradedError) as excinfo:
                run([store_dir, "verify"])
            assert excinfo.value.exit_code == 1
        else:
            # the dead block held no unique records: full recovery
            assert not os.path.exists(
                os.path.join(store_dir, "store.repair.json")
            )

    def test_exit_codes_are_documented_in_help(self, store_dir, capsys):
        for command in ("verify", "scrub", "repair", "diagnose", "bundle"):
            with pytest.raises(SystemExit):
                run([store_dir, command, "--help"])
            out = capsys.readouterr().out
            assert "exit codes" in out, f"{command} --help lost its exit codes"
            assert "README.md" in out, (
                f"{command} --help lost the canonical-table reference"
            )


class TestJSONSchemaStamp:
    """Every machine-readable payload the CLI emits carries the stamp —
    the contract downstream parsers (and CI's byte-diffs) key on."""

    CASES = {
        "stats": ["stats", "--json"],
        "ranges": ["ranges", "--json"],
        "verify": ["verify", "--json"],
        "explain": ["explain", "read", "--json"],
        "heatmap": ["heatmap", "--json"],
        "profile": ["profile", "read", "--format", "json"],
        "monitor": ["monitor", "--json"],
        "advise": ["advise", "--json"],
        "alerts": ["alerts", "--json"],
        "health": ["health", "--json"],
        "scrub": ["scrub", "--json"],
        "torture": ["torture", "--ops", "4", "--json", "--crash-points", "2"],
        "diagnose": ["diagnose", "--json"],
        "bundle": ["bundle", "--json"],
        "lag": ["lag", "--json"],
    }

    @pytest.mark.parametrize("command", sorted(CASES), ids=sorted(CASES))
    def test_json_output_is_stamped(self, store_dir, command):
        import json

        from repro.obs.schema import SCHEMA_VERSION

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        payload = json.loads(run([store_dir] + self.CASES[command]))
        assert payload["schema_version"] == SCHEMA_VERSION, command


class TestDiagnoseBundleCLI:
    """Post-mortem loop end to end: a quarantined scrub auto-dumps an
    incident bundle, ``diagnose`` reconstructs the story from the
    persisted artifacts alone (exit 2 unresolved / 1 resolved / 0
    clean), and ``bundle`` packs it all into a portable tarball."""

    # same store-building and fault-injection helpers as the scrub tests
    _build_store = TestScrubRepairCLI._build_store
    _corrupt_chain_block = TestScrubRepairCLI._corrupt_chain_block

    def test_clean_store_diagnoses_clean(self, store_dir):
        self._build_store(store_dir)
        out = run([store_dir, "diagnose"])
        assert "verdict: clean" in out

    def test_scrub_dumps_a_bundle_and_diagnose_reads_it_back(
        self, store_dir
    ):
        import os

        from repro.errors import StoreCorruptError

        self._build_store(store_dir)
        victim = self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub"])
        # the scrub auto-dumped an incident bundle...
        bundle = os.path.join(store_dir, "store.incidents", "incident-0")
        assert os.path.isdir(bundle)
        # ...and diagnose reconstructs the fault without opening the store
        with pytest.raises(StoreCorruptError) as excinfo:
            run([store_dir, "diagnose"])
        assert excinfo.value.exit_code == 2
        del victim

    def test_diagnose_json_is_delivered_before_the_failure(
        self, store_dir, tmp_path
    ):
        import json

        from repro.errors import StoreCorruptError

        self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub"])
        target = tmp_path / "diagnosis.json"
        with pytest.raises(StoreCorruptError):
            run([store_dir, "diagnose", "--json", "--output", str(target)])
        payload = json.loads(target.read_text())
        assert payload["verdict"] == "unresolved"
        assert payload["root_cause"]["origin"] == "recorder"

    def test_repair_moves_the_verdict_to_resolved(self, store_dir):
        from repro.errors import StoreCorruptError, StoreDegradedError

        self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub"])
        out = run([store_dir, "repair"])
        assert "mode=wal-rebuild" in out
        assert run([store_dir, "verify"]).splitlines()[-1] == "integrity ok"
        # incidents happened but the repair was clean: exit 1, not 2
        with pytest.raises(StoreDegradedError) as excinfo:
            run([store_dir, "diagnose"])
        assert excinfo.value.exit_code == 1

    def test_bundle_writes_a_deterministic_tarball(self, store_dir, tmp_path):
        import json
        import tarfile

        from repro.errors import StoreCorruptError

        self._build_store(store_dir)
        self._corrupt_chain_block(store_dir)
        with pytest.raises(StoreCorruptError):
            run([store_dir, "scrub"])
        first = tmp_path / "a.tar"
        second = tmp_path / "b.tar"
        manifest = json.loads(
            run([store_dir, "bundle", "--json", "--output", str(first)])
        )
        run([store_dir, "bundle", "--output", str(second)])
        assert manifest["verdict"] == "unresolved"
        assert first.read_bytes() == second.read_bytes()
        with tarfile.open(first) as archive:
            names = archive.getnames()
        assert "MANIFEST.json" in names
        assert "diagnosis.json" in names
        assert any(n.startswith("store.incidents/") for n in names)

    def test_bundle_default_output_lands_in_the_store_dir(self, store_dir):
        import os

        self._build_store(store_dir)
        out = run([store_dir, "bundle"])
        assert "support-bundle.tar" in out
        assert os.path.exists(os.path.join(store_dir, "support-bundle.tar"))

    def test_diagnose_unknown_incident_fails(self, store_dir):
        from repro.errors import ObservabilityError

        self._build_store(store_dir)
        with pytest.raises(ObservabilityError):
            run([store_dir, "diagnose", "--incident", "incident-99"])


class TestAlertsCommand:
    def test_clean_store_reports_nothing_firing(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "alerts"])
        assert out.startswith("alerts: 0 firing")

    def test_json_payload_shape(self, store_dir):
        import json

        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        payload = json.loads(run([store_dir, "alerts", "--json"]))
        assert payload["active"] == []
        assert payload["log"] == []
        assert "quarantined-blocks" in payload["rules"]
        assert payload["evaluations"] >= 1

    def test_restored_critical_alert_exits_two(self, store_dir):
        import os

        from repro.core.filestore import ALERTS_FILE
        from repro.errors import StoreCorruptError
        from repro.obs.alerts import AlertEngine, AlertRule

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        # a previous session recorded a critical transition; the engine
        # restores the active set from the log on reopen
        rule = AlertRule(
            "quarantined-blocks", "critical", "threshold", "seeded",
            metric="repro_storage_quarantined_blocks", op=">", bound=0,
            clear_after=3,
        )
        engine = AlertEngine(
            rules=(rule,), path=os.path.join(store_dir, ALERTS_FILE)
        )
        from repro.obs.alerts import AlertView

        engine.evaluate(AlertView(
            values={"repro_storage_quarantined_blocks": 1.0}
        ), label="seed")
        with pytest.raises(StoreCorruptError) as excinfo:
            run([store_dir, "alerts"])
        assert excinfo.value.exit_code == 2
        assert "quarantined-blocks" in str(excinfo.value)

    def test_identical_runs_emit_identical_json(self, tmp_path):
        def invocation(name):
            store_dir = str(tmp_path / name)
            run([store_dir, "load", "-"],
                stdin=io.StringIO("<r><a>x</a><b>y</b></r>"))
            run([store_dir, "xpath", "/r/a"])
            return run([store_dir, "alerts", "--json"])

        assert invocation("a") == invocation("b")

    def test_exit_codes_documented_in_help(self, store_dir, capsys):
        with pytest.raises(SystemExit):
            run([store_dir, "alerts", "--help"])
        out = capsys.readouterr().out
        assert "1 = warning" in out
        assert "critical alert(s) firing" in out


class TestWatchCommand:
    def test_one_frame_from_the_store_files(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "watch", "--iterations", "1", "--interval", "0"])
        assert out.startswith(f"watch {store_dir}  frame 1")
        assert "files: store.db" in out
        assert "history:" in out
        assert "alerts firing: none" in out
        assert "top counters" in out

    def test_watch_never_opens_the_store(self, store_dir):
        import os

        from repro.core.filestore import CATALOG_FILE

        run([store_dir, "load", "-"], stdin=io.StringIO("<r/>"))
        before = os.path.getmtime(os.path.join(store_dir, CATALOG_FILE))
        run([store_dir, "watch", "--iterations", "1", "--interval", "0"])
        after = os.path.getmtime(os.path.join(store_dir, CATALOG_FILE))
        assert before == after  # no checkpoint, no catalog rewrite

    def test_watch_on_an_empty_directory(self, store_dir):
        import os

        os.makedirs(store_dir)
        out = run([store_dir, "watch", "--iterations", "2", "--interval", "0"])
        assert "frame 2" in out
        assert "no store files yet" in out
        assert "no snapshots yet" in out

    def test_top_bounds_the_counter_section(self, store_dir):
        run([store_dir, "load", "-"], stdin=io.StringIO("<r><a>x</a></r>"))
        out = run([store_dir, "watch", "--iterations", "1",
                   "--interval", "0", "--top", "2"])
        counters = [line for line in out.splitlines()
                    if line.startswith("  repro_")]
        assert len(counters) == 2

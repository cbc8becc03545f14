"""The deterministic cost profiler: folding, attribution, reconciliation."""

import json

import pytest

from repro.cli import build_parser
from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.obs.bridge import metrics_snapshot
from repro.obs.profile_export import (
    SPEEDSCOPE_SCHEMA,
    collapsed_stacks,
    render_profile_top,
    speedscope_json,
)
from repro.obs.profiler import (
    CallNode,
    CostProfile,
    ProfileRecorder,
    component_of_span,
    fold_spans,
    reconcile_with_metrics,
    span_totals,
)
from repro.obs.tracing import Tracer
from repro.xmltoken.parser import tokenize_fragment

DOCUMENT = (
    "<r>"
    + "".join(f"<a n='{i}'><b>text{i}</b></a>" for i in range(12))
    + "</r>"
)

#: a few node ids with repeats, so the partial index gets hits as well
#: as misses and the locator replays tokens
READ_IDS = (2, 5, 8, 2, 5, 11, 2)


def _profiled_workload():
    """A fresh store, the whole workload inside one recorder window (a
    whole-lifetime window, which is what reconciliation requires)."""
    store = XMLStore.open(
        StoreConfig(
            policy=IndexingPolicy.RANGE_PLUS_PARTIAL,
            profiling_enabled=True,
            buffer_pool_capacity=4,
            max_range_tokens=32,
        )
    )
    with ProfileRecorder(store, "workload") as recorder:
        root = store.load_document(DOCUMENT)
        for node_id in READ_IDS:
            store.read(node_id)
        store.insert_into_last(root, "<extra/>")
    assert recorder.profile is not None
    return recorder.profile, store


class TestComponentOfSpan:
    def test_prefix_mapping(self):
        assert component_of_span("locator.scan") == "token-replay"
        assert component_of_span("wal.append") == "wal"
        assert component_of_span("wal.fsync") == "wal"
        assert component_of_span("xpath") == "xpath"

    def test_table1_operations_belong_to_the_store(self):
        assert component_of_span("load_document") == "store"
        assert component_of_span("node_read") == "store"


class TestFoldSpans:
    def test_nesting_follows_parent_chain(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        root = fold_spans(tracer.events())
        assert list(root.children) == ["outer"]
        outer = root.children["outer"]
        assert outer.count == 1
        # siblings with the same name coalesce, flamegraph-style
        assert outer.children["inner"].count == 2

    def test_orphaned_spans_become_root_level(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        # drop the parent from the window: the child has a dangling
        # parent seq and must fold at root level instead of vanishing
        events = [e for e in tracer.events() if e.name == "child"]
        root = fold_spans(events)
        assert list(root.children) == ["child"]

    def test_self_time_clamps_at_zero(self):
        node = CallNode("parent", count=1, simulated_seconds=1.0)
        child = node.child("child")
        child.simulated_seconds = 1.5  # float re-association can overshoot
        assert node.self_simulated_seconds == 0.0
        assert node.self_wall_seconds == 0.0


class TestSpanTotals:
    def test_counts_and_sums(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("op"):
                pass
        totals = span_totals(tracer.events())
        assert totals["op"]["count"] == 3
        assert totals["op"]["wall_seconds"] > 0.0


class TestProfileRecorder:
    def test_components_and_tree(self):
        profile, _store = _profiled_workload()
        names = [row.component for row in profile.components]
        assert names[:3] == ["token-replay", "token-emit", "range-index"]
        assert "partial-index" in names
        assert "disk" in names
        assert "buffer" in names
        assert "wal" in names
        # the workload replayed tokens and emitted them
        assert profile.component("token-replay").counts["tokens_scanned"] > 0
        assert profile.component("token-emit").counts["tokens_emitted"] > 0
        partial = profile.component("partial-index")
        assert partial.counts["hits"] > 0  # repeated reads memoized
        # the tree saw the Table-1 operations
        assert "load_document" in profile.root.children
        assert "node_read" in profile.root.children
        assert profile.simulated_seconds > 0
        assert profile.spans_dropped == 0

    def test_reconciles_with_registry_at_zero_tolerance(self):
        profile, store = _profiled_workload()
        values = metrics_snapshot(store).values
        assert reconcile_with_metrics(profile, values) == []

    def test_failed_window_produces_no_profile(self):
        store = XMLStore.open(StoreConfig(profiling_enabled=True))
        recorder = ProfileRecorder(store)
        with pytest.raises(RuntimeError):
            with recorder:
                raise RuntimeError("boom")
        assert recorder.profile is None

    def test_to_dict_round_trips_through_json(self):
        profile, _store = _profiled_workload()
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["operation"] == "workload"
        assert payload["tree"]
        assert payload["components"]
        flat = json.loads(json.dumps(profile.to_dict(include_tree=False)))
        assert "tree" not in flat


class TestDeterminism:
    def test_collapsed_and_speedscope_are_byte_identical_across_runs(self):
        first, _ = _profiled_workload()
        second, _ = _profiled_workload()
        assert collapsed_stacks(first) == collapsed_stacks(second)
        assert collapsed_stacks(first, by="component") == collapsed_stacks(
            second, by="component"
        )
        assert speedscope_json(first) == speedscope_json(second)

    def test_wall_axis_is_not_part_of_the_guarantee(self):
        # sanity: the simulated outputs above being identical is not
        # because the profiles are trivially empty
        profile, _ = _profiled_workload()
        assert collapsed_stacks(profile).strip()
        assert collapsed_stacks(profile, by="component").strip()


class TestCollapsedExport:
    def test_component_lines_round_trip_exactly(self):
        profile, _ = _profiled_workload()
        text = collapsed_stacks(profile, by="component")
        parsed = {}
        for line in text.strip().split("\n"):
            component, value = line.rsplit(" ", 1)
            parsed[component] = float(value)
        for row in profile.components:
            # repr() round-trips floats: parsed values are bit-equal
            assert parsed[row.component] == row.simulated_seconds

    def test_stack_lines_are_paths_with_integer_micros(self):
        profile, _ = _profiled_workload()
        for line in collapsed_stacks(profile).strip().split("\n"):
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0  # zero-self frames are skipped
            assert path

    def test_unknown_axis_and_grouping_rejected(self):
        profile, _ = _profiled_workload()
        with pytest.raises(ValueError):
            collapsed_stacks(profile, axis="cpu")
        with pytest.raises(ValueError):
            collapsed_stacks(profile, by="module")


class TestSpeedscopeExport:
    def test_schema_sanity(self):
        profile, _ = _profiled_workload()
        document = json.loads(speedscope_json(profile))
        assert document["$schema"] == SPEEDSCOPE_SCHEMA
        frames = document["shared"]["frames"]
        assert frames
        evented, sampled = document["profiles"]
        assert evented["type"] == "evented"
        assert sampled["type"] == "sampled"
        # every frame reference points into the shared frame table
        for event in evented["events"]:
            assert 0 <= event["frame"] < len(frames)
        for sample in sampled["samples"]:
            for index in sample:
                assert 0 <= index < len(frames)

    def test_events_are_properly_nested(self):
        profile, _ = _profiled_workload()
        document = json.loads(speedscope_json(profile))
        evented = document["profiles"][0]
        stack = []
        cursor = 0.0
        for event in evented["events"]:
            assert event["at"] >= cursor  # timestamps never run backwards
            cursor = event["at"]
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert event["type"] == "C"
                assert stack.pop() == event["frame"]  # LIFO close order
        assert stack == []  # every open frame was closed
        assert evented["endValue"] == cursor

    def test_component_weights_carry_exact_values(self):
        profile, _ = _profiled_workload()
        document = json.loads(speedscope_json(profile))
        frames = document["shared"]["frames"]
        sampled = document["profiles"][1]
        by_component = {
            frames[sample[0]]["name"]: weight
            for sample, weight in zip(sampled["samples"], sampled["weights"])
        }
        for row in profile.components:
            assert (
                by_component[f"component: {row.component}"]
                == row.simulated_seconds
            )


class TestTopRenderer:
    def test_sections_present(self):
        profile, _ = _profiled_workload()
        text = render_profile_top(profile)
        assert text.startswith("PROFILE workload")
        assert "spans (by cumulative simulated cost" in text
        assert "components:" in text
        assert "token-replay" in text

    def test_dropped_spans_are_reported_not_hidden(self):
        profile = CostProfile(
            operation="x",
            wall_seconds=0.0,
            simulated_seconds=0.0,
            root=CallNode(""),
            span_totals={},
            components=[],
            spans_dropped=3,
        )
        assert "3 span(s) evicted" in render_profile_top(profile)


class TestProfileOperation:
    def test_runs_the_op_and_captures_its_output(self):
        store = XMLStore.open(StoreConfig(profiling_enabled=True))
        store.load_document("<r><a>x</a></r>")
        arguments = build_parser().parse_args(
            ["store", "profile", "read", "2", "--format", "json"]
        )
        profile = json.loads(arguments.handler(arguments, store, None))
        assert profile["operation"] == "read"
        emitted = {
            c["component"]: c["counts"] for c in profile["components"]
        }["token-emit"]["tokens_emitted"]
        # every token of the read's output, and no more
        assert emitted == len(tokenize_fragment(store.read(2))) > 0


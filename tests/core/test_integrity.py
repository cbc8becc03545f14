"""Structured integrity checking (repro.core.integrity)."""

import json

import pytest

from repro.core.config import StoreConfig
from repro.core.integrity import IntegrityCheck, IntegrityReport, integrity_report
from repro.core.store import XMLStore
from repro.errors import StoreError

CHECK_NAMES = (
    "layout",
    "range-index",
    "id-density",
    "partial-memo",
    "full-index",
    "block-checksum",
    "quarantine",
)


def _store(max_range_tokens=32):
    store = XMLStore.open(StoreConfig(max_range_tokens=max_range_tokens))
    store.load_document(
        "<r>" + "".join(f"<a n='{i}'><b/></a>" for i in range(10)) + "</r>"
    )
    return store


class TestHealthyStore:
    def test_every_check_runs_and_passes(self):
        report = integrity_report(_store())
        assert report.ok
        assert [check.name for check in report.checks] == list(CHECK_NAMES)
        assert all(check.ok for check in report.checks)
        assert report.failed() == []

    def test_detail_counts_the_ranges(self):
        store = _store()
        report = integrity_report(store)
        by_name = {check.name: check for check in report.checks}
        assert by_name["layout"].detail["ranges"] == len(store.ranges)
        assert by_name["id-density"].detail["ranges"] == len(store.ranges)
        assert len(store.ranges) > 1  # granular config: a real multi-range store

    def test_empty_store_is_ok(self):
        report = integrity_report(XMLStore.open(StoreConfig()))
        assert report.ok

    def test_render_ends_with_verdict(self):
        text = integrity_report(_store()).render()
        lines = text.splitlines()
        assert lines[-1] == "integrity ok"
        # one line per check, each naming it and its status
        for name in CHECK_NAMES:
            assert any(line.startswith(name) and " ok " in line for line in lines)

    def test_to_dict_is_json_ready(self):
        payload = json.loads(json.dumps(integrity_report(_store()).to_dict()))
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(CHECK_NAMES)
        assert all("error" not in check for check in payload["checks"])


class TestCorruptedStore:
    def _corrupt(self):
        """Widen one range's claimed id interval so replaying its tokens
        no longer regenerates [start_id..end_id]."""
        store = _store()
        meta = next(iter(store.ranges.in_order()))
        meta.end_id += 1
        return store

    def test_failure_lands_in_the_report(self):
        report = integrity_report(self._corrupt())
        assert not report.ok
        failed_names = [check.name for check in report.failed()]
        assert "id-density" in failed_names
        for check in report.failed():
            assert check.error  # the broken invariant is spelled out

    def test_all_checks_still_run(self):
        # one corrupted structure must not mask the state of the rest
        report = integrity_report(self._corrupt())
        assert [check.name for check in report.checks] == list(CHECK_NAMES)

    def test_render_names_the_failures(self):
        text = integrity_report(self._corrupt()).render()
        assert "integrity FAILED:" in text.splitlines()[-1]
        assert "FAILED" in text

    def test_to_dict_carries_the_errors(self):
        payload = integrity_report(self._corrupt()).to_dict()
        assert payload["ok"] is False
        failed = [c for c in payload["checks"] if not c["ok"]]
        assert failed and all(c["error"] for c in failed)

    def test_store_check_integrity_raises_naming_the_check(self):
        store = self._corrupt()
        with pytest.raises(StoreError) as excinfo:
            store.check_integrity()
        assert "integrity check" in str(excinfo.value)

    def test_healthy_check_integrity_is_quiet(self):
        _store().check_integrity()  # no exception


class TestPartialMemo:
    """The partial-memo check: resolving entries vs. a from-scratch scan."""

    def _store_with_memos(self):
        store = _store()
        node_ids = []
        for meta in store.ranges.in_order():
            if meta.has_interval:
                node_ids.extend(range(meta.start_id, meta.end_id + 1))
        for node_id in node_ids[:6]:
            store.read(node_id)  # memoize some lookups
        assert len(store.partial_index) > 1
        return store

    def test_healthy_memos_pass_and_are_counted(self):
        report = integrity_report(self._store_with_memos())
        by_name = {check.name: check for check in report.checks}
        assert by_name["partial-memo"].ok
        assert by_name["partial-memo"].detail["entries"] > 0

    def test_stale_entries_are_legal(self):
        # merge every memoized range away: the addresses stop resolving,
        # which the next probe handles — not an integrity failure
        store = self._store_with_memos()
        assert store.compact().merges > 0
        assert len(store.ranges) == 1
        report = integrity_report(store)
        by_name = {check.name: check for check in report.checks}
        assert by_name["partial-memo"].ok
        assert by_name["partial-memo"].detail["stale"] > 0
        assert by_name["partial-memo"].detail["entries"] == 0

    def test_current_entry_at_wrong_offset_fails(self):
        store = self._store_with_memos()
        entry = next(iter(store.partial_index._entries.values()))
        entry.address += 1  # the token after the node's begin token
        report = integrity_report(store)
        failed_names = [check.name for check in report.failed()]
        assert failed_names == ["partial-memo"]

    def test_current_entry_naming_the_wrong_node_fails(self):
        store = self._store_with_memos()
        entries = list(store.partial_index._entries.values())
        a, b = entries[0], entries[1]
        # graft b's address onto a's entry: it resolves, to the wrong node
        a.origin, a.address = b.origin, b.address
        report = integrity_report(store)
        assert [check.name for check in report.failed()] == ["partial-memo"]
        assert "resolves to node" in report.failed()[0].error

    def test_full_index_entries_are_held_to_the_same_check(self):
        from repro.core.config import IndexingPolicy

        store = XMLStore.open(
            StoreConfig(policy=IndexingPolicy.FULL, max_range_tokens=32)
        )
        root = store.load_document(
            "<r>" + "".join(f"<a n='{i}'><b/></a>" for i in range(10)) + "</r>"
        )
        store.insert_into_first(root, "<x/>")
        report = integrity_report(store)
        by_name = {check.name: check for check in report.checks}
        assert by_name["full-index"].ok
        assert by_name["full-index"].detail["entries"] == len(store.full_index)
        # an entry that resolves to another node's token is caught
        origin, address = next(
            (e.origin, e.address) for e in store.full_index.entries() if e.node_id == 5
        )
        store.full_index.put(2, origin, address)
        report = integrity_report(store)
        assert [check.name for check in report.failed()] == ["full-index"]
        assert "resolves to node 5" in report.failed()[0].error

    def test_no_partial_index_reports_zero_entries(self):
        from repro.core.config import IndexingPolicy

        store = XMLStore.open(StoreConfig(policy=IndexingPolicy.RANGE))
        store.load_document("<r><a/></r>")
        report = integrity_report(store)
        by_name = {check.name: check for check in report.checks}
        assert by_name["partial-memo"].ok
        assert by_name["partial-memo"].detail["entries"] == 0


class TestReportPlumbing:
    def test_ok_property_over_mixed_checks(self):
        report = IntegrityReport(
            checks=[
                IntegrityCheck("a", "first", ok=True),
                IntegrityCheck("b", "second", ok=False, error="boom"),
            ]
        )
        assert not report.ok
        assert [check.name for check in report.failed()] == ["b"]
        text = report.render()
        assert text.splitlines()[-1] == "integrity FAILED: b"
        assert "boom" in text

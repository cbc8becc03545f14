"""Online scrubber (repro.storage.scrub): out-of-band verification of
every owned block against the raw device image."""

import struct

import pytest

from repro.core.config import StoreConfig
from repro.core.store import XMLStore
from repro.storage.pages import SlottedPage
from repro.storage.scrub import DATA_CHAIN, RANGE_INDEX, Scrubber, scrub_store


def make_store(checksums=True, orders=6):
    store = XMLStore.open(
        StoreConfig(
            page_size=512, buffer_pool_capacity=8, checksums_enabled=checksums
        )
    )
    root = store.load_document("<r/>")
    for index in range(orders):
        store.insert_into_last(root, f"<e n='{index}'>payload-{index}</e>")
    store.checkpoint()
    return store


def corrupt_block(store, block_no):
    image = bytearray(store.device.read_block(block_no))
    image[-1] ^= 0x20
    store.device.write_block(block_no, bytes(image))


class TestCleanScrub:
    def test_clean_store_scrubs_ok(self):
        store = make_store()
        report = scrub_store(store)
        assert report.ok and report.complete and not report.legacy
        assert report.blocks_total > 0
        assert report.blocks_checked + report.blocks_skipped == report.blocks_total
        assert report.bad_blocks() == []

    def test_every_owned_block_is_visited(self):
        store = make_store()
        scrubber = Scrubber(store)
        owned = {block for block, _ in scrubber._blocks}
        assert set(store.layout.chain.blocks()) <= owned
        scrubber.step()
        assert scrubber.report.complete

    def test_render_is_humane(self):
        report = scrub_store(make_store())
        text = report.render()
        assert "scrub: OK" in text
        assert "verified" in text


class TestCorruptionDetection:
    def test_rotted_chain_block_is_reported_and_quarantined(self):
        store = make_store()
        victim = next(iter(store.layout.chain.blocks()))
        corrupt_block(store, victim)
        report = scrub_store(store)
        assert not report.ok
        assert report.bad_blocks() == [victim]
        [issue] = report.issues
        assert issue.owner == DATA_CHAIN
        assert issue.kind == "checksum"
        assert issue.expected_crc != issue.actual_crc
        assert store.pool.is_quarantined(victim)

    def test_duplicate_detection_is_collapsed(self):
        store = make_store()
        victim = next(iter(store.layout.chain.blocks()))
        corrupt_block(store, victim)
        scrubber = Scrubber(store)
        scrubber.step()
        assert len(scrubber.report.issues) == len(scrubber.report.bad_blocks())

    def test_scrub_emits_events(self):
        store = XMLStore.open(
            StoreConfig(
                page_size=512,
                buffer_pool_capacity=8,
                checksums_enabled=True,
                events_enabled=True,
            )
        )
        root = store.load_document("<r/>")
        for index in range(4):
            store.insert_into_last(root, f"<e n='{index}'/>")
        store.checkpoint()
        victim = next(iter(store.layout.chain.blocks()))
        corrupt_block(store, victim)
        scrub_store(store)
        kinds = {e.kind for e in store.event_log.events()}
        assert "scrub_bad_block" in kinds
        assert "scrub_complete" in kinds


class TestBudgetedScrub:
    def test_step_respects_the_budget(self):
        store = make_store()
        scrubber = Scrubber(store)
        total = scrubber.report.blocks_total
        assert total > 1
        steps = 0
        while not scrubber.step(budget=1):
            steps += 1
            assert steps <= total
        visited = scrubber.report.blocks_checked + scrubber.report.blocks_skipped
        assert visited == total
        assert scrubber.report.complete

    def test_incremental_report_flags_incompleteness(self):
        store = make_store()
        scrubber = Scrubber(store)
        done = scrubber.step(budget=1)
        assert not done and not scrubber.report.complete
        assert "incomplete" in scrubber.report.render()

    def test_scrub_store_chunked_equals_one_pass(self):
        store = make_store()
        chunked = scrub_store(store, blocks_per_call=2)
        full = scrub_store(make_store())
        assert chunked.ok == full.ok
        assert chunked.blocks_total == full.blocks_total


class TestSkips:
    def test_dirty_blocks_are_skipped_not_verified(self):
        """A dirty page's device image is stale by design: verifying it
        would report rot that the next flush overwrites anyway."""
        store = make_store()
        root = 1
        store.insert_into_last(root, "<late/>")  # dirties without checkpoint
        assert store.pool.dirty_blocks()
        report = scrub_store(store)
        assert report.ok
        assert report.blocks_skipped > 0

    def test_rot_under_a_dirty_page_self_heals(self):
        store = make_store()
        victim = next(iter(store.layout.chain.blocks()))
        with store.pool.fetch(victim) as guard:
            guard.mark_dirty()
        corrupt_block(store, victim)
        assert scrub_store(store).ok  # skipped: the flush will rewrite it
        store.checkpoint()
        assert scrub_store(store).ok  # and now it verifies for real


class TestLegacyStores:
    def test_legacy_scrub_is_vacuous_and_says_so(self):
        store = make_store(checksums=False)
        victim = next(iter(store.layout.chain.blocks()))
        corrupt_block(store, victim)
        report = scrub_store(store)
        assert report.legacy
        assert report.ok  # raw pages carry no checksum: nothing to verify
        assert "vacuous" in report.render()

    @pytest.mark.parametrize(
        "records",
        [[], [b"\x01\x00\x00"], [struct.pack("<Bq", 1, -1), b"\x08\x00abc"]],
        ids=["no-records", "short-header", "short-entry"],
    )
    def test_a_block_that_is_not_an_index_node_is_unreadable(self, records):
        """No checksum stands in front of a malformed node here: the
        walker must report it, not die of a struct.error."""
        store = make_store(checksums=False)
        victim = store.range_index._tree.root_block
        image = SlottedPage(store.codec.page_size, records).to_bytes()
        store.device.write_block(victim, image)
        store.pool.drop_all()
        report = scrub_store(store)
        [issue] = report.issues
        assert (issue.block_no, issue.owner, issue.kind) == (
            victim, RANGE_INDEX, "unreadable",
        )

    def test_report_to_dict_is_json_ready(self):
        import json

        store = make_store()
        victim = next(iter(store.layout.chain.blocks()))
        corrupt_block(store, victim)
        payload = json.loads(json.dumps(scrub_store(store).to_dict()))
        assert payload["ok"] is False
        assert payload["legacy"] is False
        assert payload["issues"][0]["block_no"] == victim

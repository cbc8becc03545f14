"""Unit tests for the physical token layout."""

import pytest

from repro.errors import StoreError
from repro.core.layout import TokenLayout
from repro.core.ranges import RangeTable
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import Position


def make_layout(block_size=128, capacity=16):
    device = InstrumentedDevice(MemoryBlockDevice(block_size=block_size))
    pool = BufferPool(device, capacity=capacity)
    ranges = RangeTable()
    return TokenLayout(pool, ranges), ranges


def contents(layout):
    return [record for _, record in layout.iter_from(None)]


class TestAppend:
    def test_empty_layout(self):
        layout, _ = make_layout()
        assert layout.is_empty
        assert contents(layout) == []

    def test_first_append(self):
        layout, _ = make_layout()
        result = layout.insert_before(None, [b"a", b"b"])
        assert contents(layout) == [b"a", b"b"]
        assert result.following is None
        assert len(result.positions) == 2

    def test_append_spills_blocks(self):
        layout, _ = make_layout(block_size=64)
        records = [bytes([65 + i]) * 20 for i in range(10)]
        layout.insert_before(None, records)
        assert contents(layout) == records
        assert layout.chain.num_blocks > 1

    def test_second_append_continues_at_tail(self):
        layout, _ = make_layout()
        layout.insert_before(None, [b"a"])
        result = layout.insert_before(None, [b"b"])
        assert contents(layout) == [b"a", b"b"]
        assert result.following is None

    def test_empty_records_rejected(self):
        layout, _ = make_layout()
        with pytest.raises(StoreError):
            layout.insert_before(None, [])


class TestInsertAtFront:
    def test_front_insert_does_not_move_displaced_record(self):
        layout, _ = make_layout()
        layout.insert_before(None, [b"x"])
        old_pos = next(layout.iter_from(None))[0]
        result = layout.insert_before(old_pos, [b"a", b"b"])
        assert contents(layout) == [b"a", b"b", b"x"]
        assert result.following == old_pos  # displaced record did not move

    def test_front_insert_mid_chain_uses_predecessor_tail(self):
        layout, _ = make_layout(block_size=64)
        layout.insert_before(None, [b"a" * 30, b"b" * 30])  # two blocks
        blocks = list(layout.chain.blocks())
        assert len(blocks) == 2
        result = layout.insert_before(Position(blocks[1], 0), [b"m" * 10])
        assert contents(layout) == [b"a" * 30, b"m" * 10, b"b" * 30]
        # the small record fit in the first block's tail
        assert result.positions[0].block_no == blocks[0]


class TestInteriorInsert:
    def test_interior_insert_splits_block(self):
        layout, ranges = make_layout()
        result0 = layout.insert_before(None, [b"a", b"c"])
        meta = ranges.new_range(result0.positions[0], 2, 1, 2)
        pos_c = result0.positions[1]
        result = layout.insert_before(pos_c, [b"b"], meta)
        assert contents(layout) == [b"a", b"b", b"c"]
        assert result.following is not None
        assert layout.record_at(result.following) == b"c"

    def test_interior_insert_keeps_derived_positions_right(self):
        # the split moves "c" to a new block; nothing recorded that, yet
        # offset 1 of the range is found where "c" now lives
        layout, ranges = make_layout()
        result0 = layout.insert_before(None, [b"a", b"c"])
        meta = ranges.new_range(result0.positions[0], 2, 1, 2)
        result = layout.insert_before(result0.positions[1], [b"b"], meta)
        tail = ranges.split(meta, 1, 1)
        ranges.place(tail, result.following, after=meta.range_id)
        found, offset = ranges.resolve(meta.origin, 1)
        assert found is tail
        assert layout.record_at(layout.position_of(found, offset)) == b"c"

    def test_interior_insert_fixes_relocated_range_starts(self):
        layout, ranges = make_layout()
        result0 = layout.insert_before(None, [b"a", b"b", b"c", b"d"])
        first = ranges.new_range(result0.positions[0], 2, 1, 2)
        second = ranges.new_range(result0.positions[2], 2, 3, 4)
        # insert before "c" (start of the second range)
        layout.insert_before(result0.positions[2], [b"x"], second)
        assert contents(layout) == [b"a", b"b", b"x", b"c", b"d"]
        # second range's start must still point at "c"
        assert layout.record_at(second.start) == b"c"
        assert layout.record_at(first.start) == b"a"

    def test_interior_insert_fixes_starts_after_the_cut_range_only(self):
        layout, ranges = make_layout()
        result0 = layout.insert_before(None, [b"a", b"b", b"c", b"d", b"e"])
        metas = [
            ranges.new_range(result0.positions[i], 1, i + 1, i + 1) for i in range(3)
        ]
        last = ranges.new_range(result0.positions[3], 2, 4, 5)
        # cut into the last range, before "e": no range starts in the moved tail
        layout.insert_before(result0.positions[4], [b"x"], last)
        assert contents(layout) == [b"a", b"b", b"c", b"d", b"x", b"e"]
        assert [m.start for m in metas + [last]] == list(result0.positions[:4])

    def test_large_interior_insert(self):
        layout, ranges = make_layout(block_size=64)
        result0 = layout.insert_before(None, [b"HEAD" * 4, b"TAIL" * 4])
        meta = ranges.new_range(result0.positions[0], 2, 1, 2)
        run = [bytes([97 + i]) * 15 for i in range(12)]
        result = layout.insert_before(result0.positions[1], run, meta)
        assert contents(layout) == [b"HEAD" * 4] + run + [b"TAIL" * 4]
        assert layout.record_at(result.following) == b"TAIL" * 4


class TestDeleteRun:
    def setup_layout(self, records, block_size=64):
        layout, ranges = make_layout(block_size=block_size)
        result = layout.insert_before(None, records)
        return layout, ranges, result.positions

    def test_delete_within_block(self):
        layout, _, positions = self.setup_layout([b"a", b"b", b"c", b"d"], 256)
        after = layout.delete_run(positions[1], 2, following=None)
        assert contents(layout) == [b"a", b"d"]
        assert layout.record_at(after) == b"d"

    def test_delete_to_end_returns_none(self):
        layout, _, positions = self.setup_layout([b"a", b"b"], 256)
        after = layout.delete_run(positions[0], 2, following=None)
        assert after is None
        assert contents(layout) == []

    def test_delete_across_blocks(self):
        records = [bytes([65 + i]) * 20 for i in range(8)]
        layout, _, positions = self.setup_layout(records)
        assert layout.chain.num_blocks > 2
        after = layout.delete_run(positions[1], 5, following=None)
        assert contents(layout) == [records[0]] + records[6:]
        assert layout.record_at(after) == records[6]

    def test_delete_removes_empty_blocks(self):
        records = [bytes([65 + i]) * 20 for i in range(8)]
        layout, _, positions = self.setup_layout(records)
        blocks_before = layout.chain.num_blocks
        layout.delete_run(positions[0], 7, following=None)
        assert layout.chain.num_blocks < blocks_before
        layout.chain.check_integrity()

    def test_delete_shifts_following_range_starts(self):
        layout, ranges, positions = self.setup_layout(
            [b"a", b"b", b"c", b"d"], block_size=256
        )
        head_range = ranges.new_range(positions[0], 1, 1, 1)
        # (the caller has already dropped the range the run covers)
        tail_range = ranges.new_range(positions[3], 1, 10, 10)
        layout.delete_run(positions[1], 2, following=tail_range)
        assert layout.record_at(tail_range.start) == b"d"
        assert head_range.start == positions[0]

    def test_delete_keeps_block_counts_equal_to_the_pages(self):
        records = [bytes([65 + i]) * 20 for i in range(8)]
        layout, _, positions = self.setup_layout(records)
        layout.delete_run(positions[1], 5, following=None)
        chain = layout.chain
        for block_no in chain.blocks():
            with chain.fetch(block_no) as guard:
                assert chain.block_record_count(block_no) == len(guard.page)

    def test_delete_zero_records_rejected(self):
        layout, _, positions = self.setup_layout([b"a"], block_size=256)
        with pytest.raises(StoreError):
            layout.delete_run(positions[0], 0, following=None)

    def test_delete_past_end_rejected(self):
        layout, _, positions = self.setup_layout([b"a"], block_size=256)
        with pytest.raises(StoreError):
            layout.delete_run(positions[0], 5, following=None)


class TestIntegrity:
    def test_check_integrity_passes_on_tiled_ranges(self):
        layout, ranges = make_layout()
        result = layout.insert_before(None, [b"a", b"b", b"c"])
        ranges.new_range(result.positions[0], 2, 1, 2)
        ranges.new_range(result.positions[2], 1, 3, 3)
        layout.check_integrity()

    def test_check_integrity_detects_bad_start(self):
        layout, ranges = make_layout()
        result = layout.insert_before(None, [b"a", b"b"])
        ranges.new_range(Position(99, 0), 2, 1, 2)
        with pytest.raises(StoreError):
            layout.check_integrity()

    def test_check_integrity_detects_uncovered_records(self):
        layout, ranges = make_layout()
        result = layout.insert_before(None, [b"a", b"b"])
        ranges.new_range(result.positions[0], 1, 1, 1)  # covers only "a"
        with pytest.raises(StoreError):
            layout.check_integrity()

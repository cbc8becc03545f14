"""Unit tests for range metadata and the range table."""

import pytest

from repro.errors import StoreError
from repro.core.layout import TokenLayout
from repro.core.ranges import RangeMeta, RangeTable
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.storage.heap import Position


def make_meta(table, start_id=1, end_id=10, count=20, block=0):
    return table.new_range(
        start=Position(block, 0), token_count=count, start_id=start_id, end_id=end_id
    )


class TestRangeMeta:
    def test_covers(self):
        table = RangeTable()
        meta = make_meta(table, 10, 20)
        assert meta.covers(10) and meta.covers(20) and meta.covers(15)
        assert not meta.covers(9) and not meta.covers(21)

    def test_empty_interval_covers_nothing(self):
        table = RangeTable()
        meta = table.new_range(Position(0, 0), 5, None, None)
        assert not meta.has_interval
        assert not meta.covers(1)

    def test_new_range_is_its_own_origin(self):
        table = RangeTable()
        meta = make_meta(table)
        assert (meta.origin, meta.lo) == (meta.range_id, 0)


class TestOrdering:
    def test_append_order(self):
        table = RangeTable()
        a = make_meta(table, 1, 10)
        b = make_meta(table, 11, 20)
        assert [m.range_id for m in table.in_order()] == [a.range_id, b.range_id]

    def test_insert_after(self):
        table = RangeTable()
        a = make_meta(table, 1, 10)
        c = make_meta(table, 21, 30)
        b = table.new_range(Position(0, 5), 5, 11, 20, after=a.range_id)
        assert [m.range_id for m in table.in_order()] == [
            a.range_id, b.range_id, c.range_id
        ]

    def test_insert_before(self):
        table = RangeTable()
        b = make_meta(table, 11, 20)
        a = table.new_range(Position(0, 0), 5, 1, 10, before=b.range_id)
        assert [m.range_id for m in table.in_order()] == [a.range_id, b.range_id]

    def test_successor_predecessor(self):
        table = RangeTable()
        a = make_meta(table, 1, 10)
        b = make_meta(table, 11, 20)
        assert table.successor(a.range_id).range_id == b.range_id
        assert table.predecessor(b.range_id).range_id == a.range_id
        assert table.successor(b.range_id) is None
        assert table.predecessor(a.range_id) is None

    def test_first_last(self):
        table = RangeTable()
        assert table.first is None and table.last is None
        a = make_meta(table, 1, 10)
        b = make_meta(table, 11, 20)
        assert table.first.range_id == a.range_id
        assert table.last.range_id == b.range_id

    def test_drop(self):
        table = RangeTable()
        a = make_meta(table, 1, 10)
        b = make_meta(table, 11, 20)
        table.drop(a.range_id)
        assert len(table) == 1
        assert a.range_id not in table
        with pytest.raises(StoreError):
            table.get(a.range_id)

    def test_range_ids_never_reused(self):
        table = RangeTable()
        a = make_meta(table, 1, 10)
        table.drop(a.range_id)
        b = make_meta(table, 11, 20)
        assert b.range_id != a.range_id


class TestAddresses:
    """``resolve(origin, address)``: ranges only shrink or get cut, so an
    address names one token for as long as the token exists."""

    def test_own_addresses_resolve(self):
        table = RangeTable()
        a = make_meta(table, count=20)
        assert table.resolve(a.origin, 0) == (a, 0)
        assert table.resolve(a.origin, 19) == (a, 19)
        assert table.resolve(a.origin, 20) is None
        assert table.resolve(a.origin, -1) is None
        assert table.resolve(a.origin + 1, 0) is None

    def test_split_keeps_every_address(self):
        table = RangeTable()
        head = make_meta(table, count=20)
        tail = table.split(head, 8, 4)
        table.place(tail, Position(0, 8), after=head.range_id)
        assert (tail.origin, tail.lo, tail.token_count) == (head.origin, 8, 12)
        assert (head.token_count, head.start_id, head.end_id) == (8, 1, 4)
        assert (tail.start_id, tail.end_id) == (5, 10)
        assert table.resolve(head.origin, 7) == (head, 7)
        assert table.resolve(head.origin, 8) == (tail, 0)
        assert table.resolve(head.origin, 19) == (tail, 11)
        # a second cut, of the tail
        last = table.split(tail, 2, 5)
        table.place(last, Position(0, 10), after=tail.range_id)
        assert table.resolve(head.origin, 9) == (tail, 1)
        assert table.resolve(head.origin, 10) == (last, 0)
        table.check_integrity()

    def test_shrinking_unresolves_only_the_removed_tokens(self):
        table = RangeTable()
        a = make_meta(table, count=20)
        # a delete removed the front five tokens and the last three
        table.behead(a, 5, 2)
        table.truncate(a, 12, 8)
        assert (a.start_id, a.end_id) == (3, 8)
        assert table.resolve(a.origin, 4) is None
        assert table.resolve(a.origin, 5) == (a, 0)
        assert table.resolve(a.origin, 16) == (a, 11)
        assert table.resolve(a.origin, 17) is None

    def test_hole_between_pieces_does_not_resolve(self):
        table = RangeTable()
        head = make_meta(table, count=20)
        tail = table.split(head, 10, 5)
        table.truncate(head, 4, 2)
        table.place(tail, Position(0, 4), after=head.range_id)
        assert table.resolve(head.origin, 3) == (head, 3)
        assert table.resolve(head.origin, 4) is None
        assert table.resolve(head.origin, 9) is None
        assert table.resolve(head.origin, 10) == (tail, 0)

    def test_rebase_moves_to_an_unused_origin(self):
        table = RangeTable()
        a = make_meta(table, count=20)
        old = a.origin
        table.rebase(a)
        assert table.resolve(old, 3) is None
        assert table.resolve(a.origin, 3) == (a, 3)
        b = make_meta(table, 11, 20)
        assert b.range_id not in (old, a.origin)

    def test_overlapping_pieces_detected(self):
        table = RangeTable()
        head = make_meta(table, count=20)
        tail = table.split(head, 8, 4)
        table.place(tail, Position(0, 8), after=head.range_id)
        head.token_count = 20  # as if the head had not been shrunk
        with pytest.raises(StoreError, match="overlapping addresses"):
            table.check_integrity()


class TestResidency:
    """Which blocks a range's tokens reside in is derived — from its start,
    its token count and the chain's block counts — never recorded."""

    def layout(self, block_size=64):
        device = InstrumentedDevice(MemoryBlockDevice(block_size=block_size))
        table = RangeTable()
        return TokenLayout(BufferPool(device, capacity=16), table), table

    def test_add_and_query(self):
        layout, table = self.layout()
        positions = layout.insert_before(None, [b"a", b"b"]).positions
        a = table.new_range(positions[0], 2, 1, 2)
        assert layout.blocks_of(a) == [positions[0].block_no]
        assert layout.position_of(a, 1) == positions[1]

    def test_blocks_of(self):
        layout, table = self.layout()
        records = [bytes([65 + i]) * 20 for i in range(8)]
        positions = layout.insert_before(None, records).positions
        a = table.new_range(positions[0], 3, 1, 3)
        b = table.new_range(positions[3], 5, 4, 8)
        blocks = list(layout.chain.blocks())
        assert len(blocks) > 2
        assert layout.blocks_of(a) == sorted({p.block_no for p in positions[:3]})
        assert layout.blocks_of(b) == sorted({p.block_no for p in positions[3:]})
        for offset in range(5):
            assert layout.position_of(b, offset) == positions[3 + offset]

    def test_copy_residents(self):
        # a block split copies a range's tail records into a new block
        layout, table = self.layout(block_size=256)
        positions = layout.insert_before(None, [b"a", b"b", b"c"]).positions
        a = table.new_range(positions[0], 3, 1, 3)
        new_block = layout.chain.split_block(positions[0].block_no, 1)
        assert layout.blocks_of(a) == [positions[0].block_no, new_block]
        assert layout.position_of(a, 2) == Position(new_block, 1)

    def test_drop_removes_residency(self):
        table = RangeTable()
        a = make_meta(table)
        table.drop(a.range_id)
        assert table.resolve(a.origin, 0) is None
        table.check_integrity()

    def test_forget_block(self):
        layout, table = self.layout()
        records = [bytes([65 + i]) * 20 for i in range(8)]
        positions = layout.insert_before(None, records).positions
        a = table.new_range(positions[0], 1, 1, 1)
        first, last = positions[0].block_no, positions[-1].block_no
        # delete everything after the first record: the emptied blocks go
        layout.delete_run(positions[1], 7, following=None)
        assert not layout.chain.contains_block(last)
        assert layout.blocks_of(a) == [first]


class TestIntegrityAndCatalog:
    def test_disjoint_intervals_ok(self):
        table = RangeTable()
        make_meta(table, 1, 70)
        make_meta(table, 101, 140)
        make_meta(table, 71, 100)
        table.check_integrity()

    def test_overlapping_intervals_detected(self):
        table = RangeTable()
        make_meta(table, 1, 70)
        make_meta(table, 60, 100)
        with pytest.raises(StoreError, match="overlapping"):
            table.check_integrity()

    def test_catalog_roundtrip(self):
        table = RangeTable()
        a = make_meta(table, 1, 70, count=140, block=1)
        b = table.new_range(Position(2, 3), 80, 101, 140, after=a.range_id)
        empty = table.new_range(Position(3, 0), 2, None, None)
        cut = table.split(a, 100, 70)
        table.place(cut, Position(1, 100), after=a.range_id)
        restored = RangeTable.from_catalog(table.to_catalog())
        assert [m.range_id for m in restored.in_order()] == [
            m.range_id for m in table.in_order()
        ]
        ra = restored.get(a.range_id)
        assert ra.start == Position(1, 0)
        assert (ra.start_id, ra.end_id) == (1, 70)
        assert restored.resolve(a.origin, 99) == (ra, 99)
        assert restored.resolve(a.origin, 139) == (restored.get(cut.range_id), 39)
        re = restored.get(empty.range_id)
        assert not re.has_interval

    def test_catalog_without_addresses_opens_every_range_as_its_own_origin(self):
        table = RangeTable()
        a = make_meta(table, 1, 70, count=140)
        cut = table.split(a, 100, 70)
        table.place(cut, Position(0, 100), after=a.range_id)
        # in an older catalog those two slots are (version, 0): not addresses
        restored = RangeTable.from_catalog(table.to_catalog(), addressed=False)
        rcut = restored.get(cut.range_id)
        assert (rcut.origin, rcut.lo) == (cut.range_id, 0)
        assert restored.resolve(a.origin, 100) is None
        assert restored.resolve(cut.range_id, 0) == (rcut, 0)

    def test_catalog_preserves_next_range_id(self):
        table = RangeTable()
        a = make_meta(table)
        restored = RangeTable.from_catalog(table.to_catalog())
        b = make_meta(restored, 100, 110)
        assert b.range_id == a.range_id + 1

    def test_total_tokens(self):
        table = RangeTable()
        make_meta(table, 1, 10, count=20)
        make_meta(table, 11, 20, count=30)
        assert table.total_tokens == 50

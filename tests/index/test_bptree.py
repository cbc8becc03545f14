"""Unit tests for the paged B+-tree."""

import hashlib
import math
import random
import struct

import pytest

from repro.errors import PageFullError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InstrumentedDevice, MemoryBlockDevice
from repro.index.bptree import (
    BYTES_KEY_CODEC,
    INT_KEY_CODEC,
    INT_TUPLE_KEY_CODEC,
    KeyCodec,
    PagedBPlusTree,
)


def make_tree(order=4, capacity=128, block_size=4096, codec=INT_KEY_CODEC):
    device = InstrumentedDevice(MemoryBlockDevice(block_size=block_size))
    pool = BufferPool(device, capacity=capacity)
    return PagedBPlusTree(pool, codec, order=order), pool, device


class TestBasics:
    def test_empty_tree(self):
        tree, _, _ = make_tree()
        assert tree.get(1) is None
        assert tree.is_empty
        assert len(tree) == 0
        assert 1 not in tree

    def test_insert_and_get(self):
        tree, _, _ = make_tree()
        tree.insert(5, b"five")
        assert tree.get(5) == b"five"
        assert 5 in tree

    def test_overwrite(self):
        tree, _, _ = make_tree()
        tree.insert(5, b"old")
        tree.insert(5, b"new")
        assert tree.get(5) == b"new"
        assert len(tree) == 1

    def test_many_inserts_force_splits(self):
        tree, _, _ = make_tree(order=4)
        for i in range(200):
            tree.insert(i, str(i).encode())
        assert tree.height() > 1
        for i in range(200):
            assert tree.get(i) == str(i).encode()
        tree.check_integrity()

    def test_reverse_order_inserts(self):
        tree, _, _ = make_tree(order=4)
        for i in reversed(range(100)):
            tree.insert(i, b"v")
        assert [k for k, _ in tree.items()] == list(range(100))
        tree.check_integrity()

    def test_random_order_inserts(self):
        tree, _, _ = make_tree(order=4)
        keys = list(range(300))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, str(key).encode())
        assert [k for k, _ in tree.items()] == list(range(300))
        tree.check_integrity()

    def test_order_too_small_rejected(self):
        device = InstrumentedDevice(MemoryBlockDevice())
        pool = BufferPool(device)
        with pytest.raises(Exception):
            PagedBPlusTree(pool, INT_KEY_CODEC, order=2)


class TestFloorCeiling:
    def test_floor_exact_match(self):
        tree, _, _ = make_tree()
        tree.insert(10, b"ten")
        assert tree.floor_item(10) == (10, b"ten")

    def test_floor_between_keys(self):
        tree, _, _ = make_tree(order=4)
        for key in [1, 10, 20, 30, 40]:
            tree.insert(key, str(key).encode())
        assert tree.floor_item(25) == (20, b"20")

    def test_floor_below_all_keys(self):
        tree, _, _ = make_tree()
        tree.insert(10, b"x")
        assert tree.floor_item(5) is None

    def test_floor_across_leaf_boundary(self):
        tree, _, _ = make_tree(order=4)
        for key in range(0, 100, 10):
            tree.insert(key, str(key).encode())
        # 45 falls inside whatever leaf; check several probes
        for probe in range(0, 99):
            expected = (probe // 10) * 10
            assert tree.floor_item(probe)[0] == expected

    def test_ceiling(self):
        tree, _, _ = make_tree(order=4)
        for key in [10, 20, 30]:
            tree.insert(key, b"v")
        assert tree.ceiling_item(15)[0] == 20
        assert tree.ceiling_item(20)[0] == 20
        assert tree.ceiling_item(31) is None

    def test_floor_on_empty_tree(self):
        tree, _, _ = make_tree()
        assert tree.floor_item(5) is None
        assert tree.ceiling_item(5) is None


class TestRangeScan:
    def test_items_full_scan_sorted(self):
        tree, _, _ = make_tree(order=4)
        keys = [9, 3, 7, 1, 5]
        for key in keys:
            tree.insert(key, str(key).encode())
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_items_with_bounds(self):
        tree, _, _ = make_tree(order=4)
        for key in range(20):
            tree.insert(key, b"v")
        assert [k for k, _ in tree.items(low=5, high=9)] == [5, 6, 7, 8, 9]

    def test_items_low_only(self):
        tree, _, _ = make_tree(order=4)
        for key in range(10):
            tree.insert(key, b"v")
        assert [k for k, _ in tree.items(low=7)] == [7, 8, 9]

    def test_items_high_only(self):
        tree, _, _ = make_tree(order=4)
        for key in range(10):
            tree.insert(key, b"v")
        assert [k for k, _ in tree.items(high=2)] == [0, 1, 2]

    def test_items_empty_range(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"v")
        assert list(tree.items(low=5, high=9)) == []


class TestDelete:
    def test_delete_present_key(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"one")
        assert tree.delete(1) is True
        assert tree.get(1) is None

    def test_delete_absent_key(self):
        tree, _, _ = make_tree()
        tree.insert(1, b"one")
        assert tree.delete(2) is False
        assert tree.get(1) == b"one"

    def test_delete_all_keys(self):
        tree, _, _ = make_tree(order=4)
        for key in range(100):
            tree.insert(key, b"v")
        for key in range(100):
            assert tree.delete(key)
        assert tree.is_empty
        tree.check_integrity()

    def test_delete_random_order_with_rebalancing(self):
        tree, _, _ = make_tree(order=4)
        keys = list(range(300))
        rng = random.Random(13)
        for key in keys:
            tree.insert(key, str(key).encode())
        rng.shuffle(keys)
        survivors = set(range(300))
        for key in keys[:200]:
            assert tree.delete(key)
            survivors.discard(key)
            if len(survivors) % 50 == 0:
                tree.check_integrity()
        assert [k for k, _ in tree.items()] == sorted(survivors)
        tree.check_integrity()

    def test_tree_height_shrinks_after_mass_delete(self):
        tree, _, _ = make_tree(order=4)
        for key in range(200):
            tree.insert(key, b"v")
        tall = tree.height()
        for key in range(199):
            tree.delete(key)
        assert tree.height() < tall
        tree.check_integrity()

    def test_interleaved_insert_delete(self):
        tree, _, _ = make_tree(order=4)
        model = {}
        rng = random.Random(42)
        for step in range(1000):
            key = rng.randrange(100)
            if rng.random() < 0.6:
                tree.insert(key, str(step).encode())
                model[key] = str(step).encode()
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
        assert dict(tree.items()) == model
        tree.check_integrity()

    def test_clear(self):
        tree, pool, _ = make_tree(order=4)
        for key in range(100):
            tree.insert(key, b"v")
        tree.clear()
        assert tree.is_empty
        tree.insert(1, b"again")
        assert tree.get(1) == b"again"


class TestPersistence:
    def test_reopen_by_root_block(self):
        device = InstrumentedDevice(MemoryBlockDevice())
        pool = BufferPool(device, capacity=64)
        tree = PagedBPlusTree(pool, INT_KEY_CODEC, order=4)
        for key in range(50):
            tree.insert(key, str(key).encode())
        root = tree.root_block
        pool.flush_all()
        fresh_pool = BufferPool(device, capacity=64)
        reopened = PagedBPlusTree(fresh_pool, INT_KEY_CODEC, order=4, root_block=root)
        assert [k for k, _ in reopened.items()] == list(range(50))
        assert reopened.get(33) == b"33"

    def test_tree_io_is_accounted(self):
        tree, pool, device = make_tree(order=4, capacity=2)
        for key in range(200):
            tree.insert(key, b"v")
        pool.flush_all()
        before = device.stats.reads
        tree.get(150)
        assert device.stats.reads >= before  # lookups may hit the tiny pool
        # with a tiny pool, a full scan must read from the device
        list(tree.items())
        assert device.stats.reads > before


class TestKeyCodecs:
    def test_tuple_keys(self):
        tree, _, _ = make_tree(codec=INT_TUPLE_KEY_CODEC, order=4)
        labels = [(1,), (1, 1), (1, 3), (2,), (2, 1, 5)]
        for i, label in enumerate(labels):
            tree.insert(label, str(i).encode())
        assert [k for k, _ in tree.items()] == sorted(labels)
        assert tree.floor_item((1, 2))[0] == (1, 1)

    def test_bytes_keys(self):
        tree, _, _ = make_tree(codec=BYTES_KEY_CODEC, order=4)
        for word in [b"pear", b"apple", b"fig"]:
            tree.insert(word, b"v")
        assert [k for k, _ in tree.items()] == [b"apple", b"fig", b"pear"]

    def test_negative_int_keys(self):
        tree, _, _ = make_tree(order=4)
        for key in [-5, -1, 0, 3, -100]:
            tree.insert(key, b"v")
        assert [k for k, _ in tree.items()] == [-100, -5, -1, 0, 3]



class TestNodeOverflow:
    def test_failed_insert_loses_no_acknowledged_key(self):
        """An ``order`` too large for the block surfaces as PageFullError on
        the insert that overflows — and only that insert is lost."""
        tree, _, _ = make_tree(order=64, block_size=512)
        value = b"v" * 40
        for key in range(9, 0, -1):
            tree.insert(key, value)
        with pytest.raises(PageFullError):
            tree.insert(0, value)
        assert [k for k, _ in tree.items()] == list(range(1, 10))
        assert all(tree.get(key) == value for key in range(1, 10))
        tree.check_integrity()


def overwrite_block(pool, block_no, records):
    with pool.fetch(block_no) as guard:
        guard.page.replace_all(records)
        guard.mark_dirty()


LEAF_HEADER = struct.pack("<Bq", 1, -1)


class TestMalformedNodes:
    """A tree block that does not hold a node (checksums off, or a CRC-valid
    wrong write) is a StorageError naming the block, never struct.error."""

    @pytest.mark.parametrize(
        "records",
        [
            [],  # no header record at all
            [b"\x01\x00"],  # a header that is not 9 bytes
            [LEAF_HEADER, struct.pack("<H", 8) + b"abc"],  # key cut short
            [LEAF_HEADER, b"\x08"],  # not even a key_len
            [LEAF_HEADER, struct.pack("<H", 3) + b"abc"],  # not an int key
        ],
    )
    def test_malformed_leaf(self, records):
        tree, pool, _ = make_tree()
        tree.insert(1, b"one")
        overwrite_block(pool, tree.root_block, records)
        with pytest.raises(StorageError, match=f"block {tree.root_block}"):
            tree.get(1)

    def test_internal_entry_without_its_child_pointer(self):
        tree, pool, _ = make_tree(order=4)
        for key in range(8):
            tree.insert(key, b"v")
        assert tree.height() == 2
        first_child = tree.block_numbers()[1]
        key_only = struct.pack("<Hq", 8, 4)
        overwrite_block(
            pool, tree.root_block, [struct.pack("<Bq", 0, first_child), key_only]
        )
        with pytest.raises(StorageError, match=f"block {tree.root_block}"):
            tree.get(6)
        with pytest.raises(StorageError, match=f"block {tree.root_block}"):
            tree.block_numbers()


def _tuple_key(n):
    # variable length, ordered like n
    return (n // 20,) if n % 20 == 0 else (n // 20, n % 20)


def run_ledger(codec, to_key):
    """A seeded 2 000-op mix on a small pool; returns everything the
    simulated clock and the on-disk format depend on."""
    device = InstrumentedDevice(MemoryBlockDevice(block_size=4096))
    pool = BufferPool(device, capacity=8)
    tree = PagedBPlusTree(pool, codec, order=8)
    rng = random.Random(1305)
    for step in range(2000):
        n = rng.randrange(400)
        key = to_key(n)
        roll = rng.random()
        # grow for 800 steps, then shrink so merges and root shrink fire
        inserts, deletes = (0.50, 0.10) if step < 800 else (0.03, 0.70)
        if roll < inserts:
            tree.insert(key, b"%d:%d" % (step, n) * (1 + step % 3))
        elif roll < inserts + deletes:
            tree.delete(key)
        elif roll < 0.75:
            tree.get(key)
        elif roll < 0.85:
            tree.floor_item(key)
        elif roll < 0.95:
            tree.ceiling_item(key)
        else:
            list(tree.items(low=key, high=to_key(n + 25)))
    pool.flush_all()
    digest = hashlib.sha256()
    for block_no in sorted(device.backend.block_numbers()):
        digest.update(b"%d:" % block_no + device.backend.read_block(block_no))
    return {
        "entries_loaded": tree.entries_loaded,
        "hits": pool.stats.hits,
        "misses": pool.stats.misses,
        "evictions": pool.stats.evictions,
        "dirty_writebacks": pool.stats.dirty_writebacks,
        "reads": device.stats.reads,
        "writes": device.stats.writes,
        "root_block": tree.root_block,
        "height": tree.height(),
        "sha256": digest.hexdigest(),
    }


LEDGER = {
    "entries_loaded": 40256,
    "hits": 7534,
    "misses": 2049,
    "evictions": 2050,
    "dirty_writebacks": 748,
    "reads": 2049,
    "writes": 748,
    "root_block": 2,
    "height": 2,
}


class TestCostLedger:
    """``entries_loaded`` and the pool's fetch sequence feed the simulated
    clock, and the block images are the on-disk format: none may move when
    the node representation does.  The constants are what the eager
    decode-everything tree (PR 12's) produced for the same sequences."""

    def test_int_keys(self):
        assert run_ledger(INT_KEY_CODEC, lambda n: n) == {
            **LEDGER,
            "sha256": "ac6d9318cc79102329989dec49e00c2bd3e2d0b0"
            "ff3fd5d4cf27e69063bd038e",
        }

    def test_int_tuple_keys(self):
        assert run_ledger(INT_TUPLE_KEY_CODEC, _tuple_key) == {
            **LEDGER,
            "sha256": "ea2e8849c40d8a577891a242bdaa9fc5bb407681"
            "59549485a21d7b4473c04d6c",
        }

    # The mechanical form: the cost model charges 10 us per entry of a
    # visited node (DESIGN.md §2); the code may binary-search those entries
    # but not materialise them.

    ORDER = 64

    @pytest.fixture
    def counted(self):
        calls = {"encode": 0, "decode": 0}

        def encode(key):
            calls["encode"] += 1
            return INT_KEY_CODEC.encode(key)

        def decode(data):
            calls["decode"] += 1
            return INT_KEY_CODEC.decode(data)

        tree, pool, _ = make_tree(
            order=self.ORDER, codec=KeyCodec(encode=encode, decode=decode)
        )
        for key in range(0, 10000, 2):
            tree.insert(key, b"v")
        assert tree.height() == 3
        calls.update(encode=0, decode=0)
        return tree, pool, calls

    def test_get_decodes_a_binary_search_per_node(self, counted):
        tree, pool, calls = counted
        per_node = math.ceil(math.log2(self.ORDER)) + 2
        for key in (0, 4998, 4999, 9998, 12345):
            visits_before = pool.stats.accesses
            calls["decode"] = 0
            tree.get(key)
            visits = pool.stats.accesses - visits_before
            assert visits == 4  # root, internal, and the leaf twice
            assert 0 < calls["decode"] <= per_node * visits

    def test_insert_into_a_leaf_with_room_encodes_one_key(self, counted):
        tree, _, calls = counted
        blocks = len(tree.block_numbers())
        tree.insert(4999, b"new")
        assert len(tree.block_numbers()) == blocks  # nothing split
        assert calls["encode"] == 1
        tree.insert(4999, b"overwritten")
        assert calls["encode"] == 2

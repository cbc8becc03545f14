"""A golden for the update engine: what delete, replace and insert leave behind.

``perfbench`` only ever calls ``insert_into_last``, so nothing outside this
file holds the rest of the update path to the simulated axis.  A seeded
sequence of 400 operations — deletes, both replaces, all four inserts, a
few point reads (so memoized ends are in play) and an occasional compaction
— runs under each indexing policy, and everything the engine decides is
pinned: the range table, the Range Index's entries, the full index's
entries, the operation counters, the simulated clock and the device's
read/write counts.  Targets come from the reference store, which assigns
the same dense ids, so choosing them costs the store nothing.

The constants were generated on the commit before range surgery moved
behind ``RangeTable`` (``python tests/core/test_update_engine_golden.py``
prints them), with one deliberate difference: at that commit a delete that
removed the head of a range whose remainder starts no node deleted the
range's key from the Range Index twice, and the second, charged descent is
gone (``tests/core/test_range_surgery.py::TestKeyLedger``).  The four
configurations were therefore pinned against that commit plus the one-line
fix; only ``simulated_seconds`` and one device read differ from the unfixed
run, and the comments below keep the unfixed values.
"""

import hashlib
import random

import pytest

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.testing.reference import ReferenceStore

OPS = 400
SEED = 24

CONFIGS = {
    "full": dict(policy=IndexingPolicy.FULL),
    "range": dict(policy=IndexingPolicy.RANGE),
    "range_chunked": dict(policy=IndexingPolicy.RANGE, max_range_tokens=12),
    "partial": dict(policy=IndexingPolicy.RANGE_PLUS_PARTIAL, partial_index_capacity=64),
}

FRAGMENTS = (
    "<item sku='a'>text</item>",
    "<item><qty>1</qty><note>n</note></item>",
    "plain text",
    "<!--c-->",
    "<a x='1' y='2'><b/><b>t</b></a><c/>",
    "<deep><er><est>v</est></er></deep>",
)

# what the sequence does is the same under every policy; max_range_tokens
# only changes how many ranges it takes
_OPERATIONS = {
    "loads": 1, "reads": 1, "node_reads": 38, "inserts": 160, "deletes": 105,
    "replaces": 93, "ranges_created": 246, "ranges_split": 114,
    "ranges_dropped": 376, "nodes_inserted": 924, "nodes_deleted": 799,
}

GOLDEN = {
    "full": {
        "ranges": "06aa907013daf99cd5ea216c360916237bd7e0dc4a4b4f733301f6169fc0b7ad",
        "range_index": "8b9871da683b8f6816cd8f4ba27e5bb2b7853d78332a78ad141126570ba191ad",
        "full_index": "6a8af1d632aaf239988ca0b23aeab884a1a0243d977016357941ca77450e35a0",
        "operations": _OPERATIONS,
        "simulated_seconds": "45.95567261364103",  # 45.95751261364103 before the fix
        "device": (3311, 2084),
    },
    "range": {
        "ranges": "7987d1f5bfc605ae9162dd6fab8b7b9f32395a7e31eaad0b5f97fbab60aebd32",
        "range_index": "8b9871da683b8f6816cd8f4ba27e5bb2b7853d78332a78ad141126570ba191ad",
        "full_index": None,
        "operations": _OPERATIONS,
        "simulated_seconds": "17.48240670454523",  # 17.484246704545228
        "device": (1290, 765),
    },
    "range_chunked": {
        "ranges": "f13973a8e303f4a35954bd2c8d406ed76dc3cd7e2138609f37eab9aa4018b224",
        "range_index": "8598bd3963990ffee8e37ffee600a174b4c04fda086667fa7a54d88631c6eddf",
        "full_index": None,
        "operations": {
            **_OPERATIONS,
            "ranges_created": 300, "ranges_split": 111, "ranges_dropped": 421,
        },
        "simulated_seconds": "18.819613636363634",  # 18.821343636363633
        "device": (1409, 819),
    },
    "partial": {
        "ranges": "7987d1f5bfc605ae9162dd6fab8b7b9f32395a7e31eaad0b5f97fbab60aebd32",
        "range_index": "8b9871da683b8f6816cd8f4ba27e5bb2b7853d78332a78ad141126570ba191ad",
        "full_index": None,
        "operations": _OPERATIONS,
        "simulated_seconds": "17.18396693181791",  # 17.194377954545185
        "device": (1260, 761),  # (1261, 761)
    },
}


def _document(orders=10, items=3):
    body = "".join(
        f"<order no='{o}'>"
        + "".join(f"<item sku='s{o}-{i}'>t{i}</item>" for i in range(items))
        + "</order>"
        for o in range(orders)
    )
    return f"<orders>{body}</orders>"


def run_sequence(name):
    """Apply the seeded sequence under ``CONFIGS[name]``; returns the store."""
    rng = random.Random(SEED)
    store = XMLStore.open(
        StoreConfig(page_size=512, buffer_pool_capacity=12, **CONFIGS[name])
    )
    reference = ReferenceStore()
    root = store.load_document(_document())
    assert reference.load_document(_document()) == root

    def both(op, *args):
        getattr(reference, op)(*args)
        getattr(store, op)(*args)

    for index in range(OPS):
        if index % 97 == 96:
            store.compact(max_tokens=64)
            continue
        roll = rng.random()
        elements = reference.element_ids()
        siblings = [n for n in reference.sibling_target_ids() if n != root]
        fragment = rng.choice(FRAGMENTS)
        if roll < 0.10:
            store.read(rng.choice(reference.all_node_ids()))
        elif roll < 0.33 and len(siblings) > 20:
            both("delete_node", rng.choice(siblings))
        elif roll < 0.45 and siblings:
            both("replace_node", rng.choice(siblings), fragment)
        elif roll < 0.57:
            both("replace_content", rng.choice(elements), rng.choice(FRAGMENTS + ("",)))
        elif roll < 0.67 and siblings:
            both("insert_before", rng.choice(siblings), fragment)
        elif roll < 0.77 and siblings:
            both("insert_after", rng.choice(siblings), fragment)
        elif roll < 0.87:
            both("insert_into_first", rng.choice(elements), fragment)
        else:
            both("insert_into_last", rng.choice(elements), fragment)
    assert store.read() == reference.read()
    store.check_integrity()
    return store


def _sha256(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def observed(store):
    full = store.full_index
    counts = store.operations
    return {
        "ranges": _sha256(store.range_snapshot()),
        "range_index": _sha256(list(store.range_index.entries())),
        "full_index": None if full is None else _sha256(
            [(e.node_id, e.origin, e.address) for e in full.entries()]
        ),
        "operations": {f: getattr(counts, f) for f in counts.__dataclass_fields__},
        "simulated_seconds": repr(store.simulated_seconds),
        "device": (store.device.stats.reads, store.device.stats.writes),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_update_engine_is_pinned(name):
    store = run_sequence(name)
    counts = store.operations
    # the sequence must reach every arm of the engine
    assert counts.ranges_split > 50 and counts.ranges_dropped > 50
    assert counts.deletes > 50 and counts.replaces > 50
    assert observed(store) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: observed(run_sequence(name)) for name in sorted(CONFIGS)})

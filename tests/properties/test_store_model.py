"""Model-based testing of the store against a reference implementation.

The reference keeps the document as a plain token list with its own id
assignment, sharing nothing with the store except the parser.  Hypothesis
drives random operation sequences against both under every indexing
policy and checks they agree on content, node lookup, and errors — the
strongest statement that laziness never changes answers.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import IndexingPolicy, StoreConfig
from repro.core.store import XMLStore
from repro.errors import NodeNotFoundError
from repro.storage.wal import WriteAheadLog
from repro.testing.reference import ReferenceStore


FRAGMENTS = [
    "<a/>",
    "<b>text</b>",
    "<c x='1'><d/></c>",
    "<e><f>deep</f><g/></e>",
    "plain text",
    "<h/><i/>",
]

POLICIES = [
    IndexingPolicy.FULL,
    IndexingPolicy.RANGE,
    IndexingPolicy.RANGE_PLUS_PARTIAL,
    IndexingPolicy.ADAPTIVE,
]


class StoreAgreesWithModel(RuleBasedStateMachine):
    """Random Table-1 operation sequences: store == reference, always."""

    @initialize(
        policy=st.sampled_from(POLICIES),
        page_size=st.sampled_from([512, 4096]),
        granularity=st.sampled_from([None, 8, 64]),
    )
    def setup(self, policy, page_size, granularity):
        self.config_kwargs = dict(
            policy=policy,
            page_size=page_size,
            buffer_pool_capacity=8,
            max_range_tokens=granularity,
        )
        self.store = XMLStore.open(StoreConfig(**self.config_kwargs))
        self.model = ReferenceStore()

    # -- operations ------------------------------------------------------------

    @rule(fragment=st.sampled_from(FRAGMENTS))
    def load(self, fragment):
        got = self.store.load_document(fragment)
        expected = self.model.load_document(fragment)
        assert got == expected

    @precondition(lambda self: self.model.node_ids())
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_before(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.node_ids()))
        if self._is_attribute(node_id):
            return
        self.store.insert_before(node_id, fragment)
        self.model.insert_before(node_id, fragment)

    @precondition(lambda self: self.model.node_ids())
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_after(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.node_ids()))
        if self._is_attribute(node_id):
            return
        self.store.insert_after(node_id, fragment)
        self.model.insert_after(node_id, fragment)

    @precondition(lambda self: self.model.element_ids())
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_into_last(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.element_ids()))
        self.store.insert_into_last(node_id, fragment)
        self.model.insert_into_last(node_id, fragment)

    @precondition(lambda self: self.model.element_ids())
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def insert_into_first(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.element_ids()))
        self.store.insert_into_first(node_id, fragment)
        self.model.insert_into_first(node_id, fragment)

    @precondition(lambda self: self.model.node_ids())
    @rule(data=st.data())
    def delete_node(self, data):
        node_id = data.draw(st.sampled_from(self.model.node_ids()))
        if self._is_attribute(node_id):
            return
        self.store.delete_node(node_id)
        self.model.delete_node(node_id)

    @precondition(lambda self: self.model.node_ids())
    @rule(data=st.data(), fragment=st.sampled_from(FRAGMENTS))
    def replace_node(self, data, fragment):
        node_id = data.draw(st.sampled_from(self.model.node_ids()))
        if self._is_attribute(node_id):
            return
        self.store.replace_node(node_id, fragment)
        self.model.replace_node(node_id, fragment)

    @rule()
    def crash_recover(self):
        """Kill the store and rebuild it from its own WAL: the recovered
        store must serialize identically, keep the same id assignment
        (checked implicitly — later rules target model-chosen ids), and
        carry on accepting operations."""
        wal_bytes = self.store.wal.to_bytes()
        self.store = XMLStore.recover(
            WriteAheadLog.from_bytes(wal_bytes),
            config=StoreConfig(**self.config_kwargs),
        )
        assert self.store.read() == self.model.read()

    @precondition(lambda self: self.model.node_ids())
    @rule(data=st.data())
    def read_node(self, data):
        node_id = data.draw(st.sampled_from(self.model.node_ids()))
        if self._is_attribute(node_id):
            return
        assert self.store.read(node_id) == self.model.read(node_id)

    @rule()
    def read_missing_id_raises(self):
        import pytest

        missing = self.model._next_id + 100
        with pytest.raises(NodeNotFoundError):
            self.store.read(missing)

    def _is_attribute(self, node_id: int) -> bool:
        return self.model.is_attribute(node_id)

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def same_document(self):
        assert self.store.read() == self.model.read()

    @invariant()
    def store_invariants_hold(self):
        self.store.check_integrity()


TestStoreAgreesWithModel = StoreAgreesWithModel.TestCase
TestStoreAgreesWithModel.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)

"""Unit tests for Dewey and pre/post labeling schemes."""

import pytest

from repro.errors import IdExhaustedError
from repro.ids.dewey import DeweyScheme
from repro.ids.prepost import PrePostLabel, PrePostLabeler

from tests.xmltoken.oracle import tokenize_fragment


@pytest.fixture
def dewey():
    return DeweyScheme()


class TestDeweyGeneration:
    def test_root_and_children(self, dewey):
        root = dewey.label_root()
        first = dewey.first_child(root)
        second = dewey.next_sibling(first)
        assert root == (1,)
        assert first == (1, 1)
        assert second == (1, 2)

    def test_root_has_no_sibling(self, dewey):
        with pytest.raises(IdExhaustedError):
            dewey.next_sibling(())

    def test_between_with_gap(self, dewey):
        assert dewey.between((1, 1), (1, 5)) == (1, 2)

    def test_between_adjacent_requires_renumbering(self, dewey):
        with pytest.raises(IdExhaustedError):
            dewey.between((1, 1), (1, 2))

    def test_between_non_siblings_rejected(self, dewey):
        with pytest.raises(IdExhaustedError):
            dewey.between((1, 1), (2, 5))

    def test_parent_and_depth(self, dewey):
        assert dewey.parent((1, 2, 3)) == (1, 2)
        assert dewey.depth((1, 2, 3)) == 3
        with pytest.raises(IdExhaustedError):
            dewey.parent((1,))


class TestDeweyOrderAncestry:
    def test_document_order(self, dewey):
        assert dewey.document_order((1, 1), (1, 2)) < 0
        assert dewey.document_order((1,), (1, 1)) < 0
        assert dewey.document_order((1, 2), (1, 2)) == 0

    def test_is_ancestor(self, dewey):
        assert dewey.is_ancestor((1,), (1, 2, 3))
        assert not dewey.is_ancestor((1, 2), (1, 3))
        assert not dewey.is_ancestor((1, 2), (1, 2))

    def test_encoding_is_byte_comparable(self, dewey):
        labels = [(1,), (1, 1), (1, 2), (1, 10), (2,), (1, 2, 1)]
        assert sorted(labels) == sorted(labels, key=dewey.encode)

    def test_encoding_roundtrip(self, dewey):
        for label in [(1,), (1, 2, 3), (100, 200)]:
            assert dewey.decode(dewey.encode(label)) == label


class TestDeweyRelabeling:
    SIBLINGS = [(1, 1), (1, 2), (1, 3), (1, 3, 1), (1, 4)]

    def test_relabel_cost_counts_following_subtrees(self, dewey):
        # inserting after (1,2): (1,3), its child (1,3,1) and (1,4) move
        assert dewey.relabel_cost(self.SIBLINGS, (1, 2)) == 3

    def test_relabel_cost_at_end_is_zero(self, dewey):
        assert dewey.relabel_cost(self.SIBLINGS, (1, 4)) == 0

    def test_renumber_after_produces_moves(self, dewey):
        new_label, moves = dewey.renumber_after(self.SIBLINGS, (1, 2))
        assert new_label == (1, 3)
        assert dict(moves) == {
            (1, 3): (1, 4),
            (1, 3, 1): (1, 4, 1),
            (1, 4): (1, 5),
        }

    def test_renumber_preserves_order(self, dewey):
        new_label, moves = dewey.renumber_after(self.SIBLINGS, (1, 1))
        mapping = dict(moves)
        relabeled = sorted(mapping.get(l, l) for l in self.SIBLINGS)
        assert new_label not in relabeled
        assert relabeled == sorted(relabeled)


class TestPrePost:
    def labels_for(self, xml):
        return PrePostLabeler().label_stream(tokenize_fragment(xml))

    def test_single_element(self):
        assert self.labels_for("<a/>") == [PrePostLabel(0, 0)]

    def test_figure_tree(self):
        # <a><b/><c><d/></c></a>
        labels = self.labels_for("<a><b/><c><d/></c></a>")
        a, b, c, d = labels
        assert a == PrePostLabel(0, 3)
        assert b == PrePostLabel(1, 0)
        assert c == PrePostLabel(2, 2)
        assert d == PrePostLabel(3, 1)

    def test_containment(self):
        a, b, c, d = self.labels_for("<a><b/><c><d/></c></a>")
        labeler = PrePostLabeler()
        assert labeler.is_ancestor(a, d)
        assert labeler.is_ancestor(c, d)
        assert not labeler.is_ancestor(b, d)
        assert not labeler.is_ancestor(d, c)

    def test_document_order_by_pre(self):
        labels = self.labels_for("<a><b/><c/></a>")
        labeler = PrePostLabeler()
        assert labeler.document_order(labels[0], labels[1]) < 0
        assert labeler.document_order(labels[2], labels[1]) > 0

    def test_unbalanced_stream_rejected(self):
        from repro.errors import IdSchemeError
        from repro.xmltoken.tokens import begin_element

        with pytest.raises(IdSchemeError):
            PrePostLabeler().label_stream([begin_element("a")])

    def test_relabel_cost_is_linear_in_following_nodes(self):
        labels = self.labels_for("<r><a/><b/><c/><d/></r>")
        labeler = PrePostLabeler()
        # insert right after <a/>: pre=2, and post shifts from a's post+1=1
        cost = labeler.relabel_cost(labels, insert_pre=2, insert_post=1)
        # b, c, d shift pre; r, b? -> count: labels with pre>=2: b(2),c(3),d(4)
        # labels with post>=1: r(4), b? b.post=1 -> yes, c=2, d=3
        assert cost == 4  # r, b, c, d all move in some coordinate

    def test_insert_leaf_keeps_labels_consistent(self):
        labels = self.labels_for("<r><a/><b/></r>")
        labeler = PrePostLabeler()
        new_label, relabeled = labeler.insert_leaf(labels, insert_pre=2, insert_post=1)
        all_labels = relabeled + [new_label]
        pres = sorted(l.pre for l in all_labels)
        posts = sorted(l.post for l in all_labels)
        assert pres == list(range(len(all_labels)))
        assert posts == list(range(len(all_labels)))

    def test_encode(self):
        data = PrePostLabeler.encode(PrePostLabel(1, 2))
        assert len(data) == 8

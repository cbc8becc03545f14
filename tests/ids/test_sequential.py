"""Unit tests for the sequential store id scheme."""

import pytest

from repro.errors import IdSchemeError
from repro.ids.sequential import SequentialIdScheme
from repro.xmltoken.tokens import TokenKind

from tests.xmltoken.oracle import tokenize_fragment


class TestAllocation:
    def test_first_interval_starts_at_one(self):
        scheme = SequentialIdScheme()
        assert scheme.allocate_interval(100) == (1, 100)

    def test_intervals_are_dense_and_disjoint(self):
        scheme = SequentialIdScheme()
        first = scheme.allocate_interval(100)
        second = scheme.allocate_interval(40)
        assert first == (1, 100)
        assert second == (101, 140)  # the paper's §4.5 example allocation

    def test_single_id_interval(self):
        scheme = SequentialIdScheme()
        assert scheme.allocate_interval(1) == (1, 1)

    def test_zero_count_rejected(self):
        with pytest.raises(IdSchemeError):
            SequentialIdScheme().allocate_interval(0)

    def test_custom_start(self):
        scheme = SequentialIdScheme(next_id=500)
        assert scheme.allocate_interval(2) == (500, 501)

    def test_bad_start_rejected(self):
        with pytest.raises(IdSchemeError):
            SequentialIdScheme(next_id=0)

    def test_high_water_mark(self):
        scheme = SequentialIdScheme()
        scheme.allocate_interval(10)
        assert scheme.high_water_mark == 11


class TestIdFactory:
    def test_factory_increments(self):
        scheme = SequentialIdScheme()
        assert scheme.next_id(60, TokenKind.TEXT) == 61

    def test_regeneration_matches_allocation(self):
        """Scanning a range's node-starting tokens regenerates exactly the
        allocated interval — the paper's low-storage-overhead trick."""
        scheme = SequentialIdScheme()
        tokens = tokenize_fragment("<a><b>1</b><c x='y'>2</c></a>")
        node_starts = [t for t in tokens if t.starts_node]
        first, last = scheme.allocate_interval(len(node_starts))
        current = first
        regenerated = [first]
        for token in node_starts[1:]:
            current = scheme.next_id(current, token.kind)
            regenerated.append(current)
        assert regenerated == list(range(first, last + 1))


class TestCodecAndCatalog:
    def test_encode_decode_roundtrip(self):
        scheme = SequentialIdScheme()
        for value in [1, 60, 2**40]:
            assert scheme.decode(scheme.encode(value)) == value

    def test_bad_encoding_rejected(self):
        with pytest.raises(IdSchemeError):
            SequentialIdScheme().decode(b"abc")

    def test_catalog_roundtrip(self):
        scheme = SequentialIdScheme()
        scheme.allocate_interval(140)
        state = scheme.to_catalog()
        restored = SequentialIdScheme()
        restored.restore_catalog(state)
        assert restored.allocate_interval(1) == (141, 141)

"""Unit tests for the slotted page."""

import struct

import pytest

from repro.errors import (
    PageFullError,
    RecordTooLargeError,
    SlotNotFoundError,
    StorageError,
)
from repro.storage.pages import PAGE_HEADER_SIZE, RECORD_OVERHEAD, SlottedPage, page_capacity


class TestBasics:
    def test_empty_page(self):
        page = SlottedPage(256)
        assert len(page) == 0
        assert page.free_space == 256 - PAGE_HEADER_SIZE - RECORD_OVERHEAD

    def test_append_and_read(self):
        page = SlottedPage(256)
        slot = page.append(b"alpha")
        assert slot == 0
        assert page.record(0) == b"alpha"

    def test_slot_order_is_insertion_order(self):
        page = SlottedPage(256, [b"a", b"b", b"c"])
        assert page.records() == [b"a", b"b", b"c"]

    def test_insert_at_position_shifts_right(self):
        page = SlottedPage(256, [b"a", b"c"])
        page.insert(1, b"b")
        assert page.records() == [b"a", b"b", b"c"]

    def test_insert_at_front(self):
        page = SlottedPage(256, [b"b"])
        page.insert(0, b"a")
        assert page.records() == [b"a", b"b"]

    def test_insert_position_out_of_range(self):
        page = SlottedPage(256, [b"a"])
        with pytest.raises(SlotNotFoundError):
            page.insert(5, b"x")

    def test_delete_shifts_left(self):
        page = SlottedPage(256, [b"a", b"b", b"c"])
        removed = page.delete(1)
        assert removed == b"b"
        assert page.records() == [b"a", b"c"]

    def test_delete_reclaims_space(self):
        page = SlottedPage(256)
        page.append(b"x" * 50)
        free_before = page.free_space
        page.delete(0)
        assert page.free_space == free_before + 50 + RECORD_OVERHEAD

    def test_read_bad_slot_raises(self):
        page = SlottedPage(256, [b"a"])
        with pytest.raises(SlotNotFoundError):
            page.record(1)
        with pytest.raises(SlotNotFoundError):
            page.record(-1)

    def test_replace_in_place(self):
        page = SlottedPage(256, [b"a", b"b"])
        page.replace(0, b"bigger-record")
        assert page.records() == [b"bigger-record", b"b"]

    def test_replace_that_does_not_fit_raises(self):
        page = SlottedPage(64)
        page.append(b"a")
        with pytest.raises(PageFullError):
            page.replace(0, b"x" * 100)

    def test_empty_record_allowed(self):
        page = SlottedPage(64)
        page.append(b"")
        assert page.record(0) == b""


class TestCapacity:
    def test_page_full_raises(self):
        page = SlottedPage(64)
        page.append(b"x" * page.free_space)
        with pytest.raises(PageFullError):
            page.append(b"y")

    def test_record_too_large_is_permanent_error(self):
        page = SlottedPage(64)
        with pytest.raises(RecordTooLargeError):
            page.append(b"x" * 64)

    def test_fits_predicate_matches_append(self):
        page = SlottedPage(64)
        record = b"x" * page.free_space
        assert page.fits(record)
        page.append(record)
        assert not page.fits(b"y")

    def test_page_capacity_helper(self):
        assert page_capacity(4096) == 4096 - PAGE_HEADER_SIZE - RECORD_OVERHEAD

    def test_extend_is_atomic(self):
        page = SlottedPage(64)
        big = [b"x" * 20, b"y" * 20, b"z" * 40]
        with pytest.raises(PageFullError):
            page.extend(big)
        assert len(page) == 0  # nothing was inserted

    def test_many_small_records_fill_page(self):
        page = SlottedPage(256)
        count = 0
        while page.fits(b"ab"):
            page.append(b"ab")
            count += 1
        assert count == (256 - PAGE_HEADER_SIZE) // (2 + RECORD_OVERHEAD)


class TestReplaceAll:
    """The bulk path under ``replace_all``, ``extend``, ``split`` and the
    constructor: sized once, and nothing changes if it raises."""

    def test_replaces_content_and_accounting(self):
        page = SlottedPage(256, [b"old-1", b"old-2", b"old-3"])
        page.replace_all([b"a", bytearray(b"bc")])
        assert page.records() == [b"a", b"bc"]
        assert page.used_bytes == SlottedPage(256, [b"a", b"bc"]).used_bytes
        assert page.to_bytes() == SlottedPage(256, [b"a", b"bc"]).to_bytes()
        page.replace_all([])
        assert len(page) == 0 and page.used_bytes == PAGE_HEADER_SIZE

    def test_exact_fit_is_accepted(self):
        page = SlottedPage(64)
        page.replace_all([b"x" * 29, b"y" * 29])  # 2 + 2 * (2 + 29) == 64
        assert page.free_space == 0

    @pytest.mark.parametrize(
        "records, error",
        [
            ([b"x" * 20, b"y" * 20, b"z" * 20], PageFullError),
            ([b"ok", b"x" * 61], RecordTooLargeError),
        ],
    )
    def test_raises_before_mutating(self, records, error):
        page = SlottedPage(64, [b"keep", b"these"])
        image = page.to_bytes()
        with pytest.raises(error):
            page.replace_all(records)
        with pytest.raises(error):
            page.extend(records)
        assert page.records() == [b"keep", b"these"]
        assert page.to_bytes() == image
        with pytest.raises(error):
            SlottedPage(64, records)


class TestSplit:
    def test_split_moves_tail(self):
        page = SlottedPage(256, [b"a", b"b", b"c", b"d"])
        tail = page.split(2)
        assert page.records() == [b"a", b"b"]
        assert tail.records() == [b"c", b"d"]

    def test_split_at_zero_moves_everything(self):
        page = SlottedPage(256, [b"a", b"b"])
        tail = page.split(0)
        assert page.records() == []
        assert tail.records() == [b"a", b"b"]

    def test_split_at_end_moves_nothing(self):
        page = SlottedPage(256, [b"a"])
        tail = page.split(1)
        assert page.records() == [b"a"]
        assert tail.records() == []

    def test_split_frees_space_in_source(self):
        page = SlottedPage(256, [b"x" * 50, b"y" * 50])
        free_before = page.free_space
        page.split(1)
        assert page.free_space == free_before + 50 + RECORD_OVERHEAD

    def test_split_bad_position(self):
        page = SlottedPage(256, [b"a"])
        with pytest.raises(SlotNotFoundError):
            page.split(5)


class TestSerialization:
    def test_roundtrip(self):
        page = SlottedPage(128, [b"first", b"", b"third-record"])
        data = page.to_bytes()
        assert len(data) == 128
        back = SlottedPage.from_bytes(data)
        assert back.records() == [b"first", b"", b"third-record"]
        assert back.free_space == page.free_space

    def test_empty_page_roundtrip(self):
        page = SlottedPage(64)
        back = SlottedPage.from_bytes(page.to_bytes())
        assert len(back) == 0

    def test_binary_safe_records(self):
        payload = bytes(range(256))[:100]
        page = SlottedPage(256, [payload])
        back = SlottedPage.from_bytes(page.to_bytes())
        assert back.record(0) == payload

    def test_full_page_roundtrip(self):
        page = SlottedPage(128)
        while page.fits(b"1234567890"):
            page.append(b"1234567890")
        back = SlottedPage.from_bytes(page.to_bytes())
        assert back.records() == page.records()

    def test_decoded_page_accounts_space_like_a_built_one(self):
        page = SlottedPage(128, [b"first", b"", b"third-record"])
        back = SlottedPage.from_bytes(page.to_bytes())
        assert back.used_bytes == page.used_bytes
        assert back.to_bytes() == page.to_bytes()
        back.append(b"x" * back.free_space)
        with pytest.raises(PageFullError):
            back.append(b"y")

    # Damaged images reach from_bytes unguarded when checksums are off
    # (legacy stores); each must fail typed, never as struct.error and
    # never as a quietly shorter record.

    def test_slot_directory_overrunning_the_page_is_a_storage_error(self):
        image = struct.pack("<H", 5000) + b"\0" * 62
        with pytest.raises(StorageError, match="slot directory"):
            SlottedPage.from_bytes(image)

    @pytest.mark.parametrize("image", [b"", b"\x01"])
    def test_image_shorter_than_the_header_is_a_storage_error(self, image):
        with pytest.raises(StorageError, match="no header"):
            SlottedPage.from_bytes(image)

    def test_record_length_overrunning_the_page_is_a_storage_error(self):
        image = struct.pack("<HH", 1, 5000) + b"\0" * 60
        with pytest.raises(StorageError, match="overrun"):
            SlottedPage.from_bytes(image)

    def test_last_record_may_end_exactly_at_the_page_end(self):
        image = struct.pack("<HH", 1, 60) + b"r" * 60
        assert SlottedPage.from_bytes(image).records() == [b"r" * 60]
        with pytest.raises(StorageError):
            SlottedPage.from_bytes(struct.pack("<HH", 1, 61) + b"r" * 60)

    def test_legacy_codec_surfaces_the_typed_error(self):
        from repro.storage.pages import PageCodec

        codec = PageCodec(64, checksums=False)
        with pytest.raises(StorageError):
            codec.decode(struct.pack("<H", 5000) + b"\0" * 62, block_no=3)


class TestChecksumCodec:
    """The checksum frame: detection is the codec's whole job."""

    def _framed(self, block_size=256):
        from repro.storage.pages import PageCodec

        return PageCodec(block_size, checksums=True)

    def test_roundtrip(self):
        codec = self._framed()
        page = codec.new_page()
        page.append(b"hello")
        page.append(b"world")
        image = codec.encode(page, block_no=7)
        back = codec.decode(image, block_no=7)
        assert back.records() == [b"hello", b"world"]

    def test_frame_steals_overhead_from_the_page(self):
        from repro.storage.pages import CHECKSUM_OVERHEAD, PageCodec

        framed = PageCodec(256, checksums=True)
        raw = PageCodec(256, checksums=False)
        assert framed.page_size == 256 - CHECKSUM_OVERHEAD
        assert raw.page_size == 256

    def test_bitrot_is_detected(self):
        from repro.errors import ChecksumError

        codec = self._framed()
        page = codec.new_page()
        page.append(b"payload")
        image = bytearray(codec.encode(page, block_no=3))
        image[-1] ^= 0x01  # one flipped bit, in the slack no less
        with pytest.raises(ChecksumError) as excinfo:
            codec.decode(bytes(image), block_no=3)
        assert excinfo.value.block_no == 3
        assert excinfo.value.expected_crc != excinfo.value.actual_crc

    def test_misdirected_write_is_detected(self):
        """The CRC covers the block number: a valid image landing on the
        wrong block fails verification even though its bytes are intact."""
        from repro.errors import ChecksumError

        codec = self._framed()
        page = codec.new_page()
        page.append(b"payload")
        image = codec.encode(page, block_no=3)
        codec.decode(image, block_no=3)  # sanity: the image itself is fine
        with pytest.raises(ChecksumError):
            codec.decode(image, block_no=4)

    def test_corrupt_magic_is_an_error_not_a_fallback(self):
        """A damaged frame header must never demote the image to the
        legacy raw decode path (the catalog, not the bytes, decides)."""
        from repro.errors import ChecksumError

        codec = self._framed()
        image = bytearray(codec.encode(codec.new_page(), block_no=0))
        image[0] ^= 0xFF
        with pytest.raises(ChecksumError):
            codec.decode(bytes(image), block_no=0)

    def test_truncated_image_is_an_error(self):
        from repro.errors import ChecksumError

        codec = self._framed()
        with pytest.raises(ChecksumError):
            codec.decode(b"\x01", block_no=0)

    def test_legacy_codec_is_a_pass_through(self):
        from repro.storage.pages import PageCodec

        codec = PageCodec(256, checksums=False)
        page = codec.new_page()
        page.append(b"rec")
        assert codec.encode(page, block_no=9) == page.to_bytes()
        assert codec.decode(page.to_bytes(), block_no=9).records() == [b"rec"]

    def test_inspect_does_not_raise(self):
        codec = self._framed()
        page = codec.new_page()
        page.append(b"x")
        good = codec.encode(page, block_no=1)
        ok, stored, computed = codec.inspect(good, block_no=1)
        assert ok and stored == computed
        bad = bytearray(good)
        bad[-1] ^= 0x80
        ok, stored, computed = codec.inspect(bytes(bad), block_no=1)
        assert not ok and stored != computed

    def test_inspect_is_vacuous_on_legacy_images(self):
        from repro.storage.pages import PageCodec

        codec = PageCodec(256, checksums=False)
        assert codec.inspect(b"anything at all", block_no=0) == (True, None, None)

    def test_block_too_small_for_frame_rejected(self):
        from repro.errors import StorageError
        from repro.storage.pages import PageCodec

        with pytest.raises(StorageError):
            PageCodec(8, checksums=True)

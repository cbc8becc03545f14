"""Slotted pages with an *ordered* slot directory.

A page stores a sequence of variable-length records.  Unlike a classic
relational slotted page, the slot order is meaningful: within a block, the
slot order *is* document order of the tokens stored there (see
:mod:`repro.storage.heap`).  Records can therefore be inserted at an
arbitrary slot position, which shifts the following slots.

Pages are value objects that serialize to exactly ``page_size`` bytes.  The
on-page layout is::

    u16 record_count | u16 len_0 | u16 len_1 | ... | payload_0 payload_1 ...

Because a page is rewritten wholesale when flushed (the buffer pool always
writes full block images), records do not need stable on-page offsets and
no tombstone/compaction machinery is necessary: deletion simply removes the
slot.  ``free_space`` reports how many more payload bytes fit.

When checksums are enabled (:class:`PageCodec`), every block image is
framed with an 8-byte self-verification header in front of the slotted
payload::

    u16 magic | u16 version | u32 crc32 | payload ...

The CRC covers ``pack("<q", block_no) + payload``, so a page persisted to
the *wrong* block (a misdirected write) fails verification exactly like
bit rot does.  The framing shrinks the payload area visible to
:class:`SlottedPage` by :data:`CHECKSUM_OVERHEAD` bytes; with checksums
disabled the codec is a pure pass-through and block images are
byte-identical to the legacy raw format.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ChecksumError,
    PageFullError,
    RecordTooLargeError,
    SlotNotFoundError,
    StorageError,
)

_HEADER = struct.Struct("<H")
_SLOT = struct.Struct("<H")

#: Per-record overhead in bytes (the length field in the slot directory).
RECORD_OVERHEAD = _SLOT.size

#: Fixed page overhead in bytes (the record-count header).
PAGE_HEADER_SIZE = _HEADER.size


def page_capacity(page_size: int) -> int:
    """Maximum payload bytes a single record may occupy in a page."""
    return page_size - PAGE_HEADER_SIZE - RECORD_OVERHEAD


_CHECKSUM_HEADER = struct.Struct("<HHI")
_BLOCK_NO = struct.Struct("<q")

#: Magic marking a checksum-framed page image.
CHECKSUM_MAGIC = 0xC5B1

#: On-page format version of the checksum frame.
CHECKSUM_VERSION = 1

#: Bytes the checksum frame steals from every block image.
CHECKSUM_OVERHEAD = _CHECKSUM_HEADER.size


def _page_crc(block_no: int, payload: bytes) -> int:
    return zlib.crc32(_BLOCK_NO.pack(block_no) + payload) & 0xFFFFFFFF


class PageCodec:
    """Encode/decode block images, optionally checksum-framed.

    The codec is the single place where the on-page layout differs
    between the legacy raw format and the self-verifying framed format;
    the buffer pool and scrubber never look at the frame themselves.
    With ``checksums=False`` every method is a pass-through and
    ``page_size == block_size`` (legacy stores decode bit-for-bit as
    before).  Which mode a persisted store uses is recorded in its
    catalog, never sniffed from page bytes — a flipped bit in the magic
    field must surface as a :class:`~repro.errors.ChecksumError`, not a
    silent fall-back to the raw decode path.
    """

    __slots__ = ("block_size", "checksums")

    def __init__(self, block_size: int, checksums: bool = False) -> None:
        if checksums and block_size <= CHECKSUM_OVERHEAD + PAGE_HEADER_SIZE:
            raise StorageError(
                f"block size {block_size} too small for checksum framing"
            )
        self.block_size = block_size
        self.checksums = checksums

    @property
    def page_size(self) -> int:
        """Payload bytes available to :class:`SlottedPage` per block."""
        if self.checksums:
            return self.block_size - CHECKSUM_OVERHEAD
        return self.block_size

    def new_page(self) -> SlottedPage:
        return SlottedPage(self.page_size)

    def encode(self, page: SlottedPage, block_no: int) -> bytes:
        """The block image for ``page`` at ``block_no``."""
        payload = page.to_bytes()
        if not self.checksums:
            return payload
        crc = _page_crc(block_no, payload)
        return _CHECKSUM_HEADER.pack(CHECKSUM_MAGIC, CHECKSUM_VERSION, crc) + payload

    def decode(self, data: bytes, block_no: int) -> SlottedPage:
        """Verify (when framing is on) and decode a block image.

        Raises :class:`~repro.errors.ChecksumError` on any verification
        failure; decoding is strict — there is no fall-back path.
        """
        if not self.checksums:
            return SlottedPage.from_bytes(data)
        ok, expected, actual = self._verify(data, block_no)
        if not ok:
            raise ChecksumError(
                f"block {block_no} failed checksum verification "
                f"(stored={expected!r}, computed={actual!r})",
                block_no=block_no,
                expected_crc=expected,
                actual_crc=actual,
            )
        return SlottedPage.from_bytes(data[CHECKSUM_OVERHEAD:])

    def inspect(
        self, data: bytes, block_no: int
    ) -> Tuple[bool, Optional[int], Optional[int]]:
        """Non-raising verification for the scrubber.

        Returns ``(ok, stored_crc, computed_crc)``; with checksums off,
        every image is vacuously ok (legacy pages carry no checksum).
        """
        if not self.checksums:
            return True, None, None
        return self._verify(data, block_no)

    def _verify(
        self, data: bytes, block_no: int
    ) -> Tuple[bool, Optional[int], Optional[int]]:
        if len(data) < CHECKSUM_OVERHEAD:
            return False, None, None
        magic, version, stored = _CHECKSUM_HEADER.unpack_from(data, 0)
        computed = _page_crc(block_no, data[CHECKSUM_OVERHEAD:])
        if magic != CHECKSUM_MAGIC or version != CHECKSUM_VERSION:
            return False, stored, computed
        return stored == computed, stored, computed


class SlottedPage:
    """A page holding an ordered sequence of variable-length records."""

    __slots__ = ("page_size", "_records", "_used")

    def __init__(self, page_size: int, records: Sequence[bytes] = ()) -> None:
        self.page_size = page_size
        self._records: List[bytes] = []
        self._used = PAGE_HEADER_SIZE
        if records:
            self.replace_all(records)

    # -- capacity -----------------------------------------------------------

    @property
    def free_space(self) -> int:
        """Bytes available for one more record's payload (its overhead
        already accounted for)."""
        return max(0, self.page_size - self._used - RECORD_OVERHEAD)

    def fits(self, record: bytes) -> bool:
        return len(record) + RECORD_OVERHEAD <= self.page_size - self._used

    @property
    def used_bytes(self) -> int:
        return self._used

    # -- record access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._records)

    def record(self, slot: int) -> bytes:
        try:
            return self._records[self._check(slot)]
        except IndexError:
            raise SlotNotFoundError(f"slot {slot} out of range") from None

    def records(self) -> List[bytes]:
        """A copy of all records in slot order."""
        return list(self._records)

    # -- mutation -----------------------------------------------------------

    def append(self, record: bytes) -> int:
        """Add ``record`` after the last slot; return its slot index."""
        return self.insert(len(self._records), record)

    def insert(self, slot: int, record: bytes) -> int:
        """Insert ``record`` *at* ``slot`` (shifting later slots right)."""
        if not 0 <= slot <= len(self._records):
            raise SlotNotFoundError(
                f"insert position {slot} out of range 0..{len(self._records)}"
            )
        need = len(record) + RECORD_OVERHEAD
        if len(record) + RECORD_OVERHEAD + PAGE_HEADER_SIZE > self.page_size:
            raise RecordTooLargeError(
                f"record of {len(record)} bytes can never fit in a "
                f"{self.page_size}-byte page"
            )
        if self._used + need > self.page_size:
            raise PageFullError(
                f"record of {len(record)} bytes does not fit "
                f"({self.page_size - self._used} bytes free)"
            )
        self._records.insert(slot, bytes(record))
        self._used += need
        return slot

    def delete(self, slot: int) -> bytes:
        """Remove and return the record at ``slot`` (shifting later slots
        left)."""
        record = self._records.pop(self._check(slot))
        self._used -= len(record) + RECORD_OVERHEAD
        return record

    def replace(self, slot: int, record: bytes) -> None:
        """Replace the record at ``slot`` in place."""
        index = self._check(slot)
        old = self._records[index]
        new_used = self._used - len(old) + len(record)
        if new_used > self.page_size:
            raise PageFullError(
                f"replacement record of {len(record)} bytes does not fit"
            )
        self._records[index] = bytes(record)
        self._used = new_used

    def split(self, slot: int) -> "SlottedPage":
        """Move slots ``[slot:]`` into a fresh page and return it.

        Used when inserting into the middle of a full block: the tail of
        the block moves to a new block chained right after it.
        """
        index = self._check_boundary(slot)
        tail = SlottedPage(self.page_size, self._records[index:])
        self._used -= tail._used - PAGE_HEADER_SIZE
        del self._records[index:]
        return tail

    def extend(self, records: Sequence[bytes]) -> None:
        """Append many records; raises before mutating if they do not all
        fit."""
        added, self._used = self._checked(records, self._used)
        self._records.extend(added)

    def replace_all(self, records: Sequence[bytes]) -> None:
        """Make ``records`` the page's whole content, in slot order; raises
        before mutating if they do not all fit."""
        self._records, self._used = self._checked(records, PAGE_HEADER_SIZE)

    def _checked(
        self, records: Sequence[bytes], used: int
    ) -> Tuple[List[bytes], int]:
        """The one bulk path: size-check ``records`` against a page with
        ``used`` bytes taken; returns them as bytes with the new total."""
        records = list(map(bytes, records))
        lengths = list(map(len, records))
        longest = max(lengths, default=0)
        if longest > page_capacity(self.page_size):
            raise RecordTooLargeError(
                f"record of {longest} bytes can never fit in a "
                f"{self.page_size}-byte page"
            )
        need = sum(lengths) + RECORD_OVERHEAD * len(lengths)
        if used + need > self.page_size:
            raise PageFullError(
                f"{len(records)} records need {need} bytes "
                f"({self.page_size - used} bytes free)"
            )
        return records, used + need

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        records = self._records
        count = len(records)
        directory = struct.pack(f"<{count + 1}H", count, *map(len, records))
        data = directory + b"".join(records)
        if len(data) > self.page_size:
            raise StorageError("page serialization exceeded page size (bug)")
        return data + b"\x00" * (self.page_size - len(data))

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlottedPage":
        """Decode a page image.  The slot directory is unpacked and checked
        against the image once; a directory or payload that overruns the
        image raises :class:`~repro.errors.StorageError` (with checksums
        off no CRC stands in front of this)."""
        data = bytes(data)
        page_size = len(data)
        if page_size < PAGE_HEADER_SIZE:
            raise StorageError(f"page image of {page_size} bytes has no header")
        (count,) = _HEADER.unpack_from(data, 0)
        offset = PAGE_HEADER_SIZE + count * RECORD_OVERHEAD
        if offset > page_size:
            raise StorageError(
                f"slot directory of {count} records overruns the "
                f"{page_size}-byte page"
            )
        lengths = struct.unpack_from(f"<{count}H", data, PAGE_HEADER_SIZE)
        used = offset + sum(lengths)
        if used > page_size:
            raise StorageError(
                f"records of {used - offset} bytes overrun the "
                f"{page_size}-byte page"
            )
        page = cls(page_size)
        records = page._records
        for length in lengths:
            end = offset + length
            records.append(data[offset:end])
            offset = end
        page._used = used
        return page

    # -- internal -----------------------------------------------------------

    def _check(self, slot: int) -> int:
        if not 0 <= slot < len(self._records):
            raise SlotNotFoundError(
                f"slot {slot} out of range 0..{len(self._records) - 1}"
            )
        return slot

    def _check_boundary(self, slot: int) -> int:
        if not 0 <= slot <= len(self._records):
            raise SlotNotFoundError(
                f"split position {slot} out of range 0..{len(self._records)}"
            )
        return slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlottedPage(records={len(self._records)}, "
            f"used={self._used}/{self.page_size})"
        )

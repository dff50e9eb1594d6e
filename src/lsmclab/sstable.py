"""Immutable sorted-file format and per-file metadata.

File layout (little endian):

    [data pages][index block][filter block][footer]

Data pages are ``page_bytes`` long and hold fixed ``entry_bytes`` slots.
The index block lists the first key of every data page with its offset
(fence pointers). The footer carries block offsets, counters, a whole-file
CRC32 and the magic "LSMCLAB1".

Entries are 4-tuples ``(key, seqnum, kind, value)`` with ``kind`` one of
PUT / TOMBSTONE. Within a file, entries are strictly sorted by key and each
key appears at most once.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bloom import BloomFilter
from .config import ENTRY_HEADER_BYTES, TreeConfig
from .errors import InvalidArgument, StorageIOError

PUT = 0
TOMBSTONE = 1

MAGIC = b"LSMCLAB1"
FORMAT_VERSION = 1

Entry = tuple[bytes, int, int, bytes]

_ENTRY_HDR = struct.Struct("<HHQB")
assert _ENTRY_HDR.size == ENTRY_HEADER_BYTES
# index_off, index_len, filter_off, filter_len, entry_count, data_pages,
# crc32, version, magic
_FOOTER = struct.Struct("<QQQQIIII8s")
FOOTER_BYTES = _FOOTER.size


@dataclass
class SortedFileMeta:
    """Manifest-resident description of one immutable sorted file."""

    file_id: int
    level: int
    path: str
    min_key: bytes
    max_key: bytes
    entry_count: int
    tombstone_count: int
    data_pages: int
    created_tick: int
    oldest_tombstone_tick: int | None = None
    last_access_tick: int = 0
    index_off: int = 0
    index_len: int = 0
    filter_off: int = 0
    filter_len: int = 0

    def data_bytes(self, cfg: TreeConfig) -> int:
        return self.entry_count * cfg.entry_bytes

    def overlaps(self, low: bytes, high: bytes) -> bool:
        """Closed-interval overlap with [low, high]."""
        return self.min_key <= high and low <= self.max_key


def encode_entry(key: bytes, seqnum: int, kind: int, value: bytes, slot: int) -> bytes:
    body = _ENTRY_HDR.pack(len(key), len(value), seqnum, kind) + key + value
    if len(body) > slot:
        raise InvalidArgument(
            f"entry of {len(body)} bytes exceeds the {slot}-byte entry slot"
        )
    return body.ljust(slot, b"\x00")


def decode_entry(page: bytes, offset: int) -> Entry:
    klen, vlen, seqnum, kind = _ENTRY_HDR.unpack_from(page, offset)
    start = offset + ENTRY_HEADER_BYTES
    key = page[start : start + klen]
    value = page[start + klen : start + klen + vlen]
    return key, seqnum, kind, value


def _pack_index(fences: Sequence[bytes], page_bytes: int) -> bytes:
    index = bytearray(struct.pack("<I", len(fences)))
    for page_no, first_key in enumerate(fences):
        index += struct.pack("<HQ", len(first_key), page_no * page_bytes)
        index += first_key
    return bytes(index)


def _write_blocks(
    path: str, data: bytes, index: bytes, filt: bytes, entry_count: int, n_pages: int
) -> tuple[int, int, int, int]:
    """Append index/filter/footer to the data section and persist the file."""
    index_off = len(data)
    filter_off = index_off + len(index)
    crc = zlib.crc32(data)
    crc = zlib.crc32(index, crc)
    crc = zlib.crc32(filt, crc)
    footer = _FOOTER.pack(
        index_off,
        len(index),
        filter_off,
        len(filt),
        entry_count,
        n_pages,
        crc,
        FORMAT_VERSION,
        MAGIC,
    )
    try:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.write(index)
            fh.write(filt)
            fh.write(footer)
    except OSError as exc:
        raise StorageIOError(f"writing {path}: {exc}") from exc
    return index_off, len(index), filter_off, len(filt)


def write_file(
    path: str,
    entries: Sequence[Entry],
    cfg: TreeConfig,
    file_id: int,
    level: int,
    created_tick: int,
    oldest_tombstone_tick: int | None,
) -> SortedFileMeta:
    """Write one sorted file; returns its metadata.

    ``entries`` must be key-sorted and duplicate-free. ``oldest_tombstone_tick``
    is recorded only when the file actually contains tombstones.
    """
    if not entries:
        raise InvalidArgument("refusing to write an empty file")
    slot = cfg.entry_bytes
    per_page = cfg.entries_per_page
    page_bytes = cfg.page_bytes

    pages: list[bytes] = []
    fences: list[bytes] = []
    tombstones = 0
    keys: list[bytes] = []
    for start in range(0, len(entries), per_page):
        chunk = entries[start : start + per_page]
        fences.append(chunk[0][0])
        buf = b"".join(
            encode_entry(k, s, kd, v, slot) for (k, s, kd, v) in chunk
        ).ljust(page_bytes, b"\x00")
        pages.append(buf)
        for k, _s, kd, _v in chunk:
            keys.append(k)
            if kd == TOMBSTONE:
                tombstones += 1

    index = _pack_index(fences, page_bytes)
    filt = BloomFilter.from_keys(keys, cfg.bits_per_key).to_bytes()
    data = b"".join(pages)
    index_off, index_len, filter_off, filter_len = _write_blocks(
        path, data, index, filt, len(entries), len(pages)
    )

    return SortedFileMeta(
        file_id=file_id,
        level=level,
        path=path,
        min_key=entries[0][0],
        max_key=entries[-1][0],
        entry_count=len(entries),
        tombstone_count=tombstones,
        data_pages=len(pages),
        created_tick=created_tick,
        oldest_tombstone_tick=oldest_tombstone_tick if tombstones else None,
        last_access_tick=created_tick,
        index_off=index_off,
        index_len=index_len,
        filter_off=filter_off,
        filter_len=filter_len,
    )


def load_slot_matrix(reader: "SstReader", cfg: TreeConfig) -> np.ndarray:
    """Read the data section as an (entry_count, entry_bytes) uint8 matrix."""
    meta = reader.meta
    fh = reader._file()
    fh.seek(0)
    raw = fh.read(meta.data_pages * cfg.page_bytes)
    per_page = cfg.entries_per_page
    slot = cfg.entry_bytes
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(meta.data_pages, cfg.page_bytes)
    return arr[:, : per_page * slot].reshape(-1, slot)[: meta.entry_count]


def write_file_from_slots(
    path: str,
    slots: np.ndarray,
    key_len: int,
    cfg: TreeConfig,
    file_id: int,
    level: int,
    created_tick: int,
    oldest_tombstone_tick: int | None,
) -> SortedFileMeta:
    """Write a sorted file from pre-encoded entry slots of uniform key length.

    Byte-for-byte equivalent to :func:`write_file` on the decoded entries, but
    the data pages are assembled by block copy instead of per-entry encoding.
    """
    n = len(slots)
    if n == 0:
        raise InvalidArgument("refusing to write an empty file")
    slot = cfg.entry_bytes
    per_page = cfg.entries_per_page
    n_pages = -(-n // per_page)

    buf = np.zeros((n_pages, cfg.page_bytes), dtype=np.uint8)
    buf[:, : per_page * slot].reshape(-1, slot)[:n] = slots
    data = buf.tobytes()

    keyblock = np.ascontiguousarray(
        slots[:, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + key_len]
    )
    fences = [keyblock[i].tobytes() for i in range(0, n, per_page)]
    index = _pack_index(fences, cfg.page_bytes)

    padded = np.zeros((n, 16), dtype=np.uint8)
    width = min(key_len, 16)
    padded[:, :width] = keyblock[:, :width]
    words = padded.view("<u8")
    filt = BloomFilter.from_key_words(words, key_len, cfg.bits_per_key).to_bytes()

    tombstones = int((slots[:, ENTRY_HEADER_BYTES - 1] == TOMBSTONE).sum())
    index_off, index_len, filter_off, filter_len = _write_blocks(
        path, data, index, filt, n, n_pages
    )

    return SortedFileMeta(
        file_id=file_id,
        level=level,
        path=path,
        min_key=keyblock[0].tobytes(),
        max_key=keyblock[-1].tobytes(),
        entry_count=n,
        tombstone_count=tombstones,
        data_pages=n_pages,
        created_tick=created_tick,
        oldest_tombstone_tick=oldest_tombstone_tick if tombstones else None,
        last_access_tick=created_tick,
        index_off=index_off,
        index_len=index_len,
        filter_off=filter_off,
        filter_len=filter_len,
    )


@dataclass
class SstReader:
    """Read-side access to one sorted file. Blocks are fetched on demand."""

    meta: SortedFileMeta
    cfg: TreeConfig
    _fh: object = field(default=None, repr=False)

    def _file(self):
        if self._fh is None:
            try:
                self._fh = open(self.meta.path, "rb")
            except OSError as exc:
                raise StorageIOError(f"opening {self.meta.path}: {exc}") from exc
        return self._fh

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def read_index_block(self) -> bytes:
        fh = self._file()
        fh.seek(self.meta.index_off)
        return fh.read(self.meta.index_len)

    def read_filter_block(self) -> bytes:
        fh = self._file()
        fh.seek(self.meta.filter_off)
        return fh.read(self.meta.filter_len)

    def read_data_page(self, page_no: int) -> bytes:
        if not 0 <= page_no < self.meta.data_pages:
            raise InvalidArgument(f"page {page_no} out of range")
        fh = self._file()
        fh.seek(page_no * self.cfg.page_bytes)
        return fh.read(self.cfg.page_bytes)

    def iter_entries(self, start_page: int = 0) -> Iterator[Entry]:
        """Yield entries in key order, reading pages sequentially."""
        per_page = self.cfg.entries_per_page
        slot = self.cfg.entry_bytes
        remaining = self.meta.entry_count - start_page * per_page
        for page_no in range(start_page, self.meta.data_pages):
            page = self.read_data_page(page_no)
            count = min(per_page, remaining)
            for i in range(count):
                yield decode_entry(page, i * slot)
            remaining -= count


def parse_index_block(raw: bytes) -> list[tuple[bytes, int]]:
    """Decode fence pointers: (first key of page, byte offset of page)."""
    (count,) = struct.unpack_from("<I", raw, 0)
    fences: list[tuple[bytes, int]] = []
    pos = 4
    for _ in range(count):
        klen, offset = struct.unpack_from("<HQ", raw, pos)
        pos += 10
        fences.append((raw[pos : pos + klen], offset))
        pos += klen
    return fences


def scan_page_for_key(page: bytes, key: bytes, entry_bytes: int, count: int) -> Entry | None:
    """Linear probe of one data page holding ``count`` valid slots."""
    for i in range(count):
        off = i * entry_bytes
        klen, vlen, seqnum, kind = _ENTRY_HDR.unpack_from(page, off)
        start = off + ENTRY_HEADER_BYTES
        k = page[start : start + klen]
        if k == key:
            return k, seqnum, kind, page[start + klen : start + klen + vlen]
        if k > key:
            return None
    return None


def verify_file(path: str) -> bool:
    """Whole-file CRC and magic check. Only the tests call it; neither
    manifest replay nor reads verify files."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise StorageIOError(f"reading {path}: {exc}") from exc
    if len(raw) < FOOTER_BYTES:
        return False
    footer = _FOOTER.unpack(raw[-FOOTER_BYTES:])
    if footer[8] != MAGIC or footer[7] != FORMAT_VERSION:
        return False
    return zlib.crc32(raw[:-FOOTER_BYTES]) == footer[6]

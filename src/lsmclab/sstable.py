"""Immutable sorted-file format and per-file metadata.

File layout (little endian):

    [data pages][index block][filter block][footer]

Data pages are ``page_bytes`` long and hold fixed ``entry_bytes`` slots.
The index block lists the first key of every data page with its offset
(fence pointers). The footer carries block offsets, counters, a whole-file
CRC32 and the magic "LSMCLAB1".

Entries are 4-tuples ``(key, seqnum, kind, value)`` with ``kind`` one of
PUT / TOMBSTONE. Within a file, entries are strictly sorted by key and each
key appears at most once; keys may differ in length.

Entries move in bulk as slot matrices: (n, entry_bytes) uint8 arrays of
encoded entries. Flush encodes its buffer into one, compaction merges the
matrices of its input files, and both write through
:func:`write_file_from_slots`, the one writer. :func:`sort_versions` owns
the key order that the merge and the space-amp census sort by.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable, Iterator, Sequence
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


def encode_slots(entries: Iterable[Entry], slot: int) -> np.ndarray:
    """Encode entries into an (n, slot) uint8 slot matrix, one row each."""
    raw = b"".join(encode_entry(k, s, kd, v, slot) for k, s, kd, v in entries)
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, slot)


def _key_lengths(slots: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(slots[:, 0:2]).view("<u2").ravel()


def _padded_keys(slots: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Each row's key cut or zero-padded to ``width`` bytes, as (n, width) uint8."""
    keys = np.zeros((len(slots), width), dtype=np.uint8)
    take = min(width, slots.shape[1] - ENTRY_HEADER_BYTES)
    keys[:, :take] = slots[:, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + take]
    keys *= np.arange(width, dtype=lengths.dtype) < lengths[:, None]
    return keys


KeyColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def key_columns(slots: np.ndarray) -> KeyColumns:
    """The columns :func:`sort_versions` orders a slot matrix by.

    Returns (key words, key lengths, seqnums, kinds). Key words are an
    (n, w) uint64 matrix: each key zero-padded to ``8 * w`` bytes, w fitting
    the longest key, read as big-endian words so that comparing rows word
    by word compares the padded keys byte by byte.
    """
    lengths = _key_lengths(slots)
    width = -(-int(lengths.max()) // 8) * 8
    words = _padded_keys(slots, lengths, width).view(">u8").astype(np.uint64)
    seqnums = np.ascontiguousarray(slots[:, 4:12]).view("<u8").ravel()
    return words, lengths, seqnums, slots[:, ENTRY_HEADER_BYTES - 1].copy()


def sort_versions(columns: Sequence[KeyColumns]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order the rows of several slot matrices as the store orders entries.

    This owns the key order: keys ascend in byte order and each key's
    versions follow newest (highest seqnum) first. Zero padding makes a key
    tie with its extensions by zero bytes (``b"a"``, ``b"a\\x00"``); the
    length tie-break then puts the shorter first, which is byte order.
    ``columns`` come from :func:`key_columns`, one per matrix, and row
    numbers count through the matrices in turn. Returns (order, newest,
    kinds): the row order, whether each sorted row is its key's newest
    version, and each sorted row's kind.
    """
    n_words = max(c[0].shape[1] for c in columns)
    words = np.concatenate(
        [np.pad(c[0], ((0, 0), (0, n_words - c[0].shape[1]))) for c in columns]
    )
    lengths = np.concatenate([c[1] for c in columns])
    seqnums = np.concatenate([c[2] for c in columns])
    kinds = np.concatenate([c[3] for c in columns])
    # np.lexsort sorts by its last key first
    sort_keys = [~seqnums, lengths] + [words[:, j] for j in reversed(range(n_words))]
    order = np.lexsort(sort_keys)
    words = words[order]
    lengths = lengths[order]
    newest = np.empty(len(order), dtype=bool)
    newest[:1] = True
    newest[1:] = (lengths[1:] != lengths[:-1]) | (words[1:] != words[:-1]).any(axis=1)
    return order, newest, kinds[order]


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
    cfg: TreeConfig,
    file_id: int,
    level: int,
    created_tick: int,
    oldest_tombstone_tick: int | None,
) -> SortedFileMeta:
    """Write one sorted file; returns its metadata. Every file is written here.

    ``slots`` is an (n, entry_bytes) uint8 matrix of entries encoded by
    :func:`encode_entry`, key-sorted and duplicate-free; keys may differ in
    length. Pages are filled by block copy, each fence is its page's first
    key at that key's own length, and the Bloom filter hashes every key's
    zero-padded first 16 bytes with its length, as
    :meth:`BloomFilter.from_keys` does. ``oldest_tombstone_tick`` is
    recorded only when the file actually contains tombstones.
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

    lengths = _key_lengths(slots)

    def key_at(row: int) -> bytes:
        return slots[row, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + int(lengths[row])].tobytes()

    index = _pack_index([key_at(i) for i in range(0, n, per_page)], cfg.page_bytes)
    words = _padded_keys(slots, lengths, 16).view("<u8")
    filt = BloomFilter.from_key_words(words, lengths, cfg.bits_per_key).to_bytes()

    tombstones = int((slots[:, ENTRY_HEADER_BYTES - 1] == TOMBSTONE).sum())
    index_off, index_len, filter_off, filter_len = _write_blocks(
        path, data, index, filt, n, n_pages
    )

    return SortedFileMeta(
        file_id=file_id,
        level=level,
        path=path,
        min_key=key_at(0),
        max_key=key_at(n - 1),
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


def write_file(
    path: str,
    entries: Sequence[Entry],
    cfg: TreeConfig,
    file_id: int,
    level: int,
    created_tick: int,
    oldest_tombstone_tick: int | None,
) -> SortedFileMeta:
    """Encode ``entries`` and write them with :func:`write_file_from_slots`."""
    return write_file_from_slots(
        path,
        encode_slots(entries, cfg.entry_bytes),
        cfg,
        file_id,
        level,
        created_tick,
        oldest_tombstone_tick,
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

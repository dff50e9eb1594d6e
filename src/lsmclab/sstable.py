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
encoded entries. Flush encodes its buffer into one and compaction merges
the matrices of its input files. Either way the job's whole sorted output
goes to :class:`JobColumns`, which computes what the files need once per
job, and :func:`write_file_from_slots`, the one writer, writes each file
from its slice of those columns.

Files are read through :class:`SstReader`: one raw descriptor per file,
one ``os.pread`` per block, and :class:`StorageIOError` naming the file on
a short read. :func:`fence_keys` decodes an index block into its fence
keys in one pass when every fence has one length and none ends in a zero
byte, and through :func:`parse_index_block`'s per-fence loop otherwise.

:func:`sort_versions` owns the key order that the merge and the space-amp
census sort by. Callers stack rows newest run first, and keys are unique
within a run, so a stable sort by key alone keeps each key's newest
version first.
"""

from __future__ import annotations

import functools
import os
import struct
import warnings
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .bloom import BloomFilter, key_hashes
from .config import ENTRY_HEADER_BYTES, TreeConfig
from .errors import InvalidArgument, InvariantViolation, StorageIOError

PUT = 0
TOMBSTONE = 1

MAGIC = b"LSMCLAB1"
FORMAT_VERSION = 1

Entry = tuple[bytes, int, int, bytes]

_ENTRY_HDR = struct.Struct("<HHQB")
assert _ENTRY_HDR.size == ENTRY_HEADER_BYTES
_KEY_LEN = struct.Struct("<H")  # the key length that opens each slot header
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
    index_off: int = 0
    index_len: int = 0
    filter_off: int = 0
    filter_len: int = 0

    def data_bytes(self, cfg: TreeConfig) -> int:
        return self.entry_count * cfg.entry_bytes


def decode_entry(page: bytes, offset: int) -> Entry:
    klen, vlen, seqnum, kind = _ENTRY_HDR.unpack_from(page, offset)
    start = offset + ENTRY_HEADER_BYTES
    key = page[start : start + klen]
    value = page[start + klen : start + klen + vlen]
    return key, seqnum, kind, value


def _write_blocks(
    path: str,
    data: np.ndarray,
    tail: bytes,
    index: bytes,
    filt: bytes,
    entry_count: int,
    n_pages: int,
) -> tuple[int, int, int, int]:
    """Write the data section (``data`` then the zero ``tail`` that fills its
    last page), the index and filter blocks and the footer with one
    ``os.writev``, into a new file or over a longer spare's bytes."""
    index_off = data.nbytes + len(tail)
    filter_off = index_off + len(index)
    crc = zlib.crc32(data)
    crc = zlib.crc32(tail, crc)
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
    total = filter_off + len(filt) + FOOTER_BYTES
    try:
        # no O_TRUNC, which frees every block: a recycled spare is
        # overwritten in place, then cut to this file's length
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            written = os.writev(fd, [data, tail, index, filt, footer])
            if written != total:
                raise StorageIOError(f"{path}: wrote {written} of {total} bytes; file cut short")
            os.ftruncate(fd, total)
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageIOError(f"writing {path}: {exc}") from exc
    return index_off, len(index), filter_off, len(filt)


def encode_columns(
    keys: Sequence[bytes],
    seqnums: Sequence[int],
    kinds: Sequence[int],
    values: Sequence[bytes],
    slot: int,
) -> np.ndarray:
    """Encode entries given as columns into an (n, slot) uint8 slot matrix.

    Row ``i`` is entry ``i``'s slot: the ``<HHQB`` header (key length, value
    length, seqnum, kind), then the key, then the value, zero-padded. The
    rows are filled as one packed structured array, field by field."""
    n = len(keys)
    sizes = np.fromiter(map(len, keys), dtype=np.int64, count=n)
    value_sizes = np.fromiter(map(len, values), dtype=np.int64, count=n)
    over = np.flatnonzero(sizes + value_sizes > slot - ENTRY_HEADER_BYTES)
    if len(over):
        size = ENTRY_HEADER_BYTES + sizes[over[0]] + value_sizes[over[0]]
        raise InvalidArgument(f"entry of {size} bytes exceeds the {slot}-byte entry slot")
    rows = np.empty(n, dtype=_slot_dtype(slot))  # the fields cover every byte
    rows["klen"] = sizes
    rows["vlen"] = value_sizes
    rows["seqnum"] = seqnums
    rows["kind"] = kinds
    rows["body"] = list(map(bytes.__add__, keys, values))
    return rows.view(np.uint8).reshape(n, slot)


@functools.lru_cache(maxsize=None)
def _slot_dtype(slot: int) -> np.dtype:
    return np.dtype(
        {
            "names": ["klen", "vlen", "seqnum", "kind", "body"],
            "formats": ["<u2", "<u2", "<u8", "u1", f"S{slot - ENTRY_HEADER_BYTES}"],
            "offsets": [0, 2, 4, 12, ENTRY_HEADER_BYTES],
            "itemsize": slot,
        }
    )


def encode_slots(entries: Iterable[Entry], slot: int) -> np.ndarray:
    """Encode ``(key, seqnum, kind, value)`` entries into an (n, slot) uint8
    slot matrix, one row each, with :func:`encode_columns`."""
    return encode_columns(*(tuple(zip(*entries)) or ((),) * 4), slot)


def _key_lengths(slots: np.ndarray) -> np.ndarray:
    # one strided u16 read per row; the copy is contiguous, which the numpy
    # ops on it run faster over than over the strided view
    return slots[:, 0:2].view("<u2")[:, 0].copy()


def _padded_keys(slots: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Each row's key cut or zero-padded to ``width`` bytes, as (n, width) uint8."""
    keys = np.zeros((len(slots), width), dtype=np.uint8)
    # with one key length, copying just the key bytes needs no length mask
    one_length = (lengths == lengths[0]).all()
    take = min(width, int(lengths[0]) if one_length else slots.shape[1] - ENTRY_HEADER_BYTES)
    # each row's key bytes as one void item: one copy per row, not per byte
    src = slots[:, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + take]
    keys[:, :take].view(f"V{take}")[:] = src.view(f"V{take}")
    if not one_length:
        keys *= np.arange(width, dtype=lengths.dtype) < lengths[:, None]
    return keys


KeyColumns = tuple[np.ndarray, np.ndarray, np.ndarray]


def key_columns(slots: np.ndarray) -> KeyColumns:
    """The columns :func:`sort_versions` orders a slot matrix by.

    Returns (key words, key lengths, kinds). Key words are an (n, w) uint64
    matrix: each key zero-padded to ``8 * w`` bytes, w fitting the longest
    key, read as big-endian words so that comparing rows word by word
    compares the padded keys byte by byte.
    """
    lengths = _key_lengths(slots)
    width = -(-int(lengths.max()) // 8) * 8
    words = _padded_keys(slots, lengths, width).view(">u8").astype(np.uint64)
    return words, lengths, slots[:, ENTRY_HEADER_BYTES - 1].copy()


def slot_seqnums(slots: np.ndarray) -> np.ndarray:
    """Each row's seqnum, for :func:`check_newest_first`."""
    return np.ascontiguousarray(slots[:, 4:12]).view("<u8").ravel()


def sort_versions(columns: Sequence[KeyColumns]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order the rows of several slot matrices as the store orders entries.

    This owns the key order: keys ascend in byte order and each key's
    versions follow newest first. Zero padding makes a key tie with its
    extensions by zero bytes (``b"a"``, ``b"a\\x00"``); the length
    tie-break then puts the shorter first, which is byte order.

    Seqnums are not a sort key. Callers stack rows newest run first (a
    merge's victims before its targets, a level's runs newest first,
    levels shallowest first), and keys are unique within a run, so a
    stable sort by key keeps each key's newest version first;
    :func:`check_newest_first` verifies it. ``columns`` come from
    :func:`key_columns`, one per matrix, and row numbers count through the
    matrices in turn. Returns (order, newest, kinds): the row order,
    whether each sorted row is its key's newest version, and each sorted
    row's kind.
    """
    n_words = max(c[0].shape[1] for c in columns)
    words = np.concatenate(
        [np.pad(c[0], ((0, 0), (0, n_words - c[0].shape[1]))) for c in columns]
    )
    lengths = np.concatenate([c[1] for c in columns])
    kinds = np.concatenate([c[2] for c in columns])
    if n_words == 1 and (lengths == lengths[0]).all():
        order = np.argsort(words[:, 0], kind="stable")
    else:
        # np.lexsort is stable and sorts by its last key first
        order = np.lexsort([lengths] + [words[:, j] for j in reversed(range(n_words))])
    words = np.take(words, order, axis=0)
    lengths = lengths[order]
    newest = np.empty(len(order), dtype=bool)
    newest[:1] = True
    newest[1:] = (lengths[1:] != lengths[:-1]) | (words[1:] != words[:-1]).any(axis=1)
    return order, newest, kinds[order]


def check_newest_first(seqnums: np.ndarray, newest: np.ndarray) -> None:
    """Raise unless seqnums strictly descend within each key's versions.

    ``seqnums`` are in :func:`sort_versions` order and ``newest`` is its
    mask; a failure means the rows were not stacked newest run first.
    """
    if (~newest[1:] & (seqnums[1:] >= seqnums[:-1])).any():
        raise InvariantViolation("a key's versions are not newest first: inputs out of run order")


def load_slot_matrix(
    reader: "SstReader", cfg: TreeConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """Read the data section as an (entry_count, entry_bytes) uint8 matrix,
    into ``out`` (C-contiguous, of that shape) when given."""
    meta = reader.meta
    per_page = cfg.entries_per_page
    slot = cfg.entry_bytes
    if out is None:
        out = np.empty((meta.entry_count, slot), dtype=np.uint8)
    if per_page * slot == cfg.page_bytes:
        # no slack in a page: the rows are the data section's leading bytes
        reader.read_into(out)
    else:
        raw = reader.read_block(0, meta.data_pages * cfg.page_bytes)
        pages = np.frombuffer(raw, dtype=np.uint8).reshape(meta.data_pages, cfg.page_bytes)
        out[:] = pages[:, : per_page * slot].reshape(-1, slot)[: meta.entry_count]
    return out


class JobColumns:
    """What a job's files are written from, computed once over all its rows.

    ``slots`` is a job's whole output: an (n, entry_bytes) uint8 matrix of
    entries encoded by :func:`encode_columns`, key-sorted and duplicate-free;
    keys may differ in length. File ``part`` holds ``rows_per_file`` rows
    (a whole number of pages) from ``part * rows_per_file``. ``data`` is
    every file's data section back to back: the slot matrix's own bytes
    when pages have no slack (the writer adds each last page's zero tail),
    else the rows laid out into zeroed pages. ``hashes`` are the keys'
    Bloom hash pairs, ``fences`` every page's index record back to back
    (page ``p``'s starts at ``fence_starts[p]``), and ``fence_keys`` every
    page's fence key, parsed once per job by :func:`fence_keys`, the
    readers' own parser. ``filters[part]`` is the Bloom filter built for
    file ``part``, set when that file is written. A file's reader starts
    with its filter and its slice of ``fence_keys``, so no lookup or scan
    reads back either block.
    """

    def __init__(self, slots: np.ndarray, cfg: TreeConfig, rows_per_file: int) -> None:
        n = len(slots)
        if n == 0:
            raise InvalidArgument("refusing to write an empty file")
        per_page = cfg.entries_per_page
        slot = cfg.entry_bytes
        n_pages = -(-n // per_page)
        self.slots = slots
        self.cfg = cfg
        self.rows_per_file = rows_per_file
        self.files = -(-n // rows_per_file)
        self.filters: list[BloomFilter | None] = [None] * self.files
        if per_page * slot == cfg.page_bytes:
            data = np.ascontiguousarray(slots)
        else:
            data = np.zeros((n_pages, cfg.page_bytes), dtype=np.uint8)
            # a view: splitting each page's used bytes into rows copies nothing
            pages = data[:, : per_page * slot].reshape(n_pages, per_page, slot)
            body = (n_pages - 1) * per_page
            pages[:-1] = slots[:body].reshape(n_pages - 1, per_page, slot)
            pages[-1, : n - body] = slots[body:]
        self.data = data.reshape(-1)
        self.lengths = lengths = _key_lengths(slots)
        self.hashes = key_hashes(_padded_keys(slots, lengths, 16).view("<u8"), lengths)
        self.tombstone = slots[:, ENTRY_HEADER_BYTES - 1] == TOMBSTONE

        fence_len = lengths[::per_page].astype("<u2")
        offsets = np.arange(n_pages) % (rows_per_file // per_page) * cfg.page_bytes
        width = int(fence_len.max())
        records = np.empty((n_pages, 10 + width), dtype=np.uint8)  # <HQ, then the key
        records[:, :2] = fence_len.view(np.uint8).reshape(n_pages, 2)
        records[:, 2:10] = offsets.astype("<u8").view(np.uint8).reshape(n_pages, 8)
        records[:, 10:] = slots[::per_page, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + width]
        record_len = fence_len.astype(np.int64) + 10
        # boolean indexing reads row by row, so the records come out packed
        self.fences = records[np.arange(10 + width) < record_len[:, None]]
        self.fence_starts = np.concatenate(([0], np.cumsum(record_len)))
        self.fence_keys = fence_keys(struct.pack("<I", n_pages) + self.fences.tobytes())

    def key_at(self, row: int) -> bytes:
        start = ENTRY_HEADER_BYTES
        return self.slots[row, start : start + int(self.lengths[row])].tobytes()


def write_file_from_slots(
    path: str,
    job: JobColumns,
    part: int,
    file_id: int,
    level: int,
    created_tick: int,
    oldest_tombstone_tick: int | None,
) -> SortedFileMeta:
    """Write file ``part`` of a job; returns its metadata and leaves the
    file's Bloom filter in ``job.filters[part]``. Every file is written
    here, from its slice of the job's :class:`JobColumns`.

    Each fence is its page's first key at that key's own length.
    ``oldest_tombstone_tick`` is recorded only when the file actually
    contains tombstones.
    """
    cfg = job.cfg
    start = part * job.rows_per_file
    stop = min(start + job.rows_per_file, len(job.slots))
    if not 0 <= start < stop:
        raise InvalidArgument(f"job has no file {part}")
    n = stop - start
    page_bytes = cfg.page_bytes
    first_page = start // cfg.entries_per_page
    n_pages = -(-n // cfg.entries_per_page)
    end_page = first_page + n_pages

    data = job.data[first_page * page_bytes : end_page * page_bytes]
    tail = bytes(n_pages * page_bytes - data.nbytes)
    fences = job.fences[job.fence_starts[first_page] : job.fence_starts[end_page]]
    index = struct.pack("<I", n_pages) + fences.tobytes()
    h1, h2 = job.hashes
    filt = BloomFilter.from_key_words((h1[start:stop], h2[start:stop]), cfg.bits_per_key)
    tombstones = int(np.count_nonzero(job.tombstone[start:stop]))
    index_off, index_len, filter_off, filter_len = _write_blocks(
        path, data, tail, index, filt.to_bytes(), n, n_pages
    )
    job.filters[part] = filt

    return SortedFileMeta(
        file_id=file_id,
        level=level,
        path=path,
        min_key=job.key_at(start),
        max_key=job.key_at(stop - 1),
        entry_count=n,
        tombstone_count=tombstones,
        data_pages=n_pages,
        created_tick=created_tick,
        oldest_tombstone_tick=oldest_tombstone_tick if tombstones else None,
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
    """Encode ``entries`` and write them as one file with :func:`write_file_from_slots`."""
    slots = encode_slots(entries, cfg.entry_bytes)
    per_page = cfg.entries_per_page
    job = JobColumns(slots, cfg, -(-len(slots) // per_page) * per_page)
    return write_file_from_slots(
        path, job, 0, file_id, level, created_tick, oldest_tombstone_tick
    )


@dataclass
class SstReader:
    """Read-side access to one sorted file. Blocks are fetched on demand.

    The reader holds one raw descriptor, opened on the first read and
    released by :meth:`close`; its owner (the engine, for live files)
    must close it, and a reader collected while open closes it with a
    ``ResourceWarning``. Every block is one ``os.pread`` at its own offset:
    no seek, and no buffered read-ahead past the block. :meth:`read_into`
    fills an array from the file's start with ``os.preadv`` where the
    platform has it, else with one ``os.pread`` and a copy. A read that
    returns fewer bytes than asked raises :class:`StorageIOError` naming
    the file. A reader of a file its engine just wrote starts with the
    job's filter and fence keys (:class:`JobColumns`); any other reads and
    parses each block once, on first use of :attr:`bloom_filter` or
    :attr:`fence_keys`.
    """

    meta: SortedFileMeta
    cfg: TreeConfig
    _fd: int = field(default=-1, repr=False)
    _filter: BloomFilter | None = field(default=None, repr=False)
    _fence_keys: list[bytes] | None = field(default=None, repr=False)

    def _descriptor(self) -> int:
        if self._fd < 0:
            try:
                self._fd = os.open(self.meta.path, os.O_RDONLY)
            except OSError as exc:
                raise StorageIOError(f"opening {self.meta.path}: {exc}") from exc
        return self._fd

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self) -> None:
        # a raw descriptor is not closed by the garbage collector; close it
        # here and warn, as an unclosed file object does
        if self._fd >= 0:
            self.close()
            warnings.warn(f"unclosed reader of {self.meta.path}", ResourceWarning)

    def _check_length(self, got: int, want: int, offset: int) -> None:
        if got != want:
            raise StorageIOError(
                f"{self.meta.path}: read {got} of {want} bytes at offset {offset}; file cut short"
            )

    def read_block(self, offset: int, length: int) -> bytes:
        """Exactly ``length`` bytes from ``offset``."""
        try:
            raw = os.pread(self._descriptor(), length, offset)
        except OSError as exc:
            raise StorageIOError(f"reading {self.meta.path}: {exc}") from exc
        self._check_length(len(raw), length, offset)
        return raw

    def read_into(self, out: np.ndarray) -> None:
        """Fill the C-contiguous array ``out`` from the file's first byte."""
        if hasattr(os, "preadv"):
            try:
                got = os.preadv(self._descriptor(), [out], 0)
            except OSError as exc:
                raise StorageIOError(f"reading {self.meta.path}: {exc}") from exc
            self._check_length(got, out.nbytes, 0)
        else:
            raw = self.read_block(0, out.nbytes)
            out.reshape(-1)[:] = np.frombuffer(raw, dtype=np.uint8)

    def read_index_block(self) -> bytes:
        return self.read_block(self.meta.index_off, self.meta.index_len)

    def read_filter_block(self) -> bytes:
        return self.read_block(self.meta.filter_off, self.meta.filter_len)

    @property
    def bloom_filter(self) -> BloomFilter:
        if self._filter is None:
            self._filter = BloomFilter.from_bytes(self.read_filter_block())
        return self._filter

    @property
    def fence_keys(self) -> list[bytes]:
        if self._fence_keys is None:
            self._fence_keys = fence_keys(self.read_index_block())
        return self._fence_keys

    def read_data_page(self, page_no: int) -> bytes:
        if not 0 <= page_no < self.meta.data_pages:
            raise InvalidArgument(f"page {page_no} out of range")
        page_bytes = self.cfg.page_bytes
        return self.read_block(page_no * page_bytes, page_bytes)

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


def fence_keys(raw: bytes) -> list[bytes]:
    """The first keys of an index block's pages, as :func:`parse_index_block`
    gives them.

    When every record's length field holds one length and no fence ends in
    a zero byte, the keys come out of a strided structured view in one
    pass; a numpy bytes field drops trailing zeros, hence that condition.
    Any other block takes the per-fence loop.
    """
    (count,) = struct.unpack_from("<I", raw, 0)
    if count:
        (klen,) = struct.unpack_from("<H", raw, 4)
        if klen and len(raw) == 4 + count * (10 + klen):
            records = np.frombuffer(raw, dtype=_fence_dtype(klen), offset=4)
            if (
                records["klen"].tobytes() == raw[4:6] * count
                and np.count_nonzero(records["last"]) == count
            ):
                return records["key"].tolist()
    return [k for k, _off in parse_index_block(raw)]


@functools.lru_cache(maxsize=64)
def _fence_dtype(klen: int) -> np.dtype:
    """One index record with a ``klen``-byte key (``<H`` length, ``<Q``
    offset, key), with ``last`` the key's last byte."""
    return np.dtype(
        {
            "names": ["klen", "key", "last"],
            "formats": ["<u2", f"S{klen}", "u1"],
            "offsets": [0, 10, 9 + klen],
            "itemsize": 10 + klen,
        }
    )


def page_lower_bound(page: bytes, key: bytes, entry_bytes: int, count: int) -> int:
    """The first of a page's ``count`` sorted slots whose key is >= ``key``
    (``count`` if none is), by binary search on each slot's key length."""
    klen_at = _KEY_LEN.unpack_from
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) >> 1
        start = mid * entry_bytes + ENTRY_HEADER_BYTES
        if page[start : start + klen_at(page, mid * entry_bytes)[0]] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def scan_page_for_key(page: bytes, key: bytes, entry_bytes: int, count: int) -> Entry | None:
    """The entry of ``key`` on one data page holding ``count`` valid slots,
    found by :func:`page_lower_bound`; the full slot header is unpacked only
    on a match."""
    off = page_lower_bound(page, key, entry_bytes, count) * entry_bytes
    if off < count * entry_bytes:
        start = off + ENTRY_HEADER_BYTES
        k = page[start : start + _KEY_LEN.unpack_from(page, off)[0]]
        if k == key:
            klen, vlen, seqnum, kind = _ENTRY_HDR.unpack_from(page, off)
            return k, seqnum, kind, page[start + klen : start + klen + vlen]
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

import hashlib
import os

import numpy as np
import pytest

from lsmclab.errors import InvalidArgument
from lsmclab.sstable import (
    PUT,
    TOMBSTONE,
    SstReader,
    decode_entry,
    encode_entry,
    parse_index_block,
    scan_page_for_key,
    verify_file,
    write_file,
    write_file_from_slots,
)

from conftest import MIXED_KEYS, key, small_config, value


def make_entries(n, start=0, step=2, kind=PUT):
    return [(key(start + i * step), i + 1, kind, value(i)) for i in range(n)]


def write_tmp(tmp_path, entries, cfg, file_id=1):
    path = os.path.join(tmp_path, f"{file_id:08d}.sst")
    meta = write_file(path, entries, cfg, file_id, 1, created_tick=7, oldest_tombstone_tick=None)
    return path, meta


def test_round_trip(tmp_path, cfg):
    entries = make_entries(37)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    reader = SstReader(meta, cfg)
    assert list(reader.iter_entries()) == entries
    reader.close()


def test_meta_fields(tmp_path, cfg):
    entries = make_entries(10)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    assert meta.min_key == entries[0][0]
    assert meta.max_key == entries[-1][0]
    assert meta.entry_count == 10
    assert meta.tombstone_count == 0
    # 4 entries per page with the small config
    assert meta.data_pages == 3
    assert meta.created_tick == 7


def test_tombstone_counting(tmp_path, cfg):
    entries = [
        (key(0), 1, PUT, value(0)),
        (key(2), 2, TOMBSTONE, b""),
        (key(4), 3, PUT, value(4)),
        (key(6), 4, TOMBSTONE, b""),
    ]
    _path, meta = write_file_with_ts(tmp_path, entries, cfg)
    assert meta.tombstone_count == 2
    assert meta.oldest_tombstone_tick == 5


def write_file_with_ts(tmp_path, entries, cfg):
    path = os.path.join(tmp_path, "ts.sst")
    meta = write_file(path, entries, cfg, 9, 1, created_tick=7, oldest_tombstone_tick=5)
    return path, meta


def test_tombstone_tick_dropped_without_tombstones(tmp_path, cfg):
    path = os.path.join(tmp_path, "nots.sst")
    meta = write_file(
        path, make_entries(4), cfg, 3, 1, created_tick=7, oldest_tombstone_tick=5
    )
    assert meta.oldest_tombstone_tick is None


def test_fence_pointers(tmp_path, cfg):
    entries = make_entries(12)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    reader = SstReader(meta, cfg)
    fences = parse_index_block(reader.read_index_block())
    assert [k for k, _off in fences] == [entries[0][0], entries[4][0], entries[8][0]]
    assert [off for _k, off in fences] == [0, cfg.page_bytes, 2 * cfg.page_bytes]
    reader.close()


def test_scan_page_for_key(tmp_path, cfg):
    entries = make_entries(4)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    reader = SstReader(meta, cfg)
    page = reader.read_data_page(0)
    hit = scan_page_for_key(page, entries[2][0], cfg.entry_bytes, 4)
    assert hit == entries[2]
    # key between two residents: early exit, not found
    assert scan_page_for_key(page, key(3), cfg.entry_bytes, 4) is None
    reader.close()


def test_entry_slot_overflow():
    with pytest.raises(InvalidArgument):
        encode_entry(b"k" * 40, 1, PUT, b"v" * 40, 64)


def test_entry_codec():
    raw = encode_entry(b"hello", 42, TOMBSTONE, b"", 64)
    assert len(raw) == 64
    assert decode_entry(raw, 0) == (b"hello", 42, TOMBSTONE, b"")


def test_empty_file_rejected(tmp_path, cfg):
    with pytest.raises(InvalidArgument):
        write_file(os.path.join(tmp_path, "x.sst"), [], cfg, 1, 1, 0, None)


def test_verify_file_detects_corruption(tmp_path, cfg):
    path, _meta = write_tmp(tmp_path, make_entries(8), cfg)
    assert verify_file(path)
    with open(path, "r+b") as fh:
        fh.seek(10)
        fh.write(b"\xff\xff")
    assert not verify_file(path)


def test_verify_file_rejects_truncation(tmp_path, cfg):
    path, _meta = write_tmp(tmp_path, make_entries(8), cfg)
    with open(path, "r+b") as fh:
        fh.truncate(16)
    assert not verify_file(path)


def test_iter_entries_from_middle_page(tmp_path, cfg):
    entries = make_entries(10)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    reader = SstReader(meta, cfg)
    assert list(reader.iter_entries(start_page=2)) == entries[8:]
    reader.close()


# sha256 of the file ``write_file`` wrote for GOLDEN_ENTRIES when it still
# encoded and wrote entry tuples itself, before all files went through the
# slot writer
GOLDEN_SHA256 = "8d35f09597d03d5bf2921c3cf730315661f7a3a34fca692881020ddb5a790e3f"
GOLDEN_ENTRIES = [
    (k, seq, kind, v)
    for k, (seq, kind, v) in zip(
        MIXED_KEYS,
        [
            (9, PUT, b"one"),
            (3, TOMBSTONE, b""),
            (12, PUT, b"two"),
            (5, PUT, b"eight"),
            (7, TOMBSTONE, b""),
            (1, PUT, b"nine"),
            (20, PUT, b"sixteen"),
            (21, PUT, b""),
            (2, TOMBSTONE, b""),
            (30, PUT, b"v" * 20),
        ],
    )
]


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_golden_file_format(tmp_path, cfg):
    path = os.path.join(tmp_path, "entries.sst")
    meta = write_file(path, GOLDEN_ENTRIES, cfg, 1, 1, created_tick=7, oldest_tombstone_tick=5)
    assert file_sha256(path) == GOLDEN_SHA256
    slots = np.frombuffer(
        b"".join(encode_entry(*e, cfg.entry_bytes) for e in GOLDEN_ENTRIES), dtype=np.uint8
    ).reshape(-1, cfg.entry_bytes)
    slot_path = os.path.join(tmp_path, "slots.sst")
    write_file_from_slots(slot_path, slots, cfg, 1, 1, created_tick=7, oldest_tombstone_tick=5)
    assert file_sha256(slot_path) == GOLDEN_SHA256
    assert (meta.min_key, meta.max_key) == (b"a", b"z" * 24)
    reader = SstReader(meta, cfg)
    fences = [k for k, _off in parse_index_block(reader.read_index_block())]
    assert fences == [b"a", b"abcdefgh\x00", b"k" * 17]
    assert list(reader.iter_entries()) == GOLDEN_ENTRIES
    reader.close()

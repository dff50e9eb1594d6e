import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsmclab import LsmEngine
from lsmclab.config import ENTRY_HEADER_BYTES
from lsmclab.errors import InvalidArgument, StorageIOError
from lsmclab.sstable import (
    FOOTER_BYTES,
    PUT,
    TOMBSTONE,
    JobColumns,
    SstReader,
    _key_lengths,
    _padded_keys,
    decode_entry,
    encode_columns,
    encode_slots,
    fence_keys,
    key_columns,
    load_slot_matrix,
    page_lower_bound,
    parse_index_block,
    scan_page_for_key,
    slot_seqnums,
    sort_versions,
    verify_file,
    write_file,
    write_file_from_slots,
)

from conftest import MIXED_KEYS, key, small_config, value


def encode_entry(key, seqnum, kind, value, slot):
    """One entry's slot, packed field by field: the reference the column
    encoder is checked against."""
    body = struct.pack("<HHQB", len(key), len(value), seqnum, kind) + key + value
    if len(body) > slot:
        raise InvalidArgument(f"entry of {len(body)} bytes exceeds the {slot}-byte entry slot")
    return body.ljust(slot, b"\x00")


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


def linear_scan_page(page, key, entry_bytes, count):
    """The slot-by-slot page walk that the binary search replaced."""
    for i in range(count):
        entry = decode_entry(page, i * entry_bytes)
        if entry[0] == key:
            return entry
        if entry[0] > key:
            return None
    return None


def linear_lower_bound(page, key, entry_bytes, count):
    return next(
        (i for i in range(count) if decode_entry(page, i * entry_bytes)[0] >= key), count
    )


@st.composite
def pages_and_probes(draw):
    """A data page of ``count`` sorted keys of 1-24 bytes, ``count`` no more
    than the page's slots and the rest zero, as a file's last page is; and
    probe keys below, between, equal to and above the stored keys."""
    keys = sorted(
        draw(
            st.lists(
                st.sampled_from(MIXED_KEYS) | st.binary(min_size=1, max_size=24),
                min_size=1,
                max_size=16,
                unique=True,
            )
        )
    )
    slots = draw(st.integers(len(keys), 16))
    entry_bytes = 64
    entries = [
        (k, i + 1, TOMBSTONE, b"") if i % 3 == 2 else (k, i + 1, PUT, b"v%d" % i)
        for i, k in enumerate(keys)
    ]
    page = b"".join(encode_entry(*e, entry_bytes) for e in entries)
    page = page.ljust(slots * entry_bytes, b"\x00")
    near = [k + b"\x00" for k in keys] + [k[:-1] for k in keys] + [k + b"\xff" for k in keys]
    probes = (
        keys
        + near
        + [b"\x00", b"\xff" * 25]
        + draw(st.lists(st.sampled_from(MIXED_KEYS) | st.binary(max_size=25), max_size=8))
    )
    return page, entry_bytes, len(keys), probes


@given(case=pages_and_probes())
@settings(max_examples=300, deadline=None)
def test_page_search_matches_linear_walk(case):
    page, entry_bytes, count, probes = case
    for probe in probes:
        assert scan_page_for_key(page, probe, entry_bytes, count) == linear_scan_page(
            page, probe, entry_bytes, count
        )
        assert page_lower_bound(page, probe, entry_bytes, count) == linear_lower_bound(
            page, probe, entry_bytes, count
        )


@pytest.mark.parametrize("count", [1, 2, 3])
def test_page_search_short_pages(count):
    keys = [b"a", b"a\x00", b"ab"][:count]
    page = b"".join(encode_entry(k, 1, PUT, b"x", 64) for k in keys).ljust(4 * 64, b"\x00")
    for probe in [b"\x00", b"a", b"a\x00", b"a\x00\x00", b"ab", b"b"]:
        args = (page, probe, 64, count)
        assert scan_page_for_key(*args) == linear_scan_page(*args)
        assert page_lower_bound(*args) == linear_lower_bound(*args)


def test_entry_slot_overflow():
    # 13 + 25 + 30 = 68 bytes: the key and value alone would fit 64
    with pytest.raises(InvalidArgument, match="entry of 68 bytes exceeds the 64-byte"):
        encode_slots([(b"k", 1, PUT, b"v"), (b"k" * 25, 1, PUT, b"v" * 30)], 64)
    with pytest.raises(InvalidArgument):
        encode_entry(b"k" * 25, 1, PUT, b"v" * 30, 64)
    assert encode_slots([(b"k" * 25, 1, PUT, b"v" * 26)], 64).shape == (1, 64)


@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(MIXED_KEYS) | st.binary(min_size=1, max_size=20),
            st.integers(0, 2**64 - 1),
            st.sampled_from([PUT, TOMBSTONE]),
            st.binary(max_size=30) | st.just(b"\x00") | st.just(b""),
        ),
        max_size=12,
    ),
    slot=st.sampled_from([64, 128]),
)
@settings(max_examples=300, deadline=None)
def test_column_encoder_matches_entry_by_entry(entries, slot):
    # tombstones carry no value, as the engine writes them
    entries = [(k, s, kd, b"" if kd == TOMBSTONE else v) for k, s, kd, v in entries]
    want = b"".join(encode_entry(*e, slot) for e in entries)
    got = encode_slots(entries, slot)
    assert got.shape == (len(entries), slot) and got.dtype == np.uint8
    assert got.tobytes() == want
    if entries:
        assert encode_columns(*zip(*entries), slot).tobytes() == want


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
    job = JobColumns(slots, cfg, cfg.entries_per_file)
    write_file_from_slots(slot_path, job, 0, 1, 1, created_tick=7, oldest_tombstone_tick=5)
    assert file_sha256(slot_path) == GOLDEN_SHA256
    assert (meta.min_key, meta.max_key) == (b"a", b"z" * 24)
    reader = SstReader(meta, cfg)
    fences = [k for k, _off in parse_index_block(reader.read_index_block())]
    assert fences == [b"a", b"abcdefgh\x00", b"k" * 17]
    assert list(reader.iter_entries()) == GOLDEN_ENTRIES
    reader.close()


def reference_sort_versions(mats):
    """The key order before run order replaced the seqnum sort key: key
    words, then key length, then seqnum descending, by one lexsort."""
    columns = [key_columns(m) for m in mats]
    n_words = max(c[0].shape[1] for c in columns)
    words = np.concatenate(
        [np.pad(c[0], ((0, 0), (0, n_words - c[0].shape[1]))) for c in columns]
    )
    lengths = np.concatenate([c[1] for c in columns])
    kinds = np.concatenate([c[2] for c in columns])
    seqnums = np.concatenate([slot_seqnums(m) for m in mats])
    order = np.lexsort([~seqnums, lengths] + [words[:, j] for j in reversed(range(n_words))])
    words = words[order]
    lengths = lengths[order]
    newest = np.empty(len(order), dtype=bool)
    newest[:1] = True
    newest[1:] = (lengths[1:] != lengths[:-1]) | (words[1:] != words[:-1]).any(axis=1)
    return order, newest, kinds[order]


@st.composite
def newest_first_runs(draw):
    """Slot matrices of runs stacked newest first, each run cut into files.
    Keys are unique within a run and repeat across runs; seqnums are in
    random order within a run and every run is newer than the next."""
    if draw(st.booleans()):
        pool = [key(i, 6) for i in range(40)]  # one word, one length
    else:
        pool = list(MIXED_KEYS) + draw(
            st.lists(st.binary(min_size=1, max_size=24), max_size=30)
        )
    runs = draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=1, unique=True), min_size=1, max_size=5)
    )
    seq = sum(len(r) for r in runs)
    mats = []
    for run in runs:
        seqnums = draw(st.permutations(range(seq - len(run) + 1, seq + 1)))
        seq -= len(run)
        entries = sorted(
            (k, s, kind, b"" if kind == TOMBSTONE else b"v%d" % s)
            for k, s, kind in zip(run, seqnums, draw(
                st.lists(st.sampled_from((PUT, TOMBSTONE)), min_size=len(run), max_size=len(run))
            ))
        )
        cut = draw(st.integers(0, len(entries)))
        mats += [encode_slots(part, 64) for part in (entries[:cut], entries[cut:]) if part]
    return mats


@given(mats=newest_first_runs())
@settings(max_examples=150, deadline=None)
def test_sort_versions_matches_seqnum_sort(mats):
    order, newest, kinds = sort_versions([key_columns(m) for m in mats])
    want_order, want_newest, want_kinds = reference_sort_versions(mats)
    assert np.array_equal(newest, want_newest)
    assert np.array_equal(kinds, want_kinds)
    assert np.array_equal(order, want_order)


def mixed_entries(n):
    """n sorted entries with keys of 1-24 bytes and every fifth a tombstone."""
    keys = sorted(set(MIXED_KEYS) | {key(i, 1 + i % 24) for i in range(n)})[:n]
    return [
        (k, i + 1, TOMBSTONE, b"") if i % 5 == 3 else (k, i + 1, PUT, value(i, 1 + i % 9))
        for i, k in enumerate(keys)
    ]


@pytest.mark.parametrize("entry_bytes,page_bytes", [(64, 256), (100, 2048)])
def test_job_files_match_single_file_writes(tmp_path, entry_bytes, page_bytes):
    # three pages per file; the last file is partial and so is its last page
    cfg = small_config(
        entry_bytes=entry_bytes,
        page_bytes=page_bytes,
        buffer_bytes=4 * page_bytes,
        file_bytes=3 * page_bytes,
    )
    per_file = cfg.entries_per_file
    entries = mixed_entries(2 * per_file + cfg.entries_per_page + 3)
    assert len({len(k) for k, _s, _kind, _v in entries}) > 10
    eng = LsmEngine(str(tmp_path / "db"), cfg, "full")
    eng.auto_compact = False
    metas = eng.write_sorted_slots(encode_slots(entries, cfg.entry_bytes), 2, 3)
    assert [m.entry_count for m in metas] == [per_file, per_file, cfg.entries_per_page + 3]
    for part, meta in enumerate(metas):
        alone = os.path.join(tmp_path, f"alone-{part}.sst")
        chunk = entries[part * per_file : (part + 1) * per_file]
        want = write_file(alone, chunk, cfg, meta.file_id, 2, eng.tick, 3)
        assert file_sha256(meta.path) == file_sha256(alone)
        assert (meta.min_key, meta.max_key) == (chunk[0][0], chunk[-1][0])
        assert (meta.tombstone_count, meta.data_pages) == (want.tombstone_count, want.data_pages)
        assert (meta.index_len, meta.filter_len) == (want.index_len, want.filter_len)
        reader = SstReader(meta, cfg)
        assert list(reader.iter_entries()) == chunk
        reader.close()
    eng.close()


def test_write_over_longer_spare_matches_fresh_write(tmp_path, cfg):
    # a file written into a longer spare keeps none of the spare's tail
    spare, _big = write_tmp(tmp_path, make_entries(3 * cfg.entries_per_file), cfg, file_id=1)
    spare_size = os.path.getsize(spare)
    path = os.path.join(tmp_path, "00000002.sst")
    os.rename(spare, path)
    entries = make_entries(cfg.entries_per_page + 1, start=1)
    meta = write_file(path, entries, cfg, 2, 1, created_tick=7, oldest_tombstone_tick=None)
    _fresh, want = write_tmp(tmp_path, entries, cfg, file_id=3)
    assert os.path.getsize(path) == meta.filter_off + meta.filter_len + FOOTER_BYTES
    assert os.path.getsize(path) < spare_size
    assert verify_file(path)
    assert file_sha256(path) == file_sha256(want.path)
    reader = SstReader(meta, cfg)
    assert list(reader.iter_entries()) == entries
    reader.close()


def index_block(keys):
    """An index block in the file format: ``<I`` count, then ``<HQ`` + key per page."""
    return struct.pack("<I", len(keys)) + b"".join(
        struct.pack("<HQ", len(k), 2048 * i) + k for i, k in enumerate(keys)
    )


@st.composite
def fence_lists(draw):
    """Fence keys of every shape the one-pass decode must get right or refuse."""
    shape = draw(st.sampled_from(("mixed", "one_length", "trailing_zero", "same_size")))
    if shape == "mixed":
        return draw(
            st.lists(st.sampled_from(MIXED_KEYS) | st.binary(min_size=1, max_size=24), min_size=1)
        )
    length = draw(st.integers(2, 12))
    keys = draw(st.lists(st.binary(min_size=length, max_size=length), min_size=1, max_size=40))
    if shape == "trailing_zero":
        at = draw(st.integers(0, len(keys) - 1))
        keys[at] = keys[at][:-1] + b"\x00"
    elif shape == "same_size" and len(keys) >= 3:
        # mixed lengths that add up to a one-length block's size: the first
        # record's length alone does not tell them apart
        i, j = draw(st.lists(st.integers(1, len(keys) - 1), min_size=2, max_size=2, unique=True))
        keys[i], keys[j] = keys[i][:-1], keys[j] + b"x"
    return keys


@given(keys=fence_lists())
@settings(max_examples=300, deadline=None)
def test_fence_keys_match_parse_index_block(keys):
    raw = index_block(keys)
    assert fence_keys(raw) == [k for k, _off in parse_index_block(raw)] == keys


@pytest.mark.parametrize(
    "keys",
    [
        [b"abcdef"],
        [b"abcde\x00"],
        [b"\x00"],
        [b"ab", b"cd\x00"],
        [b"abc", b"a", b"abcde"],
        list(MIXED_KEYS),
    ],
)
def test_fence_keys_edge_blocks(keys):
    raw = index_block(keys)
    assert fence_keys(raw) == [k for k, _off in parse_index_block(raw)] == keys


@pytest.mark.parametrize("mixed", [False, True])
def test_fence_keys_of_written_files(tmp_path, cfg, mixed):
    entries = mixed_entries(40) if mixed else make_entries(40)
    _path, meta = write_tmp(tmp_path, entries, cfg)
    reader = SstReader(meta, cfg)
    raw = reader.read_index_block()
    reader.close()
    want = [k for k, _s, _kind, _v in entries[:: cfg.entries_per_page]]
    assert fence_keys(raw) == [k for k, _off in parse_index_block(raw)] == want


def masked_padded_keys(slots, lengths, width):
    """Keys padded to ``width`` through a per-byte length mask, for any lengths."""
    keys = np.zeros((len(slots), width), dtype=np.uint8)
    take = min(width, slots.shape[1] - ENTRY_HEADER_BYTES)
    keys[:, :take] = slots[:, ENTRY_HEADER_BYTES : ENTRY_HEADER_BYTES + take]
    keys *= np.arange(width, dtype=lengths.dtype) < lengths[:, None]
    return keys


@pytest.mark.parametrize("width", [8, 16, 24])
@pytest.mark.parametrize(
    "keys",
    [
        [key(i, 6) for i in range(50)],
        [key(i, 12) for i in range(50)],
        [key(i, 16) for i in range(50)],
        [key(i, 20) for i in range(50)],
        list(MIXED_KEYS),
        [k for k, _s, _kind, _v in mixed_entries(60)],
    ],
)
def test_padded_keys_match_masked_path(keys, width):
    # values after the key must not leak into the padding
    slots = encode_slots([(k, i + 1, PUT, b"\xff" * 9) for i, k in enumerate(keys)], 64)
    lengths = _key_lengths(slots)
    assert np.array_equal(
        _padded_keys(slots, lengths, width), masked_padded_keys(slots, lengths, width)
    )


@pytest.mark.parametrize("preadv", [True, False])
@pytest.mark.parametrize("entry_bytes,page_bytes", [(64, 256), (100, 2048)])
def test_load_slot_matrix_with_and_without_preadv(
    tmp_path, monkeypatch, preadv, entry_bytes, page_bytes
):
    if not preadv:
        monkeypatch.delattr(os, "preadv", raising=False)
    elif not hasattr(os, "preadv"):
        pytest.skip("os.preadv is not available here")
    cfg = small_config(entry_bytes=entry_bytes, page_bytes=page_bytes, buffer_bytes=4 * page_bytes)
    entries = mixed_entries(2 * cfg.entries_per_page + 3)
    path, meta = write_tmp(tmp_path, entries, cfg)
    want = encode_slots(entries, entry_bytes)
    reader = SstReader(meta, cfg)
    assert np.array_equal(load_slot_matrix(reader, cfg), want)
    out = np.zeros((len(want) + 2, entry_bytes), dtype=np.uint8)
    load_slot_matrix(reader, cfg, out=out[1:-1])
    assert np.array_equal(out[1:-1], want)
    assert not out[0].any() and not out[-1].any()
    reader.close()
    with open(path, "r+b") as fh:
        fh.truncate(len(entries) * entry_bytes - 1)  # inside the rows either way
    reader = SstReader(meta, cfg)
    with pytest.raises(StorageIOError, match=os.path.basename(path)):
        load_slot_matrix(reader, cfg)
    reader.close()

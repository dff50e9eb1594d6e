import copy
import gc
import heapq
from bisect import bisect_right
from collections import Counter
import os
import random
import shutil
import warnings

import pytest

from lsmclab import LsmEngine, TreeConfig
from lsmclab.bloom import BloomFilter
from lsmclab.errors import InvalidArgument, StorageIOError
from lsmclab.sstable import (
    PUT,
    SstReader,
    decode_entry,
    encode_slots,
    fence_keys,
    page_lower_bound,
    parse_index_block,
)

from conftest import MIXED_KEYS, key, small_config, value


@pytest.fixture
def engine(tmp_path, cfg):
    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    yield eng
    eng.close()


def fill(engine, n, start=0, step=2):
    for i in range(n):
        engine.put(key(start + i * step), value(i))


def test_get_from_buffer(engine):
    engine.put(key(2), value(2))
    assert engine.get(key(2)) == value(2)
    assert engine.get(key(4)) is None


def test_get_after_flush(engine, cfg):
    fill(engine, cfg.entries_per_buffer + 3)
    assert engine.manifest.deepest_nonempty_level() >= 1
    assert engine.get(key(0)) == value(0)
    assert engine.get(key(2)) == value(1)


def test_newest_version_wins_across_flushes(engine, cfg):
    fill(engine, cfg.entries_per_buffer)
    engine.put(key(0), b"updated")
    engine.quiesce()
    assert engine.get(key(0)) == b"updated"


def test_delete_hides_older_value(engine, cfg):
    fill(engine, cfg.entries_per_buffer)
    engine.delete(key(0))
    assert engine.get(key(0)) is None
    engine.quiesce()
    assert engine.get(key(0)) is None


def test_tombstone_purged_at_bottom(engine, cfg):
    fill(engine, cfg.entries_per_buffer)
    engine.delete(key(0))
    engine.quiesce()
    # the only disk data sits at the tree bottom, so merges drop the tombstone
    for round_no in range(1, 5):
        fill(engine, cfg.entries_per_buffer, start=round_no * 10_000)
        engine.quiesce()
    assert engine.get(key(0)) is None
    assert engine.tombstones_remaining() == 0


def test_empty_key_rejected(engine):
    with pytest.raises(InvalidArgument):
        engine.put(b"", b"x")
    with pytest.raises(InvalidArgument):
        engine.point_lookup(b"")


def test_tombstone_with_value_rejected(engine):
    from lsmclab.sstable import TOMBSTONE

    with pytest.raises(InvalidArgument):
        engine.put(key(2), b"x", TOMBSTONE)


def test_flush_empty_buffer_rejected(engine):
    with pytest.raises(InvalidArgument):
        engine.flush_buffer()


def test_reopen_recovers_disk_state(tmp_path, cfg):
    eng = LsmEngine(str(tmp_path), cfg, "lo1")
    fill(eng, 3 * cfg.entries_per_buffer)
    eng.quiesce()
    seen = eng.manifest.total_entries()
    eng.close()

    clone = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    clone.manifest.check()
    assert clone.manifest.total_entries() == seen
    assert clone.get(key(0)) == value(0)
    assert clone.get(key(1)) is None
    clone.close()


def test_lookup_result_counters(tmp_path):
    cfg = small_config(block_cache_bytes=0)
    eng = LsmEngine(str(tmp_path), cfg, "lo1")
    fill(eng, 2 * cfg.entries_per_buffer)
    eng.quiesce()
    res = eng.point_lookup(key(0))
    assert res.found
    assert res.filter_probes >= 1
    assert res.data_pages_read >= 1
    assert res.index_blocks_read >= 1
    miss = eng.point_lookup(key(1))
    assert not miss.found
    assert miss.data_pages_read <= miss.filter_probes
    eng.close()


def test_cache_holds_the_readers_parsed_blocks(tmp_path, cfg):
    """A cached filter or fence list is the very object its file's reader
    parsed, and every block is charged its length on disk."""
    eng = LsmEngine(str(tmp_path), cfg, "lo1")
    fill(eng, 4 * cfg.entries_per_buffer)
    eng.quiesce()
    for i in range(0, 8 * cfg.entries_per_buffer, 3):
        assert eng.get(key(i)) == (value(i // 2) if i % 2 == 0 else None)
    blocks = dict(eng.cache._blocks)
    assert {kind for _fid, kind, _n in blocks} == {"filter", "index", "data"}
    charged = 0
    for (fid, kind, _n), block in blocks.items():
        meta, reader = eng.manifest.files[fid], eng._readers[fid]
        if kind == "filter":
            assert block is reader.bloom_filter
            charged += meta.filter_len
        elif kind == "index":
            assert block is reader.fence_keys
            charged += meta.index_len
        else:
            assert len(block) == cfg.page_bytes
            charged += cfg.page_bytes
    assert eng.cache.resident_bytes == charged
    eng.close()


def count_meta_reads(monkeypatch):
    """Count each file's filter and index block reads, by file id."""
    reads = {"filter": Counter(), "index": Counter()}

    def counted(kind, real):
        def read(self):
            reads[kind][self.meta.file_id] += 1
            return real(self)

        return read

    for kind in reads:
        name = f"read_{kind}_block"
        monkeypatch.setattr(SstReader, name, counted(kind, getattr(SstReader, name)))
    return reads


def test_cold_cache_reads_each_meta_block_once_per_file(tmp_path, monkeypatch):
    """With no block cache every block access misses and is charged, but no
    lookup or scan reads the filter or index block of a file this engine
    wrote: the reader starts with the filter and fence keys its writer
    built. A file opened by a later engine reads its filter and its index
    once."""
    cfg = small_config(block_cache_bytes=0)
    reads = count_meta_reads(monkeypatch)
    rng = random.Random(5)
    oracle = {}

    def replay(eng, n_ops):
        probes = 0
        for i in range(n_ops):
            k = key(rng.randrange(300))
            if rng.random() < 0.25:
                eng.put(k, value(i))
                oracle[k] = value(i)
                continue
            if i % 20 == 0:
                # a scan reads the fences of every run's file that holds k
                want = [(k, oracle[k])] if k in oracle else []
                assert eng.range_scan(k, k + b"\xff") == want
            before = eng.metrics.io_pages
            res = eng.point_lookup(k)
            assert res.value == oracle.get(k)
            # every filter probed was a miss; each miss is charged one page,
            # since this geometry's meta blocks fit a page
            assert res.filter_blocks_read == res.filter_probes
            pages = res.filter_blocks_read + res.index_blocks_read + res.data_pages_read
            assert eng.metrics.io_pages - before == pages
            probes += res.filter_probes
        metas = eng.manifest.files.values()
        assert all(max(m.filter_len, m.index_len) <= cfg.page_bytes for m in metas)
        assert eng.cache.misses["filter"] == probes and not any(eng.cache.hits.values())

    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    replay(eng, 3000)
    assert eng.metrics.compaction_count > 10
    # every index probe missed the cache and was charged, yet none read
    assert eng.cache.misses["index"] > 20
    assert not reads["filter"]
    assert not reads["index"]
    eng.close()

    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    eng.auto_compact = False
    live = set(eng.manifest.files)
    replay(eng, 600)
    assert len(reads["filter"]) > 5 and set(reads["filter"]) <= live
    assert set(reads["filter"].values()) == set(reads["index"].values()) == {1}
    eng.close()


def test_failed_filter_read_caches_and_charges_nothing(tmp_path, cfg, monkeypatch):
    eng = LsmEngine(str(tmp_path), cfg, "full")
    eng.auto_compact = False
    fill(eng, cfg.entries_per_buffer, step=1)
    eng.close()
    # a reopened engine reads each filter from disk
    eng = LsmEngine(str(tmp_path), cfg, "full")
    eng.auto_compact = False
    (meta,) = eng.manifest.files.values()

    def failing(self):
        raise StorageIOError("injected")

    monkeypatch.setattr(SstReader, "read_filter_block", failing)
    io_pages = eng.metrics.io_pages
    with pytest.raises(StorageIOError, match="injected"):
        eng.get(key(0))
    assert eng.metrics.io_pages == io_pages
    assert eng.cache.resident_bytes == 0 and not eng.cache._blocks
    assert eng.reader(meta.file_id)._filter is None
    monkeypatch.undo()
    reads = count_meta_reads(monkeypatch)
    res = eng.point_lookup(key(0))
    assert (res.value, res.filter_blocks_read, res.data_pages_read) == (value(0), 1, 1)
    assert reads["filter"] == {meta.file_id: 1}
    charged = eng._pages_of(meta.filter_len) + eng._pages_of(meta.index_len) + 1
    assert eng.metrics.io_pages == io_pages + charged
    # the filter is cached now: the next lookup neither reads nor charges it
    assert eng.point_lookup(key(1)).filter_blocks_read == 0
    assert reads["filter"] == {meta.file_id: 1}
    assert eng.cache.resident_bytes == meta.filter_len + meta.index_len + cfg.page_bytes
    eng.close()


def test_written_files_readers_start_with_their_filters(tmp_path, cfg):
    """Every file written by flush or compaction gets a reader holding the
    filter its job built, equal to the filter block on disk."""
    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    fill(eng, 12 * cfg.entries_per_buffer, step=3)
    fill(eng, 6 * cfg.entries_per_buffer, step=5)
    assert eng.metrics.compaction_count > 0
    assert set(eng._readers) >= set(eng.manifest.files)
    for fid, meta in eng.manifest.files.items():
        reader = eng._readers[fid]
        assert reader.meta is meta and reader._filter is not None
        on_disk = BloomFilter.from_bytes(reader.read_filter_block())
        assert reader._filter.to_bytes() == on_disk.to_bytes()
    eng.close()


@pytest.mark.parametrize("mixed", [False, True], ids=["one-length", "mixed"])
def test_written_files_readers_start_with_their_fence_keys(tmp_path, cfg, mixed):
    """Every file written by flush or compaction, or as one of a job's
    several files, gets a reader holding its own pages' fence keys, equal
    to its index block as both parsers read it. One-length keys take
    ``fence_keys``' numpy path; mixed-length keys, some fences ending in a
    zero byte, take the per-fence loop."""
    if mixed:
        keys = [b"%03d" % i + k for i in range(40) for k in MIXED_KEYS]
    else:
        keys = [key(i) for i in range(400)]
    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    for i in random.Random(3).sample(range(len(keys)), len(keys)):
        eng.put(keys[i], value(i))
    assert eng.metrics.compaction_count > 0
    # one job of three files, the last one short: 16, 16 and 5 rows
    n = 2 * cfg.entries_per_file + cfg.entries_per_page + 1
    entries = [(k, i, PUT, value(i)) for i, k in enumerate(keys[:n])]
    job = eng.write_sorted_slots(encode_slots(entries, cfg.entry_bytes), 2, None)
    assert [m.data_pages for m in job] == [4, 4, 2]
    fences = []
    for meta in [*eng.manifest.files.values(), *job]:
        reader = eng._readers[meta.file_id]
        raw = reader.read_index_block()
        assert reader._fence_keys == fence_keys(raw) == [k for k, _ in parse_index_block(raw)]
        fences += reader._fence_keys
    if mixed:
        assert any(f.endswith(b"\x00") for f in fences)
    else:
        assert {len(f) for f in fences} == {8}
    eng.close()


def test_failed_job_registers_no_reader(tmp_path, cfg, monkeypatch):
    """A job whose k-th file fails to write leaves no reader for any of its
    files, the ones already written included."""
    eng = LsmEngine(str(tmp_path), cfg, "full", debug_checks=True)
    fill(eng, 8 * cfg.entries_per_buffer)
    eng.quiesce()
    first_id = eng.manifest.next_file_id
    readers = dict(eng._readers)
    real_writev = os.writev
    calls = [0]

    def writev(fd, buffers):
        calls[0] += 1  # the first file of the job is written whole
        return real_writev(fd, buffers[:-1] if calls[0] == 2 else buffers)

    monkeypatch.setattr(os, "writev", writev)
    entries = [(key(i), i, PUT, value(i)) for i in range(3 * cfg.entries_per_file)]
    slots = encode_slots(entries, cfg.entry_bytes)
    with pytest.raises(StorageIOError):
        eng.write_sorted_slots(slots, 2, None)
    monkeypatch.undo()
    assert calls[0] == 2 and eng.manifest.next_file_id == first_id + 2
    assert eng._readers == readers
    assert not set(eng._readers) - set(eng.manifest.files)
    eng.close()


def test_range_scan_half_open(engine, cfg):
    fill(engine, 2 * cfg.entries_per_buffer)
    got = engine.range_scan(key(4), key(12))
    assert [k for k, _v in got] == [key(4), key(6), key(8), key(10)]
    with pytest.raises(InvalidArgument):
        engine.range_scan(key(4), key(2))


def test_range_scan_sees_buffer_and_skips_tombstones(engine, cfg):
    fill(engine, cfg.entries_per_buffer)
    engine.delete(key(2))
    engine.put(key(3), b"buffered")
    got = dict(engine.range_scan(key(0), key(6)))
    assert key(2) not in got
    assert got[key(3)] == b"buffered"
    assert got[key(0)] == value(0)


def test_space_amp_counts_obsolete_versions(tmp_path):
    cfg = small_config()
    eng = LsmEngine(str(tmp_path), cfg, "tier", debug_checks=True)
    fill(eng, cfg.entries_per_buffer)
    eng.quiesce()
    assert eng.measure_space_amp() == 0.0
    # rewrite the same keys into a second run: duplicates remain under tiering
    fill(eng, cfg.entries_per_buffer)
    eng.quiesce()
    if any(len(level) > 1 for level in eng.manifest.snapshot()):
        assert eng.measure_space_amp() > 0.0
    eng.close()


def reference_space_amp(eng):
    """The census as a heapq merge of every file's decoded entries."""
    iters = [
        eng.reader(fid).iter_entries()
        for level in eng.manifest.snapshot()
        for run in level
        for fid in run
    ]
    total = live = 0
    prev_key = None
    for k, _seq, kind, _v in heapq.merge(*iters, key=lambda e: (e[0], -e[1])):
        total += 1
        if k != prev_key:
            prev_key = k
            if kind == PUT:
                live += 1
    return (total - live) / max(live, 1) if total else 0.0


def test_space_amp_matches_reference_merge(tmp_path):
    cfg = small_config()
    # without auto compaction every flush stays a run of its own
    eng = LsmEngine(str(tmp_path), cfg, "tier", debug_checks=True)
    eng.auto_compact = False
    keys = list(MIXED_KEYS) + [b"m%d" % i for i in range(20)]
    oracle = {}
    for r in range(6):
        for j, k in enumerate(keys):
            if (j + r) % 4 == 0:
                eng.delete(k)
                oracle.pop(k, None)
            else:
                eng.put(k, b"r%d" % r)
                oracle[k] = b"r%d" % r
    assert eng.manifest.run_count(1) > 1
    want = reference_space_amp(eng)
    assert want > 0.0
    assert eng.measure_space_amp() == want
    eng.quiesce()
    assert eng.measure_space_amp() == reference_space_amp(eng)
    assert all(eng.get(k) == oracle.get(k) for k in keys)
    eng.close()


def entry_by_entry_scan(eng, low, high):
    """The scan a page-granular one must match touch for touch: each run
    read by a lazy generator of rows, all merged row by row with
    ``heapq.merge`` on ``(key, -seqnum)``, the buffer first."""
    slot = eng.cfg.entry_bytes

    def run_rows(min_keys, metas):
        for meta in metas[max(bisect_right(min_keys, low) - 1, 0) :]:
            if meta.min_key >= high:
                return
            if meta.max_key < low:
                continue
            fences, _ = eng._fences_for(meta)
            first_page = max(bisect_right(fences, low) - 1, 0)
            for page_no in range(first_page, meta.data_pages):
                page = eng._data_page(meta, page_no)
                count = eng._page_entry_count(meta, page_no)
                first = page_lower_bound(page, low, slot, count) if page_no == first_page else 0
                for i in range(first, count):
                    entry = decode_entry(page, i * slot)
                    if entry[0] >= high:
                        return
                    yield entry

    buffered = sorted((k, *version) for k, version in eng.buffer.items() if low <= k < high)
    runs = [run_rows(min_keys, metas) for min_keys, metas in eng.manifest.lookup_runs()]
    out, prev = [], None
    for k, _seq, kind, v in heapq.merge(buffered, *runs, key=lambda e: (e[0], -e[1])):
        if k != prev:
            prev = k
            if kind == PUT:
                out.append((k, v))
    return out


def scan_touches(eng, scan, low, high):
    """Rows, cache-get keys, pages charged and hit/miss counts of one scan,
    run on a copy of the engine's cache so each scan starts alike."""
    cache = copy.deepcopy(eng.cache)
    touched = []
    real_get = cache.get
    cache.get = lambda k: touched.append(k) or real_get(k)
    saved, eng.cache = eng.cache, cache
    pages = eng.metrics.io_pages
    try:
        rows = scan(eng, low, high)
    finally:
        eng.cache = saved
    return rows, touched, eng.metrics.io_pages - pages, cache.hits, cache.misses


def test_scan_touches_cache_as_entry_by_entry_merge(tmp_path):
    # a tiered tree of single-file level-1 runs over a multi-file run, read
    # through a cache far smaller than the tree, so LRU order decides hits
    cfg = small_config(size_ratio=10, block_cache_bytes=1024)
    keys = sorted({*MIXED_KEYS, *(m + b"%02d" % i for m in MIXED_KEYS for i in range(24))})
    rng = random.Random(5)
    oracle = {}
    eng = LsmEngine(str(tmp_path), cfg, "tier", debug_checks=True)
    for i in range(1000):
        k = rng.choice(keys)
        if oracle.get(k) and rng.random() < 0.2:
            eng.delete(k)  # shadows an older put
            oracle[k] = None
        else:
            eng.put(k, value(i))
            oracle[k] = value(i)
    eng.put(b"zz", b"buffered")  # two keys only the buffer holds, just below b"zzz"
    eng.put(b"zz\x00", b"buffered")
    oracle[b"zz"] = oracle[b"zz\x00"] = b"buffered"
    runs = eng.manifest.lookup_runs()
    assert len(runs) >= 8 and len(eng.buffer) < cfg.entries_per_buffer
    assert any(m.tombstone_count for _mk, metas in runs for m in metas)
    min_keys, metas = max(runs, key=lambda run: len(run[1]))  # the multi-file run
    assert len(metas) >= 3 and metas[1].data_pages >= 2
    fences = eng.reader(metas[1].file_id).fence_keys

    ranges = [
        (keys[0], b"\xff"),  # everything
        (fences[0], fences[1]),  # high is a page's first fence
        (metas[0].min_key, metas[1].min_key),  # ends at a file boundary in a run
        (metas[2].min_key, metas[2].min_key),  # low == high
        (metas[-1].max_key + b"\x00", b"\xff"),  # past the run's last file
        (b"zz", b"zz\x01"),  # held wholly in the buffer
    ]
    for _ in range(20):
        low, high = sorted(rng.sample(keys, 2))
        ranges.append((low, high))
    for low, high in ranges:
        want = [(k, v) for k, v in sorted(oracle.items()) if low <= k < high and v]
        reference = scan_touches(eng, entry_by_entry_scan, low, high)
        got = scan_touches(eng, LsmEngine.range_scan, low, high)
        assert reference[0] == want
        assert got == reference, (low, high)
        eng.range_scan(low, high)  # move the real cache on
    eng.close()


def test_tick_advances_per_operation(engine):
    t0 = engine.tick
    engine.put(key(2), value(1))
    engine.point_lookup(key(2))
    engine.range_scan(key(0), key(4))
    assert engine.tick == t0 + 3


def test_max_tombstone_age(engine):
    assert engine.max_tombstone_age_ticks() == 0
    engine.delete(key(100))
    for i in range(5):
        engine.put(key(200 + 2 * i), value(i))
    assert engine.max_tombstone_age_ticks() == 5


def test_write_latency_histogram_in_page_units(tmp_path, cfg):
    eng = LsmEngine(str(tmp_path), cfg, "lo1")
    fill(eng, cfg.entries_per_buffer + 1)
    hist = eng.metrics.histograms["write"]
    assert max(hist.values) >= cfg.pages_per_buffer  # the flushing write
    assert min(hist.values) == 0  # buffered writes do no I/O
    eng.close()


def test_removed_files_deleted_from_disk(tmp_path, cfg):
    eng = LsmEngine(str(tmp_path), cfg, "full", debug_checks=True)
    fill(eng, 6 * cfg.entries_per_buffer)
    eng.quiesce()
    live = {os.path.basename(m.path) for m in eng.manifest.files.values()}
    on_disk = {n for n in os.listdir(str(tmp_path)) if n.endswith(".sst")}
    assert on_disk == live
    eng.close()


def sst_names(directory):
    return {name for name in os.listdir(directory) if name.endswith(".sst")}


def live_names(eng):
    return {os.path.basename(m.path) for m in eng.manifest.files.values()}


@pytest.mark.parametrize("preset", ["lo1", "tier"])
def test_retired_files_are_spares_until_quiesce_and_close(tmp_path, cfg, preset):
    directory = str(tmp_path)
    eng = LsmEngine(directory, cfg, preset, debug_checks=True)
    # new keys, then overwrites of the first buffer's keys, which under
    # tiering retire more files than stay live
    for i in range(14 * cfg.entries_per_buffer):
        if i < 6 * cfg.entries_per_buffer:
            eng.put(key(i * 2), value(i))
        else:
            eng.put(key(i % cfg.entries_per_buffer * 2), value(i))
        spares = {os.path.basename(p) for p in eng._spares}
        assert not spares & live_names(eng)
        assert len(eng._spares) == len(spares) <= len(eng.manifest.files)
        assert sst_names(directory) == live_names(eng) | spares
    assert eng._spares
    # the next file written is the most recent spare, renamed and overwritten
    inode = os.stat(eng._spares[-1]).st_ino
    eng.auto_compact = False
    eng.put(key(1), value(1))
    (fid,) = eng.flush_buffer()
    assert os.stat(eng.manifest.files[fid].path).st_ino == inode
    assert eng.get(key(1)) == value(1)
    eng.auto_compact = True
    eng.quiesce()
    assert not eng._spares
    assert sst_names(directory) == live_names(eng)
    fill(eng, 6 * cfg.entries_per_buffer, start=3)
    assert eng._spares
    eng.close()
    assert sst_names(directory) == live_names(eng)


def test_short_write_raises_and_leaves_manifest_unchanged(tmp_path, cfg, monkeypatch):
    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    fill(eng, 6 * cfg.entries_per_buffer)
    assert eng._spares and not eng.buffer
    log = tmp_path / "MANIFEST.log"

    def manifest_state():
        levels = [[list(run) for run in level] for level in eng.manifest.levels]
        return log.read_bytes(), sorted(eng.manifest.files), levels

    before = manifest_state()
    real_writev = os.writev
    # every write leaves off the footer
    monkeypatch.setattr(os, "writev", lambda fd, buffers: real_writev(fd, buffers[:-1]))
    failed = f"{eng.manifest.next_file_id:08d}.sst"
    with pytest.raises(StorageIOError, match=failed):
        fill(eng, cfg.entries_per_buffer, start=1)  # the last put flushes
    assert manifest_state() == before
    monkeypatch.undo()
    # the buffer kept the writes: they flush once writes succeed again
    eng.quiesce()
    oracle = {key(i * 2): value(i) for i in range(6 * cfg.entries_per_buffer)}
    oracle.update((key(1 + i * 2), value(i)) for i in range(cfg.entries_per_buffer))
    assert all(eng.get(k) == v for k, v in oracle.items())
    eng.close()
    # the failed file was kept as a spare, which close() unlinked
    assert sst_names(str(tmp_path)) == live_names(eng)
    clone = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    assert sst_names(str(tmp_path)) == live_names(clone)
    assert all(clone.get(k) == v for k, v in oracle.items())
    clone.close()


def test_failed_spare_rename_keeps_the_spare(tmp_path, cfg, monkeypatch):
    eng = LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True)
    fill(eng, 6 * cfg.entries_per_buffer)
    spares = list(eng._spares)
    assert spares and not eng.buffer

    def failing(src, dst):
        raise OSError(5, "injected")

    monkeypatch.setattr(os, "rename", failing)
    with pytest.raises(StorageIOError, match="recycling"):
        fill(eng, cfg.entries_per_buffer, start=1)  # the last put flushes
    assert eng._spares == spares
    monkeypatch.undo()
    eng.quiesce()
    assert sst_names(str(tmp_path)) == live_names(eng)
    eng.close()
    assert sst_names(str(tmp_path)) == live_names(eng)


def test_failed_job_leaves_no_file_behind(tmp_path, cfg, monkeypatch):
    """A write that fails at the k-th file, in a flush or inside a
    many-file compaction, leaves on disk only live files and spares."""
    directory = str(tmp_path)
    eng = LsmEngine(directory, cfg, "full", debug_checks=True)
    real_writev = os.writev
    oracle = {}
    for k in range(1, 9):
        calls = [0]

        def writev(fd, buffers):
            calls[0] += 1
            return real_writev(fd, buffers[:-1] if calls[0] == k else buffers)

        monkeypatch.setattr(os, "writev", writev)
        with pytest.raises(StorageIOError):
            for i in range(40 * cfg.entries_per_buffer):
                # a put whose flush or compaction fails is still applied
                oracle[key(i * 7 % 997)] = value(k)
                eng.put(key(i * 7 % 997), value(k))
        monkeypatch.undo()
        spares = {os.path.basename(p) for p in eng._spares}
        assert sst_names(directory) == live_names(eng) | spares
        eng.quiesce()
        assert sst_names(directory) == live_names(eng)
        assert all(eng.get(kk) == v for kk, v in oracle.items())
    eng.close()
    assert sst_names(directory) == live_names(eng)


def test_close_flushes_the_write_buffer(tmp_path, cfg):
    n = cfg.entries_per_buffer
    with LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True) as eng:
        fill(eng, 2 * n + n // 2)
        eng.delete(key(0))
        assert eng.buffer
    with LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True) as eng:
        assert not eng.buffer
        assert eng.get(key(0)) is None
        assert all(eng.get(key(2 * i)) == value(i) for i in range(1, 2 * n + n // 2))
        # the engine's own writes stay in the buffer, which close() writes out
        fill(eng, n // 2, start=1)
        assert eng.buffer
    with LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True) as eng:
        assert all(eng.get(key(1 + 2 * i)) == value(i) for i in range(n // 2))


def test_close_releases_everything_when_its_flush_fails(tmp_path, cfg, monkeypatch):
    directory = str(tmp_path)
    eng = LsmEngine(directory, cfg, "lo1", debug_checks=True)
    fill(eng, 6 * cfg.entries_per_buffer + 3)
    assert eng.buffer and eng._readers
    real_writev = os.writev
    monkeypatch.setattr(os, "writev", lambda fd, buffers: real_writev(fd, buffers[:-1]))
    with pytest.raises(StorageIOError):
        eng.close()
    monkeypatch.undo()
    # readers, spares (the failed file among them) and the manifest log
    # were released all the same
    assert not eng._readers and not eng._spares and eng.manifest._log is None
    assert sst_names(directory) == live_names(eng)
    # the writes acknowledged before the last flush survive
    with LsmEngine(directory, cfg, "lo1", debug_checks=True) as eng:
        assert all(eng.get(key(2 * i)) == value(i) for i in range(6 * cfg.entries_per_buffer))


def test_reopen_collects_orphaned_sorted_files(tmp_path, cfg):
    eng = LsmEngine(str(tmp_path / "db"), cfg, "lo1")
    oracle = {}
    for i in range(8 * cfg.entries_per_buffer):  # the last put flushes
        eng.put(key(i * 7 % 97), value(i))
        oracle[key(i * 7 % 97)] = value(i)
    spares = {os.path.basename(p) for p in eng._spares}
    assert spares and not eng.buffer and eng.manifest.next_file_id < 999
    # the directory as a process that died here would leave it
    crashed = tmp_path / "crashed"
    shutil.copytree(tmp_path / "db", crashed)
    eng.close()
    for name in ("00000999.sst", "x.sst", "notes.txt"):
        (crashed / name).write_bytes(b"not a sorted file")
    clone = LsmEngine(str(crashed), cfg, "lo1", debug_checks=True)
    names = set(os.listdir(crashed))
    assert not names & spares and "00000999.sst" not in names
    assert {"x.sst", "notes.txt"} <= names
    assert sst_names(str(crashed)) == live_names(clone) | {"x.sst"}
    assert all(clone.get(k) == v for k, v in oracle.items())
    clone.close()


def test_oversize_put_rejected_before_any_state_changes(tmp_path):
    cfg = TreeConfig(buffer_bytes=2048, page_bytes=2048, entry_bytes=128)
    eng = LsmEngine(str(tmp_path), cfg, "full", debug_checks=True)
    oracle = {}
    for i in range(3):
        eng.put(key(i), value(i))
        oracle[key(i)] = value(i)
    before = (eng.tick, eng.manifest.next_seqnum, dict(eng.buffer))
    with pytest.raises(InvalidArgument, match="223 bytes exceeds the 128-byte entry slot"):
        eng.put(b"k" * 10, b"v" * 200)
    assert (eng.tick, eng.manifest.next_seqnum, eng.buffer) == before
    assert eng.get(b"k" * 10) is None
    # 13 header bytes + 10 + 105 fill the slot exactly
    eng.put(b"k" * 10, b"v" * 105)
    oracle[b"k" * 10] = b"v" * 105
    # the engine still flushes, reads and compacts
    for i in range(3, 3 + 5 * cfg.entries_per_buffer):
        eng.put(key(i), value(i))
        oracle[key(i)] = value(i)
    eng.quiesce()
    assert eng.metrics.compaction_count > 0
    assert all(eng.get(k) == v for k, v in oracle.items())
    assert eng.range_scan(b"", b"\xff") == sorted(oracle.items())
    eng.close()


@pytest.mark.parametrize("cut", ["filter", "index", "data"])
def test_truncated_file_reads_raise(tmp_path, cut):
    cfg = small_config()
    n = cfg.entries_per_buffer
    eng = LsmEngine(str(tmp_path), cfg, "full")
    eng.auto_compact = False
    fill(eng, n, start=0, step=1)
    fill(eng, n, start=1000, step=1)
    eng.close()
    # a reopened engine reads each filter from disk
    eng = LsmEngine(str(tmp_path), cfg, "full")
    eng.auto_compact = False
    assert eng.manifest.run_count(1) == 2
    meta = eng.manifest.files[min(eng.manifest.files)]  # holds key(0) .. key(n - 1)
    at = {
        "filter": meta.filter_off + 3,
        "index": meta.index_off + 3,
        "data": cfg.page_bytes + 5,
    }[cut]
    with open(meta.path, "r+b") as fh:
        fh.truncate(at)
    name = os.path.basename(meta.path)
    # a lookup reads the filter first, which every cut removes; a failed
    # read charges no pages and records no lookup, though its cache miss
    # was real
    io_pages, lookups = eng.metrics.io_pages, eng.metrics.point_lookups
    filter_misses = eng.cache.misses["filter"]
    for _ in range(3):
        with pytest.raises(StorageIOError, match=name):
            eng.get(key(0))
    assert (eng.metrics.io_pages, eng.metrics.point_lookups) == (io_pages, lookups)
    assert eng.cache.misses["filter"] == filter_misses + 3
    # a scan reads the index, then data pages
    if cut == "filter":
        assert eng.range_scan(key(0), key(n)) == [(key(i), value(i)) for i in range(n)]
    else:
        with pytest.raises(StorageIOError, match=name):
            eng.range_scan(key(0), key(n))
    # a compaction reads the data section
    if cut == "data":
        with pytest.raises(StorageIOError, match=name):
            eng.quiesce()
    else:
        eng.quiesce()
        assert meta.file_id not in eng.manifest.files
        assert all(eng.get(key(i)) == value(i) for i in range(n))
    eng.close()


def test_filters_of_another_bits_per_key_have_no_false_negatives(tmp_path):
    """A lookup hashes its key into one probe sequence that every filter
    it tests shares; files written with bits_per_key 4 (k = 3) and 20
    (k = 14) each still see their own k values."""
    directory = str(tmp_path)
    few, many = small_config(bits_per_key=4.0), small_config(bits_per_key=20.0)
    n = few.entries_per_buffer
    oracle = {}

    def write_and_check(cfg, phase):
        # each phase writes its own keys across the whole key range, so one
        # lookup tests filters of both k
        with LsmEngine(directory, cfg, "tier") as eng:
            eng.auto_compact = False
            for i in range(4 * n + n // 2):
                k = key(4 * i + phase)
                eng.put(k, value(i))
                oracle[k] = value(i)
            eng.flush_buffer()
            ks = {
                BloomFilter.from_bytes(eng.reader(fid).read_filter_block()).num_hashes
                for fid in eng.manifest.files
            }
            assert all(eng.get(k) == v for k, v in oracle.items())
            assert all(eng.get(key(4 * i + 3)) is None for i in range(4 * n))
        return ks

    assert write_and_check(few, 0) == {3}
    assert write_and_check(many, 1) == {3, 14}
    assert write_and_check(few, 2) == {3, 14}
    with LsmEngine(directory, many, "tier") as eng:
        eng.quiesce()
        assert all(eng.get(k) == v for k, v in oracle.items())


# The lookup accounting of lookup_accounting's workload, whose block cache
# is far smaller than the tree, as the per-file probe loop gave it before
# the lookup hashed once and binary-searched pages: summed LookupResult
# counters (filter_probes, filter_blocks_read, index_blocks_read,
# data_pages_read), io_pages, cache hits and misses per kind, and the
# sorted access tick of the live files, by which the cold preset picks.
PINNED_ACCOUNTING = {
    "tier": {
        "counters": (3515, 1784, 1614, 2944),
        "io_pages": 9645,
        "hits": {"data": 569, "index": 1460, "filter": 1731},
        "misses": {"data": 3294, "index": 1958, "filter": 1784},
        "ticks": [
            2740, 2758, 2760, 2808, 2809, 2861, 2877, 2878, 2897, 2899, 2905, 2910,
            2918, 2952, 2956, 2958, 2963, 2968, 2973, 2977, 2980, 2980, 2980, 2980,
            2987, 2989, 2990, 2990, 2990, 2996, 2997, 2997, 2997, 2997, 2997,
        ],
    },
    "cold": {
        "counters": (1936, 1357, 1206, 1653),
        "io_pages": 10782,
        "hits": {"data": 232, "index": 499, "filter": 579},
        "misses": {"data": 2144, "index": 1509, "filter": 1357},
        "ticks": [
            1102, 1980, 2364, 2376, 2412, 2564, 2641, 2701, 2709, 2721, 2721, 2755,
            2784, 2799, 2809, 2861, 2879, 2883, 2891, 2904, 2904, 2910, 2918, 2937,
            2937, 2942, 2958, 2963, 2963, 2968, 2968, 2968, 2968, 2973, 2977, 2980,
            2987, 2989, 2990, 2991, 2991, 2991, 2991, 2991, 2991, 2991, 2996, 2997,
        ],
    },
}


def lookup_accounting(directory, preset):
    """3,000 seeded puts, deletes, lookups and scans, each read checked
    against a dict; returns the accounting that PINNED_ACCOUNTING pins."""
    cfg = small_config(block_cache_bytes=2048)
    rng = random.Random(11)
    oracle = {}
    counters = [0, 0, 0, 0]
    with LsmEngine(directory, cfg, preset) as eng:
        for i in range(3000):
            r = rng.random()
            if r < 0.45:
                k = key(rng.randrange(400))
                eng.put(k, value(i))
                oracle[k] = value(i)
            elif r < 0.5:
                k = key(rng.randrange(400))
                eng.delete(k)
                oracle.pop(k, None)
            elif r < 0.97:
                k = key(rng.randrange(480))
                res = eng.point_lookup(k)
                assert res.value == oracle.get(k)
                for j, n in enumerate(
                    (
                        res.filter_probes,
                        res.filter_blocks_read,
                        res.index_blocks_read,
                        res.data_pages_read,
                    )
                ):
                    counters[j] += n
            else:
                low = rng.randrange(400)
                high = low + rng.randrange(1, 40)
                got = eng.range_scan(key(low), key(high))
                assert got == sorted(
                    (k, v) for k, v in oracle.items() if key(low) <= k < key(high)
                )
        assert eng.cache.resident_bytes <= cfg.block_cache_bytes
        return {
            "counters": tuple(counters),
            "io_pages": eng.metrics.io_pages,
            "hits": dict(eng.cache.hits),
            "misses": dict(eng.cache.misses),
            "ticks": sorted(
                eng.access_ticks.get(fid, m.created_tick) for fid, m in eng.manifest.files.items()
            ),
        }


@pytest.mark.parametrize("preset", ["tier", "cold"])
def test_lookup_accounting_pinned(tmp_path, preset):
    assert lookup_accounting(str(tmp_path), preset) == PINNED_ACCOUNTING[preset]


def descriptors_into(directory):
    """Where this process's open descriptors that point into ``directory`` lead."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(os.path.join("/proc/self/fd", fd))
        except OSError:  # the descriptor listing the directory, closed by now
            continue
        if target.startswith(directory + os.sep):
            targets.append(target)
    return targets


def test_no_descriptor_outlives_its_file(tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list descriptors")
    cfg = small_config()
    directory = os.path.realpath(tmp_path)
    gc.collect()  # readers leaked by earlier tests warn now, not below
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        eng = LsmEngine(directory, cfg, "lo1")
        for r in range(6):
            for i in range(3 * cfg.entries_per_buffer):
                eng.put(key(i * 7 % 97), value(r))
                if i % 5 == 0:
                    eng.get(key(i % 97))  # opens readers of files later merged away
            eng.range_scan(key(0), key(97))
        eng.measure_space_amp()
        assert eng.manifest.next_file_id - 1 > len(eng.manifest.files)
        live = {m.path for m in eng.manifest.files.values()}
        open_files = [t for t in descriptors_into(directory) if t.endswith(".sst")]
        # a removed file shows as "<path> (deleted)", which is not a live path
        assert open_files and set(open_files) <= live
        eng.close()
        assert descriptors_into(directory) == []
        del eng
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

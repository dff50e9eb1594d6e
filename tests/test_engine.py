import gc
import heapq
import os
import warnings

import pytest

from lsmclab import LsmEngine, TreeConfig
from lsmclab.errors import InvalidArgument, StorageIOError
from lsmclab.sstable import PUT

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


def test_file_get_probes_one_file(engine, cfg):
    fids = None
    fill(engine, cfg.entries_per_buffer - 1)
    engine.put(key((cfg.entries_per_buffer - 1) * 2), b"last")
    fids = [fid for run in engine.manifest.snapshot()[0] for fid in run]
    present, pages = engine.file_get(fids[0], engine.manifest.files[fids[0]].min_key)
    assert present is not None and present[2] == PUT
    assert pages >= 1
    absent, _ = engine.file_get(fids[0], key(1))
    assert absent is None


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
    eng = LsmEngine(str(tmp_path), cfg, "tier", auto_compact=False, debug_checks=True)
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
    eng = LsmEngine(str(tmp_path), cfg, "full", auto_compact=False)
    fill(eng, n, start=0, step=1)
    fill(eng, n, start=1000, step=1)
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
    # a lookup reads the filter first, which every cut removes
    with pytest.raises(StorageIOError, match=name):
        eng.get(key(0))
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

import heapq
import os

import pytest

from lsmclab import LsmEngine, TreeConfig
from lsmclab.errors import InvalidArgument
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

import pytest

from lsmclab.metrics import HIST_NAMES, Histogram, MetricsCollector, _nearest_rank


def test_percentiles_nearest_rank():
    hist = Histogram()
    for v in range(1, 101):
        hist.add(float(v))
    summary = hist.summary()
    assert summary["p50"] == 50.0
    assert summary["p90"] == 90.0
    assert summary["p99"] == 99.0
    assert summary["p100"] == 100.0
    assert _nearest_rank(sorted(hist.values), 1) == 1.0


def test_percentile_small_samples():
    hist = Histogram()
    hist.add(7.0)
    assert hist.summary()["p50"] == 7.0
    assert hist.summary()["p99"] == 7.0
    empty = Histogram().summary()
    assert empty["p50"] == 0.0
    assert empty["mean"] == 0.0


def test_summary_keys():
    hist = Histogram()
    hist.add(2.0)
    hist.add(4.0)
    summary = hist.summary()
    assert set(summary) == {"mean", "p50", "p90", "p99", "p100"}
    assert summary["mean"] == 3.0
    assert summary["p100"] == 4.0


def test_write_amp_counts_compaction_bytes_only():
    col = MetricsCollector(entry_bytes=100)
    for i in range(10):
        col.unique_keys.add(b"key%d" % i)
    col.unique_keys.add(b"key0")  # duplicate: not a new unique key
    col.record_flush(1000)
    col.record_compaction(2000, 2000, 20, pseudo=False)
    col.record_compaction(0, 0, 0, pseudo=True)
    # 2000 bytes rewritten over 10 unique keys * 100 bytes
    assert col.write_amp() == pytest.approx(2.0)
    assert col.compaction_count == 2
    assert col.pseudo_compaction_count == 1


def test_write_amp_zero_without_keys():
    col = MetricsCollector(entry_bytes=100)
    assert col.write_amp() == 0.0


def test_read_amp_pages_per_found_lookup():
    col = MetricsCollector(entry_bytes=100)
    col.record_point_lookup(3, found=True)
    col.record_point_lookup(2, found=True)
    col.record_point_lookup(4, found=False)
    assert col.read_amp() == pytest.approx(9 / 2)


def test_read_amp_guard_against_zero_found():
    col = MetricsCollector(entry_bytes=100)
    col.record_point_lookup(5, found=False)
    assert col.read_amp() == 5.0


def test_report_flat_items_are_stable():
    col = MetricsCollector(entry_bytes=100)
    col.unique_keys.add(b"a")
    col.add_latency("point", 2.0)
    report = col.report(space_amp=0.5, tombstones_remaining=3, max_tombstone_age_ticks=9)
    items = report.flat_items()
    names = [n for n, _v in items]
    assert names[0] == "compaction_count"
    assert len(names) == len(set(names))
    for hist in HIST_NAMES:
        assert f"{hist}_p99" in names
    assert report.to_dict()["tombstones_remaining"] == 3

import os

import pytest

from lsmclab.errors import InvariantViolation, StorageIOError
from lsmclab.manifest import (
    ADD_NEW_RUN,
    ADD_SPLICE,
    MANIFEST_NAME,
    Manifest,
    VersionEdit,
    _meta_to_json,
)
from lsmclab.sstable import SortedFileMeta

from conftest import key


def meta(fid, level, lo, hi, n=10, ts=0):
    return SortedFileMeta(
        file_id=fid,
        level=level,
        path=f"{fid:08d}.sst",
        min_key=key(lo),
        max_key=key(hi),
        entry_count=n,
        tombstone_count=ts,
        data_pages=1,
        created_tick=fid,
    )


@pytest.fixture
def man(tmp_path):
    m = Manifest(str(tmp_path))
    m.open()
    yield m
    m.close()


def test_new_runs_are_newest_first(man):
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(1, 1, 0, 9)])]))
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(2, 1, 0, 9)])]))
    assert man.runs_in_level(1) == [[2], [1]]
    man.check()


def test_splice_keeps_min_key_order(man):
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(1, 1, 10, 19)])]))
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(2, 1, 30, 39), meta(3, 1, 0, 9)])]))
    assert man.runs_in_level(1) == [[3, 1, 2]]
    man.check()


def test_remove_and_add_is_atomic(man):
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(1, 1, 0, 9), meta(2, 1, 10, 19)])]))
    man.apply(
        VersionEdit(removes=[1], adds=[(2, ADD_SPLICE, [meta(3, 2, 0, 9)])])
    )
    assert man.runs_in_level(1) == [[2]]
    assert man.runs_in_level(2) == [[3]]
    assert set(man.files) == {2, 3}
    man.check()


def test_remove_unknown_file_rejected(man):
    with pytest.raises(InvariantViolation):
        man.apply(VersionEdit(removes=[99]))


def test_counters(man):
    man.apply(VersionEdit(adds=[(2, ADD_NEW_RUN, [meta(1, 2, 0, 9, n=5)])]))
    man.apply(VersionEdit(adds=[(2, ADD_NEW_RUN, [meta(2, 2, 0, 9, n=7)])]))
    assert man.entries_in_level(2) == 12
    assert man.total_entries() == 12
    assert man.run_count(2) == 2
    assert man.deepest_nonempty_level() == 2
    assert man.level_count() == 2


def test_replay_restores_state(tmp_path):
    man = Manifest(str(tmp_path))
    man.open()
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(1, 1, 0, 9)])]))
    man.next_file_id = 5
    man.next_seqnum = 42
    man.logical_tick = 17
    man.apply(VersionEdit(adds=[(2, ADD_NEW_RUN, [meta(2, 2, 0, 9, ts=3)])]))
    man.close()

    clone = Manifest(str(tmp_path))
    clone.open()
    assert clone.runs_in_level(1) == [[1]]
    assert clone.runs_in_level(2) == [[2]]
    assert clone.next_file_id == 5
    assert clone.next_seqnum == 42
    assert clone.logical_tick == 17
    assert clone.files[2].tombstone_count == 3
    clone.check()
    clone.close()


def test_check_rejects_overlap_within_run(man):
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(1, 1, 0, 20), meta(2, 1, 10, 30)])]))
    with pytest.raises(InvariantViolation):
        man.check()


def test_check_rejects_level_mismatch(man):
    man.apply(VersionEdit(adds=[(1, ADD_SPLICE, [meta(1, 1, 0, 9)])]))
    man.files[1].level = 3
    with pytest.raises(InvariantViolation):
        man.check()


def test_snapshot_is_decoupled(man):
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(1, 1, 0, 9)])]))
    snap = man.snapshot()
    man.apply(VersionEdit(removes=[1]))
    assert snap == [[[1]]]
    assert man.runs_in_level(1) == []


def _runs_in_probe_order(m):
    """(min keys, file ids) per run, derived from snapshot()."""
    return [
        ([m.files[fid].min_key for fid in run], list(run))
        for level in m.snapshot()
        for run in level
    ]


def _ids(view):
    return [(list(min_keys), [meta.file_id for meta in metas]) for min_keys, metas in view]


def _view(m):
    view = m.lookup_runs()
    for _min_keys, metas in view:
        assert all(m.files[meta.file_id] is meta for meta in metas)
    return _ids(view)


def test_lookup_runs_track_every_edit(tmp_path):
    man = Manifest(str(tmp_path))
    man.open()
    edits = [
        VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(1, 1, 0, 9), meta(2, 1, 10, 19)])]),
        VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(3, 1, 5, 14)])]),
        VersionEdit(adds=[(2, ADD_SPLICE, [meta(4, 2, 20, 29), meta(5, 2, 0, 9)])]),
        VersionEdit(adds=[(2, ADD_SPLICE, [meta(6, 2, 10, 19)])]),
        VersionEdit(removes=[1, 3], adds=[(1, ADD_NEW_RUN, [meta(7, 1, 30, 39)])]),
        VersionEdit(removes=[2, 7], adds=[(3, ADD_NEW_RUN, [meta(8, 3, 0, 50)])]),
    ]
    for edit in edits:
        old = man.lookup_runs()
        before = _ids(old)
        man.apply(edit)
        assert _view(man) == _runs_in_probe_order(man)
        # an edit replaces the view; one taken earlier still reads as it did
        assert _ids(old) == before
    expected = [
        ([key(0), key(10), key(20)], [5, 6, 4]),
        ([key(0)], [8]),
    ]
    assert _view(man) == expected
    man.close()

    clone = Manifest(str(tmp_path))
    clone.open()
    assert _view(clone) == _runs_in_probe_order(clone) == expected
    clone.close()


def _state(m):
    files = {fid: _meta_to_json(meta) for fid, meta in m.files.items()}
    return m.snapshot(), files, m.next_file_id, m.next_seqnum, m.logical_tick


def _reopen(directory):
    m = Manifest(directory)
    m.open()
    return m


def test_torn_tail_is_dropped_and_truncated(tmp_path):
    man = _reopen(str(tmp_path))
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(1, 1, 0, 9)])]))
    man.logical_tick = 4
    man.apply(VersionEdit(removes=[1], adds=[(2, ADD_SPLICE, [meta(2, 2, 0, 9)])]))
    before = _state(man)
    man.close()
    log_path = os.path.join(tmp_path, MANIFEST_NAME)
    with open(log_path, "rb") as fh:
        last = fh.read().splitlines(keepends=True)[-1]
    # a crash half way through appending the next edit
    with open(log_path, "ab") as fh:
        fh.write(last[: len(last) // 2])

    clone = _reopen(str(tmp_path))
    assert _state(clone) == before
    clone.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(3, 1, 20, 29)])]))
    after = _state(clone)
    clone.close()

    again = _reopen(str(tmp_path))
    assert _state(again) == after
    assert again.runs_in_level(1) == [[3]]
    again.check()
    again.close()


def test_torn_line_before_the_tail_raises(tmp_path):
    man = _reopen(str(tmp_path))
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(1, 1, 0, 9)])]))
    man.apply(VersionEdit(adds=[(1, ADD_NEW_RUN, [meta(2, 1, 0, 9)])]))
    man.close()
    log_path = os.path.join(tmp_path, MANIFEST_NAME)
    with open(log_path, "rb") as fh:
        first, second = fh.read().splitlines(keepends=True)
    with open(log_path, "wb") as fh:
        fh.write(first[: len(first) // 2] + b"\n" + second)
    with pytest.raises(StorageIOError):
        _reopen(str(tmp_path))

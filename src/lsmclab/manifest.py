"""Tree manifest: levels, sorted runs, and live-file bookkeeping.

The manifest is persisted as an append-only log of edits (JSON lines).
Each flush or compaction applies exactly one edit, and an edit is applied
to the in-memory state only after it has been durably appended, so a failed
file write never leaves a half-applied manifest.

Structure: ``levels[i]`` describes disk level ``i + 1`` and holds its sorted
runs newest first. A run is a list of file ids with pairwise disjoint key
ranges in ascending ``min_key`` order.
"""

from __future__ import annotations

import json
import os
from bisect import insort
from dataclasses import dataclass, field

from .errors import InvariantViolation, StorageIOError
from .sstable import SortedFileMeta

MANIFEST_NAME = "MANIFEST.log"

# How an edit places its new files into the target level.
ADD_NEW_RUN = "run"  # prepend a fresh run (newest first)
ADD_SPLICE = "splice"  # insert into the level's single run by min_key


@dataclass
class VersionEdit:
    removes: list[int] = field(default_factory=list)
    # (level, mode, metas)
    adds: list[tuple[int, str, list[SortedFileMeta]]] = field(default_factory=list)
    next_file_id: int | None = None
    next_seqnum: int | None = None
    tick: int | None = None
    # level -> round-robin cursor, for the cursors the edit's job moved
    cursors: dict[int, bytes] = field(default_factory=dict)


def _meta_to_json(meta: SortedFileMeta) -> dict:
    return {
        "id": meta.file_id,
        "level": meta.level,
        "path": os.path.basename(meta.path),
        "min": meta.min_key.hex(),
        "max": meta.max_key.hex(),
        "n": meta.entry_count,
        "ts": meta.tombstone_count,
        "pages": meta.data_pages,
        "ctick": meta.created_tick,
        "ott": meta.oldest_tombstone_tick,
        "ioff": meta.index_off,
        "ilen": meta.index_len,
        "foff": meta.filter_off,
        "flen": meta.filter_len,
    }


def _meta_from_json(obj: dict, directory: str) -> SortedFileMeta:
    return SortedFileMeta(
        file_id=obj["id"],
        level=obj["level"],
        path=os.path.join(directory, obj["path"]),
        min_key=bytes.fromhex(obj["min"]),
        max_key=bytes.fromhex(obj["max"]),
        entry_count=obj["n"],
        tombstone_count=obj["ts"],
        data_pages=obj["pages"],
        created_tick=obj["ctick"],
        oldest_tombstone_tick=obj["ott"],
        index_off=obj["ioff"],
        index_len=obj["ilen"],
        filter_off=obj["foff"],
        filter_len=obj["flen"],
    )


class Manifest:
    """In-memory view plus append-only persistence."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.levels: list[list[list[int]]] = []
        self.files: dict[int, SortedFileMeta] = {}
        self.next_file_id = 1
        self.next_seqnum = 1
        self.logical_tick = 0
        # level -> the largest min_key of the last round-robin pick there;
        # the pick's job carries it and the job's edit logs it, as RocksDB's
        # VersionEdit logs compact cursors
        self.rr_cursors: dict[int, bytes] = {}
        self._runs_view: list[tuple[list[bytes], list[SortedFileMeta]]] | None = None
        self._bounds_views: dict[int, list] = {}
        self._log_path = os.path.join(directory, MANIFEST_NAME)
        self._log = None

    # -- persistence ------------------------------------------------------

    def open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        if os.path.exists(self._log_path):
            self._replay()
        self._log = open(self._log_path, "a", encoding="utf-8")

    def _replay(self) -> None:
        """Apply every complete edit in the log. Bytes after the last newline
        are an append cut short by a crash: the edit never took effect, so
        they are truncated before the log reopens for appending."""
        with open(self._log_path, "rb") as fh:
            raw = fh.read()
        complete = raw.rfind(b"\n") + 1
        for line_no, line in enumerate(raw[:complete].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise StorageIOError(
                    f"{self._log_path} line {line_no} is not a complete edit"
                ) from exc
            self._apply(self._edit_from_json(obj))
        if complete < len(raw):
            os.truncate(self._log_path, complete)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def _edit_to_json(self, edit: VersionEdit) -> dict:
        obj = {
            "rm": edit.removes,
            "add": [
                [level, mode, [_meta_to_json(m) for m in metas]]
                for level, mode, metas in edit.adds
            ],
            "nfid": edit.next_file_id,
            "nseq": edit.next_seqnum,
            "tick": edit.tick,
        }
        if edit.cursors:
            obj["rr"] = {level: key.hex() for level, key in edit.cursors.items()}
        return obj

    def _edit_from_json(self, obj: dict) -> VersionEdit:
        return VersionEdit(
            removes=obj["rm"],
            adds=[
                (level, mode, [_meta_from_json(m, self.directory) for m in metas])
                for level, mode, metas in obj["add"]
            ],
            next_file_id=obj["nfid"],
            next_seqnum=obj["nseq"],
            tick=obj["tick"],
            cursors={int(level): bytes.fromhex(key) for level, key in obj.get("rr", {}).items()},
        )

    # -- edits ------------------------------------------------------------

    def apply(self, edit: VersionEdit) -> None:
        """Durably log then apply one atomic manifest edit."""
        edit.next_file_id = self.next_file_id
        edit.next_seqnum = self.next_seqnum
        edit.tick = self.logical_tick
        if self._log is not None:
            try:
                self._log.write(json.dumps(self._edit_to_json(edit)) + "\n")
                self._log.flush()
            except OSError as exc:
                raise StorageIOError(f"manifest append failed: {exc}") from exc
        self._apply(edit)

    def _apply(self, edit: VersionEdit) -> None:
        self._runs_view = None
        self._bounds_views = {}
        removed = set(edit.removes)
        for fid in removed:
            if fid not in self.files:
                raise InvariantViolation(f"edit removes unknown file {fid}")
            del self.files[fid]
        if removed:
            for level in self.levels:
                level[:] = [
                    [fid for fid in run if fid not in removed] for run in level
                ]
                level[:] = [run for run in level if run]
        for level_no, mode, metas in edit.adds:
            self._ensure_level(level_no)
            runs = self.levels[level_no - 1]
            for meta in metas:
                meta.level = level_no
                self.files[meta.file_id] = meta
            if mode == ADD_NEW_RUN:
                runs.insert(0, [m.file_id for m in metas])
            elif mode == ADD_SPLICE:
                if not runs:
                    runs.append([])
                run = runs[0]
                keyed = [(self.files[fid].min_key, fid) for fid in run]
                for meta in metas:
                    insort(keyed, (meta.min_key, meta.file_id))
                run[:] = [fid for _k, fid in keyed]
            else:
                raise InvariantViolation(f"unknown add mode {mode!r}")
        if edit.next_file_id is not None:
            self.next_file_id = edit.next_file_id
        if edit.next_seqnum is not None:
            self.next_seqnum = edit.next_seqnum
        if edit.tick is not None:
            self.logical_tick = max(self.logical_tick, edit.tick)
        self.rr_cursors.update(edit.cursors)

    def _ensure_level(self, level_no: int) -> None:
        while len(self.levels) < level_no:
            self.levels.append([])

    # -- queries ----------------------------------------------------------

    def level_count(self) -> int:
        return len(self.levels)

    def runs_in_level(self, level_no: int) -> list[list[int]]:
        if level_no > len(self.levels):
            return []
        return self.levels[level_no - 1]

    def run_count(self, level_no: int) -> int:
        return len(self.runs_in_level(level_no))

    def entries_in_level(self, level_no: int) -> int:
        return sum(
            self.files[fid].entry_count
            for run in self.runs_in_level(level_no)
            for fid in run
        )

    def total_entries(self) -> int:
        return sum(m.entry_count for m in self.files.values())

    def deepest_nonempty_level(self) -> int:
        """0 when the tree is empty on disk."""
        for level_no in range(len(self.levels), 0, -1):
            if self.levels[level_no - 1]:
                return level_no
        return 0

    def snapshot(self) -> list[list[list[int]]]:
        """Copy of the level/run/file-id structure.

        Callers that walk every file (the space-amp census, the tests, the
        benchmark tracer) use it; later edits leave the copy untouched.
        """
        return [[list(run) for run in level] for level in self.levels]

    def lookup_runs(self) -> list[tuple[list[bytes], list[SortedFileMeta]]]:
        """Every run in probe order (shallow level first, newest run first)
        as a ``(min_keys, metas)`` pair, ready for ``bisect``.

        Built on the first read after an edit. An edit drops the view rather
        than changing it, so a caller may keep iterating an old view.
        """
        view = self._runs_view
        if view is None:
            view = []
            for level in self.levels:
                for run in level:
                    metas = [self.files[fid] for fid in run]
                    view.append(([m.min_key for m in metas], metas))
            self._runs_view = view
        return view

    def run_bounds(
        self, level_no: int
    ) -> list[tuple[list[bytes], list[bytes], list[SortedFileMeta]]]:
        """Each run of one level as ``(min_keys, max_keys, metas)``, ready
        for ``bisect``; built on the first read after an edit. Lookups keep
        :meth:`lookup_runs`, which builds no ``max_keys`` lists."""
        view = self._bounds_views.get(level_no)
        if view is None:
            view = []
            for run in self.runs_in_level(level_no):
                metas = [self.files[fid] for fid in run]
                view.append(([m.min_key for m in metas], [m.max_key for m in metas], metas))
            self._bounds_views[level_no] = view
        return view

    def check(self) -> None:
        """Verify run ordering and key-range disjointness (test hook)."""
        seen: set[int] = set()
        for level_no, level in enumerate(self.levels, start=1):
            for run in level:
                prev: SortedFileMeta | None = None
                for fid in run:
                    meta = self.files.get(fid)
                    if meta is None:
                        raise InvariantViolation(f"run references dead file {fid}")
                    if fid in seen:
                        raise InvariantViolation(f"file {fid} appears twice")
                    seen.add(fid)
                    if meta.level != level_no:
                        raise InvariantViolation(
                            f"file {fid} tagged level {meta.level}, found in {level_no}"
                        )
                    if prev is not None and prev.max_key >= meta.min_key:
                        raise InvariantViolation(
                            f"run overlap in level {level_no}: "
                            f"{prev.file_id} and {fid}"
                        )
                    prev = meta
        if seen != set(self.files):
            raise InvariantViolation("files dict does not match level contents")

"""The storage engine: write buffer, flushes, lookups, and scans.

Single-writer, synchronous design: flushes and compactions run inline on
the write path. Logical time advances by one tick per external operation
so every age-based policy is deterministic.
"""

from __future__ import annotations

import heapq
import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import compaction
from .bloom import BloomFilter, _hash_pair
from .cache import BlockCache
from .compaction import CompactionStrategy, get_strategy
from .config import ENTRY_HEADER_BYTES, TreeConfig
from .errors import InvalidArgument, InvariantViolation
from .manifest import ADD_NEW_RUN, Manifest, VersionEdit
from .metrics import MetricsCollector
from .sstable import (
    PUT,
    TOMBSTONE,
    Entry,
    JobColumns,
    SortedFileMeta,
    SstReader,
    check_newest_first,
    decode_entry,
    encode_slots,
    fence_keys,
    key_columns,
    load_slot_matrix,
    scan_page_for_key,
    slot_seqnums,
    sort_versions,
    write_file_from_slots,
)


@dataclass
class LookupResult:
    value: bytes | None
    filter_probes: int = 0
    data_pages_read: int = 0
    index_blocks_read: int = 0
    filter_blocks_read: int = 0

    @property
    def found(self) -> bool:
        return self.value is not None


class LsmEngine:
    def __init__(
        self,
        directory: str,
        cfg: TreeConfig | None = None,
        strategy: CompactionStrategy | str = "full",
        auto_compact: bool = True,
        debug_checks: bool = False,
        latency_mode: str = "pages",
    ) -> None:
        self.cfg = cfg or TreeConfig()
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        self.strategy = strategy
        self.auto_compact = auto_compact
        self.debug_checks = debug_checks
        self.directory = directory
        self.manifest = Manifest(directory)
        self.manifest.open()
        self.cache = BlockCache(self.cfg.block_cache_bytes)
        self.metrics = MetricsCollector(
            entry_bytes=self.cfg.entry_bytes, latency_mode=latency_mode
        )
        self._wall_clock = self.metrics.latency_mode == "wall"
        self._entries_per_buffer = self.cfg.entries_per_buffer
        self._entry_room = self.cfg.entry_bytes - ENTRY_HEADER_BYTES
        # buffer: key -> (seqnum, kind, value); newest version wins on insert
        self.buffer: dict[bytes, tuple[int, int, bytes]] = {}
        self._buffer_oldest_ts_tick: int | None = None
        self.rr_cursors: dict[int, bytes] = {}
        self._readers: dict[int, SstReader] = {}
        # parsed filter/index objects; the block cache models the I/O cost,
        # this memo only avoids re-deserialization
        self._filters: dict[int, BloomFilter] = {}
        self._fences: dict[int, tuple[list[bytes], int]] = {}

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()
        self.manifest.close()

    def __enter__(self) -> "LsmEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def tick(self) -> int:
        return self.manifest.logical_tick

    def _advance_tick(self) -> None:
        self.manifest.logical_tick += 1

    # -- file plumbing ------------------------------------------------------

    def reader(self, file_id: int) -> SstReader:
        reader = self._readers.get(file_id)
        if reader is None:
            meta = self.manifest.files.get(file_id)
            if meta is None:
                raise InvariantViolation(f"no live file {file_id}")
            reader = SstReader(meta, self.cfg)
            self._readers[file_id] = reader
        return reader

    def write_sorted_slots(
        self, slots, level: int, oldest_ts_tick: int | None
    ) -> list[SortedFileMeta]:
        """Write a job's whole sorted output as files of ``entries_per_file``
        rows; the columns they are written from are computed once."""
        if not len(slots):
            return []
        job = JobColumns(slots, self.cfg, self.cfg.entries_per_file)
        metas = []
        for part in range(job.files):
            file_id = self.manifest.next_file_id
            self.manifest.next_file_id += 1
            path = os.path.join(self.directory, f"{file_id:08d}.sst")
            metas.append(
                write_file_from_slots(path, job, part, file_id, level, self.tick, oldest_ts_tick)
            )
        return metas

    def forget_files(self, file_ids: list[int]) -> None:
        """Drop caches and readers for files removed from the manifest."""
        for fid in file_ids:
            reader = self._readers.pop(fid, None)
            if reader is not None:
                path = reader.meta.path
                reader.close()
            else:
                path = os.path.join(self.directory, f"{fid:08d}.sst")
            self.cache.drop_file(fid)
            self._filters.pop(fid, None)
            self._fences.pop(fid, None)
            try:
                os.remove(path)
            except OSError:
                pass

    # -- write path ---------------------------------------------------------

    def put(self, key: bytes, value: bytes, kind: int = PUT) -> int:
        if not key:
            raise InvalidArgument("key must be non-empty")
        if kind == TOMBSTONE and value:
            raise InvalidArgument("tombstones carry no value")
        if len(key) + len(value) > self._entry_room:
            raise InvalidArgument(
                f"entry of {len(key) + len(value) + ENTRY_HEADER_BYTES} bytes exceeds "
                f"the {self.cfg.entry_bytes}-byte entry slot"
            )
        manifest = self.manifest
        manifest.logical_tick += 1  # _advance_tick, inlined on the write path
        seqnum = manifest.next_seqnum
        manifest.next_seqnum = seqnum + 1
        self.buffer[key] = (seqnum, kind, value)
        if kind == PUT:
            self.metrics.note_put(key)
        elif self._buffer_oldest_ts_tick is None:
            self._buffer_oldest_ts_tick = manifest.logical_tick
        pages_before = self.metrics.io_pages
        wall = time.perf_counter() if self._wall_clock else 0.0
        if len(self.buffer) >= self._entries_per_buffer:
            self.flush_buffer()
        self._record_latency("write", pages_before, wall)
        return seqnum

    def delete(self, key: bytes) -> int:
        return self.put(key, b"", TOMBSTONE)

    def flush_buffer(self) -> list[int]:
        if not self.buffer:
            raise InvalidArgument("flush of an empty buffer")
        entries = (
            (key, seq, kind, value) for key, (seq, kind, value) in sorted(self.buffer.items())
        )
        slots = encode_slots(entries, self.cfg.entry_bytes)
        metas = self.write_sorted_slots(slots, 1, self._buffer_oldest_ts_tick)
        edit = VersionEdit(adds=[(1, ADD_NEW_RUN, metas)])
        self.manifest.apply(edit)
        self.buffer.clear()
        self._buffer_oldest_ts_tick = None
        flushed_bytes = sum(m.entry_count for m in metas) * self.cfg.entry_bytes
        self.metrics.record_flush(flushed_bytes)
        self.metrics.add_io_pages(sum(m.data_pages for m in metas))
        if self.debug_checks:
            self.manifest.check()
        if self.auto_compact:
            compaction.run_until_quiescent(self)
        return [m.file_id for m in metas]

    def quiesce(self) -> int:
        """Flush any buffered writes and drain all compaction triggers."""
        if self.buffer:
            self.flush_buffer()
        return compaction.run_until_quiescent(self)

    # -- block access with I/O accounting -----------------------------------

    def _pages_of(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.cfg.page_bytes))

    def _filter_for(self, meta: SortedFileMeta) -> tuple[BloomFilter, int]:
        """Returns (filter, io_pages_charged)."""
        key = (meta.file_id, "filter", 0)
        pages = 0
        if self.cache.get(key) is None:
            pages = self._pages_of(meta.filter_len)
            self.metrics.add_io_pages(pages)
            filt = self._filters.get(meta.file_id)
            if filt is None:
                raw = self.reader(meta.file_id).read_filter_block()
                filt = BloomFilter.from_bytes(raw)
                self._filters[meta.file_id] = filt
                self.cache.put(key, raw)
            else:
                self.cache.put(key, b"\x00" * meta.filter_len)
        else:
            filt = self._filters[meta.file_id]
        return filt, pages

    def _fences_for(self, meta: SortedFileMeta) -> tuple[list[bytes], int]:
        """Returns (fence first-keys, io_pages_charged)."""
        key = (meta.file_id, "index", 0)
        pages = 0
        if self.cache.get(key) is None:
            pages = self._pages_of(meta.index_len)
            self.metrics.add_io_pages(pages)
            cached = self._fences.get(meta.file_id)
            if cached is None:
                raw = self.reader(meta.file_id).read_index_block()
                fences = fence_keys(raw)
                self._fences[meta.file_id] = (fences, meta.index_len)
                self.cache.put(key, raw)
            else:
                self.cache.put(key, b"\x00" * meta.index_len)
        fences = self._fences[meta.file_id][0]
        return fences, pages

    def _data_page(self, meta: SortedFileMeta, page_no: int) -> tuple[bytes, int]:
        key = (meta.file_id, "data", page_no)
        page = self.cache.get(key)
        if page is not None:
            return page, 0
        page = self.reader(meta.file_id).read_data_page(page_no)
        self.metrics.add_io_pages(1)
        self.cache.put(key, page)
        return page, 1

    # -- point lookups ------------------------------------------------------

    def _page_entry_count(self, meta: SortedFileMeta, page_no: int) -> int:
        per_page = self.cfg.entries_per_page
        if page_no < meta.data_pages - 1:
            return per_page
        return meta.entry_count - (meta.data_pages - 1) * per_page

    def _file_probe(
        self, meta: SortedFileMeta, key: bytes, hashes: tuple[int, int], result: LookupResult
    ) -> Entry | None:
        if key < meta.min_key or key > meta.max_key:
            return None
        filt, filter_pages = self._filter_for(meta)
        result.filter_probes += 1
        if filter_pages:
            result.filter_blocks_read += 1
        if not filt.might_contain(key, hashes):
            return None
        fences, index_pages = self._fences_for(meta)
        if index_pages:
            result.index_blocks_read += 1
        page_no = bisect_right(fences, key) - 1
        if page_no < 0:
            return None
        page, _ = self._data_page(meta, page_no)
        result.data_pages_read += 1
        meta.last_access_tick = self.tick
        return scan_page_for_key(
            page, key, self.cfg.entry_bytes, self._page_entry_count(meta, page_no)
        )

    def file_get(self, file_id: int, key: bytes) -> tuple[Entry | None, int]:
        """Probe one live file; returns (entry or None, io pages charged)."""
        meta = self.manifest.files.get(file_id)
        if meta is None:
            raise InvariantViolation(f"file_get on dead file {file_id}")
        before = self.metrics.io_pages
        entry = self._file_probe(meta, key, _hash_pair(key), LookupResult(None))
        return entry, self.metrics.io_pages - before

    def point_lookup(self, key: bytes) -> LookupResult:
        if not key:
            raise InvalidArgument("key must be non-empty")
        self._advance_tick()
        pages_before = self.metrics.io_pages
        wall = time.perf_counter() if self._wall_clock else 0.0
        result = LookupResult(None)

        buffered = self.buffer.get(key)
        if buffered is not None:
            _seq, kind, value = buffered
            if kind == PUT:
                result.value = value
            self._finish_lookup(result, pages_before, wall)
            return result

        hashes = _hash_pair(key)
        for min_keys, metas in self.manifest.lookup_runs():
            idx = bisect_right(min_keys, key) - 1
            if idx < 0:
                continue
            entry = self._file_probe(metas[idx], key, hashes, result)
            if entry is not None:
                if entry[2] == PUT:
                    result.value = entry[3]
                break
        self._finish_lookup(result, pages_before, wall)
        return result

    def _finish_lookup(self, result: LookupResult, pages_before: int, wall: float) -> None:
        pages = self.metrics.io_pages - pages_before
        self.metrics.record_point_lookup(pages, result.found)
        self._record_latency("point", pages_before, wall)

    def get(self, key: bytes) -> bytes | None:
        return self.point_lookup(key).value

    def _record_latency(self, hist: str, pages_before: int, wall_start: float) -> None:
        if self._wall_clock:
            self.metrics.add_latency(hist, (time.perf_counter() - wall_start) * 1e6)
        else:
            self.metrics.add_latency(hist, self.metrics.io_pages - pages_before)

    # -- range scans --------------------------------------------------------

    def _run_iter(
        self, min_keys: list[bytes], metas: list[SortedFileMeta], low: bytes, high: bytes
    ):
        """Entries of one sorted run within [low, high), charging page I/O."""
        slot = self.cfg.entry_bytes
        start_idx = bisect_right(min_keys, low) - 1
        for meta in metas[max(start_idx, 0) :]:
            if meta.min_key >= high:
                return
            if meta.max_key < low:
                continue
            fences, _ = self._fences_for(meta)
            first_page = max(bisect_right(fences, low) - 1, 0)
            for page_no in range(first_page, meta.data_pages):
                page, _ = self._data_page(meta, page_no)
                count = self._page_entry_count(meta, page_no)
                done = False
                for i in range(count):
                    entry = decode_entry(page, i * slot)
                    if entry[0] < low:
                        continue
                    if entry[0] >= high:
                        done = True
                        break
                    yield entry
                if done:
                    return

    def range_scan(self, low: bytes, high: bytes) -> list[tuple[bytes, bytes]]:
        """Live entries with low <= key < high, ascending, newest version."""
        if low > high:
            raise InvalidArgument("range scan needs low <= high")
        self._advance_tick()
        pages_before = self.metrics.io_pages
        wall = time.perf_counter() if self._wall_clock else 0.0

        buffered = (
            (key, seq, kind, value)
            for key, (seq, kind, value) in sorted(self.buffer.items())
            if low <= key < high
        )
        iters = [buffered]
        for min_keys, metas in self.manifest.lookup_runs():
            iters.append(self._run_iter(min_keys, metas, low, high))
        merged = heapq.merge(*iters, key=lambda e: (e[0], -e[1]))

        out: list[tuple[bytes, bytes]] = []
        prev_key: bytes | None = None
        for key, _seq, kind, value in merged:
            if key == prev_key:
                continue
            prev_key = key
            if kind == PUT:
                out.append((key, value))
        self._record_latency("range", pages_before, wall)
        return out

    # -- census -------------------------------------------------------------

    def tombstones_remaining(self) -> int:
        disk = sum(m.tombstone_count for m in self.manifest.files.values())
        buffered = sum(1 for _s, kind, _v in self.buffer.values() if kind == TOMBSTONE)
        return disk + buffered

    def max_tombstone_age_ticks(self) -> int:
        ticks = [
            m.oldest_tombstone_tick
            for m in self.manifest.files.values()
            if m.oldest_tombstone_tick is not None
        ]
        if self._buffer_oldest_ts_tick is not None:
            ticks.append(self._buffer_oldest_ts_tick)
        return self.tick - min(ticks) if ticks else 0

    def measure_space_amp(self) -> float:
        """Exact space amplification: obsolete bytes over live bytes on disk."""
        # one file's slot matrix at a time, newest run first; only its sort
        # columns (and seqnums, to check the run order) are kept
        columns, seqnums = [], []
        for fid in [fid for level in self.manifest.snapshot() for run in level for fid in run]:
            slots = load_slot_matrix(self.reader(fid), self.cfg)
            columns.append(key_columns(slots))
            if self.debug_checks:
                seqnums.append(slot_seqnums(slots))
        if not columns:
            return 0.0
        order, newest, kinds = sort_versions(columns)
        if self.debug_checks:
            check_newest_first(np.concatenate(seqnums)[order], newest)
        live = int((newest & (kinds == PUT)).sum())
        return (len(newest) - live) / max(live, 1)

    def report(self):
        return self.metrics.report(
            space_amp=self.measure_space_amp(),
            tombstones_remaining=self.tombstones_remaining(),
            max_tombstone_age_ticks=self.max_tombstone_age_ticks(),
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
        )

"""The storage engine: write buffer, flushes, lookups, and scans.

Single-writer, synchronous design: flushes and compactions run inline on
the write path. Logical time advances by one tick per external operation
so every age-based policy is deterministic.
"""

from __future__ import annotations

import heapq
import math
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import compaction
from .cache import BlockCache
from .compaction import CompactionStrategy, get_strategy
from .config import ENTRY_HEADER_BYTES, TreeConfig
from .errors import InvalidArgument, InvariantViolation, StorageIOError
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
    encode_columns,
    key_columns,
    load_slot_matrix,
    page_lower_bound,
    scan_page_for_key,
    slot_seqnums,
    sort_versions,
    write_file_from_slots,
)

_FILE_NAME = re.compile(r"[0-9]{8}\.sst")  # a sorted file's name: its id, 8 digits


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
        # unlink what no live file names: spares of an engine that was not
        # closed, and outputs of a job cut off before its manifest edit
        live = {os.path.basename(m.path) for m in self.manifest.files.values()}
        for name in os.listdir(directory):
            if _FILE_NAME.fullmatch(name) and name not in live:
                os.remove(os.path.join(directory, name))
        self.cache = BlockCache(self.cfg.block_cache_bytes)
        self.metrics = MetricsCollector(entry_bytes=self.cfg.entry_bytes)
        # the put path calls these builtins, not collector methods
        self._note_key = self.metrics.unique_keys.add
        self._note_write_pages = self.metrics.histograms["write"].values.append
        self._entries_per_buffer = self.cfg.entries_per_buffer
        self._entry_room = self.cfg.entry_bytes - ENTRY_HEADER_BYTES
        # buffer: key -> (seqnum, kind, value); newest version wins on insert
        self.buffer: dict[bytes, tuple[int, int, bytes]] = {}
        self._buffer_oldest_ts_tick: int | None = None
        self.rr_cursors = self.manifest.rr_cursors  # picks set them, edits log them
        self._readers: dict[int, SstReader] = {}
        # paths of retired files, most recent last: each becomes the storage
        # of a later file by a rename and an overwrite, not an unlink and a
        # create
        self._spares: list[str] = []

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush buffered writes, then release readers, spares and the
        manifest log; they are released even when the flush raises."""
        try:
            if self.buffer:
                self.flush_buffer()
        finally:
            self._release_spares(0)
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
        rows; the columns they are written from are computed once. Each new
        file's reader starts with the Bloom filter and the fence keys the
        job built, so no lookup or scan reads either back. A failed write
        keeps the job's files on disk as spares and registers no reader."""
        if not len(slots):
            return []
        job = JobColumns(slots, self.cfg, self.cfg.entries_per_file)
        metas = []
        try:
            for part in range(job.files):
                file_id = self.manifest.next_file_id
                self.manifest.next_file_id += 1
                path = os.path.join(self.directory, f"{file_id:08d}.sst")
                if self._spares:
                    spare = self._spares[-1]
                    try:
                        os.rename(spare, path)
                    except OSError as exc:
                        raise StorageIOError(f"recycling {spare} as {path}: {exc}") from exc
                    self._spares.pop()
                meta = write_file_from_slots(
                    path, job, part, file_id, level, self.tick, oldest_ts_tick
                )
                metas.append(meta)
        except BaseException:
            self._spares += [m.path for m in metas]
            if os.path.exists(path):
                self._spares.append(path)
            raise
        pages = self.cfg.pages_per_file
        for part, (meta, filt) in enumerate(zip(metas, job.filters)):
            fences = job.fence_keys[part * pages : part * pages + meta.data_pages]
            self._readers[meta.file_id] = SstReader(
                meta, self.cfg, _filter=filt, _fence_keys=fences
            )
        return metas

    def forget_files(self, file_ids: list[int]) -> None:
        """Drop caches and readers for files removed from the manifest and
        keep the files as spares, at most one per live file."""
        for fid in file_ids:
            reader = self._readers.pop(fid, None)
            if reader is not None:
                reader.close()
            self.cache.drop_file(fid)
            self._spares.append(os.path.join(self.directory, f"{fid:08d}.sst"))
        self._release_spares(len(self.manifest.files))

    def _release_spares(self, keep: int) -> None:
        """Unlink spares, oldest first, until at most ``keep`` remain."""
        while len(self._spares) > keep:
            try:
                os.remove(self._spares.pop(0))
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
            self._note_key(key)
        elif self._buffer_oldest_ts_tick is None:
            self._buffer_oldest_ts_tick = manifest.logical_tick
        if len(self.buffer) < self._entries_per_buffer:
            self._note_write_pages(0)  # a buffered write does no I/O
        else:
            pages_before = self.metrics.io_pages
            self.flush_buffer()
            self._note_write_pages(self.metrics.io_pages - pages_before)
        return seqnum

    def delete(self, key: bytes) -> int:
        return self.put(key, b"", TOMBSTONE)

    def flush_buffer(self) -> list[int]:
        if not self.buffer:
            raise InvalidArgument("flush of an empty buffer")
        keys = sorted(self.buffer)
        seqnums, kinds, values = zip(*map(self.buffer.__getitem__, keys))
        slots = encode_columns(keys, seqnums, kinds, values, self.cfg.entry_bytes)
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
        """Flush any buffered writes, drain all compaction triggers and
        unlink the spares, so the directory holds only live files."""
        if self.buffer:
            self.flush_buffer()
        jobs = compaction.run_until_quiescent(self)
        self._release_spares(0)
        return jobs

    # -- block access with I/O accounting -----------------------------------

    def _pages_of(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.cfg.page_bytes))

    def _fences_for(self, meta: SortedFileMeta) -> tuple[list[bytes], int]:
        """Returns (fence first-keys, io_pages_charged)."""
        key = (meta.file_id, "index", 0)
        fences = self.cache.get(key)
        if fences is not None:
            return fences, 0
        fences = self.reader(meta.file_id).fence_keys
        self.cache.put(key, fences, meta.index_len)
        pages = self._pages_of(meta.index_len)
        self.metrics.add_io_pages(pages)
        return fences, pages

    def _data_page(self, meta: SortedFileMeta, page_no: int) -> bytes:
        key = (meta.file_id, "data", page_no)
        page = self.cache.get(key)
        if page is None:
            page = self.reader(meta.file_id).read_data_page(page_no)
            self.metrics.add_io_pages(1)
            self.cache.put(key, page, len(page))
        return page

    # -- point lookups ------------------------------------------------------

    def _page_entry_count(self, meta: SortedFileMeta, page_no: int) -> int:
        per_page = self.cfg.entries_per_page
        if page_no < meta.data_pages - 1:
            return per_page
        return meta.entry_count - (meta.data_pages - 1) * per_page

    def _probe_page(self, meta: SortedFileMeta, key: bytes, result: LookupResult) -> Entry | None:
        """The index and data page of a file whose filter passed ``key``,
        with ``meta.min_key <= key``."""
        fences, index_pages = self._fences_for(meta)
        if index_pages:
            result.index_blocks_read += 1
        page_no = bisect_right(fences, key) - 1
        page = self._data_page(meta, page_no)
        result.data_pages_read += 1
        meta.last_access_tick = self.tick
        return scan_page_for_key(
            page, key, self.cfg.entry_bytes, self._page_entry_count(meta, page_no)
        )

    def point_lookup(self, key: bytes) -> LookupResult:
        if not key:
            raise InvalidArgument("key must be non-empty")
        self._advance_tick()
        pages_before = self.metrics.io_pages
        result = LookupResult(None)

        buffered = self.buffer.get(key)
        if buffered is not None:
            _seq, kind, value = buffered
            if kind == PUT:
                result.value = value
            self._finish_lookup(result, pages_before)
            return result

        # per run: one bisect, one max_key compare, one filter cache touch
        # and one filter test; the first filter tested fills the key's one
        # probe sequence, which every later filter reuses
        probes: list[int] = []
        cache_get = self.cache.get
        for min_keys, metas in self.manifest.lookup_runs():
            idx = bisect_right(min_keys, key) - 1
            if idx < 0:
                continue
            meta = metas[idx]
            if key > meta.max_key:
                continue
            result.filter_probes += 1
            filt = cache_get((meta.file_id, "filter", 0))
            if filt is None:
                # cache the reader's filter (parsed on its first use), then
                # charge its pages, so a failed read charges nothing
                filt = self.reader(meta.file_id).bloom_filter
                self.cache.put((meta.file_id, "filter", 0), filt, meta.filter_len)
                self.metrics.add_io_pages(self._pages_of(meta.filter_len))
                result.filter_blocks_read += 1
            if not filt.might_contain(key, probes):
                continue
            entry = self._probe_page(meta, key, result)
            if entry is not None:
                if entry[2] == PUT:
                    result.value = entry[3]
                break
        self._finish_lookup(result, pages_before)
        return result

    def _finish_lookup(self, result: LookupResult, pages_before: int) -> None:
        pages = self.metrics.io_pages - pages_before
        self.metrics.record_point_lookup(pages, result.found)
        self.metrics.add_latency("point", pages)

    def get(self, key: bytes) -> bytes | None:
        return self.point_lookup(key).value

    # -- range scans --------------------------------------------------------

    def _run_pages(
        self, min_keys: list[bytes], metas: list[SortedFileMeta], low: bytes, high: bytes
    ):
        """One list per data page of a run: the page's entries within
        [low, high), charging page I/O. The next page, or the next file's
        fences and first page, is read only when the generator is resumed; a
        page holding none of the range yields nothing."""
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
                page = self._data_page(meta, page_no)
                count = self._page_entry_count(meta, page_no)
                # only the first page can hold keys below low
                first = page_lower_bound(page, low, slot, count) if page_no == first_page else 0
                end = page_lower_bound(page, high, slot, count)
                if first < end:
                    yield [decode_entry(page, i * slot) for i in range(first, end)]
                if end < count:
                    return

    def range_scan(self, low: bytes, high: bytes) -> list[tuple[bytes, bytes]]:
        """Live entries with low <= key < high, ascending, newest version.

        Runs are read a page at a time, and the block cache is touched in
        the order an entry-by-entry merge keyed on ``(key, -seqnum)`` would
        touch it: a run's next page is read when its current page's last
        row would be that merge's smallest. Rows are gathered newest source
        first (the buffer, then the runs in probe order), so one stable sort
        by key leaves each key's newest version first."""
        if low > high:
            raise InvalidArgument("range scan needs low <= high")
        self._advance_tick()
        pages_before = self.metrics.io_pages

        rows = [(key, *version) for key, version in self.buffer.items() if low <= key < high]
        # one entry per unfinished run: (last row's key, -seqnum), probe
        # order, and the run's page generator
        run_rows: list[list] = []
        heap = []
        for min_keys, metas in self.manifest.lookup_runs():
            pages = self._run_pages(min_keys, metas, low, high)
            page = next(pages, None)
            if page is not None:
                last = page[-1]
                heap.append((last[0], -last[1], len(run_rows), pages))
                run_rows.append(page)
        heapq.heapify(heap)
        while heap:
            _key, _seq, order, pages = heap[0]
            page = next(pages, None)
            if page is None:
                heapq.heappop(heap)
            else:
                last = page[-1]
                heapq.heapreplace(heap, (last[0], -last[1], order, pages))
                run_rows[order] += page
        for got in run_rows:
            rows += got
        rows.sort(key=itemgetter(0))

        out: list[tuple[bytes, bytes]] = []
        prev_key: bytes | None = None
        for key, _seq, kind, value in rows:
            if key == prev_key:
                continue
            prev_key = key
            if kind == PUT:
                out.append((key, value))
        self.metrics.add_latency("range", self.metrics.io_pages - pages_before)
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

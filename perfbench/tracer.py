"""Span tracer that wraps lsmclab's public functions from outside.

The engine is single-threaded, so a stack gives every span its parent. A
span's self time is its duration minus the time its child spans cover.
Every wrapped call is aggregated per (name, parent name); calls of the
names in ``HOT`` are only aggregated, the rest are also kept one by one
and written out when the trace ends.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

import numpy as np

from lsmclab import compaction, sstable, workload
from lsmclab.bloom import BloomFilter
from lsmclab.cache import BlockCache
from lsmclab.engine import LsmEngine
from lsmclab.manifest import Manifest
from lsmclab.metrics import MetricsCollector
from lsmclab.sstable import FOOTER_BYTES, SstReader

# (span name, owner, attribute). A module-level function is replaced in
# every lsmclab module that binds it, because callers look it up there
# (the engine calls its own imported ``write_file``, not sstable's).
TARGETS = (
    ("workload.generate", workload, "generate"),
    ("engine.write", LsmEngine, "put"),
    ("engine.flush", LsmEngine, "flush_buffer"),
    ("engine.quiesce", LsmEngine, "quiesce"),
    ("engine.forget", LsmEngine, "forget_files"),
    ("engine.lookup", LsmEngine, "point_lookup"),
    ("engine.scan", LsmEngine, "range_scan"),
    ("engine.census", LsmEngine, "measure_space_amp"),
    ("engine.report", LsmEngine, "report"),
    ("compaction.drain", compaction, "run_until_quiescent"),
    ("compaction.trigger", compaction, "evaluate_triggers"),
    ("compaction.select", compaction, "select_compaction"),
    ("compaction.execute", compaction, "execute_compaction"),
    ("sstable.write_entries", sstable, "write_file"),
    ("sstable.write_slots", sstable, "write_file_from_slots"),
    ("sstable.load", sstable, "load_slot_matrix"),
    ("sstable.read_page", SstReader, "read_data_page"),
    ("sstable.read_meta", SstReader, "read_index_block"),
    ("sstable.read_meta", SstReader, "read_filter_block"),
    ("sstable.iter_entries", SstReader, "iter_entries"),
    ("sstable.scan_page", sstable, "scan_page_for_key"),
    ("bloom.build", BloomFilter, "from_keys"),
    ("bloom.build", BloomFilter, "from_key_words"),
    ("bloom.probe", BloomFilter, "might_contain"),
    ("cache.get", BlockCache, "get"),
    ("cache.drop_file", BlockCache, "drop_file"),
    ("manifest.apply", Manifest, "apply"),
    ("manifest.snapshot", Manifest, "snapshot"),
    ("metrics.report", MetricsCollector, "report"),
)

# Leaf calls made many times per lookup or per page; aggregated only.
HOT = frozenset(
    {
        "bloom.probe",
        "cache.get",
        "manifest.snapshot",
        "sstable.read_meta",
        "sstable.read_page",
        "sstable.scan_page",
        "sstable.iter_entries",  # one span per resumption of the generator
    }
)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self._span_name: list[str] = []
        self._span_parent: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span_id = -1
        if name not in HOT:
            span_id = len(self._span_name)
            self._span_name.append(name)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_start.append(0.0)
            self._span_end.append(0.0)
        frame = [name, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        parent = ""
        if stack:
            top = stack[-1]
            top[2] += dur
            parent = top[0]
        row = self.agg.get((name, parent))
        if row is None:
            row = self.agg[(name, parent)] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if span_id >= 0:
            self._span_start[span_id] = start
            self._span_end[span_id] = end

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _RESULT_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "lsmclab"]
        for name, owner, attr in TARGETS:
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)
                continue
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(name, static.__func__))
            else:
                wrapped = self._wrap(name, static)
            self._replace(owner, attr, wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self, name: str, parent: str | None = None) -> tuple[int, float, float]:
        """(calls, inclusive s, self s) of a span name, optionally per parent."""
        calls, incl, own = 0, 0.0, 0.0
        for (n, p), (c, t, s) in self.agg.items():
            if n == name and (parent is None or p == parent):
                calls += c
                incl += t
                own += s
        return calls, incl, own

    def save_spans(self, path: str) -> None:
        names = sorted(set(self._span_name))
        index = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in self._span_name], dtype=np.int16),
            parent=np.array(self._span_parent, dtype=np.int64),
            start=np.array(self._span_start),
            end=np.array(self._span_end),
        )


def _on_trigger(tracer: Tracer, fired) -> None:
    if fired:
        tracer.count("compaction.trigger.fired")


def _on_probe(tracer: Tracer, maybe: bool) -> None:
    if not maybe:
        tracer.count("bloom.probe.negative")


def _on_file(tracer: Tracer, meta) -> None:
    tracer.count("sstable.files_written")
    tracer.count("sstable.bytes_written", meta.filter_off + meta.filter_len + FOOTER_BYTES)


_RESULT_HOOKS = {
    "compaction.trigger": _on_trigger,
    "bloom.probe": _on_probe,
    "sstable.write_entries": _on_file,
    "sstable.write_slots": _on_file,
}

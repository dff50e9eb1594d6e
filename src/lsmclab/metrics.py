"""Event-driven measurement of amplification, latency, and delete metrics.

Latency is measured in page-I/O units (pages touched per operation) so
results are deterministic and CI-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HIST_NAMES = ("compaction", "write", "point", "range")


def _nearest_rank(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


class Histogram:
    """Stores raw samples; percentiles use the nearest-rank method."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.values)
        # the mean sums in sorted order, which fixes report.json's last digits
        summary = {"mean": sum(ordered) / len(ordered) if ordered else 0.0}
        for pct in (50, 90, 99, 100):
            summary[f"p{pct}"] = _nearest_rank(ordered, pct)
        return summary


@dataclass
class MetricsReport:
    compaction_count: int
    pseudo_compaction_count: int
    bytes_compaction_read: int
    bytes_compaction_written: int
    bytes_flushed: int
    write_amp: float
    read_amp: float
    space_amp: float
    tombstones_remaining: int
    max_tombstone_age_ticks: int
    unique_keys_ingested: int
    point_lookups: int
    point_lookups_found: int
    histograms: dict[str, dict[str, float]]
    cache_hits: dict[str, int]
    cache_misses: dict[str, int]

    def flat_items(self) -> list[tuple[str, object]]:
        items: list[tuple[str, object]] = [
            ("compaction_count", self.compaction_count),
            ("pseudo_compaction_count", self.pseudo_compaction_count),
            ("bytes_compaction_read", self.bytes_compaction_read),
            ("bytes_compaction_written", self.bytes_compaction_written),
            ("bytes_flushed", self.bytes_flushed),
            ("write_amp", round(self.write_amp, 6)),
            ("read_amp", round(self.read_amp, 6)),
            ("space_amp", round(self.space_amp, 6)),
            ("tombstones_remaining", self.tombstones_remaining),
            ("max_tombstone_age_ticks", self.max_tombstone_age_ticks),
            ("unique_keys_ingested", self.unique_keys_ingested),
            ("point_lookups", self.point_lookups),
            ("point_lookups_found", self.point_lookups_found),
        ]
        for hist in HIST_NAMES:
            summary = self.histograms[hist]
            for stat in ("mean", "p50", "p90", "p99", "p100"):
                items.append((f"{hist}_{stat}", round(summary[stat], 6)))
        for kind in ("data", "index", "filter"):
            items.append((f"cache_hits_{kind}", self.cache_hits.get(kind, 0)))
            items.append((f"cache_misses_{kind}", self.cache_misses.get(kind, 0)))
        return items

    def to_dict(self) -> dict:
        return dict(self.flat_items())


@dataclass
class MetricsCollector:
    """Single-consumer sink for engine events."""

    entry_bytes: int

    compaction_count: int = 0
    pseudo_compaction_count: int = 0
    bytes_compaction_read: int = 0
    bytes_compaction_written: int = 0
    bytes_flushed: int = 0
    io_pages: int = 0

    point_lookup_pages: int = 0
    point_lookups: int = 0
    point_lookups_found: int = 0

    unique_keys: set = field(default_factory=set)

    histograms: dict[str, Histogram] = field(
        default_factory=lambda: {name: Histogram() for name in HIST_NAMES}
    )

    # -- events -----------------------------------------------------------

    def note_put(self, key: bytes) -> None:
        self.unique_keys.add(key)

    def add_io_pages(self, pages: int) -> None:
        self.io_pages += pages

    def record_flush(self, bytes_written: int) -> None:
        self.bytes_flushed += bytes_written

    def record_compaction(
        self, bytes_read: int, bytes_written: int, pages: int, pseudo: bool
    ) -> None:
        self.compaction_count += 1
        if pseudo:
            self.pseudo_compaction_count += 1
        self.bytes_compaction_read += bytes_read
        self.bytes_compaction_written += bytes_written
        self.histograms["compaction"].add(pages)

    def record_point_lookup(self, pages: int, found: bool) -> None:
        self.point_lookups += 1
        self.point_lookup_pages += pages
        if found:
            self.point_lookups_found += 1

    def add_latency(self, hist: str, value: float) -> None:
        self.histograms[hist].add(value)

    # -- reporting --------------------------------------------------------

    def write_amp(self) -> float:
        denom = len(self.unique_keys) * self.entry_bytes
        return self.bytes_compaction_written / denom if denom else 0.0

    def read_amp(self) -> float:
        ideal = self.point_lookups_found  # one page per non-empty lookup
        return self.point_lookup_pages / max(ideal, 1)

    def report(
        self,
        space_amp: float,
        tombstones_remaining: int,
        max_tombstone_age_ticks: int,
        cache_hits: dict[str, int] | None = None,
        cache_misses: dict[str, int] | None = None,
    ) -> MetricsReport:
        return MetricsReport(
            compaction_count=self.compaction_count,
            pseudo_compaction_count=self.pseudo_compaction_count,
            bytes_compaction_read=self.bytes_compaction_read,
            bytes_compaction_written=self.bytes_compaction_written,
            bytes_flushed=self.bytes_flushed,
            write_amp=self.write_amp(),
            read_amp=self.read_amp(),
            space_amp=space_amp,
            tombstones_remaining=tombstones_remaining,
            max_tombstone_age_ticks=max_tombstone_age_ticks,
            unique_keys_ingested=len(self.unique_keys),
            point_lookups=self.point_lookups,
            point_lookups_found=self.point_lookups_found,
            histograms={name: h.summary() for name, h in self.histograms.items()},
            cache_hits=dict(cache_hits or {}),
            cache_misses=dict(cache_misses or {}),
        )

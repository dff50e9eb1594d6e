"""The benchmark's workloads: one op stream, one engine geometry, one preset.

All workloads use 128-byte entries, 2 KiB pages, size ratio 10 and the
engine's default durability (no fsync). Each is chosen to load a different
set of layers, so an optimisation of one layer shows on one workload and
is predicted to change nothing on another. BENCHMARK.json says why each
workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from lsmclab.config import TreeConfig
from lsmclab.workload import INTERLEAVED, Distribution, WorkloadSpec

ZIPF = Distribution("zipf", s=1.0)

# A write-dominated stream also carries a few lookups and scans, so every
# workload reports lookup and scan latency. They are spread through the
# writes (as ``lsmclab run`` phases them) rather than left as a tail,
# because a short burst of timings samples the machine's speed only once.
READS = dict(point_lookups=4000, alpha=0.5, range_lookups=40, selectivity=0.0005)


def _geometry(buffer_bytes: int, block_cache_bytes: int, file_bytes=None) -> TreeConfig:
    return TreeConfig(
        size_ratio=10,
        buffer_bytes=buffer_bytes,
        page_bytes=2048,
        entry_bytes=128,
        block_cache_bytes=block_cache_bytes,
        file_bytes=file_bytes,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    cfg: TreeConfig
    stream: dict  # WorkloadSpec fields set per workload

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            seed=seed,
            entry_bytes=self.cfg.entry_bytes,
            interleaving=INTERLEAVED,
            buffer_entries=self.cfg.entries_per_buffer,
            size_ratio=self.cfg.size_ratio,
            **self.stream,
        )


_SMALL_COLD = _geometry(32 * 1024, 0)  # 256-entry buffer, no block cache
# Whole-level merges do not depend on how a level is cut into files, but
# 32 KiB files make the kernel's per-file create and unlink cost most of
# the run and its noisiest part; 256 KiB files keep the merge in front.
_FULL = _geometry(32 * 1024, 0, file_bytes=256 * 1024)
_READ = _geometry(64 * 1024, 8 * 1024 * 1024)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest-full",
            preset="full",
            cfg=_FULL,
            stream=dict(inserts=60_000, **READS),
        ),
        Workload(
            name="churn-lo1",
            preset="lo1",
            cfg=_SMALL_COLD,
            stream=dict(
                inserts=30_000,
                update_ratio=4.0,
                delete_fraction=0.1,
                lookup_dist=ZIPF,
                **READS,
            ),
        ),
        Workload(
            name="read-tier",
            preset="tier",
            cfg=_READ,
            stream=dict(
                inserts=100_000,
                update_ratio=0.5,
                lookup_dist=ZIPF,
                point_lookups=50_000,
                alpha=0.5,
                range_lookups=200,
                selectivity=0.0005,
            ),
        ),
    )
}

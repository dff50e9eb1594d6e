"""Closed-form analytical cost estimates per layout.

All formulas are asymptotic expressions evaluated with unit constants, so
they are estimates for cross-validation and strategy ranking, not exact
predictions. Tests compare orderings and factor-of-2 bands only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compaction import DataLayout, LayoutKind
from .errors import InvalidArgument

LEVELING = DataLayout(LayoutKind.LEVELING)
TIERING = DataLayout(LayoutKind.TIERING)


@dataclass(frozen=True)
class ModelParams:
    n_entries: int
    pages_per_buffer: int
    entries_per_page: int
    size_ratio: int
    bits_per_key: float = 10.0
    selectivity: float = 0.0
    tombstone_size_ratio: float = 0.5  # lambda: tombstone / avg entry size
    ingest_rate: float = 1.0  # unique entries per tick

    def __post_init__(self) -> None:
        if min(self.n_entries, self.pages_per_buffer, self.entries_per_page) <= 0:
            raise InvalidArgument("N, P and B must be positive")
        if self.size_ratio < 2:
            raise InvalidArgument("size ratio must be >= 2")

    @property
    def levels(self) -> int:
        return level_count(
            self.n_entries, self.pages_per_buffer, self.entries_per_page, self.size_ratio
        )


def level_count(n: int, p: int, b: int, t: int) -> int:
    """Disk levels needed for n entries: ceil(log_T(n/(P*B) * (T-1)/T))."""
    buffer_entries = p * b
    if n <= buffer_entries:
        return 1
    raw = math.log(n / buffer_entries * (t - 1) / t, t)
    return max(1, math.ceil(raw))


def _counts_per_level(layout: DataLayout, t: int, levels: int, leveled: int) -> list[int]:
    """Expected sorted runs per level for lookup-cost summation."""
    if layout.kind is LayoutKind.HYBRID or layout.kind is LayoutKind.ONE_LEVELING:
        return [
            t if layout.is_tiered(lvl, levels) else 1 for lvl in range(1, levels + 1)
        ]
    if layout.kind is LayoutKind.L_LEVELING:
        # l-leveling parameterized by the leveled-level count
        return [1 if lvl > levels - leveled else t for lvl in range(1, levels + 1)]
    if layout.kind is LayoutKind.TIERING:
        return [t] * levels
    return [1] * levels


def write_amp_estimate(layout: DataLayout, t: int, levels: int, leveled: int = 0) -> float:
    if layout.kind is LayoutKind.LEVELING:
        return float(t * levels)
    if layout.kind is LayoutKind.TIERING:
        return float(levels)
    if leveled > levels:
        raise InvalidArgument("leveled levels cannot exceed total levels")
    return float((levels - leveled) + t * leveled)


def point_lookup_cost(
    layout: DataLayout,
    t: int,
    levels: int,
    bits_per_key: float,
    existing: bool,
    leveled: int = 0,
) -> float:
    fp = math.exp(-bits_per_key)
    runs = sum(_counts_per_level(layout, t, levels, leveled))
    cost = runs * fp
    return cost + 1.0 if existing else cost


def range_lookup_cost(
    layout: DataLayout,
    t: int,
    levels: int,
    n: int,
    b: int,
    selectivity: float,
    short: bool,
    leveled: int = 0,
) -> float:
    if short:
        return float(sum(_counts_per_level(layout, t, levels, leveled)))
    pages = selectivity * n / b
    tiered_factor = t if layout.kind is LayoutKind.TIERING else 1
    return tiered_factor * pages


def space_amp_estimate(
    layout: DataLayout, t: int, n: int, lam: float, with_deletes: bool
) -> float:
    """Worst-case space amplification.

    Caveat: the with-deletes leveling expression N/(1-lambda) grows with N
    and structurally exceeds 1; it is reproduced verbatim as an asymptotic
    ranking device, not as a measurable ratio.
    """
    if with_deletes and not 0 < lam < 1:
        raise InvalidArgument("lambda must be in (0, 1) with deletes")
    if layout.kind is LayoutKind.TIERING:
        if with_deletes:
            return ((1 - lam) * n + 1) / (lam * t)
        return float(t)
    if with_deletes:
        return n / (1 - lam)
    return 1.0 / t


def delete_persistence_latency(
    layout: DataLayout, t: int, levels: int, p: int, b: int, ingest_rate: float
) -> float:
    if ingest_rate <= 0:
        raise InvalidArgument("ingest rate must be positive")
    exponent = levels if layout.kind is LayoutKind.TIERING else levels - 1
    return (t**exponent) * p * b / ingest_rate


def model_table(params: ModelParams) -> list[tuple[str, float, float]]:
    """(metric, leveling value, tiering value) rows for the CLI."""
    t = params.size_ratio
    levels = params.levels
    n = params.n_entries
    b = params.entries_per_page
    p = params.pages_per_buffer
    rows = [
        ("disk_levels", float(levels), float(levels)),
        (
            "write_amp",
            write_amp_estimate(LEVELING, t, levels),
            write_amp_estimate(TIERING, t, levels),
        ),
        (
            "point_lookup_empty",
            point_lookup_cost(LEVELING, t, levels, params.bits_per_key, False),
            point_lookup_cost(TIERING, t, levels, params.bits_per_key, False),
        ),
        (
            "point_lookup_existing",
            point_lookup_cost(LEVELING, t, levels, params.bits_per_key, True),
            point_lookup_cost(TIERING, t, levels, params.bits_per_key, True),
        ),
        (
            "short_range_cost",
            range_lookup_cost(LEVELING, t, levels, n, b, params.selectivity, True),
            range_lookup_cost(TIERING, t, levels, n, b, params.selectivity, True),
        ),
        (
            "long_range_cost",
            range_lookup_cost(LEVELING, t, levels, n, b, params.selectivity, False),
            range_lookup_cost(TIERING, t, levels, n, b, params.selectivity, False),
        ),
        (
            "space_amp",
            space_amp_estimate(LEVELING, t, n, params.tombstone_size_ratio, False),
            space_amp_estimate(TIERING, t, n, params.tombstone_size_ratio, False),
        ),
        (
            "delete_persistence_ticks",
            delete_persistence_latency(LEVELING, t, levels, p, b, params.ingest_rate),
            delete_persistence_latency(TIERING, t, levels, p, b, params.ingest_rate),
        ),
    ]
    return rows

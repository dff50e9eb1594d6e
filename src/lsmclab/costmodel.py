"""Closed-form analytical cost estimates per layout, read level by level:
a leveled level holds one sorted run, a tiered one T.

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


def _tiered(layout: DataLayout, levels: int, leveled: int) -> list[bool]:
    """Whether each disk level, level 1 first, is tiered; l-leveling levels
    its deepest ``leveled`` levels."""
    if leveled > levels:
        raise InvalidArgument("leveled levels cannot exceed total levels")
    if layout.kind is LayoutKind.L_LEVELING:
        return [lvl <= levels - leveled for lvl in range(1, levels + 1)]
    return [layout.is_tiered(lvl, levels) for lvl in range(1, levels + 1)]


def _runs(layout: DataLayout, t: int, levels: int, leveled: int) -> int:
    """Expected sorted runs a lookup probes: T per tiered level, 1 per leveled one."""
    return sum(t if tiered else 1 for tiered in _tiered(layout, levels, leveled))


def write_amp_estimate(layout: DataLayout, t: int, levels: int, leveled: int = 0) -> float:
    """T per leveled level and 1 per tiered one: T*L for leveling, L for
    tiering, (L - l) + T*l for l leveled levels."""
    return float(sum(1 if tiered else t for tiered in _tiered(layout, levels, leveled)))


def point_lookup_cost(
    layout: DataLayout,
    t: int,
    levels: int,
    bits_per_key: float,
    existing: bool,
    leveled: int = 0,
) -> float:
    fp = math.exp(-bits_per_key)
    runs = _runs(layout, t, levels, leveled)
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
        return float(_runs(layout, t, levels, leveled))
    pages = selectivity * n / b
    return (t if layout.is_tiered(levels, levels) else 1) * pages


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
    # the deepest level of a tree deeper than the flags: the last flag, or
    # l-leveling's leveled deepest level
    deepest = len(layout.flags) + 1
    if layout.is_tiered(deepest, deepest):
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
    exponent = levels if layout.is_tiered(levels, levels) else levels - 1
    return (t**exponent) * p * b / ingest_rate


def model_table(params: ModelParams) -> list[tuple[str, float, float]]:
    """(metric, leveling value, tiering value) rows for the CLI."""
    t = params.size_ratio
    levels = params.levels
    n = params.n_entries
    b = params.entries_per_page
    p = params.pages_per_buffer
    bits = params.bits_per_key
    sel = params.selectivity
    costs = {
        "disk_levels": lambda layout: float(levels),
        "write_amp": lambda layout: write_amp_estimate(layout, t, levels),
        "point_lookup_empty": lambda layout: point_lookup_cost(layout, t, levels, bits, False),
        "point_lookup_existing": lambda layout: point_lookup_cost(layout, t, levels, bits, True),
        "short_range_cost": lambda layout: range_lookup_cost(layout, t, levels, n, b, sel, True),
        "long_range_cost": lambda layout: range_lookup_cost(layout, t, levels, n, b, sel, False),
        "space_amp": lambda layout: space_amp_estimate(
            layout, t, n, params.tombstone_size_ratio, False
        ),
        "delete_persistence_ticks": lambda layout: delete_persistence_latency(
            layout, t, levels, p, b, params.ingest_rate
        ),
    }
    return [(name, cost(LEVELING), cost(TIERING)) for name, cost in costs.items()]

"""Compaction strategies as an ensemble of four primitives, planned then executed.

A strategy combines a trigger set (when to compact), a data layout (how
runs are arranged per level), a granularity (how much one job moves) and a
data-movement policy chain (which files to move). An ensemble is named
``triggers/layout/granularity/chain``; the ten presets name common designs.

The planner only reads a ``TreeView``: ``evaluate_triggers`` asks each
trigger kind's predicate (``_FIRES``) of each nonempty level, and
``select_compaction`` builds one job from a victim rule (the whole level,
or ``granularity.n`` files the movement chain picks) and a placement rule
(a new run exactly when the target level is tiered). ``execute_compaction``
writes the job's files and applies one manifest edit, cursor included.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .config import TreeConfig
from .errors import InvalidArgument, InvariantViolation
from .manifest import ADD_NEW_RUN, ADD_SPLICE, Manifest, VersionEdit
from .sstable import (
    TOMBSTONE,
    SortedFileMeta,
    check_newest_first,
    key_columns,
    load_slot_matrix,
    slot_seqnums,
    sort_versions,
)


class TriggerKind(Enum):
    LEVEL_SATURATION = "level_saturation"
    SORTED_RUN_COUNT = "sorted_run_count"
    FILE_STALENESS = "file_staleness"
    SPACE_AMP = "space_amp"
    TOMBSTONE_TTL = "tombstone_ttl"
    TOMBSTONE_DENSITY = "tombstone_density"


# Triggers that fire on individual files; their jobs pick only among those files.
_FILE_SCOPED = (
    TriggerKind.TOMBSTONE_TTL,
    TriggerKind.TOMBSTONE_DENSITY,
    TriggerKind.FILE_STALENESS,
)


_DEFAULT_VALUES = {
    TriggerKind.LEVEL_SATURATION: 1.0,
    TriggerKind.SPACE_AMP: 0.5,
    # above the typical per-file delete fraction, so only tombstone-saturated
    # files fire rather than every file
    TriggerKind.TOMBSTONE_DENSITY: 0.2,
}


@dataclass(frozen=True)
class Trigger:
    kind: TriggerKind
    # None selects the kind's default: a constant of ``_DEFAULT_VALUES``, else
    # one read at evaluation time (run count = T, tombstone TTL = the config's
    # delete persistence threshold)
    value: float | None = None

    def __post_init__(self) -> None:
        k = self.kind
        v = _DEFAULT_VALUES.get(k) if self.value is None else self.value
        object.__setattr__(self, "value", v)
        if v is None:
            if k is TriggerKind.FILE_STALENESS:
                raise InvalidArgument("file staleness needs a ttl")
            return
        if math.isnan(v):  # fails every comparison below, so would pass them
            raise InvalidArgument("trigger value is not a number")
        if k is TriggerKind.LEVEL_SATURATION and not 0 < v <= 2:
            raise InvalidArgument("saturation threshold must be in (0, 2]")
        if k is TriggerKind.SORTED_RUN_COUNT and v < 2:
            raise InvalidArgument("run-count threshold must be >= 2")
        if k in (TriggerKind.FILE_STALENESS, TriggerKind.TOMBSTONE_TTL) and v <= 0:
            raise InvalidArgument("ttl must be positive")
        if k is TriggerKind.SPACE_AMP and v <= 0:
            raise InvalidArgument("space-amp ratio must be positive")
        if k is TriggerKind.TOMBSTONE_DENSITY and not 0 < v <= 1:
            raise InvalidArgument("tombstone density must be in (0, 1]")


class LayoutKind(Enum):
    LEVELING = "leveling"
    TIERING = "tiering"
    ONE_LEVELING = "one_leveling"
    L_LEVELING = "l_leveling"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class DataLayout:
    kind: LayoutKind
    flags: tuple[str, ...] = ()  # per-level "tiered"/"leveled" for HYBRID

    def __post_init__(self) -> None:
        if self.kind is LayoutKind.HYBRID:
            if not self.flags or any(f not in ("tiered", "leveled") for f in self.flags):
                raise InvalidArgument("hybrid layout needs per-level tiered/leveled flags")

    def is_tiered(self, level: int, last_level: int) -> bool:
        k = self.kind
        if k is LayoutKind.LEVELING:
            return False
        if k is LayoutKind.TIERING:
            return True
        if k is LayoutKind.ONE_LEVELING:
            return level == 1
        if k is LayoutKind.L_LEVELING:
            return level < max(last_level, 1)
        flags = self.flags
        flag = flags[level - 1] if level - 1 < len(flags) else flags[-1]
        return flag == "tiered"


class GranularityKind(Enum):
    LEVEL = "level"
    SORTED_RUN = "sorted_run"
    FILE = "file"
    FILES = "files"


@dataclass(frozen=True)
class Granularity:
    kind: GranularityKind
    n: int = 1

    def __post_init__(self) -> None:
        if self.kind is GranularityKind.FILES and self.n < 2:
            raise InvalidArgument("Files granularity needs n >= 2")
        if self.kind is not GranularityKind.FILES and self.n != 1:
            raise InvalidArgument(f"{self.kind.value} granularity moves no set number of files")


class MovementPolicy(Enum):
    # each value is the policy's word in an ensemble name
    ENTIRE_LEVEL = "full"
    ROUND_ROBIN = "rr"
    LEAST_OVERLAP_PARENT = "lo1"
    LEAST_OVERLAP_GRANDPARENT = "lo2"
    COLDEST = "cold"
    OLDEST = "old"
    MOST_TOMBSTONES = "ts"
    EXPIRED_TOMBSTONE_TTL = "ttl"


# Policies that never abstain; a movement chain must end with one of these.
_DECIDABLE = {
    MovementPolicy.ENTIRE_LEVEL,
    MovementPolicy.ROUND_ROBIN,
    MovementPolicy.LEAST_OVERLAP_PARENT,
    MovementPolicy.LEAST_OVERLAP_GRANDPARENT,
    MovementPolicy.COLDEST,
    MovementPolicy.OLDEST,
}


@dataclass(frozen=True)
class CompactionStrategy:
    name: str
    triggers: tuple[Trigger, ...]
    layout: DataLayout
    granularity: Granularity
    movement: tuple[MovementPolicy, ...]

    def __post_init__(self) -> None:
        if not self.triggers:
            raise InvalidArgument("strategy needs at least one trigger")
        if not self.movement:
            raise InvalidArgument("movement chain must be non-empty")
        if self.movement[-1] not in _DECIDABLE:
            raise InvalidArgument("movement chain must end with a decidable policy")


# Each axis of an ensemble name maps its words to what they build.
_TRIGGER_WORDS = {
    "sat": TriggerKind.LEVEL_SATURATION,
    "runs": TriggerKind.SORTED_RUN_COUNT,
    "sa": TriggerKind.SPACE_AMP,
    "dens": TriggerKind.TOMBSTONE_DENSITY,
    "ttl": TriggerKind.TOMBSTONE_TTL,
    "stale": TriggerKind.FILE_STALENESS,
}
_LAYOUT_WORDS = {k.value: k for k in LayoutKind}
_GRANULARITY_WORDS = {k.value: k for k in GranularityKind}
_POLICY_WORDS = {p.value: p for p in MovementPolicy}
_HYBRID_FLAGS = {"t": "tiered", "l": "leveled"}


def _no_arg(value, arg: str | None):
    if arg is not None:
        raise ValueError("the word takes no argument")
    return value


def _trigger(kind: TriggerKind, arg: str | None) -> Trigger:
    return Trigger(kind, None if arg is None else float(arg))


def _layout(kind: LayoutKind, arg: str | None) -> DataLayout:
    if kind is not LayoutKind.HYBRID:
        return DataLayout(_no_arg(kind, arg))
    # one flag per level, the last repeating; DataLayout rejects other letters
    return DataLayout(kind, tuple(_HYBRID_FLAGS.get(flag, flag) for flag in arg or ""))


def _granularity(kind: GranularityKind, arg: str | None) -> Granularity:
    if kind is not GranularityKind.FILES:
        return Granularity(_no_arg(kind, arg))
    return Granularity(kind, 1 if arg is None else int(arg))


def _token(token: str, axis: str, words: dict, build):
    """Build one ``word[:arg]`` token of an ensemble name; an error names
    the token and the axis's words."""
    word, colon, arg = token.partition(":")
    try:
        if word not in words:
            raise ValueError("unknown word")
        return build(words[word], arg if colon else None)
    except (ValueError, InvalidArgument) as exc:
        raise InvalidArgument(
            f"{axis} {token!r}: {exc}; {axis} words: {', '.join(words)}"
        ) from None


def parse_ensemble(name: str) -> CompactionStrategy:
    """The strategy an ensemble name ``triggers/layout/granularity/chain``
    spells, for example ``dens+sat/leveling/file/ts>lo1``: triggers joined
    by ``+``, movement policies by ``>``, each token ``word[:arg]``."""
    parts = name.split("/")
    if len(parts) != 4:
        raise InvalidArgument(
            f"strategy {name!r} is neither a preset ({', '.join(PRESETS)}) nor an "
            "ensemble <triggers>/<layout>/<granularity>/<chain>"
        )
    triggers, layout, granularity, chain = parts
    return CompactionStrategy(
        name=name,
        triggers=tuple(
            _token(t, "trigger", _TRIGGER_WORDS, _trigger) for t in triggers.split("+")
        ),
        layout=_token(layout, "layout", _LAYOUT_WORDS, _layout),
        granularity=_token(granularity, "granularity", _GRANULARITY_WORDS, _granularity),
        movement=tuple(_token(p, "policy", _POLICY_WORDS, _no_arg) for p in chain.split(">")),
    )


# The named presets and the ensembles they stand for.
PRESETS = {
    "full": "sat/leveling/level/full",
    "lo1": "sat/leveling/file/lo1",
    "lo2": "sat/leveling/file/lo2",
    "rr": "sat/leveling/file/rr",
    "cold": "sat/leveling/file/cold",
    "old": "sat/leveling/file/old",
    "tsd": "dens+sat/leveling/file/ts>lo1",
    "tsa": "ttl+sat/leveling/file/ttl>lo1",
    "tier": "runs+sa/tiering/sorted_run/full",
    "1lvl": "runs+sat/one_leveling/file/lo1",
}
PRESET_NAMES = tuple(PRESETS)


def presets() -> dict[str, CompactionStrategy]:
    """The ten named strategies, keyed by their CLI names."""
    return {name: get_strategy(name) for name in PRESETS}


def get_strategy(name: str) -> CompactionStrategy:
    """A preset by its name or an alias, else the ensemble ``name`` spells."""
    name = name.strip()
    # aliases ignore case, "+" and "-" ("LO+1", "1-lvl"); an ensemble's "+"
    # joins its triggers, so a name with "/" skips them
    key = name if "/" in name else name.lower().replace("+", "").replace("-", "")
    key = "1lvl" if key == "onelvl" else key
    if key in PRESETS:
        return replace(parse_ensemble(PRESETS[key]), name=key)
    return parse_ensemble(name)


# ---------------------------------------------------------------------------
# Plans and jobs


@dataclass(frozen=True)
class TreeView:
    """What the compaction planner reads; a reopen empties the two session inputs."""

    manifest: Manifest  # read only: the planner never edits it
    strategy: CompactionStrategy
    cfg: TreeConfig
    live_keys: set[bytes]  # the keys put this session
    access_ticks: dict[int, int]  # file id -> last lookup probe's tick, default created_tick


@dataclass
class CompactionJob:
    source_level: int
    victim_ids: list[int]
    target_level: int
    target_ids: list[int]
    pseudo: bool
    purge: bool
    add_mode: str  # manifest placement of outputs
    trigger: Trigger
    cursors: dict[int, bytes]  # level -> the round-robin cursor its pick moves


@dataclass
class CompactionResult:
    bytes_read: int
    bytes_written: int
    entries_dropped: int
    output_ids: list[int]
    pseudo: bool


# ---------------------------------------------------------------------------
# Trigger evaluation


def _ttl_deadline(level: int, d_th: float, realized_levels: int) -> float:
    """Cumulative per-level deadline for tombstone ages.

    A tombstone must leave level i before its age exceeds i slices of
    D_th / (L + 1), so it is purged at the last level strictly before D_th.
    """
    return level * d_th / (realized_levels + 1)


def _expired(
    view, metas: list[SortedFileMeta], level_no: int, d_th: float | None
) -> list[SortedFileMeta]:
    """The files among ``metas`` whose oldest tombstone outlived the level's
    TTL deadline; ``d_th`` None means the config's delete persistence
    threshold, and no file expires when that is unset too."""
    if d_th is None:
        d_th = view.cfg.delete_persistence_threshold
    if d_th is None:
        return []
    man = view.manifest
    deadline = _ttl_deadline(level_no, d_th, max(man.deepest_nonempty_level(), 1))
    now = man.logical_tick
    return [
        m
        for m in metas
        if m.oldest_tombstone_tick is not None and now - m.oldest_tombstone_tick > deadline
    ]


def _nominees(view, level_no: int, trigger: Trigger) -> list[SortedFileMeta]:
    """The files of one level that satisfy a file-scoped trigger: the
    trigger fires on the level when there are any, and its job picks only
    among them."""
    man = view.manifest
    metas = _level_metas(man, level_no)
    kind = trigger.kind
    if kind is TriggerKind.TOMBSTONE_TTL:
        return _expired(view, metas, level_no, trigger.value)
    if kind is TriggerKind.FILE_STALENESS:
        now = man.logical_tick
        return [m for m in metas if now - m.created_tick > trigger.value]
    frac = trigger.value
    return [m for m in metas if m.entry_count and m.tombstone_count / m.entry_count >= frac]


def _saturated(view, level_no: int, trigger: Trigger, run_counts: dict) -> bool:
    """Level saturation: the level holds more than ``trigger.value`` times
    its capacity, or the arrival rule holds. That rule, which decides most
    of the bytes moved at desk scale, fires a leveled level holding more
    than one run, so a flushed run merges into it, and, under whole-level
    granularity, a leveled level 1 once the tree is deeper, so level 1 is
    pushed into its parent on every flush."""
    man = view.manifest
    deepest = max(run_counts)
    level_bytes = man.entries_in_level(level_no) * view.cfg.entry_bytes
    if level_bytes > trigger.value * view.cfg.level_capacity_bytes(level_no):
        return True
    if view.strategy.layout.is_tiered(level_no, deepest):
        return False
    whole_level = view.strategy.granularity.kind is GranularityKind.LEVEL
    return run_counts[level_no] > 1 or (whole_level and level_no == 1 and deepest > 1)


def _space_amplified(view, level_no: int, trigger: Trigger, run_counts: dict) -> bool:
    """Space amp fires on the level its job services (the first level of
    several runs, else the shallowest once two levels hold data) when a
    cheap estimate of obsolete over live bytes exceeds the trigger's ratio.

    The live set is approximated by the unique keys ingested this session
    (or, after a reopen, by the largest run of the deepest level), so
    duplication across sibling runs is visible without a full merge; exact
    measurement stays in the metrics pipeline.
    """
    man = view.manifest
    actionable = next((n for n, count in run_counts.items() if count >= 2), None)
    if actionable is None and len(run_counts) >= 2:
        actionable = min(run_counts)
    if level_no != actionable:
        return False
    # the estimate, the costlier test, runs on that level alone
    largest = max(
        sum(man.files[fid].entry_count for fid in run)
        for run in man.runs_in_level(max(run_counts))
    )
    live = max(largest, len(view.live_keys))
    return live > 0 and (man.total_entries() - live) / live > trigger.value


# Each trigger kind's firing predicate for one nonempty level, given each
# nonempty level's run count, shallowest first.
_FIRES = {
    TriggerKind.LEVEL_SATURATION: _saturated,
    TriggerKind.SPACE_AMP: _space_amplified,
    # no value means the size ratio T
    TriggerKind.SORTED_RUN_COUNT: lambda view, level_no, trigger, run_counts: (
        run_counts[level_no] >= (trigger.value or view.cfg.size_ratio)
    ),
    # a file-scoped kind fires when a file of the level satisfies it
    **{
        kind: lambda view, level_no, trigger, run_counts: _nominees(view, level_no, trigger)
        for kind in _FILE_SCOPED
    },
}


def evaluate_triggers(view: TreeView) -> list[tuple[int, Trigger]]:
    """All currently-firing (level, trigger) pairs.

    Ordered by the strategy's trigger priority, then shallower level first.
    """
    # each nonempty level's run count, read once for every predicate
    run_counts = {n: len(level) for n, level in enumerate(view.manifest.levels, 1) if level}
    return [
        (level_no, trig)
        for trig in view.strategy.triggers
        for level_no in run_counts
        if _FIRES[trig.kind](view, level_no, trig, run_counts)
    ]


# ---------------------------------------------------------------------------
# Victim selection


def _overlapping(view, low: bytes, high: bytes, level_no: int) -> list[SortedFileMeta]:
    """The files of one level that overlap the closed key range [low, high]:
    in each run, key-sorted and disjoint, the span from the first file that
    ends at or after ``low`` to the last that starts at or before ``high``."""
    return [
        meta
        for min_keys, max_keys, metas in view.manifest.run_bounds(level_no)
        for meta in metas[bisect_left(max_keys, low) : bisect_right(min_keys, high)]
    ]


def _overlap_bytes(view, meta: SortedFileMeta, level_no: int) -> int:
    """The bytes of level ``level_no`` that the file ``meta`` overlaps."""
    overlapping = _overlapping(view, meta.min_key, meta.max_key, level_no)
    return sum(m.entry_count for m in overlapping) * view.cfg.entry_bytes


# Each movement policy's sort key for a file ``m`` of level ``lvl``; the
# first file in key order is picked first.
_SORT_KEYS = {
    MovementPolicy.ENTIRE_LEVEL: lambda view, lvl, m: (m.min_key, m.file_id),
    MovementPolicy.ROUND_ROBIN: lambda view, lvl, m: (m.min_key, m.file_id),
    MovementPolicy.LEAST_OVERLAP_PARENT: lambda view, lvl, m: (
        _overlap_bytes(view, m, lvl + 1), m.min_key, m.file_id
    ),
    # (parent + grandparent overlap bytes) per victim byte: the parent
    # bytes this merge rewrites now plus the grandparent bytes its output
    # meets one level down, per byte moved, as RocksDB's
    # kMinOverlappingRatio does one level deeper. Grandparent bytes
    # first, parent bytes only on ties, ignores the merge paid now:
    # once the grandparent covers the key space it picks narrow victims
    # with large parent merges and moves more than LO+1.
    MovementPolicy.LEAST_OVERLAP_GRANDPARENT: lambda view, lvl, m: (
        (_overlap_bytes(view, m, lvl + 1) + _overlap_bytes(view, m, lvl + 2))
        / m.data_bytes(view.cfg),
        m.min_key,
        m.file_id,
    ),
    # ties are the common case after an in-place level rewrite stamps
    # every file with the same tick; break them toward the cheapest
    # merge or the leftmost pick degenerates into rewriting the parent
    MovementPolicy.COLDEST: lambda view, lvl, m: (
        -(view.manifest.logical_tick - view.access_ticks.get(m.file_id, m.created_tick)),
        _overlap_bytes(view, m, lvl + 1),
        m.min_key,
        m.file_id,
    ),
    MovementPolicy.OLDEST: lambda view, lvl, m: (
        m.created_tick, _overlap_bytes(view, m, lvl + 1), m.min_key, m.file_id
    ),
    MovementPolicy.MOST_TOMBSTONES: lambda view, lvl, m: (
        -(m.tombstone_count / m.entry_count), m.min_key, m.file_id
    ),
    MovementPolicy.EXPIRED_TOMBSTONE_TTL: lambda view, lvl, m: (m.oldest_tombstone_tick, m.file_id),
}


def _rank_candidates(
    view, level_no: int, metas: list[SortedFileMeta], policy: MovementPolicy, trigger: Trigger
) -> list[SortedFileMeta] | None:
    """Candidates in pick order for one policy; None means the policy abstains."""
    # the tombstone policies rank only the files they apply to, else abstain
    if policy is MovementPolicy.MOST_TOMBSTONES:
        metas = [m for m in metas if m.tombstone_count] or None
    elif policy is MovementPolicy.EXPIRED_TOMBSTONE_TTL:
        d_th = trigger.value if trigger.kind is TriggerKind.TOMBSTONE_TTL else None
        metas = _expired(view, metas, level_no, d_th) or None
    if metas is None:
        return None
    ordered = sorted(metas, key=partial(_SORT_KEYS[policy], view, level_no))
    cursor = view.manifest.rr_cursors.get(level_no)
    if policy is MovementPolicy.ROUND_ROBIN and cursor is not None:
        after = [m for m in ordered if m.min_key > cursor]
        ordered = after + [m for m in ordered if m.min_key <= cursor]
    return ordered


def _pick_victims(
    view, level_no: int, metas: list[SortedFileMeta], n: int, trigger: Trigger
) -> tuple[list[SortedFileMeta], dict[int, bytes]]:
    for policy in view.strategy.movement:
        ranked = _rank_candidates(view, level_no, metas, policy, trigger)
        if ranked:
            picked = ranked[:n]
            cursor = max(m.min_key for m in picked)
            moved = cursor != view.manifest.rr_cursors.get(level_no)
            if policy is MovementPolicy.ROUND_ROBIN and moved:
                return picked, {level_no: cursor}
            return picked, {}
    raise InvariantViolation("movement chain abstained at its final element")


def _level_metas(man, level_no: int) -> list[SortedFileMeta]:
    return [man.files[fid] for run in man.runs_in_level(level_no) for fid in run]


def _overlapping_targets(
    view, victims: list[SortedFileMeta], level_no: int
) -> list[SortedFileMeta]:
    low = min(m.min_key for m in victims)
    high = max(m.max_key for m in victims)
    return _overlapping(view, low, high, level_no)


def select_compaction(view: TreeView, level_no: int, trigger: Trigger) -> CompactionJob:
    """Turn one firing trigger into a concrete job."""
    man = view.manifest
    metas = _level_metas(man, level_no)
    if not metas:
        raise InvalidArgument(f"level {level_no} is empty")
    deepest = man.deepest_nonempty_level()
    layout = view.strategy.layout
    tiered = layout.is_tiered(level_no, deepest)
    by_file = view.strategy.granularity.kind in (GranularityKind.FILE, GranularityKind.FILES)
    file_scoped = trigger.kind in _FILE_SCOPED
    # restore the one-run-per-level leveling invariant in place
    merges_runs = (by_file or file_scoped) and not tiered and man.run_count(level_no) > 1
    # whole-level granularity merges a leveled level into its parent
    # outright, so a freshly flushed run empties the level instead of
    # settling in it
    merges_parent = not (by_file or file_scoped or tiered)

    # the victim rule: the whole level moves, or the movement chain picks
    # n files (among the trigger's nominees)
    whole = tiered or merges_parent or merges_runs
    victims, cursors = metas, {}
    if not whole:
        candidates = _nominees(view, level_no, trigger) if file_scoped else metas
        n = view.strategy.granularity.n
        victims, cursors = _pick_victims(view, level_no, candidates, n, trigger)
    # in place: a level's runs merge, or a file-scoped trigger at the bottom
    # rewrites its victims there, which drops expired tombstones, rather
    # than dig a new level below it
    in_place = merges_runs or (file_scoped and level_no == deepest)
    if in_place and not whole:
        # the span between the first and last victim keeps the output from
        # overlapping a file that was not picked
        victims = _overlapping_targets(view, victims, level_no)
    target_level = level_no if in_place else level_no + 1
    target_tiered = layout.is_tiered(target_level, deepest)
    # no targets in place, nor when a tiered level's runs land on a tiered
    # parent; else the parent's files the victims overlap, or all of them
    if in_place or (tiered and target_tiered):
        targets = []
    elif merges_parent:
        targets = _level_metas(man, target_level)
    else:
        targets = _overlapping_targets(view, victims, target_level)
    # tombstones may be dropped when nothing lives below the target and the
    # target level cannot hide older versions outside the merge inputs: a
    # leveled target is one key-disjoint run, so files outside the merge
    # cannot share keys, and a tiered one must be empty or merged whole
    covers_target = merges_parent or (in_place and whole)
    purge = deepest <= target_level and (
        not target_tiered or covers_target or man.run_count(target_level) == 0
    )
    return CompactionJob(
        source_level=level_no,
        victim_ids=[m.file_id for m in victims],
        target_level=target_level,
        target_ids=[m.file_id for m in targets],
        pseudo=not targets and not in_place and by_file and not tiered,
        purge=purge,
        # the placement rule: a new run exactly when the target is tiered
        add_mode=ADD_NEW_RUN if target_tiered else ADD_SPLICE,
        trigger=trigger,
        cursors=cursors,
    )


# ---------------------------------------------------------------------------
# Execution


def _merge_slots(engine, input_ids, purge: bool) -> tuple[np.ndarray, int]:
    """Merge the input files' slots into key order, keeping each key's
    newest version (and dropping that too when it is a purged tombstone).
    ``input_ids`` run newest first: victims, then targets. Returns (merged
    slots, entries dropped)."""
    counts = [engine.manifest.files[fid].entry_count for fid in input_ids]
    slots = np.empty((sum(counts), engine.cfg.entry_bytes), dtype=np.uint8)
    row = 0
    for fid, count in zip(input_ids, counts):
        load_slot_matrix(engine.reader(fid), engine.cfg, out=slots[row : row + count])
        row += count
    order, newest, kinds = sort_versions([key_columns(slots)])
    if engine.debug_checks:
        check_newest_first(slot_seqnums(slots)[order], newest)
    keep = newest & (kinds != TOMBSTONE) if purge else newest
    selected = order[keep]
    # np.take gathers whole rows several times faster than slots[selected]
    return np.take(slots, selected, axis=0), len(order) - len(selected)


def execute_compaction(engine, job: CompactionJob) -> CompactionResult:
    man = engine.manifest
    cfg = engine.cfg

    if job.pseudo:
        # a new run takes its files in the order given, so key order here
        victims = sorted((man.files[fid] for fid in job.victim_ids), key=lambda m: m.min_key)
        edit = VersionEdit(
            removes=list(job.victim_ids),
            adds=[(job.target_level, job.add_mode, victims)],
            cursors=job.cursors,
        )
        man.apply(edit)
        engine.metrics.record_compaction(0, 0, 0, pseudo=True)
        return CompactionResult(0, 0, 0, list(job.victim_ids), pseudo=True)

    input_ids = job.victim_ids + job.target_ids
    input_metas = [man.files[fid] for fid in input_ids]
    input_entries = sum(m.entry_count for m in input_metas)
    input_pages = sum(m.data_pages for m in input_metas)

    ts_ticks = [
        m.oldest_tombstone_tick
        for m in input_metas
        if m.oldest_tombstone_tick is not None
    ]
    inherited_ts_tick = min(ts_ticks) if ts_ticks else None

    out_slots, dropped = _merge_slots(engine, input_ids, job.purge)
    out_metas = engine.write_sorted_slots(out_slots, job.target_level, inherited_ts_tick)

    out_entries = sum(m.entry_count for m in out_metas)
    out_pages = sum(m.data_pages for m in out_metas)
    bytes_read = input_entries * cfg.entry_bytes
    bytes_written = out_entries * cfg.entry_bytes

    edit = VersionEdit(
        removes=input_ids,
        adds=[(job.target_level, job.add_mode, out_metas)] if out_metas else [],
        cursors=job.cursors,
    )
    man.apply(edit)
    engine.forget_files(input_ids)

    pages = input_pages + out_pages
    engine.metrics.add_io_pages(pages)
    engine.metrics.record_compaction(bytes_read, bytes_written, pages, pseudo=False)
    if engine.debug_checks:
        man.check()
    return CompactionResult(
        bytes_read, bytes_written, dropped, [m.file_id for m in out_metas], False
    )


def run_until_quiescent(engine) -> int:
    """Plan from ``engine.view`` and execute until no trigger fires; returns the job count."""
    jobs = 0
    while True:
        fired = evaluate_triggers(engine.view)
        if not fired:
            return jobs
        level_no, trigger = fired[0]
        job = select_compaction(engine.view, level_no, trigger)
        execute_compaction(engine, job)
        jobs += 1
        man = engine.manifest
        # termination guard: every job shrinks a firing condition or moves
        # data deeper, so legitimate cascades are bounded by files x levels
        limit = 10 * max(man.deepest_nonempty_level(), 1) * max(len(man.files), 1)
        if jobs > limit:
            raise InvariantViolation(
                f"compaction loop of strategy {engine.strategy.name!r} did not settle "
                f"after {jobs} jobs; the last was a {trigger.kind.value} job from "
                f"level {job.source_level} to level {job.target_level} "
                f"on files {job.victim_ids}"
            )

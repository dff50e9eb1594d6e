import dataclasses
import re

import pytest

import ensembles
from lsmclab import LsmEngine, cli, compaction
from lsmclab.compaction import (
    CompactionStrategy,
    DataLayout,
    Granularity,
    GranularityKind,
    LayoutKind,
    MovementPolicy,
    PRESET_NAMES,
    Trigger,
    TriggerKind,
    _merge_slots,
    evaluate_triggers,
    execute_compaction,
    get_strategy,
    presets,
    run_until_quiescent,
    select_compaction,
)
from lsmclab.costmodel import write_amp_estimate
from lsmclab.errors import InvalidArgument, InvariantViolation, StorageIOError
from lsmclab.manifest import VersionEdit
from lsmclab.sstable import decode_entry

from conftest import key, small_config, value


def fill(engine, n, start=0, step=2):
    for i in range(n):
        engine.put(key(start + i * step), value(i))


def make_engine(tmp_path, strategy, **cfg_overrides):
    cfg = small_config(**cfg_overrides)
    return LsmEngine(str(tmp_path), cfg, strategy, debug_checks=True)


# ---------------------------------------------------------------------------
# Strategy composition


def test_all_presets_exist_and_validate():
    table = presets()
    assert set(PRESET_NAMES) == {
        "full", "lo1", "lo2", "rr", "cold", "old", "tsd", "tsa", "tier", "1lvl",
    }
    for strategy in table.values():
        assert strategy.triggers
        assert strategy.movement


def test_get_strategy_aliases():
    assert get_strategy("LO1").name == "lo1"
    assert get_strategy("lo+1").name == "lo1"
    assert get_strategy("1-lvl").name == "1lvl"
    with pytest.raises(InvalidArgument):
        get_strategy("nope")


@pytest.mark.parametrize(
    "preset, ensemble",
    [
        ("full", "sat/leveling/level/full"),
        ("lo1", "sat/leveling/file/lo1"),
        ("lo2", "sat/leveling/file/lo2"),
        ("rr", "sat/leveling/file/rr"),
        ("cold", "sat/leveling/file/cold"),
        ("old", "sat/leveling/file/old"),
        ("tsd", "dens+sat/leveling/file/ts>lo1"),
        ("tsa", "ttl+sat/leveling/file/ttl>lo1"),
        ("tier", "runs+sa/tiering/sorted_run/full"),
        ("1lvl", "runs+sat/one_leveling/file/lo1"),
    ],
)
def test_preset_is_its_ensemble(preset, ensemble):
    assert get_strategy(preset) == dataclasses.replace(get_strategy(ensemble), name=preset)


@pytest.mark.parametrize(
    "name, token, words",
    [
        ("sat/leveling/file", "'sat/leveling/file'", "<triggers>/<layout>/<granularity>/<chain>"),
        ("sat/leveling/file/lo1/x", "'sat/leveling/file/lo1/x'", "full, lo1, lo2"),
        ("sat/levelling/file/lo1", "'levelling'", "leveling, tiering, one_leveling"),
        ("sat+sta/leveling/file/lo1", "'sta'", "sat, runs, sa, dens, ttl, stale"),
        ("sat:high/leveling/file/lo1", "'sat:high'", "sat, runs, sa, dens, ttl, stale"),
        ("stale:nan+sat/leveling/file/lo1", "'stale:nan'", "sat, runs, sa, dens, ttl, stale"),
        ("sat/hybrid:tx/file/lo1", "'hybrid:tx'", "leveling, tiering, one_leveling"),
        ("sat/leveling/files:x/lo1", "'files:x'", "level, sorted_run, file, files"),
        ("sat/leveling:t/file/lo1", "'leveling:t'", "leveling, tiering, one_leveling"),
        ("sat/leveling/file/lo1>rr:2", "'rr:2'", "full, rr, lo1, lo2, cold, old, ts, ttl"),
    ],
    ids=["three-parts", "five-parts", "unknown-word", "unknown-trigger", "bad-float", "nan",
         "bad-hybrid-flag", "bad-int", "arg-on-bare-word", "arg-on-policy"],
)
def test_bad_ensemble_name_names_its_token(tmp_path, capsys, name, token, words):
    with pytest.raises(InvalidArgument) as info:
        get_strategy(name)
    assert token in str(info.value) and words in str(info.value)
    assert cli.main(["run", "--strategy", name, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert token in err and words in err


def test_strategy_requires_decidable_chain_end():
    with pytest.raises(InvalidArgument):
        CompactionStrategy(
            name="bad",
            triggers=(Trigger(TriggerKind.LEVEL_SATURATION, 1.0),),
            layout=DataLayout(LayoutKind.LEVELING),
            granularity=Granularity(GranularityKind.FILE),
            movement=(MovementPolicy.MOST_TOMBSTONES,),
        )


def test_strategy_requires_triggers_and_movement():
    with pytest.raises(InvalidArgument):
        CompactionStrategy(
            name="bad",
            triggers=(),
            layout=DataLayout(LayoutKind.LEVELING),
            granularity=Granularity(GranularityKind.FILE),
            movement=(MovementPolicy.ROUND_ROBIN,),
        )


def test_trigger_value_validation():
    with pytest.raises(InvalidArgument):
        Trigger(TriggerKind.LEVEL_SATURATION, 0.0)
    with pytest.raises(InvalidArgument):
        Trigger(TriggerKind.SORTED_RUN_COUNT, 1.0)
    with pytest.raises(InvalidArgument):
        Trigger(TriggerKind.TOMBSTONE_DENSITY, 1.5)
    with pytest.raises(InvalidArgument):
        Trigger(TriggerKind.TOMBSTONE_TTL, -1.0)
    with pytest.raises(InvalidArgument, match="file staleness needs a ttl"):
        Trigger(TriggerKind.FILE_STALENESS)


def test_hybrid_layout_needs_flags():
    with pytest.raises(InvalidArgument):
        DataLayout(LayoutKind.HYBRID)
    layout = DataLayout(LayoutKind.HYBRID, ("tiered", "leveled"))
    assert layout.is_tiered(1, 3)
    assert not layout.is_tiered(2, 3)
    assert not layout.is_tiered(3, 3)  # last flag repeats


def test_layout_tiered_predicates():
    assert not DataLayout(LayoutKind.LEVELING).is_tiered(1, 3)
    assert DataLayout(LayoutKind.TIERING).is_tiered(3, 3)
    one = DataLayout(LayoutKind.ONE_LEVELING)
    assert one.is_tiered(1, 3) and not one.is_tiered(2, 3)
    lastlev = DataLayout(LayoutKind.L_LEVELING)
    assert lastlev.is_tiered(2, 3) and not lastlev.is_tiered(3, 3)


def test_layout_words_are_their_flag_strings():
    # leveling, tiering and one_leveling name the flag strings l, t and tl,
    # so the planner and the cost model read the same per-level flags
    def layout(word):
        return compaction.parse_ensemble(f"sat/{word}/file/lo1").layout

    for word, flags in (("leveling", "l"), ("tiering", "t"), ("one_leveling", "tl")):
        assert layout(word) == layout(f"hybrid:{flags}")
    assert write_amp_estimate(layout("one_leveling"), 10, 3) == 21.0  # 1 + 10 + 10
    assert write_amp_estimate(layout("hybrid:tl"), 10, 3) == 21.0
    with pytest.raises(InvalidArgument):  # a word's flags are fixed
        DataLayout(LayoutKind.LEVELING, ("tiered",))


def test_files_granularity_needs_n():
    with pytest.raises(InvalidArgument):
        Granularity(GranularityKind.FILES, 1)
    # the other kinds move no set number of files, so they take no n
    for kind in (GranularityKind.LEVEL, GranularityKind.SORTED_RUN, GranularityKind.FILE):
        assert Granularity(kind).n == 1
        with pytest.raises(InvalidArgument):
            Granularity(kind, 3)


def test_constant_trigger_defaults_fill_in():
    # a trigger built without a value is its kind's constant default, as an
    # ensemble's bare word is; run count and tombstone TTL read theirs from
    # the config when evaluated
    for kind, default in (
        (TriggerKind.LEVEL_SATURATION, 1.0),
        (TriggerKind.SPACE_AMP, 0.5),
        (TriggerKind.TOMBSTONE_DENSITY, 0.2),
    ):
        assert Trigger(kind) == Trigger(kind, default)
    bare = get_strategy("sa+dens+sat/leveling/file/lo1")
    assert bare.triggers == get_strategy("sa:0.5+dens:0.2+sat:1/leveling/file/lo1").triggers
    assert Trigger(TriggerKind.SORTED_RUN_COUNT).value is None
    assert Trigger(TriggerKind.TOMBSTONE_TTL).value is None


# ---------------------------------------------------------------------------
# Triggers


def test_leveled_multi_run_fires_saturation(tmp_path):
    eng = make_engine(tmp_path, "lo1")
    fill(eng, eng.cfg.entries_per_buffer)
    assert eng.manifest.run_count(1) == 1
    assert evaluate_triggers(eng.view) == []
    eng.close()


def test_saturation_fires_above_capacity(tmp_path):
    eng = make_engine(tmp_path, "lo1")
    # level 1 capacity is T=4 buffers; the fifth flush pushes it over
    fill(eng, 5 * eng.cfg.entries_per_buffer)
    eng.quiesce()
    for level_no in range(1, eng.manifest.level_count() + 1):
        level_bytes = eng.manifest.entries_in_level(level_no) * eng.cfg.entry_bytes
        assert level_bytes <= eng.cfg.level_capacity_bytes(level_no)
    eng.close()


def test_run_count_trigger_allows_up_to_t_runs(tmp_path):
    eng = make_engine(tmp_path, "tier")
    t = eng.cfg.size_ratio
    fill(eng, (t - 1) * eng.cfg.entries_per_buffer)
    assert eng.manifest.run_count(1) == t - 1
    fill(eng, eng.cfg.entries_per_buffer, start=10_000)
    # the T-th run fires the trigger; the level merges into level 2
    assert eng.manifest.run_count(1) == 0
    assert eng.manifest.run_count(2) == 1
    eng.close()


def test_tombstone_density_trigger(tmp_path):
    eng = make_engine(tmp_path, "tsd")
    fill(eng, eng.cfg.entries_per_buffer)
    before = eng.tombstones_remaining()
    # delete 25% of the keys: way past the 5% density threshold
    for i in range(4):
        eng.delete(key(i * 2))
    fill(eng, eng.cfg.entries_per_buffer, start=100_000)
    eng.quiesce()
    assert eng.tombstones_remaining() == 0
    assert before == 0
    eng.close()


def test_tombstone_ttl_trigger_purges_before_deadline(tmp_path):
    cfg_kw = dict(delete_persistence_threshold=120)
    eng = make_engine(tmp_path, "tsa", **cfg_kw)
    fill(eng, eng.cfg.entries_per_buffer - 1)
    eng.delete(key(0))
    age_when_flushed = eng.tick
    # idle writes that keep the tree shallow but advance time past D_th
    for i in range(150):
        eng.put(key(1_000_000 + 2 * i), value(i))
        if eng.tombstones_remaining() == 0:
            break
    assert eng.tombstones_remaining() == 0
    assert eng.tick - age_when_flushed <= 120
    eng.close()


def test_file_staleness_trigger(tmp_path):
    strategy = CompactionStrategy(
        name="stale",
        triggers=(
            Trigger(TriggerKind.FILE_STALENESS, 64.0),
            Trigger(TriggerKind.LEVEL_SATURATION, 1.0),
        ),
        layout=DataLayout(LayoutKind.LEVELING),
        granularity=Granularity(GranularityKind.FILE),
        movement=(MovementPolicy.OLDEST,),
    )
    eng = make_engine(tmp_path, strategy)
    fill(eng, eng.cfg.entries_per_buffer)
    first_files = set(eng.manifest.files)
    for i in range(80):
        eng.put(key(500_000 + 2 * i), value(i))
    eng.quiesce()
    # the stale file was rewritten or moved: its id is gone
    assert not (first_files & set(eng.manifest.files))
    eng.close()


def test_space_amp_trigger_bounds_duplication(tmp_path):
    eng = make_engine(tmp_path, "tier")
    # rewrite the same small key set many times: duplicates pile up in runs
    for _round in range(12):
        fill(eng, eng.cfg.entries_per_buffer)
    eng.quiesce()
    assert eng.measure_space_amp() <= 1.0
    eng.close()


# ---------------------------------------------------------------------------
# Job selection and execution invariants


def test_leveled_levels_keep_single_runs_when_quiescent(tmp_path):
    for name in ("lo1", "rr", "cold", "old", "tsd"):
        eng = make_engine(tmp_path / name, name)
        fill(eng, 7 * eng.cfg.entries_per_buffer)
        eng.quiesce()
        for level_no in range(1, eng.manifest.level_count() + 1):
            assert eng.manifest.run_count(level_no) <= 1
        eng.manifest.check()
        eng.close()


def test_one_leveling_keeps_first_level_tiered(tmp_path):
    eng = make_engine(tmp_path, "1lvl")
    fill(eng, 9 * eng.cfg.entries_per_buffer)
    eng.quiesce()
    t = eng.cfg.size_ratio
    assert eng.manifest.run_count(1) < t
    for level_no in range(2, eng.manifest.level_count() + 1):
        assert eng.manifest.run_count(level_no) <= 1
    eng.close()


def test_tiering_caps_runs_per_level(tmp_path):
    eng = make_engine(tmp_path, "tier")
    fill(eng, 13 * eng.cfg.entries_per_buffer)
    eng.quiesce()
    t = eng.cfg.size_ratio
    for level_no in range(1, eng.manifest.level_count() + 1):
        assert eng.manifest.run_count(level_no) < t
    eng.close()


def test_full_empties_shallow_levels(tmp_path):
    eng = make_engine(tmp_path, "full")
    fill(eng, 7 * eng.cfg.entries_per_buffer)
    eng.quiesce()
    # whole-level merges leave the arrival level empty once the tree is deep
    assert eng.manifest.deepest_nonempty_level() >= 2
    assert eng.manifest.run_count(1) == 0
    eng.close()


def test_select_rejects_empty_level(tmp_path):
    eng = make_engine(tmp_path, "lo1")
    with pytest.raises(InvalidArgument):
        select_compaction(eng.view, 1, Trigger(TriggerKind.LEVEL_SATURATION, 1.0))
    eng.close()


def test_job_execution_applies_single_edit(tmp_path):
    eng = make_engine(tmp_path, "full", block_cache_bytes=0)
    eng.auto_compact = False
    fill(eng, 2 * eng.cfg.entries_per_buffer)
    fired = evaluate_triggers(eng.view)
    assert fired
    level_no, trigger = fired[0]
    job = select_compaction(eng.view, level_no, trigger)
    before = set(eng.manifest.files)
    result = execute_compaction(eng, job)
    eng.manifest.check()
    assert result.bytes_written > 0
    assert not (set(job.victim_ids) & set(eng.manifest.files))
    assert set(result.output_ids) <= set(eng.manifest.files)
    assert before - set(eng.manifest.files) == set(job.victim_ids + job.target_ids)
    eng.close()


def test_merge_checks_inputs_come_newest_run_first(tmp_path):
    # the merge orders versions by input position, not by seqnum
    eng = make_engine(tmp_path, "tier")
    eng.auto_compact = False
    n = eng.cfg.entries_per_buffer  # one file per flush
    for rnd in range(2):
        for i in range(n):
            eng.put(key(i), value(100 * rnd + i))
    (victim,), (target,) = eng.manifest.runs_in_level(1)  # newest run first
    merged, dropped = _merge_slots(eng, [victim, target], purge=False)
    assert dropped == n
    assert [decode_entry(row.tobytes(), 0)[3] for row in merged] == [
        value(100 + i) for i in range(n)
    ]
    with pytest.raises(InvariantViolation):
        _merge_slots(eng, [target, victim], purge=False)
    # the space-amp census walks runs in manifest order and checks the same
    eng.manifest.levels[0].reverse()
    with pytest.raises(InvariantViolation):
        eng.measure_space_amp()
    eng.close()


def test_pseudo_compaction_moves_metadata_only(tmp_path):
    # two key-disjoint populations: files of the sparse one overlap nothing
    # below and can move down by a manifest edit alone
    eng = make_engine(tmp_path, "lo1")
    n = eng.cfg.entries_per_buffer
    for start in (0, 1000, 2000, 3000, 4000):  # disjoint key ranges
        fill(eng, n, start=start)
    eng.quiesce()
    rep = eng.report()
    assert rep.pseudo_compaction_count >= 1
    eng.close()


def test_purge_keeps_tombstone_above_live_data(tmp_path):
    eng = make_engine(tmp_path, "lo1")
    n = eng.cfg.entries_per_buffer
    fill(eng, 5 * n)
    eng.quiesce()
    deep = eng.manifest.deepest_nonempty_level()
    assert deep >= 2
    eng.delete(key(0))
    eng.quiesce()
    # the tombstone may travel but must not vanish while key(0)'s older
    # version still lives deeper
    if eng.get(key(0)) is None and eng.tombstones_remaining() == 0:
        merged = dict(eng.range_scan(key(0), key(1)))
        assert key(0) not in merged
    assert eng.get(key(0)) is None
    eng.close()


def test_run_until_quiescent_terminates_and_settles(tmp_path):
    eng = make_engine(tmp_path, "rr")
    fill(eng, 11 * eng.cfg.entries_per_buffer)
    jobs = eng.quiesce()
    assert run_until_quiescent(eng) == 0
    assert jobs >= 0
    eng.close()


# ---------------------------------------------------------------------------
# Movement policy ordering (constructed candidates)


def ranked_names(tmp_path, strategy_name, policy, prep):
    """Build a real level, then ask the policy for its pick order."""
    from lsmclab.compaction import _level_metas, _rank_candidates

    eng = make_engine(tmp_path, strategy_name)
    prep(eng)
    metas = _level_metas(eng.manifest, 1)
    ranked = _rank_candidates(
        eng.view, 1, metas, policy, Trigger(TriggerKind.LEVEL_SATURATION, 1.0)
    )
    eng.close()
    return metas, ranked


def test_round_robin_cursor_advances(tmp_path):
    # each pick takes the first file past the cursor in key order, and the
    # picks wrap around past the level's last file
    from lsmclab.compaction import _pick_victims, _level_metas

    eng = make_engine(tmp_path, "rr")
    _rr_tree(eng)
    man = eng.manifest
    metas = _level_metas(man, 1)
    assert len(metas) == 4 and metas == sorted(metas, key=lambda m: m.min_key)
    trig = Trigger(TriggerKind.LEVEL_SATURATION, 1.0)
    start = sum(m.min_key <= man.rr_cursors[1] for m in metas)
    picks = []
    for _ in range(2 * len(metas)):
        (picked,), cursors = _pick_victims(eng.view, 1, metas, 1, trig)
        assert cursors == {1: picked.min_key}
        man.apply(VersionEdit(cursors=cursors))
        picks.append(metas.index(picked))
    assert picks == [(start + i) % len(metas) for i in range(2 * len(metas))]
    eng.close()


def _rr_tree(eng):
    """Fifteen buffers over 80 keys under ``rr``: level 1 holds one run of
    four files over level 2, and level 1's cursor is set."""
    for r in range(15):
        fill(eng, eng.cfg.entries_per_buffer, start=r % 5, step=5)
    assert eng.manifest.run_count(1) == 1 and eng.manifest.rr_cursors


def test_planner_writes_nothing(tmp_path):
    eng = make_engine(tmp_path, "rr")
    _rr_tree(eng)
    for i in range(0, 80, 7):
        eng.get(key(i))
    man = eng.manifest

    def state():
        return (
            man.snapshot(),
            [dataclasses.astuple(m) for m in man.files.values()],
            dict(man.rr_cursors),
            (man.logical_tick, man.next_file_id, man.next_seqnum),
            dict(eng.access_ticks),
            set(eng.metrics.unique_keys),
            (tmp_path / "MANIFEST.log").read_bytes(),
        )

    before = state()
    assert eng.access_ticks and eng.metrics.unique_keys
    evaluate_triggers(eng.view)
    job = select_compaction(eng.view, 1, Trigger(TriggerKind.LEVEL_SATURATION, 1.0))
    # the pick moves level 1's cursor in the job it returns, not in the manifest
    assert job.cursors and job.cursors[1] != man.rr_cursors[1]
    assert state() == before
    eng.close()


def test_failed_job_moves_no_cursor(tmp_path, monkeypatch):
    # a pick's cursor is logged by its job's edit alone, so a job whose
    # write fails leaves the cursor where it was, also in the next edit
    eng = make_engine(tmp_path, "rr")
    _rr_tree(eng)
    before = dict(eng.manifest.rr_cursors)
    eng.auto_compact = False
    fill(eng, eng.cfg.entries_per_buffer, start=3, step=5)  # a second level-1 run
    write = eng.write_sorted_slots

    def push_fails(slots, level, oldest_ts_tick):
        # level 1's runs merge in place, then the push into level 2 fails
        if level > 1:
            raise StorageIOError("injected write fault")
        return write(slots, level, oldest_ts_tick)

    monkeypatch.setattr(eng, "write_sorted_slots", push_fails)
    with pytest.raises(StorageIOError):
        eng.quiesce()
    assert eng.manifest.rr_cursors == before
    monkeypatch.undo()
    fill(eng, eng.cfg.entries_per_buffer, start=1, step=5)  # the next edit, a flush
    eng.close()
    with LsmEngine(str(tmp_path), small_config(), "rr") as reopened:
        assert reopened.manifest.rr_cursors == before


def _replay_with_breaks(directory, preset, reopen):
    """The ensemble grid's probe with a break every 300 writes: a buffer
    flush, or a close and a reopen. Returns the bytes compaction wrote, the
    job count and the tree shape."""
    cfg = ensembles.tree_config(400)
    engine = LsmEngine(directory, cfg, preset)
    written = jobs = 0
    for i, (k, v) in enumerate(ensembles.probe_ops(seed=1), start=1):
        if v is None:
            engine.delete(k)
        else:
            engine.put(k, v)
        if i % 300:
            continue
        if reopen or i == 1500:
            engine.close()  # close() flushes, and that flush may compact
            written += engine.metrics.bytes_compaction_written
            jobs += engine.metrics.compaction_count
            if i < 1500:
                engine = LsmEngine(directory, cfg, preset)
        elif engine.buffer:
            engine.flush_buffer()
    return written, jobs, engine.manifest.snapshot()


@pytest.mark.parametrize("preset", ["rr", "lo1"])
def test_reopen_runs_the_jobs_a_flush_runs(tmp_path, preset):
    # the round-robin cursor lives in the manifest, so a reopen resumes it
    flushed = _replay_with_breaks(str(tmp_path / "flush"), preset, reopen=False)
    reopened = _replay_with_breaks(str(tmp_path / "reopen"), preset, reopen=True)
    assert reopened == flushed
    # only a round-robin pick logs a cursor, so other logs are unchanged
    log = (tmp_path / "reopen" / "MANIFEST.log").read_text()
    assert ('"rr"' in log) == (preset == "rr")


def test_oldest_policy_prefers_lowest_created_tick(tmp_path):
    def prep(eng):
        eng.auto_compact = False
        fill(eng, eng.cfg.entries_per_buffer, start=0)
        fill(eng, eng.cfg.entries_per_buffer, start=100_000)

    metas, ranked = ranked_names(tmp_path, "old", MovementPolicy.OLDEST, prep)
    ticks = [m.created_tick for m in ranked]
    assert ticks == sorted(ticks)


def test_least_overlap_grandparent_weighs_parent_merge(tmp_path):
    def prep(eng):
        # disjoint key blocks, as in criterion 6, settle into a three-level
        # tree: blocks 0-4 on level 3, blocks 5-24 on level 2 once level 1's
        # leftovers are pushed down. LO+1 builds it, so the shape does not
        # depend on the policy under test.
        for block in range(25):
            fill(eng, eng.cfg.entries_per_buffer, start=block * 1000, step=1)
            eng.quiesce()
        eng.auto_compact = False
        trig = Trigger(TriggerKind.LEVEL_SATURATION, 1.0)
        while eng.manifest.run_count(1):
            execute_compaction(eng, select_compaction(eng.view, 1, trig))
        assert eng.manifest.run_count(3) == 1
        # misses level 3 but spans four level-2 files: 4 bytes per byte moved
        fill(eng, 16, start=10_000, step=200)
        # one level-2 file plus one level-3 file: 2 bytes per byte moved
        fill(eng, 8, start=4_008, step=1)
        fill(eng, 8, start=5_000, step=1)

    metas, ranked = ranked_names(
        tmp_path, "lo1", MovementPolicy.LEAST_OVERLAP_GRANDPARENT, prep
    )
    assert len(metas) == 2
    assert [m.min_key for m in ranked] == [key(4_008), key(10_000)]


def test_most_tombstones_abstains_without_tombstones(tmp_path):
    def prep(eng):
        eng.auto_compact = False
        fill(eng, eng.cfg.entries_per_buffer)

    _metas, ranked = ranked_names(tmp_path, "tsd", MovementPolicy.MOST_TOMBSTONES, prep)
    assert ranked is None


def test_most_tombstones_ranks_by_density(tmp_path):
    def prep(eng):
        eng.auto_compact = False
        for i in range(eng.cfg.entries_per_buffer - 2):
            eng.put(key(2 * i), value(i))
        eng.delete(key(900_001))
        eng.delete(key(900_003))
        fill(eng, eng.cfg.entries_per_buffer, start=100_000)

    _metas, ranked = ranked_names(tmp_path, "tsd", MovementPolicy.MOST_TOMBSTONES, prep)
    assert ranked
    assert ranked[0].tombstone_count > 0


def test_chain_falls_through_to_decidable_policy(tmp_path):
    eng = make_engine(tmp_path, "tsd")
    from lsmclab.compaction import _pick_victims, _level_metas

    eng.auto_compact = False
    fill(eng, eng.cfg.entries_per_buffer)
    metas = _level_metas(eng.manifest, 1)
    picked, _cursors = _pick_victims(
        eng.view, 1, metas, 1, Trigger(TriggerKind.LEVEL_SATURATION, 1.0)
    )
    # no tombstones anywhere: MostTombstones abstained, LO+1 decided
    assert len(picked) == 1
    eng.close()


# ---------------------------------------------------------------------------
# File-scoped triggers and the ensemble grid


def test_ensemble_grid_subset_settles():
    # every trigger set x movement chain pair, plus ensembles that once
    # livelocked or split a leveled run; the whole grid runs as
    # `python tests/ensembles.py`; each one's row must equal its row in
    # tests/data/grid.csv
    rows, failed = ensembles.replay(ensembles.SUBSET, staleness=300.0, d_th=400, seed=1)
    assert failed == {}
    assert ensembles.differing(rows) == []


def test_grid_reports_and_drops_rows_of_ensembles_it_lost(tmp_path, monkeypatch, capsys):
    # a pinned row whose ensemble has left GRID fails the full-grid run, and
    # --rewrite drops it but keeps the other setting's rows
    name = ensembles.GRID[0]
    row = ("300", "400", "1", name, "10", "2", "0", "3", "tree", "jobs")
    lost = "sat/hybrid:tl/file/lo1"
    lines = [ensembles.FIELDS, row, ("300", "400", "1", lost, *row[4:]),
             ("150", "200", "2", lost, *row[4:])]
    path = tmp_path / "grid.csv"
    path.write_text("".join(",".join(line) + "\n" for line in lines))
    monkeypatch.setattr(ensembles, "GRID_CSV", str(path))
    monkeypatch.setattr(ensembles, "GRID", (name,))
    monkeypatch.setattr(ensembles, "replay", lambda names, *setting: ({name: row}, {}))
    assert ensembles.main([]) == 1
    out = capsys.readouterr().out
    assert f"stale    300,400,1,{lost}," in out and "1 of its rows name no grid" in out
    assert ensembles.main(["--rewrite"]) == 0
    assert path.read_text().splitlines() == [",".join(line) for line in lines[:2] + lines[3:]]
    assert ensembles.main([]) == 0


def test_density_job_rewrites_the_file_that_fired(tmp_path):
    eng = make_engine(tmp_path, "lo1")
    n = eng.cfg.entries_per_buffer
    fill(eng, 5 * n)  # level 1 over capacity: a file moves to level 2
    for i in range(n // 2):  # tombstones in level 1's first file only
        eng.delete(key(2 * i))
    fill(eng, n // 2, start=1001)
    eng.close()
    dens = CompactionStrategy(
        name="dens",
        triggers=(
            Trigger(TriggerKind.TOMBSTONE_DENSITY, 0.2),
            Trigger(TriggerKind.LEVEL_SATURATION, 1.0),
        ),
        layout=DataLayout(LayoutKind.LEVELING),
        granularity=Granularity(GranularityKind.FILE),
        movement=(MovementPolicy.LEAST_OVERLAP_PARENT,),
    )
    eng = LsmEngine(str(tmp_path), small_config(), dens, debug_checks=True)
    eng.auto_compact = False
    (level_no, trigger), = evaluate_triggers(eng.view)
    fired = [m.file_id for m in compaction._nominees(eng.view, level_no, trigger)]
    everything = compaction._level_metas(eng.manifest, level_no)
    lo1_first = compaction._rank_candidates(
        eng.view, level_no, everything, MovementPolicy.LEAST_OVERLAP_PARENT, trigger
    )[0]
    assert len(fired) == 1 and lo1_first.file_id not in fired
    assert select_compaction(eng.view, level_no, trigger).victim_ids == fired
    eng.close()


def test_in_place_rewrite_takes_the_files_between_its_victims(tmp_path):
    eng = make_engine(tmp_path, "1lvl")
    n = eng.cfg.entries_per_buffer
    # two key ranges reach level 2 first, then one between them later
    for i in range(2 * n):
        eng.put(key(i), value(i))
        eng.put(key(10_000 + i), value(i))
    fill(eng, 4 * n, start=5_000, step=1)
    eng.close()
    stale = CompactionStrategy(
        name="stale",
        triggers=(
            Trigger(TriggerKind.FILE_STALENESS, 32.0),
            Trigger(TriggerKind.LEVEL_SATURATION, 1.0),
        ),
        layout=DataLayout(LayoutKind.LEVELING),
        granularity=Granularity(GranularityKind.FILES, 3),
        movement=(MovementPolicy.OLDEST,),
    )
    eng = LsmEngine(str(tmp_path), small_config(), stale, debug_checks=True)
    eng.auto_compact = False
    man = eng.manifest
    assert man.deepest_nonempty_level() == 2 and man.run_count(2) == 1
    (level_no, trigger), = evaluate_triggers(eng.view)
    assert level_no == 2
    (run,) = man.runs_in_level(2)
    stale_ids = {m.file_id for m in compaction._nominees(eng.view, 2, trigger)}
    assert [fid in stale_ids for fid in run] == [True, True] + [False] * 4 + [True, True]
    job = select_compaction(eng.view, 2, trigger)
    # the victims are the first three stale files; the span takes the four
    # young files between the second and the third
    assert job.victim_ids == run[:7] and job.target_level == 2
    execute_compaction(eng, job)
    man.check()
    assert man.run_count(2) == 1
    assert [eng.get(key(5_000 + i)) for i in range(4 * n)] == [value(i) for i in range(4 * n)]
    eng.close()


def test_livelock_error_names_the_repeating_job(tmp_path, monkeypatch):
    eng = make_engine(tmp_path, "lo1")
    fill(eng, 2 * eng.cfg.entries_per_buffer)
    stale = Trigger(TriggerKind.FILE_STALENESS, 1.0)

    def always_stale(view):
        view.manifest.logical_tick += 2  # every file outlives the ttl
        return [(view.manifest.deepest_nonempty_level(), stale)]

    monkeypatch.setattr(compaction, "evaluate_triggers", always_stale)
    with pytest.raises(InvariantViolation) as err:
        run_until_quiescent(eng)
    assert re.fullmatch(
        r"compaction loop of strategy 'lo1' did not settle after \d+ jobs; the last "
        r"was a file_staleness job from level 1 to level 1 on files \[\d+\]",
        str(err.value),
    )
    eng.close()

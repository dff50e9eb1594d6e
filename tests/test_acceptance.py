"""End-to-end acceptance suite.

One test per criterion; each prints a single line with the measured values
so a plain ``pytest -v`` run doubles as the acceptance report. The large
comparative runs (1M insert-only entries across all nine multi-level
presets) are shared through module-scoped fixtures.
"""

import functools
import json
import multiprocessing
import os
import random
import tempfile
from concurrent.futures import ProcessPoolExecutor

import pytest

import lsmclab.compaction as compaction_mod
from lsmclab import LsmEngine, TreeConfig, WorkloadSpec, generate
from lsmclab.bloom import BloomFilter
from lsmclab.cli import main as cli_main
from lsmclab.compaction import PRESET_NAMES
from lsmclab.costmodel import LEVELING, TIERING, level_count, write_amp_estimate
from lsmclab.workload import Distribution

PARTIALS = ("lo1", "lo2", "rr", "cold", "old", "tsd", "tsa")

BIG_N = 1_000_000
BIG_CFG = TreeConfig(
    size_ratio=10,
    buffer_bytes=524288,  # 4096 entries of 128 bytes
    page_bytes=2048,
    entry_bytes=128,
    block_cache_bytes=0,
)


def _ingest(ops, cfg, strategy):
    with tempfile.TemporaryDirectory() as d:
        eng = LsmEngine(d, cfg, strategy)
        for op in ops:
            if op[0] == "D":
                eng.delete(op[1])
            else:
                eng.put(op[1], op[2])
        eng.quiesce()
        rep = eng.report()
        levels = eng.manifest.deepest_nonempty_level()
        nonempty = sum(
            1
            for lvl in range(1, eng.manifest.level_count() + 1)
            if eng.manifest.runs_in_level(lvl)
        )
        eng.close()
    return rep, levels, nonempty


@functools.cache
def _big_stream():
    """The big insert-only stream, generated once in each worker process."""
    return generate(WorkloadSpec(inserts=BIG_N, seed=7, entry_bytes=128))


def _big_run(name):
    rep, levels, _ = _ingest(_big_stream(), BIG_CFG, name)
    return rep, levels


@pytest.fixture(scope="module")
def big_runs():
    """Insert-only uniform 1M entries, T=10, one run per preset, the presets
    shared by two worker processes."""
    names = ("full", "tier", *PARTIALS)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        return dict(zip(names, pool.map(_big_run, names)))


@pytest.fixture(scope="module")
def delete_runs():
    """10%-delete workload shared by the delete-efficacy criteria.

    The tree must be at least three levels deep so tombstones can linger at
    intermediate levels; with a two-level tree every push into the bottom
    purges for all strategies alike and the regimes cannot differentiate.
    The persistence deadline is short enough that the age-driven schedule
    dominates saturation instead of merely substituting for it.
    """
    spec = WorkloadSpec(inserts=100_000, delete_fraction=0.1, seed=13, entry_bytes=128)
    ops = generate(spec)
    d_th = 3000
    cfg = TreeConfig(
        size_ratio=10,
        buffer_bytes=32768,
        page_bytes=2048,
        entry_bytes=128,
        block_cache_bytes=0,
        delete_persistence_threshold=d_th,
    )
    out = {"d_th": d_th}
    for name in ("tsa", "tsd", "lo1", "tier"):
        rep, _, _ = _ingest(ops, cfg, name)
        out[name] = rep
    return out


# -- criterion 1 -------------------------------------------------------------


def _random_spec(rng: random.Random, i: int) -> WorkloadSpec:
    inserts = rng.randrange(60, 400)
    return WorkloadSpec(
        inserts=inserts,
        update_ratio=rng.choice((0.0, 0.5, 2.0)),
        delete_fraction=rng.choice((0.0, 0.1, 0.25)),
        point_lookups=inserts // 2,
        alpha=rng.choice((0.0, 0.5, 1.0)),
        range_lookups=rng.choice((0, 5, 10)),
        selectivity=0.05,
        entry_bytes=64,
        interleaving=rng.choice(("serial", "interleaved")),
        seed=1000 + i,
        buffer_entries=16,
        size_ratio=4,
    )


def _replay_with_oracle(ops, cfg, strategy):
    with tempfile.TemporaryDirectory() as d:
        eng = LsmEngine(d, cfg, strategy)
        oracle: dict[bytes, bytes] = {}
        for op in ops:
            tag = op[0]
            if tag in ("I", "U"):
                eng.put(op[1], op[2])
                oracle[op[1]] = op[2]
            elif tag == "D":
                eng.delete(op[1])
                oracle.pop(op[1], None)
            elif tag == "P":
                assert eng.get(op[1]) == oracle.get(op[1]), (strategy, op)
            else:
                got = eng.range_scan(op[1], op[2])
                want = sorted(
                    (k, v) for k, v in oracle.items() if op[1] <= k < op[2]
                )
                assert got == want, (strategy, op)
        live = eng.range_scan(b"\x00", b"\xff" * 12)
        assert live == sorted(oracle.items()), strategy
        eng.close()


def test_criterion_01_oracle_equivalence():
    cfg = TreeConfig(
        size_ratio=4,
        buffer_bytes=1024,
        page_bytes=256,
        entry_bytes=64,
        block_cache_bytes=4096,
        delete_persistence_threshold=1000,
    )
    rng = random.Random(20260823)
    checked = 0
    for i in range(50):
        ops = generate(_random_spec(rng, i))
        for preset in PRESET_NAMES:
            _replay_with_oracle(ops, cfg, preset)
            checked += 1
    print(f"criterion 1 PASS: {checked} spec x preset runs matched the oracle")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_level_count_formula():
    combos = [
        # (inserts, size_ratio, buffer_bytes); entry 64, page 256
        (600, 4, 1024),
        (3000, 4, 1024),
        (500, 10, 1024),
        (5000, 10, 4096),
        (2000, 5, 2048),
    ]
    lines = []
    for n, t, buf in combos:
        cfg = TreeConfig(
            size_ratio=t,
            buffer_bytes=buf,
            page_bytes=256,
            entry_bytes=64,
            block_cache_bytes=0,
        )
        ops = generate(WorkloadSpec(inserts=n, seed=5, entry_bytes=64))
        predicted = level_count(
            n, cfg.pages_per_buffer, cfg.entries_per_page, t
        )
        _, _, nonempty = _ingest(ops, cfg, "lo1")
        assert nonempty == predicted, (n, t, buf, nonempty, predicted)
        lines.append(f"N={n} T={t} B={buf}: L={predicted}")
    print(f"criterion 2 PASS: {'; '.join(lines)}")


# -- criteria 3, 4, 5 --------------------------------------------------------


def test_criterion_03_compaction_count_ratio(big_runs):
    full, levels = big_runs["full"]
    lo1, _ = big_runs["lo1"]
    ratio = lo1.compaction_count / full.compaction_count
    assert 0.5 * levels <= ratio <= 1.5 * levels, (ratio, levels)
    print(
        f"criterion 3 PASS: jobs(LO+1)/jobs(Full) = {ratio:.2f} "
        f"in [{0.5 * levels:.1f}, {1.5 * levels:.1f}] at L={levels}"
    )


def test_criterion_04_data_movement_ordering(big_runs):
    full = big_runs["full"][0].bytes_compaction_written
    tier = big_runs["tier"][0].bytes_compaction_written
    savings = {}
    for name in PARTIALS:
        moved = big_runs[name][0].bytes_compaction_written
        assert tier < moved < full, (name, tier, moved, full)
        less = 1.0 - moved / full
        assert 0.2 <= less <= 0.7, (name, less)
        savings[name] = less
    summary = ", ".join(f"{n}={s:.0%}" for n, s in savings.items())
    print(f"criterion 4 PASS: Tier < partials < Full; savings vs Full: {summary}")


def test_criterion_05_write_amp_bands(big_runs):
    full, levels = big_runs["full"]
    tier, tier_levels = big_runs["tier"]
    t = BIG_CFG.size_ratio
    lev_est = write_amp_estimate(LEVELING, t, levels)
    tier_est = write_amp_estimate(TIERING, t, tier_levels)
    assert 0.5 * lev_est <= full.write_amp <= 2.0 * lev_est, (full.write_amp, lev_est)
    assert 0.5 * tier_est <= tier.write_amp <= 2.0 * tier_est, (tier.write_amp, tier_est)
    print(
        f"criterion 5 PASS: WA(Full)={full.write_amp:.1f} vs estimate {lev_est:.0f}; "
        f"WA(Tier)={tier.write_amp:.2f} vs estimate {tier_est:.0f}"
    )


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_pseudo_compaction(monkeypatch):
    results = []
    original = compaction_mod.execute_compaction

    def recording(engine, job):
        res = original(engine, job)
        results.append(res)
        return res

    monkeypatch.setattr(compaction_mod, "execute_compaction", recording)
    cfg = TreeConfig(
        size_ratio=4,
        buffer_bytes=1024,
        page_bytes=256,
        entry_bytes=64,
        block_cache_bytes=0,
    )
    with tempfile.TemporaryDirectory() as d:
        eng = LsmEngine(d, cfg, "lo1")
        # disjoint key ranges per fill so pushes find empty, non-overlapping
        # target levels and can move files by metadata edit alone
        for block in range(5):
            for i in range(64):
                k = f"{block * 10_000 + i:08d}".encode()
                eng.put(k, b"v" * 16)
            eng.quiesce()
        rep = eng.report()
        eng.close()
    pseudo = [r for r in results if r.pseudo]
    assert rep.pseudo_compaction_count >= 1
    assert pseudo, "no pseudo compaction observed"
    assert all(r.bytes_read == 0 and r.bytes_written == 0 for r in pseudo)
    print(
        f"criterion 6 PASS: {len(pseudo)} pseudo compactions, "
        "all with bytes_read = bytes_written = 0"
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_bloom_fpr():
    present = [f"{2 * i:010d}".encode() for i in range(100_000)]
    filt = BloomFilter.from_keys(present, bits_per_key=10.0)
    probes = 100_000
    hits = sum(
        filt.might_contain(f"{2 * i + 1:010d}".encode()) for i in range(probes)
    )
    fpr = hits / probes
    assert abs(fpr - 0.0082) <= 0.004, fpr
    print(f"criterion 7 PASS: measured FPR {fpr:.4f} within 0.0082 +/- 0.004")


# -- criterion 8 -------------------------------------------------------------


def _mean_data_pages(eng, keys):
    total = 0
    for k in keys:
        total += eng.point_lookup(k).data_pages_read
    return total / len(keys)


def test_criterion_08_point_lookup_io_ratio():
    cfg = TreeConfig(
        size_ratio=10,
        buffer_bytes=32768,
        page_bytes=2048,
        entry_bytes=128,
        bits_per_key=5.0,
        block_cache_bytes=0,  # cold cache
    )
    n = 20_000
    ops = generate(WorkloadSpec(inserts=n, seed=3, entry_bytes=128))
    rng = random.Random(99)
    present = [op[1] for op in rng.sample(ops, 3000)]
    width = len(ops[0][1])
    absent = [
        str(2 * rng.randrange(4 * n) + 1).zfill(width).encode() for _ in range(3000)
    ]

    means = {}
    for name in ("lo1", "tier"):
        with tempfile.TemporaryDirectory() as d:
            eng = LsmEngine(d, cfg, name)
            for op in ops:
                eng.put(op[1], op[2])
            eng.quiesce()
            means[name] = {
                "absent": _mean_data_pages(eng, absent),
                "present": _mean_data_pages(eng, present),
            }
            eng.close()

    t = cfg.size_ratio
    ratios = {}
    for alpha, kind in ((0.0, "present"), (1.0, "absent")):
        ratio = means["tier"][kind] / means["lo1"][kind]
        assert 1.05 <= ratio <= t, (kind, ratio, means)
        ratios[f"alpha={alpha:g}"] = ratio
    summary = ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items())
    print(f"criterion 8 PASS: Tier/Leveling data pages per lookup {summary}")


# -- criteria 9, 10 ----------------------------------------------------------


def test_criterion_09_delete_efficacy(delete_runs):
    remaining = {
        name: delete_runs[name].tombstones_remaining
        for name in ("tsa", "tsd", "lo1", "tier")
    }
    assert (
        remaining["tsa"] <= remaining["tsd"] <= remaining["lo1"] <= remaining["tier"]
    ), remaining
    age = delete_runs["tsa"].max_tombstone_age_ticks
    assert age <= delete_runs["d_th"], (age, delete_runs["d_th"])
    summary = ", ".join(f"{n}={v}" for n, v in remaining.items())
    print(
        f"criterion 9 PASS: tombstones remaining {summary}; "
        f"max TSA tombstone age {age} <= D_th {delete_runs['d_th']}"
    )


def test_criterion_10_delete_cost_tradeoff(delete_runs):
    moved = {
        name: delete_runs[name].bytes_compaction_written
        for name in ("tsa", "tsd", "lo1")
    }
    assert moved["tsa"] > moved["tsd"] > moved["lo1"], moved
    summary = ", ".join(f"{n}={v:,}" for n, v in moved.items())
    print(f"criterion 10 PASS: compaction bytes {summary}")


# -- criterion 11 ------------------------------------------------------------


def test_criterion_11_update_heavy_behavior():
    # small buffer so the tree reaches three levels; skewed updates so merges
    # actually encounter older versions of the same keys
    cfg = TreeConfig(
        size_ratio=10,
        buffer_bytes=8192,
        page_bytes=2048,
        entry_bytes=128,
        block_cache_bytes=0,
    )
    n = 12_500
    zipf = Distribution("zipf", s=1.0)
    base_ops = generate(WorkloadSpec(inserts=n, seed=21, entry_bytes=128))
    heavy_ops = generate(
        WorkloadSpec(
            inserts=n, update_ratio=8.0, seed=21, entry_bytes=128, lookup_dist=zipf
        )
    )

    def per_job_mean(rep):
        return rep.bytes_compaction_written / max(rep.compaction_count, 1)

    tier_base, _, _ = _ingest(base_ops, cfg, "tier")
    tier_heavy, _, _ = _ingest(heavy_ops, cfg, "tier")
    drop = 1.0 - per_job_mean(tier_heavy) / per_job_mean(tier_base)
    assert drop >= 0.25, (
        f"Tier per-job bytes dropped only {drop:.0%} at update ratio 8 "
        f"({per_job_mean(tier_base):,.0f} -> {per_job_mean(tier_heavy):,.0f})"
    )
    print(f"criterion 11 clause 1 PASS: Tier per-job bytes drop {drop:.0%} at update ratio 8")

    lo1_heavy, _, _ = _ingest(heavy_ops, cfg, "lo1")
    lo2_heavy, _, _ = _ingest(heavy_ops, cfg, "lo2")
    lo1_bytes = lo1_heavy.bytes_compaction_written
    lo2_bytes = lo2_heavy.bytes_compaction_written
    assert lo2_bytes < lo1_bytes, (
        f"LO+2 moved {lo2_bytes:,} bytes, not less than LO+1's {lo1_bytes:,}: "
        f"with per-flush absorption into a single level-1 run, "
        f"least-parent-overlap is already the greedy floor for total movement"
    )
    print(
        f"criterion 11 clause 2 PASS: LO+2 moved {lo2_bytes:,} < LO+1 {lo1_bytes:,}"
    )


# -- criterion 12 ------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    config = tmp_path / "bench.ini"
    config.write_text(
        """
[engine]
size_ratio = 10
buffer_bytes = 32768
page_bytes = 2048
entry_bytes = 128
block_cache_bytes = 0

[workload]
inserts = 20000
update_ratio = 0.5
delete_fraction = 0.1
point_lookups = 2000
alpha = 0.5
range_lookups = 50
seed = 7
"""
    )
    outputs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        rc = cli_main(
            ["run", "--config", str(config), "--strategy", "lo1,tier", "--out", out]
        )
        assert rc == 0
        with open(os.path.join(out, "metrics.csv"), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
    rows = len(outputs[0].splitlines()) - 2
    print(f"criterion 12 PASS: {rows} metrics rows byte-identical across reruns")

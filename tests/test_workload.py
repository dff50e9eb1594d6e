import importlib.util
import json
import pathlib
import random
import sys

import numpy as np
import pytest
from scipy import stats

from lsmclab.errors import WorkloadError
from lsmclab.workload import (
    Distribution,
    WorkloadSpec,
    generate,
    parse,
    sample,
    serialize,
)

import workload_reference

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def spec(**kw):
    base = dict(inserts=500, seed=3)
    base.update(kw)
    return WorkloadSpec(**base)


def split_ops(ops):
    by_kind = {"I": [], "U": [], "D": [], "P": [], "S": []}
    for op in ops:
        by_kind[op[0]].append(op)
    return by_kind


def test_determinism():
    s = spec(update_ratio=0.5, delete_fraction=0.1, point_lookups=100, alpha=0.3)
    assert generate(s) == generate(s)


def test_different_seeds_differ():
    assert generate(spec(seed=1)) != generate(spec(seed=2))


def test_counts_are_exact():
    s = spec(
        inserts=400,
        update_ratio=0.25,
        delete_fraction=0.1,
        point_lookups=120,
        alpha=0.25,
        range_lookups=10,
    )
    kinds = split_ops(generate(s))
    assert len(kinds["I"]) == 400
    assert len(kinds["U"]) == 100
    assert len(kinds["D"]) == 40
    assert len(kinds["P"]) == 120
    assert len(kinds["S"]) == 10


def test_insert_keys_unique_and_fixed_width():
    ops = generate(spec(inserts=300))
    keys = [op[1] for op in ops if op[0] == "I"]
    assert len(set(keys)) == 300
    widths = {len(k) for k in keys}
    assert len(widths) == 1
    assert all(k.isdigit() for k in keys)


def test_updates_and_deletes_follow_some_insert():
    s = spec(inserts=200, update_ratio=1.0, delete_fraction=0.3, seed=9)
    seen: set[bytes] = set()
    deleted: set[bytes] = set()
    for op in generate(s):
        if op[0] == "I":
            assert op[1] not in seen
            seen.add(op[1])
        elif op[0] == "U":
            assert op[1] in seen
        elif op[0] == "D":
            assert op[1] in seen
            assert op[1] not in deleted  # each delete targets a distinct key
            deleted.add(op[1])


def test_alpha_controls_empty_lookups_exactly():
    s = spec(inserts=300, point_lookups=200, alpha=0.25, seed=5)
    ops = generate(s)
    live: set[bytes] = set()
    for op in ops:
        if op[0] == "I":
            live.add(op[1])
    empty = sum(1 for op in ops if op[0] == "P" and op[1] not in live)
    assert empty == 50


def test_empty_lookups_use_odd_keys():
    ops = generate(spec(inserts=100, point_lookups=60, alpha=1.0))
    for op in ops:
        if op[0] == "I":
            assert int(op[1]) % 2 == 0
        elif op[0] == "P":
            assert int(op[1]) % 2 == 1


def test_serial_puts_all_lookups_last():
    s = spec(inserts=200, point_lookups=50, interleaving="serial")
    ops = generate(s)
    first_lookup = next(i for i, op in enumerate(ops) if op[0] in ("P", "S"))
    assert all(op[0] in ("P", "S") for op in ops[first_lookup:])


def test_interleaved_spreads_lookups():
    s = spec(
        inserts=2000,
        point_lookups=100,
        interleaving="interleaved",
        buffer_entries=16,
        size_ratio=4,
    )
    ops = generate(s)
    positions = [i for i, op in enumerate(ops) if op[0] == "P"]
    # lookups start only after L-1 levels' worth of ingestion
    filled = 16 * (4 + 4**2)  # buffer_entries * (T + T^2) for L=3
    assert positions[0] >= filled
    assert positions[-1] > positions[0]
    spread = np.diff(positions)
    assert spread.max() <= 3 * max(spread.mean(), 1)


def test_value_fits_entry_slot():
    from lsmclab.config import ENTRY_HEADER_BYTES

    for entry_bytes in (32, 64, 128):
        ops = generate(spec(inserts=50, entry_bytes=entry_bytes))
        for op in ops:
            if op[0] == "I":
                assert ENTRY_HEADER_BYTES + len(op[1]) + len(op[2]) <= entry_bytes


def test_spec_validation():
    with pytest.raises(WorkloadError):
        WorkloadSpec(inserts=0)
    with pytest.raises(WorkloadError):
        WorkloadSpec(inserts=10, alpha=1.5)
    with pytest.raises(WorkloadError):
        WorkloadSpec(inserts=10, selectivity=0.0)
    with pytest.raises(WorkloadError):
        WorkloadSpec(inserts=10, interleaving="zigzag")
    with pytest.raises(WorkloadError):
        Distribution("pareto")
    # 1,000 inserts make 4-digit keys: 13 + 4 bytes do not fit 16, though
    # 13 + key_bytes do
    with pytest.raises(WorkloadError, match="too small for 4-byte keys"):
        WorkloadSpec(inserts=1000, entry_bytes=16, key_bytes=3)
    # an exact fit leaves no room for a value
    ops = generate(WorkloadSpec(inserts=1000, entry_bytes=17, key_bytes=3, update_ratio=0.1))
    assert {op[2] for op in ops if op[0] in "IU"} == {b""}


# ---------------------------------------------------------------------------
# Distributions


def test_uniform_sample_chi_square():
    rng = np.random.default_rng(0)
    draws = sample(Distribution("uniform"), rng, 40_000, 20)
    counts = np.bincount(draws, minlength=20)
    _chi, p = stats.chisquare(counts)
    assert p > 0.01


def test_normal_sample_concentrates_at_center():
    rng = np.random.default_rng(0)
    domain = 1000
    draws = sample(Distribution("normal", stddev_pct=10.0), rng, 20_000, domain)
    assert draws.min() >= 0 and draws.max() < domain
    assert abs(draws.mean() - domain / 2) < domain * 0.02
    center = ((draws > 400) & (draws < 600)).mean()
    assert center > 0.6


def test_zipf_rank_ratio_matches_exponent():
    rng = np.random.default_rng(0)
    s = 1.0
    draws = sample(Distribution("zipf", s=s), rng, 200_000, 1000)
    counts = np.bincount(draws, minlength=1000)
    # P(rank 1) / P(rank 2) = 2^s
    ratio = counts[0] / counts[1]
    assert ratio == pytest.approx(2.0**s, rel=0.10)


def test_prefix_zipf_concentrates_on_hot_prefixes():
    rng = np.random.default_rng(0)
    domain = 100_000
    draws = sample(Distribution("prefix_zipf", s=1.2, prefix_bytes=2), rng, 50_000, domain)
    assert draws.min() >= 0 and draws.max() < domain
    width = len(str(domain - 1))
    prefixes = draws // 10 ** (width - 2)
    top = np.bincount(prefixes).max() / len(draws)
    assert top > 0.2  # the hottest prefix dominates


def test_nonuniform_insert_distribution_still_unique():
    s = spec(inserts=300, insert_dist=Distribution("zipf", s=1.0))
    keys = [op[1] for op in generate(s) if op[0] == "I"]
    assert len(set(keys)) == 300


# ---------------------------------------------------------------------------
# File round trip


def test_serialize_parse_round_trip(tmp_path):
    s = spec(
        inserts=150,
        update_ratio=0.2,
        delete_fraction=0.1,
        point_lookups=30,
        range_lookups=5,
    )
    ops = generate(s)
    path = str(tmp_path / "w.txt")
    serialize(ops, path)
    assert list(parse(path)) == ops


def test_parse_skips_comments_and_blanks(tmp_path):
    path = str(tmp_path / "w.txt")
    with open(path, "w") as fh:
        fh.write("# header\n\nI 0002 val\nP 0003\nS 0000 0010\n")
    ops = list(parse(path))
    assert ops == [
        ("I", b"0002", b"val"),
        ("P", b"0003"),
        ("S", b"0000", b"0010"),
    ]


def test_parse_rejects_malformed_lines(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("I 0002\n")  # missing value
    with pytest.raises(WorkloadError, match="line 1"):
        list(parse(path))
    with open(path, "w") as fh:
        fh.write("X 0002 v\n")
    with pytest.raises(WorkloadError):
        list(parse(path))


# ---------------------------------------------------------------------------
# The column generator against the earlier per-op generator


def _grid_spec(rng: random.Random) -> WorkloadSpec:
    dists = [
        Distribution("uniform"),
        Distribution("normal", stddev_pct=rng.choice([5.0, 34.0, 100.0])),
        Distribution("zipf", s=rng.choice([0.5, 1.0, 1.5])),
        Distribution("prefix_zipf", s=1.2, prefix_bytes=rng.choice([1, 2, 3])),
    ]
    inserts = rng.choice([1, 2, 3, 10, rng.randint(1, 400), rng.randint(1, 4000)])
    return WorkloadSpec(
        inserts=inserts,
        update_ratio=rng.choice([0, 0.5, 1, 8, rng.uniform(0, 4)]),
        delete_fraction=rng.choice([0, 0.1, 1, rng.random()]),
        point_lookups=rng.choice([0, 1, rng.randint(0, 2000)]),
        alpha=rng.choice([0.0, 1.0, rng.random()]),
        range_lookups=rng.choice([0, 1, rng.randint(0, 30)]),
        selectivity=rng.choice([0.001, 0.5, 1.0]),
        entry_bytes=rng.choice([32, 64, 128]),
        key_bytes=rng.choice([1, 4, 8]),
        insert_dist=rng.choice(dists),
        lookup_dist=rng.choice(dists),
        interleaving=rng.choice(["serial", "interleaved"]),
        seed=rng.randrange(2**32),
        buffer_entries=rng.choice([1, 4, 64, 1024, 65536]),
        size_ratio=rng.choice([2, 4, 10]),
    )


def _early_ops(spec: WorkloadSpec) -> tuple[int, int]:
    """(updates before the first insert, deletes before their key's insert),
    from the tag shuffle that a uniform-insert spec draws."""
    rng = np.random.default_rng(spec.seed)
    n_updates = round(spec.update_ratio * spec.inserts)
    n_deletes = round(spec.delete_fraction * spec.inserts)
    rng.choice(max(4 * spec.inserts, 1024), spec.inserts, replace=False)
    targets = np.sort(rng.permutation(spec.inserts)[:n_deletes])
    tags = np.array(["I"] * spec.inserts + ["U"] * n_updates + ["D"] * n_deletes)
    rng.shuffle(tags)
    ins_at = np.flatnonzero(tags == "I")
    early_updates = np.flatnonzero(tags == "U") < ins_at[0]
    early_deletes = np.flatnonzero(tags == "D") < ins_at[targets]
    return int(early_updates.sum()), int(early_deletes.sum())


GRID = [_grid_spec(random.Random(i)) for i in range(300)] + [
    # few inserts among many updates and deletes: early ops are likely
    WorkloadSpec(inserts=n, update_ratio=8, delete_fraction=1, point_lookups=5, seed=seed)
    for n in (1, 2, 3)
    for seed in range(4)
] + [
    WorkloadSpec(
        inserts=20_000,
        update_ratio=2,
        delete_fraction=0.3,
        point_lookups=2000,
        alpha=0.5,
        range_lookups=20,
        lookup_dist=Distribution("zipf"),
        interleaving="interleaved",
        buffer_entries=64,
        size_ratio=4,
        seed=11,
    )
]


def test_grid_covers_the_deferral_rules():
    uniform = [s for s in GRID if s.insert_dist.kind == "uniform"]
    early = [_early_ops(s) for s in uniform]
    assert sum(u > 0 for u, _ in early) >= 5
    assert sum(d > 0 for _, d in early) >= 5
    assert {1, 20_000} <= {s.inserts for s in GRID}
    assert {0.0, 1.0} <= {s.alpha for s in GRID}
    assert {d.kind for s in GRID for d in (s.insert_dist, s.lookup_dist)} == {
        "uniform",
        "normal",
        "zipf",
        "prefix_zipf",
    }


@pytest.mark.parametrize("chunk", range(8))
def test_generate_equals_the_per_op_reference(chunk):
    for spec in GRID[chunk::8]:
        ops = generate(spec)
        assert ops == workload_reference.generate(spec), spec
        assert all(type(op[0]) is str and type(op[1]) is bytes for op in ops)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# Regenerating all ten recorded seeds of the three workloads takes about 5 s;
# seeds 1 (the one CI traces), 5 and 10 take a third of that.
@pytest.mark.parametrize("seed", [1, 5, 10])
def test_benchmark_streams_match_the_recorded_fingerprints(seed):
    workloads, run = _load("workloads"), _load("run")
    recorded = json.loads((PERFBENCH / "baseline.json").read_text())["fingerprints"]
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        digest = run.fingerprint(generate(workload.spec(seed)))
        assert digest == recorded[name][str(seed)], name

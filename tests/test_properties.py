"""Property-based checks for the core invariants."""

import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from lsmclab import LsmEngine
from lsmclab.bloom import BloomFilter
from lsmclab.sstable import PUT
from lsmclab.workload import Distribution, WorkloadSpec, generate

from conftest import MIXED_KEYS, key, small_config

PRESET_SAMPLE = ("full", "lo1", "rr", "tier", "1lvl", "tsd")

keys_st = st.lists(
    st.binary(min_size=1, max_size=12), min_size=1, max_size=64, unique=True
)


@given(keys=keys_st, bpk=st.floats(min_value=1.0, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_bloom_never_false_negative(keys, bpk):
    filt = BloomFilter.from_keys(keys, bpk)
    assert all(filt.might_contain(k) for k in keys)
    clone = BloomFilter.from_bytes(filt.to_bytes())
    assert all(clone.might_contain(k) for k in keys)


ops_st = st.lists(
    st.tuples(
        st.sampled_from(("put", "del", "get", "scan")),
        st.integers(min_value=0, max_value=120),
    ),
    min_size=1,
    max_size=120,
)


@given(ops=ops_st, strategy=st.sampled_from(PRESET_SAMPLE), seed=st.integers(0, 5))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engine_matches_dict_oracle(ops, strategy, seed):
    cfg = small_config()
    oracle: dict[bytes, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        eng = LsmEngine(tmp, cfg, strategy, debug_checks=True)
        for kind, i in ops:
            k = key(2 * i + seed % 2)
            if kind == "put":
                v = b"v%d" % i
                eng.put(k, v)
                oracle[k] = v
            elif kind == "del":
                eng.delete(k)
                oracle.pop(k, None)
            elif kind == "get":
                assert eng.get(k) == oracle.get(k)
            else:
                hi = key(2 * i + 40)
                got = eng.range_scan(k, hi)
                want = sorted((a, b) for a, b in oracle.items() if k <= a < hi)
                assert got == want
        eng.quiesce()
        eng.manifest.check()
        for k, v in oracle.items():
            assert eng.get(k) == v
        eng.close()


@st.composite
def mixed_key_ops(draw):
    pool = list(MIXED_KEYS) + draw(st.lists(st.binary(min_size=1, max_size=24), max_size=40))
    key_st = st.sampled_from(pool)
    op_st = st.sampled_from(("put", "put", "del", "get", "scan"))
    return draw(st.lists(st.tuples(op_st, key_st, key_st), min_size=20, max_size=150))


def census_oracle(eng):
    """Space amplification from every file's decoded entries and a dict."""
    newest: dict[bytes, tuple[int, int]] = {}
    total = 0
    for fid in eng.manifest.files:
        for k, seq, kind, _v in eng.reader(fid).iter_entries():
            total += 1
            if k not in newest or seq > newest[k][0]:
                newest[k] = (seq, kind)
    live = sum(kind == PUT for _seq, kind in newest.values())
    return (total - live) / max(live, 1) if total else 0.0


@given(ops=mixed_key_ops(), strategy=st.sampled_from(("full", "lo1", "tier", "1lvl")))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mixed_length_keys_match_dict_oracle(ops, strategy):
    cfg = small_config()
    oracle: dict[bytes, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        eng = LsmEngine(tmp, cfg, strategy, debug_checks=True)
        for i, (kind, k, other) in enumerate(ops):
            if kind == "put":
                v = b"v%d" % i
                eng.put(k, v)
                oracle[k] = v
            elif kind == "del":
                eng.delete(k)
                oracle.pop(k, None)
            elif kind == "get":
                assert eng.get(k) == oracle.get(k)
            else:
                lo, hi = min(k, other), max(k, other)
                want = sorted((a, b) for a, b in oracle.items() if lo <= a < hi)
                assert eng.range_scan(lo, hi) == want
        assert eng.measure_space_amp() == census_oracle(eng)
        eng.quiesce()
        eng.manifest.check()
        assert eng.measure_space_amp() == census_oracle(eng)
        for k in {k for _op, k, _other in ops}:
            assert eng.get(k) == oracle.get(k)
        assert eng.range_scan(b"", b"\xff" * 25) == sorted(oracle.items())
        eng.close()


@given(
    ops=st.lists(st.integers(0, 200), min_size=20, max_size=200),
    strategy=st.sampled_from(PRESET_SAMPLE),
)
@settings(max_examples=25, deadline=None)
def test_leveled_runs_stay_disjoint_and_capped(ops, strategy):
    cfg = small_config()
    with tempfile.TemporaryDirectory() as tmp:
        eng = LsmEngine(tmp, cfg, strategy, debug_checks=True)
        for i in ops:
            eng.put(key(2 * i), b"x" * 8)
        eng.quiesce()
        eng.manifest.check()
        t = cfg.size_ratio
        deepest = eng.manifest.deepest_nonempty_level()
        for level_no in range(1, eng.manifest.level_count() + 1):
            runs = eng.manifest.run_count(level_no)
            if eng.strategy.layout.is_tiered(level_no, deepest):
                assert runs <= t
            else:
                assert runs <= 1
        eng.close()


@given(
    inserts=st.integers(min_value=1, max_value=300),
    update_ratio=st.floats(min_value=0.0, max_value=2.0),
    delete_fraction=st.floats(min_value=0.0, max_value=1.0),
    lookups=st.integers(min_value=0, max_value=100),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
    dist=st.sampled_from(("uniform", "zipf", "normal")),
)
@settings(max_examples=40, deadline=None)
def test_workload_stream_is_causal(
    inserts, update_ratio, delete_fraction, lookups, alpha, seed, dist
):
    spec = WorkloadSpec(
        inserts=inserts,
        update_ratio=update_ratio,
        delete_fraction=delete_fraction,
        point_lookups=lookups,
        alpha=alpha,
        seed=seed,
        insert_dist=Distribution(dist),
    )
    ops = generate(spec)
    seen: set[bytes] = set()
    counts = {"I": 0, "U": 0, "D": 0}
    for op in ops:
        if op[0] == "I":
            assert op[1] not in seen
            seen.add(op[1])
            counts["I"] += 1
        elif op[0] in ("U", "D"):
            assert op[1] in seen
            counts[op[0]] += 1
    assert counts["I"] == inserts
    assert counts["U"] == round(update_ratio * inserts)
    assert counts["D"] == round(delete_fraction * inserts)
    assert ops == generate(spec)

"""The benchmark's span tracer (``perfbench/tracer.py``) against the engine.

The tracer wraps engine and sorted-file functions by name and reads their
results, so a change to what a wrapped function returns fails here in
seconds rather than in a traced benchmark pass.
"""

import importlib.util
import inspect
import pathlib
import random
import sys

from lsmclab import LsmEngine

from conftest import key, small_config, value

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(tracer_module):
    """Every name a traced target is bound to: (owner, attribute, object)."""
    out = []
    for _name, owner, attr in tracer_module.TARGETS:
        if inspect.ismodule(owner):
            original = getattr(owner, attr)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "lsmclab":
                    continue
                for name, obj in list(vars(module).items()):
                    if obj is original:
                        out.append((module, name, obj))
        else:
            out.append((owner, attr, inspect.getattr_static(owner, attr)))
    return out


def test_traced_ops_succeed_and_count_every_file_written(tmp_path):
    tracer_module = load_tracer_module()
    before = bound_names(tracer_module)
    cfg = small_config(block_cache_bytes=4096)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        rng = random.Random(3)
        oracle = {}
        with LsmEngine(str(tmp_path), cfg, "lo1", debug_checks=True) as eng:
            for i in range(3000):
                k = key(rng.randrange(500))
                roll = rng.random()
                if roll < 0.5:
                    eng.put(k, value(i))
                    oracle[k] = value(i)
                elif roll < 0.6:
                    eng.delete(k)
                    oracle.pop(k, None)
                else:
                    assert eng.get(k) == oracle.get(k)
            eng.quiesce()
            assert eng.range_scan(b"", b"\xff") == sorted(oracle.items())
            files_written = eng.manifest.next_file_id - 1
            assert eng.metrics.compaction_count > 10
    finally:
        tracer.uninstall()
    assert tracer.counts["sstable.files_written"] == files_written
    assert tracer.totals("sstable.write_slots")[0] == files_written
    assert tracer.totals("engine.write")[0] > 1000
    assert tracer.totals("bloom.probe")[0] > 0
    # every wrapped name holds its original object again
    assert not tracer._restore
    assert all(
        inspect.getattr_static(owner, attr) is obj for owner, attr, obj in before
    ), "the tracer left a wrapper installed"

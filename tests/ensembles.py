"""The compaction design space as a grid of ensembles, each replayed
against a dict oracle.

An ensemble is named ``triggers/layout/granularity/chain``, for example
``dens+sat/leveling/file/lo1``. The full grid is 7 trigger sets x 6 layouts
x 4 granularities x 8 movement chains = 1,344 ensembles. Each replays 1,500
puts and deletes over 600 keys on a tree of size ratio 3 with 8-entry
buffers and ``debug_checks=True``, drains its triggers, and must then match
the oracle both before and after a reopen.

``tests/test_compaction.py`` runs a covering subset (``SUBSET``). Run the
whole grid with::

    PYTHONPATH=src python tests/ensembles.py --staleness 300 --dth 400 --seed 1
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import tempfile
import time

from lsmclab import LsmEngine, TreeConfig
from lsmclab.compaction import (
    CompactionStrategy,
    DataLayout,
    Granularity,
    GranularityKind,
    LayoutKind,
    MovementPolicy,
    Trigger,
    TriggerKind,
)

_SAT = Trigger(TriggerKind.LEVEL_SATURATION, 1.0)
_RUNS = Trigger(TriggerKind.SORTED_RUN_COUNT, None)


def _trigger_sets(staleness: float) -> dict[str, tuple[Trigger, ...]]:
    return {
        "sat": (_SAT,),
        "runs": (_RUNS,),
        "runs+sat": (_RUNS, _SAT),
        "runs+sa": (_RUNS, Trigger(TriggerKind.SPACE_AMP, 0.5)),
        "stale+sat": (Trigger(TriggerKind.FILE_STALENESS, staleness), _SAT),
        "ttl+sat": (Trigger(TriggerKind.TOMBSTONE_TTL, None), _SAT),
        "dens+sat": (Trigger(TriggerKind.TOMBSTONE_DENSITY, 0.2), _SAT),
    }


TRIGGER_SETS = tuple(_trigger_sets(1.0))  # the names; the staleness TTL is a probe setting
LAYOUTS = {
    "leveling": DataLayout(LayoutKind.LEVELING),
    "tiering": DataLayout(LayoutKind.TIERING),
    "one_leveling": DataLayout(LayoutKind.ONE_LEVELING),
    "l_leveling": DataLayout(LayoutKind.L_LEVELING),
    "hybrid": DataLayout(LayoutKind.HYBRID, ("tiered", "leveled")),
    "hybrid_lt": DataLayout(LayoutKind.HYBRID, ("leveled", "tiered")),
}
GRANULARITIES = {
    "level": Granularity(GranularityKind.LEVEL),
    "sorted_run": Granularity(GranularityKind.SORTED_RUN),
    "file": Granularity(GranularityKind.FILE),
    "files3": Granularity(GranularityKind.FILES, 3),
}
_LO1 = MovementPolicy.LEAST_OVERLAP_PARENT
CHAINS = {
    "full": (MovementPolicy.ENTIRE_LEVEL,),
    "rr": (MovementPolicy.ROUND_ROBIN,),
    "lo1": (_LO1,),
    "lo2": (MovementPolicy.LEAST_OVERLAP_GRANDPARENT,),
    "cold": (MovementPolicy.COLDEST,),
    "old": (MovementPolicy.OLDEST,),
    "ts>lo1": (MovementPolicy.MOST_TOMBSTONES, _LO1),
    "ttl>lo1": (MovementPolicy.EXPIRED_TOMBSTONE_TTL, _LO1),
}

GRID = tuple(
    "/".join(parts) for parts in itertools.product(TRIGGER_SETS, LAYOUTS, GRANULARITIES, CHAINS)
)

# Every trigger set x movement chain pair, with the first five layouts and
# the granularities cycled so that each of them appears, plus ensembles
# that once livelocked or split a run (the leveled-over-tiered hybrid
# enters through these).
SUBSET = tuple(
    dict.fromkeys(
        [
            f"{trig}/{list(LAYOUTS)[i % 5]}/{list(GRANULARITIES)[(i + i // 8) % 4]}/{chain}"
            for i, (trig, chain) in enumerate(itertools.product(TRIGGER_SETS, CHAINS))
        ]
        + [
            "dens+sat/leveling/file/lo1",
            "dens+sat/one_leveling/file/cold",
            "dens+sat/leveling/files3/ttl>lo1",
            "stale+sat/leveling/file/ts>lo1",
            "ttl+sat/leveling/file/lo1",
            "stale+sat/leveling/files3/ttl>lo1",
            "stale+sat/one_leveling/files3/cold",
            "sat/hybrid_lt/files3/rr",
            "sat/hybrid_lt/files3/lo2",
            "sat/hybrid_lt/files3/ts>lo1",
            "runs+sat/hybrid_lt/files3/rr",
            "runs+sat/hybrid_lt/files3/lo2",
            "runs+sat/hybrid_lt/files3/ts>lo1",
        ]
    )
)


def strategy(name: str, staleness: float) -> CompactionStrategy:
    trig, layout, gran, chain = name.split("/")
    return CompactionStrategy(
        name=name,
        triggers=_trigger_sets(staleness)[trig],
        layout=LAYOUTS[layout],
        granularity=GRANULARITIES[gran],
        movement=CHAINS[chain],
    )


def _key(i: int) -> bytes:
    return b"%06d" % i


def _verify(engine: LsmEngine, oracle: dict[bytes, bytes], when: str) -> None:
    for i in range(600):
        k = _key(i)
        got = engine.get(k)
        if got != oracle.get(k):
            raise AssertionError(f"{when}: get({k!r}) is {got!r}, oracle has {oracle.get(k)!r}")
    scanned = engine.range_scan(_key(0), _key(600))
    if scanned != sorted(oracle.items()):
        raise AssertionError(f"{when}: range scan differs from the oracle")


def check(name: str, directory: str, staleness: float, d_th: int, seed: int) -> None:
    """Replay the probe on one ensemble; raises on the first fault."""
    cfg = TreeConfig(
        size_ratio=3,
        buffer_bytes=512,
        page_bytes=256,
        entry_bytes=64,
        block_cache_bytes=4096,
        delete_persistence_threshold=d_th,
    )
    ensemble = strategy(name, staleness)
    rng = random.Random(seed)
    oracle: dict[bytes, bytes] = {}
    with LsmEngine(directory, cfg, ensemble, debug_checks=True) as engine:
        for i in range(1500):
            k = _key(rng.randrange(600))
            if rng.random() < 0.25:
                engine.delete(k)
                oracle.pop(k, None)
            else:
                oracle[k] = b"v%d" % i
                engine.put(k, oracle[k])
        engine.quiesce()
        _verify(engine, oracle, "before reopen")
    with LsmEngine(directory, cfg, ensemble, debug_checks=True) as engine:
        engine.manifest.check()
        _verify(engine, oracle, "after reopen")


def failures(names, staleness: float, d_th: int, seed: int) -> dict[str, str]:
    """Each failing ensemble's name mapped to its error."""
    out = {}
    for name in names:
        with tempfile.TemporaryDirectory(prefix="lsmclab-grid-") as directory:
            try:
                check(name, directory, staleness, d_th, seed)
            except Exception as exc:  # noqa: BLE001 - every fault is a finding
                out[name] = f"{type(exc).__name__}: {exc}"
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--staleness", type=float, default=300.0)
    parser.add_argument("--dth", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    failed = failures(GRID, args.staleness, args.dth, args.seed)
    for name, error in failed.items():
        print(f"{name}: {error}")
    print(
        f"{len(failed)} of {len(GRID)} ensembles failed "
        f"(staleness {args.staleness:g}, D_th {args.dth}, seed {args.seed}) "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

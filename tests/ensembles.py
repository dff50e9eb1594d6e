"""The compaction design space as a grid of ensembles, each replayed
against a dict oracle.

An ensemble is named ``triggers/layout/granularity/chain``, for example
``dens+sat/leveling/file/lo1``, and ``lsmclab.compaction.parse_ensemble``
builds it; this module holds only the names. The full grid is 7 trigger
sets x 6 layouts x 4 granularities x 8 movement chains = 1,344 ensembles.
Each replays 1,500 puts and deletes over 600 keys on a tree of size ratio 3
with 8-entry buffers and ``debug_checks=True``, drains its triggers, must
end at most 8 levels deep, and must match the oracle both before and after
a reopen. Before each job, planning from the manifest reloaded from disk
must give the job about to run. The names carry ``stale:300``;
``--staleness`` replaces that argument.

Each replay yields one row: compaction bytes written, jobs, pseudo jobs,
level count, a digest of the final tree (each run's file ids, min keys and
entry counts) and a digest of the job sequence (each job's levels, victim
and target ids, pseudo and purge flags and cursors). ``tests/data/grid.csv``
pins the rows of every ensemble under both probe settings of the CI grid
job (staleness 300, D_th 400, seed 1 and staleness 150, D_th 200, seed 2),
so a change to any ensemble's behaviour shows.

``tests/test_compaction.py`` runs a covering subset (``SUBSET``) and
compares its rows, and ``tests/test_cli.py`` pins the subset's
``metrics.csv``. Run the whole grid, and compare its rows, with::

    PYTHONPATH=src python tests/ensembles.py --staleness 300 --dth 400 --seed 1

``--rewrite`` writes that setting's rows into ``tests/data/grid.csv``
instead, for a change that sets out to move them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import sys
import tempfile
import time
from contextlib import contextmanager

from lsmclab import LsmEngine, TreeConfig, compaction
from lsmclab.compaction import parse_ensemble
from lsmclab.manifest import MANIFEST_NAME, Manifest

# the names of each axis; "stale:300" is rewritten to the probe's staleness
TRIGGER_SETS = ("sat", "runs", "runs+sat", "runs+sa", "stale:300+sat", "ttl+sat", "dens+sat")
LAYOUTS = ("leveling", "tiering", "one_leveling", "l_leveling", "hybrid:tl", "hybrid:lt")
GRANULARITIES = ("level", "sorted_run", "file", "files:3")
CHAINS = ("full", "rr", "lo1", "lo2", "cold", "old", "ts>lo1", "ttl>lo1")

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
            f"{trig}/{LAYOUTS[i % 5]}/{GRANULARITIES[(i + i // 8) % 4]}/{chain}"
            for i, (trig, chain) in enumerate(itertools.product(TRIGGER_SETS, CHAINS))
        ]
        + [
            "dens+sat/leveling/file/lo1",
            "dens+sat/one_leveling/file/cold",
            "dens+sat/leveling/files:3/ttl>lo1",
            "stale:300+sat/leveling/file/ts>lo1",
            "ttl+sat/leveling/file/lo1",
            "stale:300+sat/leveling/files:3/ttl>lo1",
            "stale:300+sat/one_leveling/files:3/cold",
            "sat/hybrid:lt/files:3/rr",
            "sat/hybrid:lt/files:3/lo2",
            "sat/hybrid:lt/files:3/ts>lo1",
            "runs+sat/hybrid:lt/files:3/rr",
            "runs+sat/hybrid:lt/files:3/lo2",
            "runs+sat/hybrid:lt/files:3/ts>lo1",
        ]
    )
)


GRID_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "grid.csv")
FIELDS = (
    "staleness", "dth", "seed", "ensemble",
    "bytes_written", "jobs", "pseudo_jobs", "levels", "tree", "job_sequence",
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


def tree_config(d_th: int) -> TreeConfig:
    """The probe's tree: size ratio 3 and 8-entry buffers."""
    return TreeConfig(
        size_ratio=3,
        buffer_bytes=512,
        page_bytes=256,
        entry_bytes=64,
        block_cache_bytes=4096,
        delete_persistence_threshold=d_th,
    )


def probe_ops(seed: int):
    """The probe's 1,500 writes over 600 keys as (key, value) pairs; the
    value is None for a delete."""
    rng = random.Random(seed)
    for i in range(1500):
        k = _key(rng.randrange(600))
        yield k, None if rng.random() < 0.25 else b"v%d" % i


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


@contextmanager
def _jobs_replanned_from_disk(directory: str):
    """Before each job, plan again from the manifest reloaded from
    ``directory``, with the engine's strategy, config and session inputs,
    and require the job about to run, cursor included: the manifest's log
    holds all the tree state the planner reads. Yields the list each job
    run is recorded in, without its placement mode.

    A reload replays the log's edits in order, so replaying only the edits
    appended since the last job gives the manifest a fresh open would load.
    """
    reloaded = Manifest(directory)
    log_path = os.path.join(directory, MANIFEST_NAME)
    replayed = 0  # bytes of the log applied to ``reloaded``
    execute = compaction.execute_compaction
    jobs = []

    def checked(engine, job):
        nonlocal replayed
        with open(log_path, "rb") as fh:
            fh.seek(replayed)
            appended = fh.read()
        for line in appended.splitlines():
            reloaded._apply(reloaded._edit_from_json(json.loads(line)))
        replayed += len(appended)
        view = dataclasses.replace(engine.view, manifest=reloaded)
        level_no, trigger = compaction.evaluate_triggers(view)[0]
        replanned = compaction.select_compaction(view, level_no, trigger)
        if replanned != job:
            raise AssertionError(f"planned from the reloaded manifest {replanned}, ran {job}")
        jobs.append(
            (job.source_level, job.target_level, job.victim_ids, job.target_ids,
             job.pseudo, job.purge, sorted(job.cursors.items()))
        )
        return execute(engine, job)

    compaction.execute_compaction = checked
    try:
        yield jobs
    finally:
        compaction.execute_compaction = execute


def check(name: str, directory: str, staleness: float, d_th: int, seed: int) -> tuple:
    """Replay the probe on one ensemble and return its row; raises on the
    first fault."""
    cfg = tree_config(d_th)
    ensemble = parse_ensemble(re.sub(r"stale:[^+/]*", f"stale:{staleness:g}", name))
    oracle: dict[bytes, bytes] = {}
    with (
        _jobs_replanned_from_disk(directory) as jobs,
        LsmEngine(directory, cfg, ensemble, debug_checks=True) as engine,
    ):
        for k, v in probe_ops(seed):
            if v is None:
                engine.delete(k)
                oracle.pop(k, None)
            else:
                oracle[k] = v
                engine.put(k, v)
        engine.quiesce()
        # the probe's data fills about 4 levels at size ratio 3, and no
        # ensemble of the grid ends deeper than 6; a deeper tree means jobs
        # pushed data into levels it does not need
        if engine.manifest.level_count() > 8:
            raise AssertionError(f"{engine.manifest.level_count()} levels after quiesce")
        _verify(engine, oracle, "before reopen")
        man = engine.manifest
        tree = [
            [[(fid, man.files[fid].min_key, man.files[fid].entry_count) for fid in run]
             for run in level]
            for level in man.snapshot()
        ]
        metrics = engine.metrics
        row = (
            f"{staleness:g}", str(d_th), str(seed), name,
            str(metrics.bytes_compaction_written), str(metrics.compaction_count),
            str(metrics.pseudo_compaction_count), str(man.level_count()),
            _digest(tree), _digest(jobs),
        )
    with LsmEngine(directory, cfg, ensemble, debug_checks=True) as engine:
        engine.manifest.check()
        _verify(engine, oracle, "after reopen")
    return row


def replay(names, staleness: float, d_th: int, seed: int) -> tuple[dict, dict[str, str]]:
    """The rows of the ensembles that replayed cleanly, and each failing
    ensemble's name mapped to its error."""
    rows, failed = {}, {}
    for name in names:
        with tempfile.TemporaryDirectory(prefix="lsmclab-grid-") as directory:
            try:
                rows[name] = check(name, directory, staleness, d_th, seed)
            except Exception as exc:  # noqa: BLE001 - every fault is a finding
                failed[name] = f"{type(exc).__name__}: {exc}"
    return rows, failed


def _pinned() -> dict[tuple, tuple]:
    """``tests/data/grid.csv``'s rows keyed by setting and ensemble."""
    with open(GRID_CSV, newline="") as fh:
        lines = list(csv.reader(fh))
    assert tuple(lines[0]) == FIELDS, f"{GRID_CSV} has columns {lines[0]}"
    return {tuple(line[:4]): tuple(line) for line in lines[1:]}


def differing(rows: dict) -> list[tuple]:
    """``(pinned, replayed)`` for each replayed row that differs from its
    pinned row; pinned is None when the file has no row for it."""
    pinned = _pinned()
    return [
        (pinned.get(row[:4]), row) for row in rows.values() if pinned.get(row[:4]) != row
    ]


def _rewrite(rows: dict) -> None:
    pinned = _pinned() if os.path.exists(GRID_CSV) else {}
    pinned.update((row[:4], row) for row in rows.values())
    with open(GRID_CSV, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(FIELDS)
        out.writerows(pinned.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--staleness", type=float, default=300.0)
    parser.add_argument("--dth", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--rewrite", action="store_true", help="write the rows into tests/data/grid.csv"
    )
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rows, failed = replay(GRID, args.staleness, args.dth, args.seed)
    for name, error in failed.items():
        print(f"{name}: {error}")
    if args.rewrite:
        _rewrite(rows)
        changed = []
    else:
        changed = differing(rows)
        for pinned, row in changed:
            print(f"pinned   {','.join(pinned) if pinned else '(no row)'}")
            print(f"replayed {','.join(row)}")
    print(
        f"{len(failed)} of {len(GRID)} ensembles failed and {len(changed)} rows differ "
        f"from {os.path.relpath(GRID_CSV)} "
        f"(staleness {args.staleness:g}, D_th {args.dth}, seed {args.seed}) "
        f"in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())

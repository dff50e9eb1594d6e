"""The op-stream generator as it was written before column passes.

``lsmclab.workload.generate`` builds the same stream with numpy column
passes. This module keeps the earlier generator, which walked the shuffled
tag array one op at a time, as the reference that ``test_workload.py``
compares it with. The bodies below are the earlier code, unchanged.
"""

from __future__ import annotations

import numpy as np

from lsmclab.config import ENTRY_HEADER_BYTES
from lsmclab.errors import WorkloadError
from lsmclab.workload import (
    SERIAL,
    Distribution,
    Operation,
    WorkloadSpec,
    _estimated_levels,
)


def _zipf_pmf(domain: int, s: float) -> np.ndarray:
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    pmf = ranks**-s
    return pmf / pmf.sum()


def sample(dist: Distribution, rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if dist.kind == "uniform":
        return rng.integers(0, domain, n)
    if dist.kind == "normal":
        mean = domain / 2.0
        std = dist.stddev_pct / 100.0 * domain
        draws = rng.normal(mean, std, n)
        for _ in range(8):  # truncate to the domain by resampling
            bad = (draws < 0) | (draws >= domain)
            if not bad.any():
                break
            draws[bad] = rng.normal(mean, std, int(bad.sum()))
        return np.clip(draws, 0, domain - 1).astype(np.int64)
    if dist.kind == "zipf":
        pmf = _zipf_pmf(min(domain, 1 << 20), dist.s)
        return rng.choice(len(pmf), n, p=pmf).astype(np.int64)
    # prefix_zipf: hot decimal prefixes, uniform suffixes
    width = len(str(max(domain - 1, 1)))
    p_digits = min(dist.prefix_bytes, width)
    suffix_span = 10 ** (width - p_digits)
    prefix_domain = min(10**p_digits, max(domain // suffix_span, 1))
    pmf = _zipf_pmf(prefix_domain, dist.s)
    prefixes = rng.choice(prefix_domain, n, p=pmf).astype(np.int64)
    suffixes = rng.integers(0, suffix_span, n)
    return (prefixes * suffix_span + suffixes) % domain


def _unique_draws(
    dist: Distribution, rng: np.random.Generator, n: int, domain: int
) -> np.ndarray:
    """n distinct integers in [0, domain), ordered by first draw."""
    if domain < n:
        raise WorkloadError("key domain too small for unique inserts")
    if dist.kind == "uniform":
        return rng.choice(domain, n, replace=False)
    seen: dict[int, None] = {}
    while len(seen) < n:
        batch = sample(dist, rng, max(2 * (n - len(seen)), 1024), domain)
        for value in batch.tolist():
            if value not in seen:
                seen[value] = None
                if len(seen) == n:
                    break
    return np.fromiter(seen.keys(), dtype=np.int64, count=n)


# ---------------------------------------------------------------------------
# Generation


def _key_width(spec: WorkloadSpec, domain: int) -> int:
    return max(spec.key_bytes, len(str(2 * domain)))


def _encode_key(value: int, width: int) -> bytes:
    return b"%0*d" % (width, value)


def _value_for(key: bytes, spec: WorkloadSpec) -> bytes:
    room = spec.entry_bytes - ENTRY_HEADER_BYTES - len(key)
    return (b"v" + key + b"x" * room)[:room]


def generate(spec: WorkloadSpec) -> list[Operation]:
    """Materialize the full operation stream for one spec."""
    rng = np.random.default_rng(spec.seed)
    n_updates = round(spec.update_ratio * spec.inserts)
    n_deletes = round(spec.delete_fraction * spec.inserts)
    n_empty = round(spec.alpha * spec.point_lookups)

    domain = max(4 * spec.inserts, 1024)
    width = _key_width(spec, domain)
    # even integers for inserts, odd reserved for guaranteed-empty lookups
    insert_ints = _unique_draws(spec.insert_dist, rng, spec.inserts, domain) * 2
    insert_keys = [_encode_key(int(v), width) for v in insert_ints]

    delete_order = rng.permutation(spec.inserts)[:n_deletes]
    deleted_set = set(int(i) for i in delete_order)
    delete_targets = sorted(deleted_set)

    # ingestion tags; a U/D that precedes its enabling insert is deferred
    # until the next insert satisfies it
    tags = np.array(
        ["I"] * spec.inserts + ["U"] * n_updates + ["D"] * n_deletes
    )
    rng.shuffle(tags)
    ingestion: list[Operation] = []
    inserted = 0
    insert_cursor = 0
    del_ptr = 0
    deferred_u = 0
    deferred_d = 0
    live_indices: list[int] = []  # insert order indices still live
    update_picks = iter(
        sample(spec.lookup_dist, rng, n_updates, max(spec.inserts, 1)).tolist()
    )

    def emit_insert() -> None:
        nonlocal inserted, insert_cursor
        key = insert_keys[insert_cursor]
        ingestion.append(("I", key, _value_for(key, spec)))
        if insert_cursor not in deleted_set:
            live_indices.append(insert_cursor)
        insert_cursor += 1
        inserted += 1

    def emit_update() -> None:
        idx = next(update_picks) % inserted
        key = insert_keys[idx]
        ingestion.append(("U", key, _value_for(key, spec)))

    def delete_ready() -> bool:
        return del_ptr < len(delete_targets) and delete_targets[del_ptr] < inserted

    def emit_delete() -> None:
        nonlocal del_ptr
        ingestion.append(("D", insert_keys[delete_targets[del_ptr]]))
        del_ptr += 1

    for tag in tags:
        tag = str(tag)
        if tag == "I":
            emit_insert()
            while deferred_u and inserted:
                emit_update()
                deferred_u -= 1
            while deferred_d and delete_ready():
                emit_delete()
                deferred_d -= 1
        elif tag == "U":
            if inserted:
                emit_update()
            else:
                deferred_u += 1
        elif delete_ready():
            emit_delete()
        else:
            deferred_d += 1
    while deferred_u:
        emit_update()
        deferred_u -= 1
    while deferred_d:
        emit_delete()
        deferred_d -= 1
    if del_ptr != len(delete_targets):
        raise WorkloadError("could not satisfy the requested delete count")

    # lookups
    live_keys = [insert_keys[i] for i in live_indices]
    lookups: list[Operation] = []
    empties = [True] * n_empty + [False] * (spec.point_lookups - n_empty)
    rng.shuffle(empties)
    empty_ints = sample(spec.lookup_dist, rng, n_empty, domain) * 2 + 1
    full_picks = sample(
        spec.lookup_dist, rng, spec.point_lookups - n_empty, max(len(live_keys), 1)
    )
    e_iter = iter(empty_ints.tolist())
    f_iter = iter(full_picks.tolist())
    for is_empty in empties:
        if is_empty or not live_keys:
            lookups.append(("P", _encode_key(next(e_iter) if is_empty else 1, width)))
        else:
            lookups.append(("P", live_keys[next(f_iter) % len(live_keys)]))

    span = max(int(spec.selectivity * 2 * domain), 1)
    range_lows = sample(spec.lookup_dist, rng, spec.range_lookups, domain) * 2
    for low in range_lows.tolist():
        low = min(low, max(2 * domain - span, 0))
        lookups.append(("S", _encode_key(low, width), _encode_key(low + span, width)))
    if spec.range_lookups:
        order = rng.permutation(len(lookups))
        lookups = [lookups[i] for i in order]

    if spec.interleaving == SERIAL or not lookups:
        return ingestion + lookups

    # interleaved: lookups start once L-1 levels would be full, then spread
    # uniformly over the remaining ingestion
    total = len(ingestion)
    levels = _estimated_levels(spec)
    filled = 0
    if levels > 1:
        t = spec.size_ratio
        filled = spec.buffer_entries * sum(t**i for i in range(1, levels))
    start = min(max(filled, 0), total)
    remaining = total - start
    stream = ingestion[:start]
    if remaining == 0:
        return stream + ingestion[start:] + lookups
    step = remaining / len(lookups)
    li = 0
    for offset, op in enumerate(ingestion[start:]):
        stream.append(op)
        while li < len(lookups) and (li + 1) * step <= offset + 1:
            stream.append(lookups[li])
            li += 1
    stream.extend(lookups[li:])
    return stream



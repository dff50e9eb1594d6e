"""Deterministic workload generation over the benchmark axes.

Keys are fixed-width zero-padded decimal integers so byte order equals
numeric order. Inserted keys are even integers; empty point lookups draw
from the odd integers, which guarantees emptiness without tracking
membership. Equal specs produce byte-identical streams, built in numpy
column passes; every op on one key shares one value object. Shuffled
insert, update and delete tags are emitted in tag order, but an update or
delete before the insert it needs waits for it (:func:`generate`).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .config import ENTRY_HEADER_BYTES
from .errors import WorkloadError

# Operation tuples: ("I", key, value), ("U", key, value), ("D", key),
# ("P", key), ("S", low, high)
Operation = tuple

SERIAL = "serial"
INTERLEAVED = "interleaved"


@dataclass(frozen=True)
class Distribution:
    kind: str  # uniform | normal | zipf | prefix_zipf
    s: float = 1.0
    stddev_pct: float = 34.0
    prefix_bytes: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "normal", "zipf", "prefix_zipf"):
            raise WorkloadError(f"unknown distribution {self.kind!r}")
        if self.kind in ("zipf", "prefix_zipf") and self.s <= 0:
            raise WorkloadError("zipf exponent must be positive")
        if self.kind == "normal" and not 0 < self.stddev_pct <= 100:
            raise WorkloadError("stddev_pct must be in (0, 100]")


UNIFORM = Distribution("uniform")


@dataclass(frozen=True)
class WorkloadSpec:
    inserts: int
    update_ratio: float = 0.0
    delete_fraction: float = 0.0
    point_lookups: int = 0
    alpha: float = 0.0  # fraction of point lookups on absent keys
    range_lookups: int = 0
    selectivity: float = 0.01
    entry_bytes: int = 128
    key_bytes: int = 4
    insert_dist: Distribution = UNIFORM
    lookup_dist: Distribution = UNIFORM
    interleaving: str = SERIAL
    seed: int = 0
    # entries that fit in memory before a flush; used only to phase lookups
    # after L-1 levels fill in interleaved mode
    buffer_entries: int = 65536
    size_ratio: int = 10

    def __post_init__(self) -> None:
        if self.inserts <= 0:
            raise WorkloadError("need at least one insert")
        if not 0 <= self.alpha <= 1:
            raise WorkloadError("alpha must be in [0, 1]")
        if not 0 <= self.delete_fraction <= 1:
            raise WorkloadError("delete_fraction must be in [0, 1]")
        if self.update_ratio < 0:
            raise WorkloadError("update_ratio must be >= 0")
        if not 0 < self.selectivity <= 1:
            raise WorkloadError("selectivity must be in (0, 1]")
        if self.entry_bytes < ENTRY_HEADER_BYTES + _key_width(self):
            raise WorkloadError(f"entry_bytes too small for {_key_width(self)}-byte keys")
        if self.interleaving not in (SERIAL, INTERLEAVED):
            raise WorkloadError(f"unknown interleaving {self.interleaving!r}")


# ---------------------------------------------------------------------------
# Samplers: integers in [0, domain)


def _zipf_pmf(domain: int, s: float) -> np.ndarray:
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    pmf = ranks**-s
    return pmf / pmf.sum()


def sample(
    dist: Distribution, rng: np.random.Generator, n: int, domain: int, zipf_pmf=_zipf_pmf
) -> np.ndarray:
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
        pmf = zipf_pmf(min(domain, 1 << 20), dist.s)
        return rng.choice(len(pmf), n, p=pmf).astype(np.int64)
    # prefix_zipf: hot decimal prefixes, uniform suffixes
    width = len(str(max(domain - 1, 1)))
    p_digits = min(dist.prefix_bytes, width)
    suffix_span = 10 ** (width - p_digits)
    prefix_domain = min(10**p_digits, max(domain // suffix_span, 1))
    pmf = zipf_pmf(prefix_domain, dist.s)
    prefixes = rng.choice(prefix_domain, n, p=pmf).astype(np.int64)
    suffixes = rng.integers(0, suffix_span, n)
    return (prefixes * suffix_span + suffixes) % domain


def _unique_draws(
    dist: Distribution, rng: np.random.Generator, n: int, domain: int, zipf_pmf
) -> np.ndarray:
    """n distinct integers in [0, domain), ordered by first draw."""
    if domain < n:
        raise WorkloadError("key domain too small for unique inserts")
    if dist.kind == "uniform":
        return rng.choice(domain, n, replace=False)
    found = np.empty(0, dtype=np.int64)
    while len(found) < n:
        missing = n - len(found)
        batch = sample(dist, rng, max(2 * missing, 1024), domain, zipf_pmf)
        firsts = np.sort(np.unique(batch, return_index=True)[1])
        fresh = batch[firsts]
        fresh = fresh[~np.isin(fresh, found)][:missing]
        found = np.concatenate([found, fresh])
    return found


# ---------------------------------------------------------------------------
# Generation


def _domain(spec: WorkloadSpec) -> int:
    return max(4 * spec.inserts, 1024)


def _key_width(spec: WorkloadSpec) -> int:
    return max(spec.key_bytes, len(str(2 * _domain(spec))))


def _digits(ints: np.ndarray, width: int) -> np.ndarray:
    """Zero-padded decimal digits of each integer as an (n, width) uint8 matrix."""
    out = np.empty((len(ints), width), dtype=np.uint8)
    rest = ints
    for col in range(width - 1, -1, -1):
        rest, out[:, col] = np.divmod(rest, 10)
    out += ord("0")
    return out


def _as_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of an (n, w) uint8 matrix without zero bytes as one bytes
    object, in an object array."""
    if rows.shape[1] == 0:
        return np.full(len(rows), b"", dtype=object)
    return rows.view(f"S{rows.shape[1]}")[:, 0].astype(object)


def _keys(ints: np.ndarray, width: int) -> np.ndarray:
    return _as_bytes(_digits(ints, width))


def _values(digits: np.ndarray, room: int) -> np.ndarray:
    """``(b"v" + key + b"x" * room)[:room]`` for each key's digit row. Rows
    are built 4,096 at a time: with one (n, room) matrix, a benchmark pass's
    peak RSS read up to 10 MB higher."""
    out = np.empty(len(digits), dtype=object)
    take = max(min(digits.shape[1], room - 1), 0)
    for lo in range(0, len(digits), 4096):
        part = digits[lo : lo + 4096]
        rows = np.full((len(part), room), ord("x"), dtype=np.uint8)
        rows[:, :1] = ord("v")
        rows[:, 1 : 1 + take] = part[:, :take]
        out[lo : lo + len(part)] = _as_bytes(rows)
    return out


def generate(spec: WorkloadSpec) -> list[Operation]:
    """Materialize the full operation stream for one spec.

    The ``k``-th ``I`` tag inserts the ``k``-th unique key. A ``U`` tag
    picks among the keys inserted before it; one before the first insert
    is emitted right after that insert and picks its key. The ``j``-th
    ``D`` tag deletes the ``j``-th smallest deleted insert number, at its
    tag if that key is inserted by then, else right after that key's insert
    (and its deferred updates), and never before delete ``j - 1``. Lookup
    ``l`` follows ingestion op ``start + ceil((l + 1) * step) - 1``, or the
    last one.
    """
    rng = np.random.default_rng(spec.seed)
    # one pmf per Zipf domain, for this call only: a pmf can be megabytes
    pmf = functools.lru_cache(maxsize=None)(_zipf_pmf)
    n_ins = spec.inserts
    n_updates = round(spec.update_ratio * n_ins)
    n_deletes = round(spec.delete_fraction * n_ins)
    n_points = spec.point_lookups
    n_empty = round(spec.alpha * n_points)
    n_ingest = n_ins + n_updates + n_deletes

    domain = _domain(spec)
    width = _key_width(spec)
    # even integers for inserts, odd reserved for guaranteed-empty lookups
    digits = _digits(_unique_draws(spec.insert_dist, rng, n_ins, domain, pmf) * 2, width)
    keys = _as_bytes(digits)
    values = _values(digits, spec.entry_bytes - ENTRY_HEADER_BYTES - width)
    targets = np.sort(rng.permutation(n_ins)[:n_deletes])

    # tags 0 I, 1 U, 2 D: shuffling codes draws what shuffling letters would
    tags = np.repeat(np.array([0, 1, 2], dtype=np.int8), [n_ins, n_updates, n_deletes])
    rng.shuffle(tags)
    picks = sample(spec.lookup_dist, rng, n_updates, max(n_ins, 1), pmf)
    ins_at, upd_at, del_at = (np.flatnonzero(tags == code) for code in range(3))
    # emission order by position * 4 + sub: sub 0 at its own tag, 1 for an
    # update deferred to the first insert, 2 for a delete deferred to the
    # insert of its key; targets ascend, so no delete passes an earlier one
    place = np.arange(n_ingest, dtype=np.int64) * 4
    place[upd_at[upd_at < ins_at[0]]] = ins_at[0] * 4 + 1
    ready = ins_at[targets]
    place[del_at] = np.where(ready < del_at, del_at * 4, ready * 4 + 2)
    place[np.argsort(place, kind="stable")] = np.arange(n_ingest)  # each tag's rank

    # lookups
    alive = np.ones(n_ins, dtype=bool)
    alive[targets] = False
    live = keys[alive]
    empties = np.repeat([True, False], [n_empty, n_points - n_empty])
    rng.shuffle(empties)  # draws what shuffling a list of as many flags would
    point_keys = np.empty(n_points, dtype=object)
    point_keys[empties] = _keys(sample(spec.lookup_dist, rng, n_empty, domain, pmf) * 2 + 1, width)
    full_picks = sample(spec.lookup_dist, rng, n_points - n_empty, max(len(live), 1), pmf)
    point_keys[~empties] = (
        live[full_picks % len(live)] if len(live) else _keys(np.ones(1, np.int64), width)[0]
    )
    span = max(int(spec.selectivity * 2 * domain), 1)
    lows = sample(spec.lookup_dist, rng, spec.range_lookups, domain, pmf) * 2
    lows = np.minimum(lows, max(2 * domain - span, 0))
    n_lookups = n_points + spec.range_lookups
    lookups = np.fromiter(
        chain(
            zip(repeat("P"), point_keys),
            zip(repeat("S"), _keys(lows, width), _keys(lows + span, width)),
        ),
        dtype=object,
        count=n_lookups,
    )
    if spec.range_lookups:
        lookups = lookups[rng.permutation(n_lookups)]

    # interleaved: lookups start once L-1 levels would be full, then spread
    # uniformly over the remaining ingestion; serial: all follow it
    start = n_ingest
    if spec.interleaving == INTERLEAVED:
        levels = _estimated_levels(spec)
        filled = 0
        if levels > 1:
            t = spec.size_ratio
            filled = spec.buffer_entries * sum(t**i for i in range(1, levels))
        start = min(max(filled, 0), n_ingest)
    step = (n_ingest - start) / max(n_lookups, 1)
    after = np.ceil(np.arange(1, n_lookups + 1) * step).astype(np.int64)
    after = np.minimum(start + after - 1, n_ingest - 1)  # the op each follows
    place += np.searchsorted(after, place)  # each tag's place in the stream
    stream = np.empty(n_ingest + n_lookups, dtype=object)
    stream[after + np.arange(1, n_lookups + 1)] = lookups
    stream[place[ins_at]] = np.fromiter(zip(repeat("I"), keys, values), dtype=object, count=n_ins)
    picks %= np.maximum(np.searchsorted(ins_at, upd_at), 1)  # among inserts before it
    stream[place[upd_at]] = np.fromiter(
        zip(repeat("U"), keys[picks], values[picks]), dtype=object, count=n_updates
    )
    deletes = zip(repeat("D"), keys[targets])
    stream[place[del_at]] = np.fromiter(deletes, dtype=object, count=n_deletes)
    return stream.tolist()


def _estimated_levels(spec: WorkloadSpec) -> int:
    from .costmodel import level_count

    return level_count(spec.inserts, 1, spec.buffer_entries, spec.size_ratio)


# ---------------------------------------------------------------------------
# File interchange


def serialize(stream: Iterable[Operation], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for op in stream:
            fields = [op[0]] + [part.decode("ascii") for part in op[1:]]
            fh.write(" ".join(fields) + "\n")


_ARITY = {"I": 3, "U": 3, "D": 2, "P": 2, "S": 3}


def parse(path: str) -> Iterator[Operation]:
    """Stream operations from a workload file without loading it whole."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ")
            kind = parts[0]
            if kind not in _ARITY or len(parts) != _ARITY[kind]:
                raise WorkloadError(f"line {lineno}: malformed operation {line!r}")
            yield (kind, *(p.encode("ascii") for p in parts[1:]))

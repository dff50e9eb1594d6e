"""Benchmark command-line driver.

Subcommands:
    run      execute a workload against one or more strategies, emit reports
    compare  rank strategies from previously written report.json files
    model    print the analytical cost table for a parameter set
    gen      generate a workload file from a spec

Config files are flat "key = value" text with [section] headers; see the
README for the recognized keys. Exit codes: 0 success, 2 configuration
error, 3 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import tempfile

from .compaction import PRESET_NAMES, CompactionStrategy, get_strategy
from .config import TreeConfig
from .costmodel import ModelParams, model_table
from .engine import LsmEngine
from .errors import ConfigError, InvalidArgument, InvariantViolation, WorkloadError
from .metrics import HIST_NAMES
from .workload import Distribution, WorkloadSpec, generate, parse, serialize

CSV_VERSION = "lsmclab-metrics-v1"

CSV_COLUMNS = (
    "strategy",
    "seed",
    "inserts",
    "updates",
    "deletes",
    "alpha",
    "selectivity",
    "compaction_count",
    "pseudo_count",
    "bytes_read",
    "bytes_written",
    "write_amp",
    "read_amp",
    "space_amp",
    "tombstones_remaining",
    *(f"{hist}_{pct}" for hist in HIST_NAMES for pct in ("p50", "p90", "p99", "p100")),
)

# metrics.csv names these report items more briefly
_CSV_RENAMES = {
    "pseudo_count": "pseudo_compaction_count",
    "bytes_read": "bytes_compaction_read",
    "bytes_written": "bytes_compaction_written",
}


# ---------------------------------------------------------------------------
# Config parsing


def _read_config(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"bad config {path}: {exc}") from exc
    return parser


def _section(cfg: configparser.ConfigParser, name: str, casts: dict, make=dict):
    """``make(**values)`` over config section ``name``, each value cast by
    ``casts[key]``; an unknown key, a value that does not cast and values
    ``make`` rejects are config errors that name the section and the key."""
    section = cfg[name] if cfg.has_section(name) else {}
    values = {}
    for key, text in section.items():
        if key not in casts:
            raise ConfigError(f"unknown {name} option {key!r}")
        try:
            values[key] = casts[key](text)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{name}.{key}: {exc}") from exc
    try:
        return make(**values)
    except (ConfigError, InvalidArgument, WorkloadError) as exc:
        given = ", ".join(f"{key} = {text}" for key, text in section.items()) or "defaults"
        raise ConfigError(f"[{name}] {given}: {exc}") from exc


_ENGINE_KEYS = {
    "size_ratio": int,
    "buffer_bytes": int,
    "page_bytes": int,
    "entry_bytes": int,
    "bits_per_key": float,
    "block_cache_bytes": int,
    "file_bytes": int,
    "delete_persistence_threshold": int,
}


def _distribution(text: str) -> Distribution:
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "uniform":
            return Distribution("uniform")
        if name == "normal":
            return Distribution("normal", stddev_pct=float(arg) if arg else 34.0)
        if name == "zipf":
            return Distribution("zipf", s=float(arg) if arg else 1.0)
        if name == "prefix_zipf":
            s, _, pfx = arg.partition(":")
            return Distribution(
                "prefix_zipf",
                s=float(s) if s else 1.0,
                prefix_bytes=int(pfx) if pfx else 2,
            )
    except (ValueError, WorkloadError) as exc:
        raise ConfigError(f"bad distribution {text!r}: {exc}") from exc
    raise ConfigError(f"unknown distribution {text!r}")


_WORKLOAD_KEYS = {
    "inserts": int,
    "update_ratio": float,
    "delete_fraction": float,
    "point_lookups": int,
    "alpha": float,
    "range_lookups": int,
    "selectivity": float,
    "entry_bytes": int,
    "key_bytes": int,
    "interleaving": str,
    "seed": int,
    "insert_dist": _distribution,
    "lookup_dist": _distribution,
    "file": str,  # a workload file replaces the generated workload
}


def _workload_spec(cfg, tree: TreeConfig, seed: int | None) -> WorkloadSpec:
    def spec(file=None, **kwargs) -> WorkloadSpec:  # _workload_ops replays a file
        kwargs = {"inserts": 1000, "entry_bytes": tree.entry_bytes, **kwargs}
        if seed is not None:
            kwargs["seed"] = seed
        return WorkloadSpec(
            **kwargs, buffer_entries=tree.entries_per_buffer, size_ratio=tree.size_ratio
        )

    return _section(cfg, "workload", _WORKLOAD_KEYS, spec)


def _strategies(cfg: configparser.ConfigParser, names: str) -> list[CompactionStrategy]:
    if cfg.has_section("strategy"):
        raise ConfigError(
            "the [strategy] section is gone; name the ensemble instead: "
            "[run] strategy = <triggers>/<layout>/<granularity>/<chain>"
        )
    out = []
    for name in names.split(","):
        try:
            out.append(get_strategy(name))
        except InvalidArgument as exc:
            raise ConfigError(str(exc)) from exc
    return out


def _out_dir(args) -> str:
    out = os.environ.get("LSMCLAB_OUT") or args.out
    if out is None:
        raise ConfigError("no output directory: pass --out or set LSMCLAB_OUT")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# run


def _workload_ops(cfg, tree, seed):
    path = _section(cfg, "workload", _WORKLOAD_KEYS).get("file")
    if path is not None:
        digest = hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        except OSError as exc:
            raise ConfigError(f"workload.file: cannot read {path}: {exc}") from exc
        return list(parse(path)), digest.hexdigest(), None
    spec = _workload_spec(cfg, tree, seed)
    ops = generate(spec)
    digest = hashlib.sha256(repr(spec).encode()).hexdigest()
    return ops, digest, spec


def _replay(engine: LsmEngine, ops) -> dict[str, int]:
    counts = {"I": 0, "U": 0, "D": 0, "P": 0, "S": 0}
    for op in ops:
        kind = op[0]
        counts[kind] += 1
        if kind in ("I", "U"):
            engine.put(op[1], op[2])
        elif kind == "D":
            engine.delete(op[1])
        elif kind == "P":
            engine.point_lookup(op[1])
        else:
            engine.range_scan(op[1], op[2])
    engine.quiesce()
    return counts


def _csv_row(strategy, seed, counts, spec, report) -> list[str]:
    values = {
        "strategy": strategy,
        "seed": seed,
        "inserts": counts["I"],
        "updates": counts["U"],
        "deletes": counts["D"],
        "alpha": spec.alpha if spec else "",
        "selectivity": spec.selectivity if spec else "",
    }
    flat = report.to_dict()
    return [
        str(values[col] if col in values else flat[_CSV_RENAMES.get(col, col)])
        for col in CSV_COLUMNS
    ]


def _dump_manifest(engine: LsmEngine) -> str:
    lines = ["tree shape (level: runs as [files/entries])"]
    man = engine.manifest
    for level_no in range(1, man.level_count() + 1):
        runs = man.runs_in_level(level_no)
        shapes = [
            f"[{len(run)} files / {sum(man.files[f].entry_count for f in run)} entries]"
            for run in runs
        ]
        lines.append(f"level {level_no}: " + (" ".join(shapes) if shapes else "(empty)"))
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    cfg = _read_config(args.config)
    tree = _section(cfg, "engine", _ENGINE_KEYS, TreeConfig)
    out = _out_dir(args)
    run = _section(cfg, "run", {"repetitions": int, "seed": int, "strategy": str})
    repetitions = run.get("repetitions", 1)
    if repetitions < 1:
        raise ConfigError(f"[run] repetitions = {repetitions}: must be at least 1")
    strategies = _strategies(cfg, args.strategy or run.get("strategy", "full"))
    base_seed = args.seed
    if base_seed is None:
        base_seed = run.get("seed", _section(cfg, "workload", _WORKLOAD_KEYS).get("seed", 0))

    rows = []
    reports = []
    dumps = []
    for strategy in strategies:
        for rep in range(repetitions):
            seed = base_seed + rep
            ops, digest, spec = _workload_ops(cfg, tree, seed)
            with tempfile.TemporaryDirectory(prefix="lsmclab-", dir=out) as workdir:
                engine = LsmEngine(workdir, tree, strategy)
                try:
                    counts = _replay(engine, ops)
                    report = engine.report()
                    dumps.append(f"# {strategy.name} seed={seed}\n" + _dump_manifest(engine))
                finally:
                    engine.close()
            rows.append(_csv_row(strategy.name, seed, counts, spec, report))
            reports.append(
                {
                    "strategy": strategy.name,
                    "seed": seed,
                    "workload_hash": digest,
                    "op_counts": counts,
                    "metrics": report.to_dict(),
                }
            )

    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# {CSV_VERSION}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out, "manifest-dump.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(dumps))
    return 0


# ---------------------------------------------------------------------------
# compare


_RANK_METRICS = ("write_amp", "read_amp", "space_amp", "write_p100", "tombstones_remaining")


def cmd_compare(args) -> int:
    entries = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries.extend(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
    if len(entries) < 2:
        raise ConfigError("compare needs at least two report entries")
    hashes = {e["workload_hash"] for e in entries}
    if len(hashes) != 1:
        raise ConfigError("reports come from different workloads; refusing to rank")

    scores: dict[str, dict[str, float]] = {}
    for entry in entries:
        scores[entry["strategy"]] = {m: float(entry["metrics"][m]) for m in _RANK_METRICS}
    print(f"{'metric':<22}" + "".join(f"{name:>14}" for name in scores))
    for metric in _RANK_METRICS:
        row = [scores[name][metric] for name in scores]
        print(f"{metric:<22}" + "".join(f"{v:>14.4f}" for v in row))
    print()
    names = list(scores)
    for metric in _RANK_METRICS:
        ranked = sorted(names, key=lambda n: scores[n][metric])
        print(f"ranking {metric}: " + " <= ".join(ranked))
    dominated = []
    for a in names:
        for b in names:
            if a == b:
                continue
            pairs = [(scores[a][m], scores[b][m]) for m in _RANK_METRICS]
            if all(x >= y for x, y in pairs) and any(x > y for x, y in pairs):
                dominated.append((a, b))
                break
    for loser, winner in dominated:
        print(f"dominated: {loser} (by {winner})")
    return 0


# ---------------------------------------------------------------------------
# model / gen


def cmd_model(args) -> int:
    cfg = _read_config(args.config)
    tree = _section(cfg, "engine", _ENGINE_KEYS, TreeConfig)

    def table(**values) -> list[tuple[str, float, float]]:
        return model_table(
            ModelParams(
                n_entries=values.get("n", args.n),
                pages_per_buffer=tree.pages_per_buffer,
                entries_per_page=tree.entries_per_page,
                size_ratio=tree.size_ratio,
                bits_per_key=tree.bits_per_key,
                selectivity=values.get("selectivity", 0.01),
                tombstone_size_ratio=values.get("lambda", 0.5),
                ingest_rate=values.get("ingest_rate", 1.0),
            )
        )

    keys = {"n": int, "selectivity": float, "lambda": float, "ingest_rate": float}
    rows = _section(cfg, "model", keys, table)
    print(f"{'metric':<28}{'leveling':>16}{'tiering':>16}")
    for metric, lev, tier in rows:
        print(f"{metric:<28}{lev:>16.6f}{tier:>16.6f}")
    return 0


def cmd_gen(args) -> int:
    cfg = _read_config(args.config)
    tree = _section(cfg, "engine", _ENGINE_KEYS, TreeConfig)
    out = _out_dir(args)
    spec = _workload_spec(cfg, tree, args.seed)
    path = os.path.join(out, "workload.txt")
    serialize(generate(spec), path)
    print(path)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsmclab",
        description="LSM-tree compaction benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="workload seed override")
        p.add_argument("--out", help="output directory (env LSMCLAB_OUT overrides)")

    p_run = sub.add_parser("run", help="execute a workload and emit reports")
    common(p_run)
    p_run.add_argument(
        "--strategy",
        help=(
            "comma-separated presets (" + ", ".join(PRESET_NAMES) + ") or ensembles "
            "<triggers>/<layout>/<granularity>/<chain>, e.g. dens+sat/leveling/file/ts>lo1"
        ),
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="rank strategies from report files")
    p_cmp.add_argument("reports", nargs="+", help="report.json files")
    p_cmp.set_defaults(func=cmd_compare)

    p_model = sub.add_parser("model", help="print the analytical cost table")
    common(p_model)
    p_model.add_argument("--n", type=int, default=1_000_000, help="total entries")
    p_model.set_defaults(func=cmd_model)

    p_gen = sub.add_parser("gen", help="generate a workload file")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

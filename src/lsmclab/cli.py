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
    *(
        f"{hist}_{pct}"
        for hist in ("compaction", "write", "point", "range")
        for pct in ("p50", "p90", "p99", "p100")
    ),
)


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


def _tree_config(cfg: configparser.ConfigParser) -> TreeConfig:
    if not cfg.has_section("engine"):
        return TreeConfig()
    section = cfg["engine"]
    keys = {
        "size_ratio": int,
        "buffer_bytes": int,
        "page_bytes": int,
        "entry_bytes": int,
        "bits_per_key": float,
        "block_cache_bytes": int,
        "file_bytes": int,
        "delete_persistence_threshold": int,
    }
    kwargs = {}
    for key, cast in keys.items():
        if key in section:
            try:
                kwargs[key] = cast(section[key])
            except ValueError as exc:
                raise ConfigError(f"engine.{key}: {exc}") from exc
    _check_keys(cfg, "engine", tuple(keys))
    try:
        return TreeConfig(**kwargs)
    except InvalidArgument as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(cfg: configparser.ConfigParser, name: str, known: tuple[str, ...]) -> None:
    if cfg.has_section(name):
        for key in cfg[name]:
            if key not in known:
                raise ConfigError(f"unknown {name} option {key!r}")


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


def _workload_spec(
    cfg: configparser.ConfigParser, tree: TreeConfig, seed: int | None
) -> WorkloadSpec:
    section = cfg["workload"] if cfg.has_section("workload") else {}
    casts = {
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
    }
    kwargs: dict = {"inserts": 1000}
    for key, cast in casts.items():
        if key in section:
            try:
                kwargs[key] = cast(section[key])
            except ValueError as exc:
                raise ConfigError(f"workload.{key}: {exc}") from exc
    for key in ("insert_dist", "lookup_dist"):
        if key in section:
            kwargs[key] = _distribution(section[key])
    _check_keys(cfg, "workload", (*casts, "insert_dist", "lookup_dist", "file"))
    if seed is not None:
        kwargs["seed"] = seed
    kwargs.setdefault("entry_bytes", tree.entry_bytes)
    kwargs["buffer_entries"] = tree.entries_per_buffer
    kwargs["size_ratio"] = tree.size_ratio
    try:
        return WorkloadSpec(**kwargs)
    except WorkloadError as exc:
        raise ConfigError(str(exc)) from exc


def _strategies(cfg: configparser.ConfigParser, override: str | None) -> list[CompactionStrategy]:
    if cfg.has_section("strategy"):
        raise ConfigError(
            "the [strategy] section is gone; name the ensemble instead: "
            "[run] strategy = <triggers>/<layout>/<granularity>/<chain>"
        )
    names = override
    if names is None:
        names = cfg.get("run", "strategy", fallback="full")
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
    section = cfg["workload"] if cfg.has_section("workload") else {}
    if "file" in section:
        path = section["file"]
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
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
    flat = report.to_dict()
    values = {
        "strategy": strategy,
        "seed": seed,
        "inserts": counts["I"],
        "updates": counts["U"],
        "deletes": counts["D"],
        "alpha": spec.alpha if spec else "",
        "selectivity": spec.selectivity if spec else "",
        "compaction_count": flat["compaction_count"],
        "pseudo_count": flat["pseudo_compaction_count"],
        "bytes_read": flat["bytes_compaction_read"],
        "bytes_written": flat["bytes_compaction_written"],
        "write_amp": flat["write_amp"],
        "read_amp": flat["read_amp"],
        "space_amp": flat["space_amp"],
        "tombstones_remaining": flat["tombstones_remaining"],
    }
    for hist in ("compaction", "write", "point", "range"):
        for pct in ("p50", "p90", "p99", "p100"):
            values[f"{hist}_{pct}"] = flat[f"{hist}_{pct}"]
    return [str(values[col]) for col in CSV_COLUMNS]


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
    tree = _tree_config(cfg)
    out = _out_dir(args)
    _check_keys(cfg, "run", ("repetitions", "seed", "strategy"))
    repetitions = cfg.getint("run", "repetitions", fallback=1)
    strategies = _strategies(cfg, args.strategy)
    base_seed = args.seed
    if base_seed is None:
        base_seed = cfg.getint("run", "seed", fallback=cfg.getint("workload", "seed", fallback=0))

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


_RANK_METRICS = (
    ("write_amp", "write_amp"),
    ("read_amp", "read_amp"),
    ("space_amp", "space_amp"),
    ("write_p100", "write_p100"),
    ("tombstones_remaining", "tombstones_remaining"),
)


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
        scores[entry["strategy"]] = {
            label: float(entry["metrics"][key]) for label, key in _RANK_METRICS
        }
    print(f"{'metric':<22}" + "".join(f"{name:>14}" for name in scores))
    for label, _key in _RANK_METRICS:
        row = [scores[name][label] for name in scores]
        print(f"{label:<22}" + "".join(f"{v:>14.4f}" for v in row))
    print()
    names = list(scores)
    for label, _key in _RANK_METRICS:
        ranked = sorted(names, key=lambda n: scores[n][label])
        print(f"ranking {label}: " + " <= ".join(ranked))
    dominated = []
    for a in names:
        for b in names:
            if a == b:
                continue
            pairs = [(scores[a][m], scores[b][m]) for m, _ in _RANK_METRICS]
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
    tree = _tree_config(cfg)
    _check_keys(cfg, "model", ("n", "selectivity", "lambda", "ingest_rate"))
    section = cfg["model"] if cfg.has_section("model") else {}
    params = ModelParams(
        n_entries=int(section.get("n", args.n)),
        pages_per_buffer=tree.pages_per_buffer,
        entries_per_page=tree.entries_per_page,
        size_ratio=tree.size_ratio,
        bits_per_key=tree.bits_per_key,
        selectivity=float(section.get("selectivity", 0.01)),
        tombstone_size_ratio=float(section.get("lambda", 0.5)),
        ingest_rate=float(section.get("ingest_rate", 1.0)),
    )
    print(f"{'metric':<28}{'leveling':>16}{'tiering':>16}")
    for metric, lev, tier in model_table(params):
        print(f"{metric:<28}{lev:>16.6f}{tier:>16.6f}")
    return 0


def cmd_gen(args) -> int:
    cfg = _read_config(args.config)
    tree = _tree_config(cfg)
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

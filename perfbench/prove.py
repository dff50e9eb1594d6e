"""Run the benchmark on several seeds and summarise its spread.

Usage, from the root of the repository:

    python3 perfbench/prove.py --seeds 1-10
        [--against .perfbench/prove-<earlier>.json] [--baseline]

Each run is a fresh ``run.py`` process (so ``peak_rss_mb`` is that run's
own high-water mark), made with the ``run_seconds`` of BENCHMARK.json.
For every end-to-end metric it prints the median, the quartiles and the
spread, (Q3 - Q1) / median, next to the metric's bound, and flags every
spread over the bound or over a third of it; then one traced run per
workload. ``--against`` compares the medians with an earlier
summary, and refuses to when a seed's op stream differs between the two.
``--baseline`` writes ``perfbench/baseline.json``: the medians and
quartiles, the exact counters and op-stream fingerprints per seed, the
traced per-layer table and the map from layers to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "workload.generate.s": ("setup_s", "all workloads, most on churn-lo1"),
    "engine.write.calls": ("write_p50_us, ops_per_s", "read-tier, churn-lo1"),
    "engine.write.self_s": ("write_p50_us, ops_per_s", "read-tier, churn-lo1"),
    "engine.stall_s": ("stall_p50_ms, stall_p90_ms", "all workloads"),
    "engine.flush.calls": ("stall_p50_ms", "read-tier"),
    "engine.flush.self_s": ("stall_p50_ms", "read-tier"),
    "engine.forget.s": ("stall_p50_ms, stall_p90_ms", "churn-lo1"),
    "engine.lookup.calls": ("lookup_p50_us", "read-tier"),
    "engine.lookup.self_s": ("lookup_p50_us", "read-tier"),
    "engine.scan.calls": ("scan_p50_ms", "read-tier"),
    "engine.scan.self_s": ("scan_p50_ms", "read-tier"),
    "engine.census.s": ("report_s", "all workloads"),
    "engine.io_pages": ("read_amp, write_amp", "all workloads"),
    "compaction.trigger.calls": ("stall_p50_ms, stall_p90_ms", "churn-lo1, read-tier"),
    "compaction.trigger.s": ("stall_p50_ms, stall_p90_ms", "churn-lo1, read-tier"),
    "compaction.trigger.fire_ratio": ("stall_p50_ms, stall_p90_ms", "churn-lo1, read-tier"),
    "compaction.select.calls": ("stall_p50_ms, stall_p90_ms", "churn-lo1"),
    "compaction.select.s": ("stall_p50_ms, stall_p90_ms", "churn-lo1; near zero on ingest-full"),
    "compaction.execute.calls": ("stall_p50_ms, stall_p90_ms, ops_per_s", "ingest-full"),
    "compaction.execute.self_s": ("stall_p50_ms, stall_p90_ms, ops_per_s", "ingest-full"),
    "compaction.pseudo_jobs": ("write_amp", "churn-lo1"),
    "compaction.bytes_read": ("write_amp", "all workloads"),
    "compaction.bytes_written": ("write_amp", "all workloads"),
    "compaction.yield_ratio": ("space_amp, tombstones_remaining", "churn-lo1"),
    "sstable.write_entries.calls": ("stall_p50_ms", "read-tier"),
    "sstable.write_entries.s": ("stall_p50_ms", "read-tier"),
    "sstable.write_slots.calls": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "sstable.write_slots.s": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "sstable.load.calls": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "sstable.load.s": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "sstable.files_written": ("write_amp", "all workloads"),
    "sstable.bytes_written": ("write_amp", "all workloads"),
    "sstable.read_page.calls": ("lookup_p99_us", "read-tier"),
    "sstable.read_page.s": ("lookup_p99_us", "read-tier"),
    "sstable.read_meta.calls": ("lookup_p99_us", "read-tier"),
    "sstable.read_meta.s": ("lookup_p99_us", "read-tier"),
    "sstable.scan_page.calls": ("lookup_p50_us", "read-tier"),
    "sstable.scan_page.s": ("lookup_p50_us", "read-tier"),
    "sstable.iter_entries.s": ("report_s", "all workloads"),
    "bloom.build.calls": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "bloom.build.s": ("stall_p50_ms, stall_p90_ms", "ingest-full"),
    "bloom.probe.calls": ("lookup_p50_us", "read-tier"),
    "bloom.probe.s": ("lookup_p50_us", "read-tier"),
    "bloom.probe.negative_ratio": ("lookup_p50_us", "read-tier"),
    "cache.get.calls": ("lookup_p50_us", "read-tier"),
    "cache.get.s": ("lookup_p50_us", "read-tier"),
    "cache.hit_ratio.data": ("lookup_p99_us", "read-tier"),
    "cache.hit_ratio.index": ("lookup_p99_us", "read-tier"),
    "cache.hit_ratio.filter": ("lookup_p99_us", "read-tier"),
    "cache.drop_file.calls": ("stall_p50_ms, stall_p90_ms", "read-tier"),
    "cache.drop_file.s": ("stall_p50_ms, stall_p90_ms", "read-tier"),
    "manifest.apply.calls": ("stall_p50_ms, stall_p90_ms", "churn-lo1"),
    "manifest.apply.s": ("stall_p50_ms, stall_p90_ms", "churn-lo1"),
    "manifest.snapshot.calls": ("lookup_p50_us", "read-tier"),
    "manifest.snapshot.s": ("lookup_p50_us", "read-tier"),
    "metrics.report.s": ("report_s", "all workloads"),
    "trace.overhead_ratio": ("none: the tracer's own cost", "all workloads"),
}


def runs_by_key() -> dict:
    """run.py's records for the current code: fingerprint, counters, metrics."""
    (runs,) = json.loads((STATE_DIR / "runs.json").read_text()).values()
    return runs


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stderr, file=sys.stderr)
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--against", help="an earlier prove-*.json to compare medians with")
    parser.add_argument("--baseline", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result = run_once(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, correct {result['correct']}", flush=True)
        records = [runs_by_key()[f"{name}/{seed}"] for seed in seeds]
        metrics = {
            metric: summarise([r["end_to_end"][metric] for r in records])
            for metric in records[0]["end_to_end"]
        }
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "max_wall_s": max(r["wall_s"] for r in runs),
            "end_to_end": metrics,
            "seeds": {str(seed): rec for seed, rec in zip(seeds, records)},
        }
        print(f"\n{name}: {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, s in metrics.items():
            bound = bounds[metric]["bound"] if metric in bounds else None
            flag = ""
            if bound is not None:
                if s["spread"] > bound:
                    flag = "  <-- over bound"
                elif s["spread"] >= bound / 3:
                    flag = "  <-- over bound/3"
            print(
                f"  {metric:<20} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g}"
                f" {s['spread']:>8.4f} {bound if bound is not None else '-':>6}{flag}"
            )
        traced = run_once(name, seeds[0], seconds, 1)
        detail = json.loads((STATE_DIR / f"trace-{name}.json").read_text())
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "per_layer": detail["per_layer"],
            "shares": detail["shares"],
            "spans": detail["spans"],
        }
        print(f"  traced: correct {traced['correct']}, shares {detail['shares']}")
        summary["workloads"][name] = entry
        print(flush=True)

    if args.against:
        earlier = json.loads(Path(args.against).read_text())
        for name in names:
            before = earlier["workloads"][name]["seeds"]
            for seed, rec in summary["workloads"][name]["seeds"].items():
                if seed in before and before[seed]["fingerprint"] != rec["fingerprint"]:
                    print(f"refusing to compare: {name} seed {seed} ran on a different op stream")
                    return 3
        print("medians against", args.against)
        for name in names:
            for metric, s in summary["workloads"][name]["end_to_end"].items():
                if metric not in bounds:
                    continue
                before = earlier["workloads"][name]["end_to_end"][metric]["median"]
                change = (s["median"] - before) / before
                if bounds[metric]["better"] == "higher":
                    change = -change
                bound = bounds[metric]["bound"]
                flag = "  <-- worse than bound" if change > bound else ""
                print(f"  {name:<12} {metric:<16} worse by {change:+.4f} (bound {bound}){flag}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = STATE_DIR / f"prove-{stamp}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out}")

    if args.baseline:
        sys.path.insert(0, str(HERE))
        from run import REPORTED_ONLY

        described = {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in bench["end_to_end"]}
        described.update((n, {"unit": u, "better": b}) for n, u, b in REPORTED_ONLY)
        baseline = {
            "about": (
                "Medians and quartiles of the benchmark at the commit that "
                "defined it, one fresh process per seed; the traced run's "
                "per-layer table; exact counters and op-stream sha256 per seed."
            ),
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "seeds": seeds,
            "layer_map": {
                k: {"moves": v[0], "where": v[1]} for k, v in LAYER_MAP.items()
            },
            "fingerprints": {
                name: {seed: rec["fingerprint"] for seed, rec in entry["seeds"].items()}
                for name, entry in summary["workloads"].items()
            },
            "workloads": {
                name: {
                    "why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
                    "end_to_end": {
                        metric: {**s, **described[metric], "bound": bounds.get(metric, {}).get("bound")}
                        for metric, s in entry["end_to_end"].items()
                    },
                    "exact": {seed: rec["counters"] for seed, rec in entry["seeds"].items()},
                    "error_rate": entry["failed"] / entry["attempted"],
                    "traced": entry["traced"],
                }
                for name, entry in summary["workloads"].items()
            },
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads sim,exact] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound. With
--out it also writes that summary, the derived figures, one traced run per
workload (first seed) and the environment as JSON; baseline.json was made
this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    started = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    record["run_wall_s"] = perf_counter() - started
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values, derived, failed, attempted = {}, {}, 0, 0
        for seed in seeds:
            result, record = bench(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in record["derived"].items():
                derived.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}",
                  f"({record['run_wall_s']:.1f} s)", flush=True)
        entry = {"failed": failed, "attempted": attempted, "end_to_end": {},
                 "derived": {k: statistics.median(v) for k, v in derived.items()}}
        for metric in spec["end_to_end"]:
            stats = summarise(values[metric["name"]])
            entry["end_to_end"][metric["name"]] = {**stats, "unit": metric["unit"],
                                                   "bound": metric["bound"]}
            print(f"  {workload} {metric['name']}: median {stats['median']:.4g} "
                  f"{metric['unit']}, spread {stats['spread']:.4f} (bound {metric['bound']})",
                  flush=True)
        if args.out:
            _, traced = bench(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["per_layer_absent"] = traced["absent"]
            summary["env"] = traced["env"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

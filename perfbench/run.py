"""lyapzeros benchmark: time to a verdict and time of exact queries.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from anywhere; the library is imported from src/ of the checkout
this file lives in. Each workload runs in fresh worker processes
(worker.py), as one closed-loop caller of ``lyapzeros.cli.main``.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: set-up time
(median over fresh processes), the wall time of one pass over the
workload's queries (each query's median over passes, each pass made by a
fresh process), and the median peak RSS of those processes.
--trace 1 prints the per-layer metrics of BENCHMARK.json from a traced
pass and, on the sim workload, from one-BLAS-thread reference passes
over its standard-representation pairs, alternated with default-thread
passes. The last line of stdout is
the result as one JSON object; a summary with the environment goes to
stderr and a full record to perfbench/results/.
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
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only: no numpy in this process)

PROBES_PER_PASS = 2     # set-up-only processes timed after each measured pass
DEADLINE_S = 170.0      # every run must end within 180 s
# figures printed and recorded beside the metrics, with their units
DERIVED_UNITS = {"steps_per_s": "1/s", "steps_per_pass": "count", "large_predict_s": "s",
                 "classify_s": "s", "pass_samples": "count", "setup_samples": "count",
                 "setup_min_s": "s",
                 "op_samples": "count", "one_thread_pass_s": "s",
                 "default_thread_pass_s": "s", "failed_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its report and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(out.strip().splitlines()[-1]), started
    except (IndexError, ValueError):
        raise BenchError(f"worker printed no report: {' '.join(args)}") from None


def _problems(ops: list[dict]) -> list[str]:
    return [f"{r['op']}: {p}" for r in ops for p in r["problems"]]


def _pass_wall(ops: list[dict]) -> float:
    return sum(r["wall_s"] for r in ops)


def measure(args, deadline: float) -> dict:
    """End-to-end run. Each pass is made by a fresh worker process, closed
    loop, so that a process's own luck (memory layout, hash seed) moves one
    sample, as a slow moment of the host does. After each pass, more fresh
    processes are timed through set-up only, so the set-up samples span the
    run as the passes do."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setup, passes, rss = [], [], []
    started = perf_counter()
    while True:
        report, pass_started = spawn(base + ["--mode", "pass"], deadline)
        setup.append(report["ready"] - pass_started)
        passes.append(report["ops"])
        rss.append(report["peak_rss_mb"])
        for _ in range(PROBES_PER_PASS):
            probe, probe_started = spawn(base + ["--mode", "setup"], deadline)
            setup.append(probe["ready"] - probe_started)
        elapsed = perf_counter() - started
        # start another pass only if it should end within the budget
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    walls = [_pass_wall(p) for p in passes]
    ops = [r for p in passes for r in p]
    # a pass always runs the same ops in the same order: take each op's
    # median over the passes, so one slow moment of the host moves one sample
    op_s = {passes[0][i]["op"]: statistics.median(p[i]["wall_s"] for p in passes)
            for i in range(len(passes[0]))}
    pass_s = sum(op_s.values())
    derived = {"pass_samples": len(walls), "setup_samples": len(setup),
               "setup_min_s": min(setup), "op_samples": len(ops)}
    steps = workloads.steps_per_pass(args.workload, args.size)
    if steps:
        derived["steps_per_pass"] = steps
        derived["steps_per_s"] = steps / pass_s
    else:
        derived["large_predict_s"] = sum(v for k, v in op_s.items() if k.startswith("predict"))
        derived["classify_s"] = sum(v for k, v in op_s.items() if k.startswith("classify"))
    return {"metrics": {"setup_s": statistics.median(setup), "pass_s": pass_s,
                        "peak_rss_mb": statistics.median(rss)},
            "ops": ops, "derived": derived, "env": report["env"],
            "samples": {"setup_s": setup, "pass_s": walls}}


def trace(args, deadline: float) -> dict:
    """Per-layer run: a traced pass, and on the sim workload the
    one-thread reference."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    report, _ = spawn(base + ["--mode", "trace", "--spans-out", str(spans_path)], deadline)
    if not report["restored"]:
        raise BenchError("traced callables were not restored")
    ops = report["plain"] + report["traced"]
    derived = {}
    reference = report["thread_reference"]
    if reference is not None:
        ops += [r for passes in reference["passes"].values() for p in passes for r in p]
        derived = {"default_thread_pass_s": statistics.median(reference["pass_s"]["default"]),
                   "one_thread_pass_s": statistics.median(reference["pass_s"]["one"])}
        reference = {k: v for k, v in reference.items() if k != "passes"}
    return {"metrics": report["per_layer"], "ops": ops, "absent": report["absent"],
            "not_applicable": report["not_applicable"], "self_time": report["self_time"],
            "env": report["env"], "thread_reference": reference,
            "spans_file": str(spans_path.relative_to(ROOT)), "derived": derived}


def run_one(args, deadline: float) -> tuple[dict, dict]:
    """Run one workload; return the result the benchmark contract asks for,
    and the full record."""
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec()[kind]}
    run = trace(args, deadline) if args.trace else measure(args, deadline)
    missing = set(wanted) - set(run["metrics"])
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    absent = run.get("absent", [])
    problems = _problems(run["ops"])
    failed = sum(1 for r in run["ops"] if r["problems"])
    attempted = len(run["ops"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    run["derived"]["failed_ratio"] = failed / attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "result": result,
              "problems": problems,
              "absent": [name for name in wanted
                         if any(name == a or name.startswith(a + ".") for a in absent)],
              **{k: v for k, v in run.items() if k not in ("metrics", "absent")}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    _summary(record, wanted)
    return result, record


def _summary(record: dict, units: dict) -> None:
    env = record["env"]
    blas = "; ".join(f"{b['library']} threads={b['threads']}" for b in env["blas_runtime"])
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']}",
             f"#   nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
             f"numpy={env['numpy']} scipy={env['scipy']}",
             f"#   blas: {blas}; thread env: {env['thread_env']}"]
    not_applicable = record.get("not_applicable", [])
    for name, m in record["result"]["metrics"].items():
        mark = ("  (absent)" if name in record["absent"]
                else "  (not applicable)" if name in not_applicable else "")
        lines.append(f"{name:48s} {m['value']:.6g} {units[name]}{mark}")
    for name, value in record["derived"].items():
        lines.append(f"{name:48s} {value:.6g} {DERIVED_UNITS[name]}  (derived)")
    res = record["result"]
    lines.append(f"{'':48s} ({res['failed']} failed of {res['attempted']} attempted)")
    lines += [f"FAILED {p}" for p in record["problems"][:10]]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.seed %= 2 ** 64            # the library takes 64-bit unsigned seeds
    if not (ROOT / "src" / "lyapzeros" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    try:
        if args.workload != "all":
            result, _ = run_one(args, deadline)
        else:
            results = {}
            for name in workloads.WORKLOADS:
                one = argparse.Namespace(**{**vars(args), "workload": name})
                results[name], record = run_one(one, perf_counter() + DEADLINE_S)
                rows = [(m, v["value"], v["unit"]) for m, v in results[name]["metrics"].items()]
                rows += [(m, v, DERIVED_UNITS[m]) for m, v in record["derived"].items()]
                for metric, value, unit in rows:
                    print(f"{name:16s} {metric:40s} {value:.6g} {unit}")
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{name}.{metric}": m for name, r in results.items()
                                  for metric, m in r["metrics"].items()}}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

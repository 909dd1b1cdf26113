"""One workload process: set-up, then untraced or traced passes.

Started by run.py as a fresh interpreter. It prints one JSON object on
stdout when it ends. ``ready`` in the output is the monotonic clock
(shared by all processes of the machine) at the end of set-up, so the
parent can time set-up from the moment it started this process.

Modes:
  setup    set up and stop (one set-up sample);
  pass     set up, then run one pass;
  trace    set up, one untraced pass, then the same pass traced; on a
           workload that runs BLAS, then the one-thread reference passes
           over its standard-representation ops.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_ROUNDS = 2    # of the one-thread reference: default, one, one, default
_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def _blas_libraries() -> list[tuple[str, ctypes.CDLL | None]]:
    """(path, handle) of every BLAS library mapped into this process; the
    handle is None when the library cannot be opened."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    out = []
    for path in sorted(set(re.findall(r"(/\S*(?:openblas|libblas|mkl_rt|libblis)\S*\.so\S*)", maps))):
        try:
            out.append((path, ctypes.CDLL(path)))
        except OSError:
            out.append((path, None))
    return out


def blas_runtime() -> list[dict]:
    """Every BLAS library mapped into this process, with its configuration
    string and the thread count it runs with (read, never set)."""
    out = []
    for path, lib in _blas_libraries():
        entry = {"library": Path(path).name, "threads": None, "config": None}
        if lib is not None:
            threads = _first_symbol(lib, _BLAS_THREADS)
            if threads is not None:
                threads.restype = ctypes.c_int
                entry["threads"] = threads()
            config = _first_symbol(lib, _BLAS_CONFIG)
            if config is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode(errors="replace")
        out.append(entry)
    return out


def blas_thread_controls() -> list[tuple] | None:
    """(get, set) thread-count functions of every loaded BLAS, or None when
    one of them has no such functions (then the thread count cannot be
    changed within the process)."""
    controls = []
    for _, lib in _blas_libraries():
        get = None if lib is None else _first_symbol(lib, _BLAS_THREADS)
        set_ = None if lib is None else _first_symbol(lib, _BLAS_SET_THREADS)
        if get is None or set_ is None:
            return None
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        controls.append((get, set_))
    return controls or None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{build.get('name')} {build.get('version')}",
        "blas_runtime": blas_runtime(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def set_up(workload: str, size: str):
    """Import, build the specs and samplers, and make one warm-up call."""
    import lyapzeros
    from lyapzeros import cli
    workloads.build_specs(lyapzeros, workload, size)
    for argv in workloads.warmup_argvs(workload):
        cli.main(argv, out=io.StringIO())
    return cli


def run_pass(cli, ops, tracer: Tracer | None = None) -> list[dict]:
    """Run every op once, closed loop: each starts when the previous returned.

    Only the ``cli.main`` call is timed; parsing and checking come after.
    """
    results = []
    for index, op in enumerate(ops):
        out = io.StringIO()
        if tracer is not None:
            tracer.op = index
            main_before = tracer.stat("cli.main")[1]
        t0 = perf_counter()
        try:
            rc = cli.main(list(op.argv), out=out)
            error = None
        except Exception as exc:  # a crash is a failed op; the loop goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        text = out.getvalue()
        problems = [f"raised {error}"] if error else op.check(rc, text)
        entry = {"op": op.label, "wall_s": wall, "problems": problems,
                 "output_bytes": len(text.encode())}
        if tracer is not None:
            # the layer self times under cli.main add up to its duration, so
            # this is their sum; it is 0 when cli.main could not be wrapped
            entry["layer_sum_s"] = tracer.stat("cli.main")[1] - main_before
        results.append(entry)
    return results


def _stat_metrics(tracer: Tracer) -> dict:
    def count(name):
        return tracer.stat(name)[0]

    def seconds(name):
        return tracer.stat(name)[1]

    c = tracer.counters
    computed = c["expm_matrices"]
    return {
        "expm.expm_batch.calls": count("expm.expm_batch"),
        "expm.expm_batch.matrices": computed,
        "expm.expm_batch.time_s": seconds("expm.expm_batch"),
        "realforms.exterior_power_matrix.matrices": c["compound_matrices"],
        "realforms.exterior_power_matrix.minors": c["compound_minors"],
        "realforms.exterior_power_matrix.time_s": seconds("realforms.exterior_power_matrix"),
        "simulate.qr.calls": count("simulate.qr"),
        "simulate.qr.time_s": seconds("simulate.qr"),
        "simulate.lyapunov_spectrum.time_s": seconds("simulate.lyapunov_spectrum"),
        "simulate.self_s": tracer.self_time["simulate"],
        "simulate.useful_step_ratio": c["steps_accumulated"] / computed if computed else 0.0,
        "simulate.renorm_retries": c["renorm_retries"],
        "realforms.lie_algebra_basis.time_s": seconds("realforms.lie_algebra_basis"),
        "realforms.weights_restricted.time_s": seconds("realforms.weights_restricted"),
        "realforms.RestrictionMap.apply.calls": count("realforms.RestrictionMap.apply"),
        "realforms.self_s": tracer.self_time["realforms"],
        "weights.weights_exterior.time_s": seconds("weights.weights_exterior"),
        "weights.Weight.instances": count("weights.Weight"),
        "weights.self_s": tracer.self_time["weights"],
        "prediction.su_zero_weight_parity_counts.time_s":
            seconds("prediction.su_zero_weight_parity_counts"),
        "prediction.predict.calls": count("prediction.predict"),
        "prediction.predict.time_s": seconds("prediction.predict"),
        "prediction.self_s": tracer.self_time["prediction"],
        "cli.main.time_s": seconds("cli.main"),
        "cli.self_s": tracer.self_time["cli"],
    }


def thread_reference(cli, ops) -> dict | None:
    """Default-thread and one-thread passes, alternated in this process
    (default, one, one, default, ...), so that a drift of the host's speed
    falls on both alike. The thread count is set through the BLAS library's
    own call and put back afterwards. None when it cannot be set."""
    controls = blas_thread_controls()
    if controls is None:
        return None
    default = [get() for get, _ in controls]
    passes = {"default": [], "one": []}
    order = [("default", "one"), ("one", "default")]
    try:
        for round_ in range(REFERENCE_ROUNDS):
            for kind in order[round_ % 2]:
                for (_, set_), count in zip(controls, default):
                    set_(1 if kind == "one" else count)
                passes[kind].append(run_pass(cli, ops))
    finally:
        for (_, set_), count in zip(controls, default):
            set_(count)
    walls = {kind: [sum(r["wall_s"] for r in p) for p in ps] for kind, ps in passes.items()}
    return {"default_threads": default, "passes": passes, "pass_s": walls,
            "speedup": statistics.median(walls["default"]) / statistics.median(walls["one"])}


def trace(cli, ops, reference_ops=()) -> dict:
    """One untraced pass, then the same pass traced, wrappers removed after;
    then, if reference_ops is not empty, the one-thread reference over them."""
    plain = run_pass(cli, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    metrics = _stat_metrics(tracer)
    not_applicable = []
    if not tracer.counters["expm_matrices"]:
        not_applicable.append("simulate.useful_step_ratio")
    metrics["cli.output_bytes"] = sum(r["output_bytes"] for r in traced)
    metrics["trace.overhead_ratio"] = (sum(r["wall_s"] for r in traced)
                                       / sum(r["wall_s"] for r in plain))
    metrics["trace.layer_sum_error"] = max(abs(r["layer_sum_s"] - r["wall_s"]) / r["wall_s"]
                                           for r in traced)
    metrics["trace.spans"] = len(tracer.spans)
    reference = thread_reference(cli, reference_ops) if reference_ops else None
    if reference is None:
        metrics["simulate.single_thread_speedup"] = 0.0
        not_applicable.append("simulate.single_thread_speedup")
    else:
        metrics["simulate.single_thread_speedup"] = reference["speedup"]
    return {"plain": plain, "traced": traced, "thread_reference": reference,
            "per_layer": metrics, "self_time": tracer.self_time, "absent": tracer.absent,
            "not_applicable": not_applicable, "restored": tracer.restored(),
            "spans": tracer.spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "pass", "trace"])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--spans-out", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    cli = set_up(args.workload, args.size)
    report = {"ready": perf_counter()}
    if args.mode != "setup":
        ops = workloads.pass_ops(args.workload, args.seed, args.size)
        report["env"] = environment(args.seed)
        if args.mode == "pass":
            report["ops"] = run_pass(cli, ops)
        else:
            # the one-thread reference covers the standard-rep verify ops
            reference_ops = [op for op in ops
                             if op.kind == "verify" and op.query["rep"] == "standard"]
            traced = trace(cli, ops, reference_ops)
            spans = traced.pop("spans")
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(spans))
            report.update(traced)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

LAYER_USE = {  # workload -> (metrics that must be > 0, metrics that must be 0)
    "sim": (["expm.expm_batch.time_s", "simulate.qr.time_s", "simulate.self_s",
             "simulate.useful_step_ratio", "simulate.single_thread_speedup",
             "realforms.exterior_power_matrix.time_s", "cli.main.time_s"], []),
    "exact": (["prediction.predict.time_s", "realforms.self_s", "weights.self_s",
               "weights.weights_exterior.time_s", "realforms.RestrictionMap.apply.calls",
               "cli.main.time_s"],
              ["expm.expm_batch.calls", "simulate.qr.calls",
               "realforms.exterior_power_matrix.matrices",
               "simulate.useful_step_ratio", "simulate.single_thread_speedup"]),
}


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (bench(w, 1), bench(w, 1)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, traced_twice):
    result = traced_twice[workload][0]
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.layer_sum_error"]["value"] < 0.03
    value = {name: m["value"] for name, m in result["metrics"].items()}
    # the layers a workload runs show work; a layer it bypasses reads 0
    used, bypassed = LAYER_USE[workload]
    assert [n for n in used if not value[n] > 0] == []
    assert [n for n in bypassed if value[n] != 0] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload, traced_twice):
    first, second = traced_twice[workload]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
           {n: second["metrics"][n]["value"] for n in counts}


def test_wrong_oracle_value_counts_as_failure(monkeypatch):
    cli = worker.set_up("exact", "tiny")
    ops = [op for op in workloads.pass_ops("exact", 1, "tiny") if op.kind == "predict"]
    assert not any(r["problems"] for r in worker.run_pass(cli, ops))
    real = oracles.zero_count_real
    monkeypatch.setattr(oracles, "zero_count_real", lambda query: real(query) + 2)
    results = worker.run_pass(cli, ops)
    assert sum(1 for r in results if r["problems"]) == len(ops)


def test_wrapped_callables_and_blas_threads_are_restored():
    cli = worker.set_up("sim", "tiny")
    ops = [op for op in workloads.pass_ops("sim", 1, "tiny") if op.query["rep"] == "ext:2"]
    before, threads = _namespace(), worker.blas_runtime()
    report = worker.trace(cli, ops, reference_ops=ops)
    after = _namespace()
    assert report["restored"] and report["per_layer"]["cli.main.time_s"] > 0
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert worker.blas_runtime() == threads
    reference = report["thread_reference"]
    assert len(reference["pass_s"]["default"]) == len(reference["pass_s"]["one"]) == 2


def test_add_up_check_fails_without_cli_main(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", [t for t in tracer.TARGETS if t[0] != "cli.main"])
    cli = worker.set_up("exact", "tiny")
    report = worker.trace(cli, [op for op in workloads.pass_ops("exact", 1, "tiny")
                                if op.kind == "classify"])
    assert report["absent"] == [] and report["per_layer"]["trace.layer_sum_error"] == 1.0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("gone.helper", "lyapzeros.simulate", "no_such_helper", "simulate", "span")])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["gone.helper"] and t.restored()


def test_oracle_table_matches_closed_forms():
    rows = oracles.admissible_rows(16)
    assert {"form": "su(3,1)", "rep": "ext:2", "real_dim": 12, "zero_count_real": 4} in rows
    assert {"form": "so*(6)", "rep": "standard", "real_dim": 12, "zero_count_real": 4} in rows
    assert oracles.zero_count_real({"group": "su", "p": 16, "q": 2, "rep": "ext:9"}) == 21736
    assert oracles.real_dim({"group": "so-split", "m": 23, "rep": "spin"}) == 4096


def _namespace() -> dict:
    """Every module-level and class-level attribute a tracer could patch."""
    import numpy.linalg
    modules = [m for n, m in sys.modules.items() if n.startswith("lyapzeros")]
    out = {("numpy.linalg", "qr"): numpy.linalg.qr}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out

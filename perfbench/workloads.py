"""Workload definitions: the queries of one pass, and their checks.

A pass is the list of operations a workload repeats in its closed loop.
Every operation is one call of ``lyapzeros.cli.main([...], out=buffer)``
with ``--format json``. The workload seed becomes ``--seed`` of every
simulation and fixes the order of the operations within a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles

SIM_TRIALS = 8
# At 5000 steps x 8 trials every sim verdict was "match" on 60 consecutive
# seeds; fewer steps make an inconclusive verdict likely on some seed.
SIZES = {
    "full": {"sim_steps": 5000, "classify_max_dim": 120},
    "tiny": {"sim_steps": 1500, "classify_max_dim": 24},
}

SIM_STANDARD = [
    {"group": "su", "p": 2, "q": 1, "rep": "standard"},
    {"group": "su", "p": 3, "q": 1, "rep": "standard"},
    {"group": "so-star", "n": 3, "rep": "standard"},
    {"group": "sp", "g": 2, "rep": "standard"},
    {"group": "so-split", "m": 5, "rep": "standard"},
]
SIM_EXTERIOR = [
    {"group": "su", "p": 3, "q": 1, "rep": "ext:2"},
    {"group": "su", "p": 5, "q": 1, "rep": "ext:3"},
]
EXACT_PREDICT = {
    "full": [
        {"group": "su", "p": 16, "q": 2, "rep": "ext:9"},
        {"group": "su", "p": 12, "q": 4, "rep": "ext:8"},
        {"group": "so-star", "n": 10, "rep": "ext:5"},
        {"group": "so-split", "m": 23, "rep": "spin"},
    ],
    "tiny": [
        {"group": "su", "p": 6, "q": 2, "rep": "ext:4"},
        {"group": "su", "p": 5, "q": 3, "rep": "ext:4"},
        {"group": "so-star", "n": 5, "rep": "ext:3"},
        {"group": "so-split", "m": 9, "rep": "spin"},
    ],
}

SIM_QUERIES = SIM_STANDARD + SIM_EXTERIOR

WORKLOADS = ("sim", "exact")


@dataclass(frozen=True)
class Op:
    """One operation of a pass: CLI arguments plus what its output must be."""

    argv: tuple[str, ...]
    kind: str            # "verify" | "predict" | "classify"
    query: dict

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a not in ("--format", "json"))

    def check(self, rc: int, text: str) -> list[str]:
        """Problems with the output; an empty list means it is correct."""
        try:
            record = oracles.parse_record(text)
            if self.kind == "verify":
                return oracles.check_verify(rc, record)
            if self.kind == "predict":
                return oracles.check_predict(rc, record, self.query)
            return oracles.check_classify(rc, record, self.query["max_dim"])
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output (exit code {rc}): {type(exc).__name__}: {exc}"]


def group_argv(query: dict) -> list[str]:
    argv = ["--group", query["group"]]
    for key, value in query.items():
        if key not in ("group", "rep"):
            argv += [f"--{key}", str(value)]
    return argv + ["--rep", query["rep"]]


def pass_ops(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one pass, in the order the seed gives them."""
    sizes = SIZES[size]
    if workload == "sim":
        ops = [Op(("verify", *group_argv(q), "--steps", str(sizes["sim_steps"]),
                   "--trials", str(SIM_TRIALS), "--seed", str(seed), "--format", "json"),
                  "verify", q)
               for q in SIM_QUERIES]
    elif workload == "exact":
        max_dim = sizes["classify_max_dim"]
        ops = [Op(("predict", *group_argv(q), "--format", "json"), "predict", q)
               for q in EXACT_PREDICT[size]]
        ops.append(Op(("classify", "--max-dim", str(max_dim), "--format", "json"), "classify",
                      {"max_dim": max_dim}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def warmup_argvs(workload: str) -> list[list[str]]:
    """Small calls through every layer the workload uses, made during set-up."""
    if workload == "sim":
        return [["simulate", *group_argv(q), "--steps", "200", "--trials", "2",
                 "--format", "json"] for q in (SIM_STANDARD[0], SIM_EXTERIOR[0])]
    return [["predict", "--group", "su", "--p", "4", "--q", "2", "--rep", "ext:3",
             "--format", "json"],
            ["classify", "--max-dim", "12", "--format", "json"]]


def build_specs(lz, workload: str, size: str = "full") -> list:
    """Set-up work a caller does once: real forms and representation specs of
    every query, plus the group samplers of every simulated pair."""
    factories = {"su": lambda q: lz.su(q["p"], q["q"]), "so-star": lambda q: lz.so_star(q["n"]),
                 "sp": lambda q: lz.sp(q["g"]), "so-split": lambda q: lz.so_split(q["m"])}
    if workload == "sim":
        return [lz.lie_algebra_basis(factories[q["group"]](q))
                for q in SIM_QUERIES]
    return [(factories[q["group"]](q), lz.RepSpec.parse(q["rep"]))
            for q in EXACT_PREDICT[size]]


def steps_per_pass(workload: str, size: str = "full") -> int:
    """Sampled group elements applied in one pass, summed over trials and pairs."""
    if workload != "sim":
        return 0
    return len(SIM_QUERIES) * SIZES[size]["sim_steps"] * SIM_TRIALS

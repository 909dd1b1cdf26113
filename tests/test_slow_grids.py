"""Wide simulation grids (minutes of runtime); opt in with ``pytest -m slow``."""

import io
import json

import pytest

import lyapzeros as lz
from lyapzeros import RepSpec, predict, so_split, so_star, sp, su
from lyapzeros.cli import _admissible_rows, main


def _headline_pairs():
    """Hodge-admissible, matrix-realizable pairs with max(p+q, 2n, 2g) <= 6
    and a nondegenerate top exponent."""
    pairs = []
    for total in range(2, 7):
        for q in range(1, total // 2 + 1):
            pairs.append((su(total - q, q), RepSpec.standard()))
    for p in range(2, 6):
        for k in range(2, p + 1):
            pairs.append((su(p, 1), RepSpec.exterior(k)))
    pairs += [(so_star(2), RepSpec.standard()), (so_star(3), RepSpec.standard())]
    pairs += [(sp(g), RepSpec.standard()) for g in (1, 2, 3)]
    return pairs


@pytest.mark.slow
@pytest.mark.parametrize("form,rep", _headline_pairs(),
                         ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_verify_matches_on_headline_grid(form, rep):
    cfg = lz.SimConfig(form=form, rep=rep)
    report = lz.verify_prediction(cfg, predict(form, rep))
    assert report.verdict == "match", (form.label(), rep.label(), report.details)


def _cli_grid_rows():
    rows = []
    for r in _admissible_rows(12):
        if r["rep"] in ("spin", "half-spin:+", "half-spin:-"):
            continue   # weight combinatorics only; verify exits 3 by design
        rows.append((r["form"], r["rep"]))
    return rows


@pytest.mark.slow
@pytest.mark.parametrize("form_label,rep_label", _cli_grid_rows())
def test_cli_verify_grid_exits_zero(form_label, rep_label):
    args = _args_for(form_label) + ["--rep", rep_label, "--format", "json"]
    assert main(["verify"] + args) == 0


def _args_for(label):
    if label.startswith("su("):
        p, q = label[3:-1].split(",")
        return ["--group", "su", "--p", p, "--q", q]
    if label.startswith("so*("):
        n = int(label[4:-1]) // 2
        return ["--group", "so-star", "--n", str(n)]
    if label.startswith("so("):
        m = label[3:-1].split(",")[0]
        return ["--group", "so-split", "--m", m]
    g = int(label[3:-3]) // 2
    return ["--group", "sp", "--g", str(g)]


# the seven verify pairs of the benchmark's simulation workload
SIM_PAIRS = [("su(2,1)", "standard"), ("su(3,1)", "standard"), ("so*(6)", "standard"),
             ("sp(4,R)", "standard"), ("so(5,2)", "standard"), ("su(3,1)", "ext:2"),
             ("su(5,1)", "ext:3")]


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("form_label,rep_label", SIM_PAIRS)
def test_benchmark_size_verdicts(form_label, rep_label, seed):
    # at 5000 steps x 8 trials every run must match, with its exponents
    # summing to at most 1e-9 lambda_max and a sample form error below 1e-10
    buf = io.StringIO()
    code = main(["verify"] + _args_for(form_label) + ["--rep", rep_label, "--steps", "5000",
                "--trials", "8", "--seed", str(seed), "--format", "json"], out=buf)
    payload = json.loads(buf.getvalue())["payload"]
    exps = payload["result"]["exponents_real"]
    assert code == 0 and payload["verdict"] == "match", payload["details"]
    assert abs(sum(exps)) <= 1e-9 * max(exps)
    assert payload["result"]["max_sample_form_error"] < 1e-10


def _forms_up_to(d):
    """Every form of matrix dimension d or less, in each family."""
    forms = [su(t - q, q) for t in range(2, d + 1) for q in range(1, t // 2 + 1)]
    forms += [so_split(m) for m in range(3, d - 1)]
    return forms + [so_star(n) for n in range(2, d // 2 + 1)] + [sp(g) for g in range(1, d // 2 + 1)]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("form", _forms_up_to(18), ids=lambda f: f.label())
def test_verify_matches_up_to_dimension_18(form, seed):
    # the zero band of the larger forms sits under the 1e-12 floor only
    # before the means are projected onto sum 0
    cfg = lz.SimConfig(form=form, steps=3000, trials=8, master_seed=seed)
    report = lz.verify_prediction(cfg, predict(form, RepSpec.standard()))
    assert report.verdict == "match", (form.label(), seed, report.details)


@pytest.mark.slow
@pytest.mark.parametrize("renorm,code", [("10", 1), ("1", 0)])
def test_su_100_100_needs_renorm_1(renorm, code, capsys):
    # blocks of 10 and then 5 steps lose precision on su(100,100): the
    # failure names the retry's interval, 5; blocks of one step pass
    buf = io.StringIO()
    argv = ["simulate", "--group", "su", "--p", "100", "--q", "100", "--steps", "20",
            "--trials", "2", "--renorm", renorm, "--format", "json"]
    assert main(argv, out=buf) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numerical error: trace sum rule violated")
        assert "'renorm_interval': 5}" in err
        assert buf.getvalue() == ""
    else:
        assert json.loads(buf.getvalue())["payload"]["renorm_interval_used"] == 1

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

from lyapzeros import (RepSpec, cli, matrices, prediction, realforms, simulate,
                       so_split, so_star, sp, su)
from lyapzeros.errors import NumericalError


def run_cli(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--format", "json"])
    if not text.strip():
        return code, None
    rec = json.loads(text)
    assert json.loads(json.dumps(rec)) == rec   # every record round-trips
    return code, rec


class TestPredict:
    def test_su31_ext2_text(self):
        code, text = run_cli(["predict", "--group", "su", "--p", "3", "--q", "1",
                              "--rep", "ext:2"])
        assert code == 0
        assert "zero_count_real: 4" in text
        assert "signature_complex: [3, 3]" in text

    def test_sp_standard(self):
        code, rec = run_json(["predict", "--group", "sp", "--g", "2", "--rep", "standard"])
        assert code == 0
        assert rec["payload"]["zero_count_real"] == 0

    def test_so_star_even(self):
        code, rec = run_json(["predict", "--group", "so-star", "--n", "4",
                              "--rep", "standard"])
        assert code == 0
        assert rec["payload"]["zero_count_real"] == 0

    def test_schema_and_roundtrip(self):
        code, rec = run_json(["predict", "--group", "su", "--p", "2", "--q", "1",
                              "--rep", "standard"])
        assert code == 0
        assert rec["schema_version"] == 1
        assert rec["command"] == "predict"
        assert json.loads(json.dumps(rec)) == rec

    @pytest.mark.parametrize("flags,weights", [
        (["--group", "so-split", "--m", "5", "--rep", "spin"],
         [("1/2*f1 + 1/2*f2", 2), ("1/2*f1 - 1/2*f2", 2), ("-1/2*f1 + 1/2*f2", 2),
          ("-1/2*f1 - 1/2*f2", 2)]),
        (["--group", "su", "--p", "3", "--q", "1", "--rep", "ext:2"], [("f1", 4), ("-f1", 4)]),
        (["--group", "so-star", "--n", "4", "--rep", "half-spin:+"],
         [("f1 + f2", 2), ("f1 - f2", 2), ("-f1 + f2", 2), ("-f1 - f2", 2)]),
        (["--group", "sp", "--g", "2", "--rep", "standard"],
         [("f1", 1), ("f2", 1), ("-f2", 1), ("-f1", 1)]),
    ])
    def test_weight_strings(self, flags, weights):
        structure = [{"weight": w, "real_multiplicity": m} for w, m in weights]
        code, rec = run_json(["predict"] + flags)
        assert code == 0
        assert rec["payload"]["nonzero_structure_real"] == structure
        code, text = run_cli(["predict"] + flags)
        assert code == 0
        assert f"nonzero_structure_real: {json.dumps(structure)}\n" in text

    def test_missing_params_exit3(self):
        code, _ = run_cli(["predict", "--group", "su", "--p", "3"])
        assert code == 3

    def test_incoherent_pair_exit3(self):
        code, _ = run_cli(["predict", "--group", "su", "--p", "3", "--q", "1",
                           "--rep", "spin"])
        assert code == 3

    def test_usage_error_exit2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["predict", "--group", "unknown"])
        assert exc.value.code == 2

    def test_console_prints_warnings_as_lines(self):
        # cli.run serves the console script and python -m: a size warning is
        # one "warning:" line on stderr, with no source location
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, lyapzeros.realforms\n"
                "lyapzeros.realforms.EXTERIOR_WEIGHT_LIMIT = 1\n"
                "from lyapzeros import cli\n"
                "sys.argv = ['lyapzeros', 'predict', '--group', 'su', '--p', '3', '--q', '1',"
                " '--rep', 'ext:2']\n"
                "cli.run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0
        assert "zero_count_real: 4" in proc.stdout
        assert proc.stderr == (
            "warning: su(3,1) ext:2 may have up to 3 distinct restricted weights "
            "(warning limit 1); time and memory grow with that number\n")


SU31_EXT2 = ["predict", "--group", "su", "--p", "3", "--q", "1", "--rep", "ext:2"]


@pytest.mark.parametrize("name,broken,argv", [
    ("su_exterior_zero_multiplicity", lambda p, q, k: 99, SU31_EXT2),
    ("su_p1_exterior_signature", lambda p, k: (0, 0), SU31_EXT2),
    ("hodge_admissible", lambda form, rep: (False, "broken"), ["classify", "--max-dim", "4"]),
    ("_zero_count_closed_form", lambda form, rep: 99, ["classify", "--max-dim", "12"]),
    ("su_exterior_zero_multiplicity",
     lambda p, q, k, real=prediction.su_exterior_zero_multiplicity: real(p, q, k) + 1,
     ["classify", "--max-dim", "24"]),
])
def test_failed_internal_check_exits_1(monkeypatch, capsys, name, broken, argv):
    # a closed form that disagrees with the computed weights is a defect in
    # the library, not an incoherent input (exit 3)
    monkeypatch.setattr(prediction, name, broken)
    code, text = run_cli(argv)
    assert code == cli.EXIT_ERROR == 1
    assert text == ""
    assert "internal error" in capsys.readouterr().err


def test_classify_row_disagreeing_with_predict_exits_1(monkeypatch, capsys):
    # the closed-form rows are cross-checked on a sample; a prediction that
    # differs from its row fails the table even when predict itself is coherent
    real = cli.predict

    def shifted(form, rep):
        pred = real(form, rep)
        return dataclasses.replace(pred, real_dim=pred.real_dim + 2,
                                   zero_count_real=pred.zero_count_real + 2)

    monkeypatch.setattr(cli, "predict", shifted)
    code, text = run_cli(["classify", "--max-dim", "4"])
    assert (code, text) == (cli.EXIT_ERROR, "")
    assert "internal error: classify row" in capsys.readouterr().err


def form_of(label):
    """RealFormSpec from its label: su(p,q), so(m,2), so*(2n) or sp(2g,R)."""
    nums = [int(x) for x in re.findall(r"\d+", label)]
    if label.startswith("su("):
        return su(*nums)
    if label.startswith("so*("):
        return so_star(nums[0] // 2)
    if label.startswith("so("):
        return so_split(nums[0])
    return sp(nums[0] // 2)


class TestClassify:
    def test_contains_sp2(self):
        code, rec = run_json(["classify", "--max-dim", "4"])
        assert code == 0
        forms = {(r["form"], r["rep"]) for r in rec["payload"]["rows"]}
        assert ("sp(2,R)", "standard") in forms

    def test_empty_table(self):
        code, rec = run_json(["classify", "--max-dim", "0"])
        assert code == 0
        assert rec["payload"]["rows"] == []

    def test_identical_spectra_pair(self):
        code, rec = run_json(["classify", "--max-dim", "12"])
        assert code == 0
        rows = {(r["form"], r["rep"]): r for r in rec["payload"]["rows"]}
        a = rows[("so*(6)", "standard")]
        b = rows[("su(3,1)", "ext:2")]
        assert (a["real_dim"], a["zero_count_real"]) == (b["real_dim"], b["zero_count_real"]) == (12, 4)

    def test_text_table(self):
        code, text = run_cli(["classify", "--max-dim", "4"])
        assert code == 0
        assert "sp(2,R)" in text
        assert "real counts" in text

    def test_rows_agree_with_predict(self):
        # standard rows are read off the form; every row must still carry
        # what the full prediction says
        code, rec = run_json(["classify", "--max-dim", "240"])
        assert code == 0
        rows = rec["payload"]["rows"]
        assert len(rows) > 3000
        for row in rows:
            pred = prediction.predict(form_of(row["form"]), RepSpec.parse(row["rep"]))
            assert (row["real_dim"], row["zero_count_real"]) == \
                (pred.real_dim, pred.zero_count_real), row

    def test_standard_rows_build_no_weights(self, monkeypatch):
        # rows come from closed forms; only the cross-check sample (every row
        # of real dimension <= 24 and the largest row of each kind) builds a
        # form, and a standard or exterior sample row its standard weights
        want = run_json(["classify", "--max-dim", "120"])[1]["payload"]
        built = []
        real = realforms._restricted_standard

        def spy(form):
            built.append(form.label())
            return real(form)

        monkeypatch.setattr(realforms, "_restricted_standard", spy)
        code, rec = run_json(["classify", "--max-dim", "120"])
        assert code == 0
        assert rec["payload"] == want
        # rows are sorted, so the last row of a kind is its largest
        largest = {re.sub(r"\d+", "", r["form"] + r["rep"]): r for r in want["rows"]}
        weighted = [r["form"] for r in want["rows"]
                    if (r["real_dim"] <= 24 or r in largest.values())
                    and (r["rep"] == "standard" or r["rep"].startswith("ext:"))]
        assert len(want["rows"]) > 900 and len(weighted) < 100
        assert sorted(built) == sorted(weighted)

    def test_large_table_warns_before_building_rows(self, monkeypatch):
        class FirstRow(Exception):
            pass

        def first_row(*args):
            raise FirstRow

        # the su(p,1) walk's first binomial is the first call after the warning
        monkeypatch.setattr(cli, "binomial", first_row)
        with pytest.warns(RuntimeWarning, match="250,000 su\\(p,q\\) standard rows"):
            with pytest.raises(FirstRow):
                run_cli(["classify", "--max-dim", "2000"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FirstRow):
                run_cli(["classify", "--max-dim", "1000"])

    def test_large_table_warning_names_the_callers_line(self, monkeypatch):
        class FirstRow(Exception):
            pass

        def first_row(*args):
            raise FirstRow

        monkeypatch.setattr(cli, "binomial", first_row)
        with pytest.warns(RuntimeWarning, match="standard rows") as records:
            with pytest.raises(FirstRow):
                cli.main(["classify", "--max-dim", "2000"])
        assert [r.filename for r in records] == [__file__]

    @pytest.mark.parametrize("max_dim", [0, 4, 12, 24, 41, 120, 240])
    def test_su_exterior_rows_are_complete(self, max_dim):
        # every su(p,1) ext:k, 2 <= k <= p, of real dimension 2 C(p+1, k) <= max_dim
        want = {(f"su({p},1)", f"ext:{k}") for p in range(2, max_dim) for k in range(2, p + 1)
                if 2 * math.comb(p + 1, k) <= max_dim}
        code, rec = run_json(["classify", "--max-dim", str(max_dim)])
        assert code == 0
        got = {(r["form"], r["rep"]) for r in rec["payload"]["rows"]
               if r["rep"].startswith("ext:")}
        assert got == want
        assert all(r["real_dim"] <= max_dim for r in rec["payload"]["rows"])

    def test_su_exterior_rows_take_few_binomials(self, monkeypatch):
        # the rows are found from both ends of each k range; testing every k
        # in 2..p took 135,818 binomials at --max-dim 1000
        calls = []
        real = cli.binomial

        def counting(n, k):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(cli, "binomial", counting)
        code, _ = run_cli(["classify", "--max-dim", "1000", "--format", "json"])
        assert code == 0
        assert len(calls) <= 3 * 500

    @pytest.mark.parametrize("max_dim", [0, 3, 4, 5, 12, 121, 240, 1000, 2001])
    def test_su_row_count_closed_form(self, max_dim):
        count = sum(s // 2 for s in range(2, max_dim // 2 + 1))
        assert cli._su_standard_row_count(max_dim) == count


class TestSimulate:
    def test_quick_run(self):
        code, rec = run_json(["simulate", "--group", "su", "--p", "1", "--q", "1",
                              "--rep", "standard", "--steps", "5000", "--trials", "2",
                              "--seed", "42"])
        assert code == 0
        exps = rec["payload"]["exponents_real"]
        assert len(exps) == 4
        lam = exps[0]
        assert exps == [lam, lam, -lam, -lam]

    def test_spin_exit3(self):
        code, _ = run_cli(["simulate", "--group", "so-split", "--m", "5",
                           "--rep", "spin", "--steps", "100"])
        assert code == 3

    def test_dump_trials(self, tmp_path):
        path = tmp_path / "trials.csv"
        code, _ = run_json(["simulate", "--group", "sp", "--g", "1",
                            "--rep", "standard", "--steps", "2000", "--trials", "3",
                            "--dump-trials", str(path)])
        assert code == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "lambda_1", "lambda_2"]
        assert len(rows) == 4   # header + one row per trial

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_unwritable_dump_path_exit3_before_running(self, command, tmp_path,
                                                        monkeypatch, capsys):
        def never(config):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(simulate, "lyapunov_spectrum", never)
        code, _ = run_cli([command, "--group", "sp", "--g", "1", "--steps", "100",
                           "--trials", "2", "--dump-trials",
                           str(tmp_path / "missing" / "trials.csv")])
        assert code == 3
        assert "--dump-trials" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_failed_run_changes_no_dump_file(self, command, existing, tmp_path,
                                             monkeypatch, capsys):
        def failing(config):
            raise NumericalError("forced", {})

        monkeypatch.setattr(simulate, "lyapunov_spectrum", failing)
        path = tmp_path / "trials.csv"
        if existing:
            path.write_text("sentinel\n")
        code, text = run_cli([command, "--group", "sp", "--g", "1", "--steps", "100",
                              "--trials", "2", "--dump-trials", str(path)])
        assert code == 1 and text == ""
        assert capsys.readouterr().err.startswith("numerical error: forced")
        if existing:
            assert path.read_text() == "sentinel\n"
        else:
            assert not path.exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_failed_dump_write_exit3(self, command, tmp_path, monkeypatch, capsys):
        class FullDisk:
            def writerows(self, rows):
                raise OSError(28, "No space left on device")

            writerow = writerows

        monkeypatch.setattr(cli.csv, "writer", lambda fh: FullDisk())
        code, text = run_cli([command, "--group", "sp", "--g", "1", "--steps", "500",
                              "--trials", "2", "--dump-trials", str(tmp_path / "t.csv")])
        assert code == 3 and text == ""
        assert capsys.readouterr().err == ("error: cannot write --dump-trials file: "
                                           "[Errno 28] No space left on device\n")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize("scale,expect", [("-1", 3), ("nan", 3), ("inf", 3), ("1e300", 1)])
    def test_scale_errors_name_their_cause(self, command, scale, expect, capsys):
        # a non-finite scale is the caller's error; a finite overflow is numerical
        code, _ = run_cli([command, "--group", "sp", "--g", "1", "--steps", "100",
                           "--trials", "2", "--scale", scale])
        assert code == expect
        err = capsys.readouterr().err
        assert err.startswith("error: scale" if expect == 3 else "numerical error")

    def test_degenerate_qr_prints_only_the_library_message(self):
        # the log of a zero QR diagonal is refused as a cocycle overflow and
        # retried; numpy's divide warning must not reach stderr first
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "lyapzeros.cli", "simulate", "--group", "su", "--p", "3",
             "--q", "1", "--scale", "5", "--steps", "2000", "--trials", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("numerical error: trace sum rule violated")

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        code, rec = run_json(["simulate", "--group", "sp", "--g", "1",
                              "--rep", "standard", "--steps", "1000", "--trials", "2"])
        assert code == 0
        assert rec["provenance"]["seed"] == 777

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        code, rec = run_json(["simulate", "--group", "sp", "--g", "1",
                              "--rep", "standard", "--steps", "1000", "--trials", "2",
                              "--seed", "5"])
        assert code == 0
        assert rec["provenance"]["seed"] == 5


class TestParserReuse:
    """main builds its parser once per process; no call leaks into the next."""

    SIM = ["simulate", "--group", "sp", "--g", "1", "--steps", "500", "--trials", "2"]

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_env_seed_is_read_per_call(self, monkeypatch):
        for seed in (777, 778):
            monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
            code, rec = run_json(self.SIM)
            assert code == 0
            assert rec["provenance"]["seed"] == seed

    def test_seed_flag_is_not_inherited(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        assert run_json(self.SIM + ["--seed", "5"])[1]["provenance"]["seed"] == 5
        code, rec = run_json(self.SIM)
        assert code == 0
        assert rec["provenance"]["seed"] == 42
        assert "seed" not in rec["provenance"]["parameters"]

    def test_usage_error_leaves_the_next_call_intact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["classify", "--max-dim", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, rec = run_json(["classify", "--max-dim", "4"])
        assert code == 0
        assert rec["inputs"] == {"max_dim": 4}
        assert rec["provenance"]["parameters"] == {"subcommand": "classify", "max_dim": 4}


class TestSimDefaults:
    """The simulation flags' defaults are written in _add_sim_flags and
    --zero-threshold as well as in SimConfig: both copies must agree."""

    @pytest.mark.parametrize("command,extra", [("simulate", []), ("verify", []),
                                               ("exterior-check", ["--k", "2"])])
    def test_flags_default_to_the_config_defaults(self, command, extra, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        args = cli.build_parser().parse_args(
            [command, "--group", "su", "--p", "3", "--q", "1", *extra])
        assert cli._sim_config(args) == simulate.SimConfig(form=su(3, 1))


class TestVerify:
    def test_match_exit0(self):
        code, rec = run_json(["verify", "--group", "su", "--p", "1", "--q", "1",
                              "--rep", "standard", "--steps", "20000", "--trials", "4",
                              "--seed", "42"])
        assert code == 0
        assert rec["payload"]["verdict"] == "match"

    def test_inconclusive_exit5(self):
        code, rec = run_json(["verify", "--group", "sp", "--g", "1",
                              "--rep", "standard", "--steps", "500", "--trials", "2",
                              "--scale", "0.0"])
        assert code == 5
        assert rec["payload"]["verdict"] == "inconclusive"

    @pytest.mark.parametrize("pair", [["--group", "su", "--p", "2", "--q", "1"],
                                      ["--group", "so-split", "--m", "5"],
                                      ["--group", "su", "--p", "3", "--q", "1", "--rep", "ext:2"]])
    def test_one_trial_is_inconclusive_exit5(self, pair):
        # with one trial every stderr is 0: no zero cluster can be confirmed
        code, rec = run_json(["verify", *pair, "--steps", "5000", "--trials", "1"])
        assert code == 5
        assert rec["payload"]["verdict"] == "inconclusive"
        assert rec["payload"]["details"] == ["zero cluster: one trial gives no error bar"]

    def test_spin_exit3(self):
        code, _ = run_cli(["verify", "--group", "so-split", "--m", "5", "--rep", "spin"])
        assert code == 3


class TestExteriorCheckCommand:
    def test_small(self):
        code, rec = run_json(["exterior-check", "--group", "su", "--p", "2", "--q", "1",
                              "--k", "2", "--steps", "5000", "--trials", "2"])
        assert code == 0
        payload = rec["payload"]
        assert payload["matched"] is True
        assert payload["renorm_interval_used"] == 10
        assert 0 < payload["max_sample_form_error"] < 1e-10
        assert 0 < payload["max_block_form_error"] < 1e-8
        assert rec["schema_version"] == 1

    @pytest.mark.parametrize("flag", [["--rep", "spin"], ["--rep", "ext:3"],
                                      ["--zero-threshold", "0.1"]])
    def test_unread_flags_are_usage_errors(self, flag, capsys):
        # the check reads neither flag: --k sets the degree, and its verdict
        # compares exponents without classifying a zero cluster
        with pytest.raises(SystemExit) as exc:
            run_cli(["exterior-check", "--group", "su", "--p", "3", "--q", "1",
                     "--k", "2", "--steps", "500", "--trials", "2", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_dump_trials_is_a_usage_error(self, tmp_path, capsys):
        # exterior-check has no per-trial rows to write
        path = tmp_path / "trials.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["exterior-check", "--group", "su", "--p", "2", "--q", "1",
                     "--k", "2", "--steps", "500", "--trials", "2",
                     "--dump-trials", str(path)])
        assert exc.value.code == 2
        assert "--dump-trials" in capsys.readouterr().err
        assert not path.exists()


@pytest.mark.parametrize("pair", [["--p", "3", "--q", "1", "--rep", "ext:2"],
                                  ["--p", "5", "--q", "1", "--rep", "ext:3"]],
                         ids=["su(3,1) ext:2", "su(5,1) ext:3"])
def test_exterior_runs_build_no_compound_matrix(pair, monkeypatch):
    # ext:k exponents are the k-subset sums of the standard run
    def forbidden(*args, **kwargs):
        raise AssertionError("compound matrix built")

    monkeypatch.setattr(matrices, "exterior_power_matrix", forbidden)
    monkeypatch.setattr(simulate, "exterior_power_matrix", forbidden)
    _, pred = run_json(["predict", "--group", "su", *pair])
    argv = ["--group", "su", *pair, "--steps", "5000", "--trials", "8", "--seed", "1"]
    code, rec = run_json(["simulate", *argv])
    assert code == 0
    assert rec["payload"]["zero_cluster"]["size"] == pred["payload"]["zero_count_real"]
    code, rec = run_json(["verify", *argv])
    assert code == 0 and rec["payload"]["verdict"] == "match"


@pytest.mark.parametrize("rep", ["standard", "ext:2"])
def test_sum_rule_violation_is_rescued_at_half_interval(rep):
    # renorm interval 50 breaks the sum rule on su(3,1) at scale 0.35
    # (trial 1 sums to 5.6e-3, its ext:2 subset sums to 1.7e-2); at 25
    # every trial sums to at most 1.3e-8
    code, rec = run_json(["simulate", "--group", "su", "--p", "3", "--q", "1",
                          "--rep", rep, "--renorm", "50", "--scale", "0.35",
                          "--steps", "5000", "--trials", "8", "--seed", "42"])
    assert code == 0
    assert rec["payload"]["renorm_interval_used"] == 25


def test_sum_rule_failure_exits_1():
    code, text = run_cli(["simulate", "--group", "sp", "--g", "1", "--scale", "5",
                          "--steps", "2000", "--trials", "2", "--format", "json"])
    assert code == 1 and text == ""


def reject_constant(constant):
    raise AssertionError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("argv", [
    SU31_EXT2,
    ["classify", "--max-dim", "12"],
    ["simulate", "--group", "sp", "--g", "1", "--steps", "500", "--trials", "2"],
    ["verify", "--group", "sp", "--g", "1", "--steps", "500", "--trials", "2"],
    ["exterior-check", "--group", "su", "--p", "2", "--q", "1", "--k", "2",
     "--steps", "500", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_json_is_one_line(argv, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    code, text = run_cli(argv + ["--format", "json"])
    assert code in (0, 5)
    assert text.endswith("\n") and text.count("\n") == 1
    rec = json.loads(text, parse_constant=reject_constant)
    assert list(rec) == ["schema_version", "command", "inputs", "payload", "provenance"]
    assert rec["command"] == argv[0]
    assert list(rec["provenance"]) == ["seed", "parameters", "wall_clock_seconds"]
    assert rec["provenance"]["seed"] == (None if argv[0] in ("predict", "classify") else 42)


def test_json_is_strict(monkeypatch):
    real = simulate.lyapunov_spectrum

    def overflowing(config):
        res = real(config)
        return dataclasses.replace(res, max_block_form_error=float("inf"),
                                   exponents=(float("nan"),) + res.exponents[1:])

    monkeypatch.setattr(simulate, "lyapunov_spectrum", overflowing)
    code, text = run_cli(["simulate", "--group", "sp", "--g", "1", "--steps", "1000",
                          "--trials", "2", "--format", "json"])
    assert code == 0
    assert text.endswith("\n") and text.count("\n") == 1
    rec = json.loads(text, parse_constant=reject_constant)
    assert rec["payload"]["max_block_form_error"] is None
    assert rec["payload"]["exponents_real"][0] is None
    assert rec["non_finite_fields"] == ["payload.exponents_real[0]",
                                        "payload.max_block_form_error"]
    assert rec["schema_version"] == 1

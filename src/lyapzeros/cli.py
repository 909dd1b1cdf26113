"""Command-line front end: predictions, classification tables, simulation
runs, and verification reports.

Each ``cmd_*`` function only computes: it returns (inputs, payload, seed,
exit code). ``main`` times the command and assembles every record, with
its envelope (schema version, command name, provenance), and writes it.

Exit codes: 0 success / match, 1 internal or numerical error, 2 usage
error, 3 incoherent or unsupported pair, 4 verification mismatch, 5
inconclusive verdict.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
import warnings

from . import prediction
from .errors import (InternalError, NumericalError, ParameterError,
                     UnsupportedFeatureError)
from .prediction import predict, predicted_counts
from .realforms import (EXTERIOR_WEIGHT_LIMIT, RealFormSpec, so_split, so_star,
                        sp, su)
from .weights import RepSpec, binomial

SCHEMA_VERSION = 1
SEED_ENV_VAR = "LYAPZEROS_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INCOHERENT = 3
EXIT_MISMATCH = 4
EXIT_INCONCLUSIVE = 5

# su(p,q) standard rows above which classify warns before building any
CLASSIFY_ROW_LIMIT = EXTERIOR_WEIGHT_LIMIT


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _add_group_flags(p: argparse.ArgumentParser, rep: bool = True) -> None:
    p.add_argument("--group", required=True, choices=["su", "so-split", "so-star", "sp"])
    p.add_argument("--p", type=int, help="su: positive part of the signature")
    p.add_argument("--q", type=int, help="su: negative part of the signature")
    p.add_argument("--m", type=int, help="so-split: so(m,2)")
    p.add_argument("--n", type=int, help="so-star: so*(2n)")
    p.add_argument("--g", type=int, help="sp: sp(2g,R)")
    if rep:   # exterior-check takes --k instead
        p.add_argument("--rep", default="standard",
                       help="standard | ext:K | spin | half-spin:+ | half-spin:-")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${SEED_ENV_VAR} or 42)")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--renorm", type=int, default=10)


def _parse_form(args) -> RealFormSpec:
    if args.group == "su":
        if args.p is None or args.q is None:
            raise ParameterError("su requires --p and --q")
        return su(args.p, args.q)
    if args.group == "so-split":
        if args.m is None:
            raise ParameterError("so-split requires --m")
        return so_split(args.m)
    if args.group == "so-star":
        if args.n is None:
            raise ParameterError("so-star requires --n")
        return so_star(args.n)
    if args.g is None:
        raise ParameterError("sp requires --g")
    return sp(args.g)


def _finite(value, path: str, non_finite: list[str]):
    """``value`` with every non-finite float replaced by None; the dotted
    paths of the replaced entries are appended to ``non_finite``."""
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(path)
        return None
    if isinstance(value, dict):
        return {k: _finite(v, f"{path}.{k}" if path else str(k), non_finite)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v, f"{path}[{i}]", non_finite) for i, v in enumerate(value)]
    return value


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        try:
            text = json.dumps(record, allow_nan=False)
        except ValueError:      # a non-finite float: null it and name it
            non_finite: list[str] = []
            record = _finite(record, "", non_finite)
            record["non_finite_fields"] = non_finite
            text = json.dumps(record, allow_nan=False)
        out.write(text + "\n")
        return
    _emit_text(record, out)


def _emit_text(record: dict, out) -> None:
    payload = record["payload"]
    print(f"# {record['command']}", file=out)
    if "rows" in payload:
        rows = payload["rows"]
        if not rows:
            print("(empty table)", file=out)
            return
        cols = list(rows[0].keys())
        widths = [max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in cols]
        print("  ".join(str(c).ljust(w) for c, w in zip(cols, widths)), file=out)
        for r in rows:
            print("  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)), file=out)
        if "note" in payload:
            print(payload["note"], file=out)
        return
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        print(f"{key}: {value}", file=out)


def _provenance(args, started: float, seed: int | None) -> dict:
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "format") and v is not None}
    return {"seed": seed, "parameters": params,
            "wall_clock_seconds": round(time.perf_counter() - started, 6)}


def cmd_predict(args):
    form = _parse_form(args)
    rep = RepSpec.parse(args.rep)
    return ({"group": args.group, "form": form.label(), "rep": rep.label()},
            predict(form, rep).as_record(), None, EXIT_OK)


def _su_standard_row_count(max_dim: int) -> int:
    """Number of su(p,q) standard rows up to real dimension ``max_dim``:
    floor(s/2) forms for each s = p+q <= max_dim/2, floor(m^2/4) in all."""
    m = max_dim // 2
    return (m // 2) * ((m + 1) // 2)


def _admissible_rows(max_dim: int) -> list[dict]:
    su_rows = _su_standard_row_count(max_dim)
    if su_rows > CLASSIFY_ROW_LIMIT:
        warnings.warn(
            f"classify --max-dim {max_dim} lists {su_rows:,} su(p,q) standard rows "
            f"(warning limit {CLASSIFY_ROW_LIMIT:,}); time and memory grow with "
            "that number", RuntimeWarning, stacklevel=2)
    pairs: list[tuple[RealFormSpec, RepSpec]] = []
    # su(p,q) standard: real dimension 2(p+q)
    for s in range(2, max_dim // 2 + 1):
        for q in range(1, s // 2 + 1):
            pairs.append((su(s - q, q), RepSpec.standard()))
    # su(p,1) nontrivial exterior powers: real dimension 2 C(p+1, k), the
    # same for k and p+1-k and growing in k up to the middle
    for p in range(2, max_dim // 2):
        k = 1
        while 2 * k <= p + 1 and 2 * binomial(p + 1, k) <= max_dim:
            for j in {k, p + 1 - k}:
                if 2 <= j <= p:
                    pairs.append((su(p, 1), RepSpec.exterior(j)))
            k += 1
    # sp(2g,R) standard: real dimension 2g
    for g in range(1, max_dim // 2 + 1):
        pairs.append((sp(g), RepSpec.standard()))
    # so*(2n) standard: real dimension 4n
    for n in range(2, max_dim // 4 + 1):
        pairs.append((so_star(n), RepSpec.standard()))
    # so(2n-1,2) spin: real dimension 2^n
    n = 2
    while 2 ** n <= max_dim:
        pairs.append((so_split(2 * n - 1), RepSpec.spin()))
        n += 1
    # so(2n-2,2) half-spins: real dimension 2^(n-1)
    n = 3
    while 2 ** (n - 1) <= max_dim:
        pairs.append((so_split(2 * n - 2), RepSpec.half_spin("+")))
        pairs.append((so_split(2 * n - 2), RepSpec.half_spin("-")))
        n += 1

    rows = []
    for form, rep in pairs:
        if not prediction.hodge_admissible(form, rep)[0]:
            raise InternalError(f"classify listed the inadmissible pair "
                                f"{form.label()} {rep.label()}")
        real_dim, zero_count = predicted_counts(form, rep)
        rows.append({
            "form": form.label(),
            "rep": rep.label(),
            "real_dim": real_dim,
            "zero_count_real": zero_count,
        })
    rows.sort(key=lambda r: (r["real_dim"], r["form"], r["rep"]))
    return rows


def cmd_classify(args):
    if args.max_dim < 0:
        raise ParameterError("--max-dim must be nonnegative")
    return ({"max_dim": args.max_dim},
            {"rows": _admissible_rows(args.max_dim), "note": "counts are real counts"},
            None, EXIT_OK)


def _sim_config(args):
    from .simulate import SimConfig   # numpy loads with the first simulation
    seed = args.seed if args.seed is not None else _default_seed()
    form = _parse_form(args)
    pair = {}
    if "rep" in args:   # exterior-check takes neither --rep nor --zero-threshold
        pair = {"rep": RepSpec.parse(args.rep), "zero_threshold": args.zero_threshold}
    return SimConfig(form=form, steps=args.steps, trials=args.trials,
                     renorm_interval=args.renorm, scale=args.scale,
                     master_seed=seed, **pair)


def _dump_trials(path: str | None, result=None) -> None:
    """Check before the run that the --dump-trials ``path`` can be written
    (opening it to append truncates nothing, and a file the check made is
    removed), or, given the run's ``result``, write its per-trial exponents
    there as CSV. A failed run thus changes no file."""
    if not path:
        return
    try:
        made = not os.path.exists(path)
        with open(path, "w" if result else "a", newline="") as fh:
            if result:
                header = [f"lambda_{i + 1}" for i in range(len(result.exponents))]
                csv.writer(fh).writerows([["trial", *header]] + [
                    [t, *row] for t, row in enumerate(result.trial_exponents)])
        if made and not result:
            os.remove(path)
    except OSError as exc:
        raise ParameterError(f"cannot write --dump-trials file: {exc}") from None


def cmd_simulate(args):
    from .simulate import lyapunov_spectrum
    config = _sim_config(args)
    _dump_trials(args.dump_trials)
    result = lyapunov_spectrum(config)
    _dump_trials(args.dump_trials, result)
    return ({"form": config.form.label(), "rep": config.rep.label()},
            result.as_record(), config.master_seed, EXIT_OK)


_VERDICT_EXIT = {"match": EXIT_OK, "mismatch": EXIT_MISMATCH, "inconclusive": EXIT_INCONCLUSIVE}


def cmd_verify(args):
    from .simulate import verify_prediction
    config = _sim_config(args)
    pred = predict(config.form, config.rep)
    _dump_trials(args.dump_trials)
    report = verify_prediction(config, pred)
    _dump_trials(args.dump_trials, report.result)
    return ({"form": config.form.label(), "rep": config.rep.label()},
            report.as_record(), config.master_seed, _VERDICT_EXIT[report.verdict])


def cmd_exterior_check(args):
    from .simulate import exterior_consistency_check
    config = _sim_config(args)
    report = exterior_consistency_check(config, args.k)
    return ({"form": config.form.label(), "k": args.k}, report.as_record(),
            config.master_seed, EXIT_OK if report.matched else EXIT_MISMATCH)


@functools.cache   # one parser per process: it holds no run-time state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapzeros",
        description="Restricted-weight predictions and Lyapunov-spectrum "
                    "verification for pseudo-Hermitian Lie groups")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pred = sub.add_parser("predict", help="closed-form spectrum prediction")
    _add_group_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_cls = sub.add_parser("classify", help="table of Hodge-admissible pairs")
    p_cls.add_argument("--max-dim", type=int, required=True,
                       help="largest real dimension to list")
    p_cls.set_defaults(func=cmd_classify)

    p_sim = sub.add_parser("simulate", help="estimate a Lyapunov spectrum")
    _add_group_flags(p_sim)
    _add_sim_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="simulate and compare to the prediction")
    _add_group_flags(p_ver)
    _add_sim_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_ext = sub.add_parser("exterior-check",
                           help="exterior exponents vs subset sums of standard ones")
    _add_group_flags(p_ext, rep=False)
    _add_sim_flags(p_ext)
    p_ext.add_argument("--k", type=int, required=True, help="exterior degree")
    p_ext.set_defaults(func=cmd_exterior_check)

    for p in (p_sim, p_ver):
        p.add_argument("--zero-threshold", type=float, default=0.05)
        p.add_argument("--dump-trials", metavar="PATH", default=None,
                       help="write per-trial exponents as CSV")
    for p in (p_pred, p_cls, p_sim, p_ver, p_ext):
        p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, payload, seed, code = args.func(args)
    except (ParameterError, UnsupportedFeatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOHERENT
    except NumericalError as exc:
        print(f"numerical error: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_ERROR
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    record = {"schema_version": SCHEMA_VERSION, "command": args.subcommand,
              "inputs": inputs, "payload": payload,
              "provenance": _provenance(args, started, seed)}
    _emit(record, args.format, out if out is not None else sys.stdout)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Lyapunov spectrum estimation for random cocycles and verdicts against
spectrum predictions.

The cocycle is an i.i.d. product of group elements drawn uniformly from
one table per run (``matrices.step_table``): m scaled Cayley steps of X =
sum c_i B_i with gaussian coefficients (close to exp(X); see ``_expm``),
and their inverses. A law of finite support whose steps generate a
Zariski-dense subgroup has a regular Lyapunov vector (Gol'dsheid &
Margulis, Russian Math. Surveys 44 (1989); Guivarc'h & Raugi, Israel J.
Math. 65 (1989)), so its only zero exponents are the forced ones.
Exponents are estimated per trial by the QR (Benettin) scheme: the
orthonormal frame is multiplied by blocks of ``renorm_interval`` steps
and re-orthonormalized, accumulating log |diag R|. Unless the config sets
it, the interval is derived from the run's table (``_derived_interval``),
so it follows the law's growth rate and not the run's length. The table
and the trials use independent, reproducible streams derived from
master_seed via numpy's SeedSequence, so identical configurations give
bit-identical results. The trials advance in lockstep on the calling
thread, one stacked fold and one stacked QR per block over all trials,
without mixing their arithmetic. The fold multiplies real split rows by
the table's real lift (``_expm.lift``), one real GEMM per step, for real
and complex forms alike. BLAS thread settings are never touched.
A spectrum run simulates the standard cocycle only: the exponents of its
k-th exterior power are the k-subset sums of the standard ones
(multiplicative ergodic theorem for exterior powers), formed trial by
trial. exterior_consistency_check tests that on one run of g + Lambda^k g.

Every sampled element has |det| = 1, so each trial's exponents must sum to
0 (the trace sum rule). A run whose sum exceeds ``_SUM_RULE_TOL`` in any
trial has lost precision; like a cocycle overflow, it is rerun once at half
the renorm interval, and a second failure raises NumericalError instead of
returning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _expm
from .errors import NumericalError, ParameterError, UnsupportedFeatureError
from .matrices import step_table
from .prediction import LyapunovVector, SpectrumPrediction
from .realforms import (EXTERIOR_WEIGHT_LIMIT, GroupSampler, RealFormSpec,
                        _check_coherent, _warn_size, exterior_power_matrix,
                        form_preservation_errors, lie_algebra_basis,
                        standard_multiplicities)
from .weights import RepKind, RepSpec, binomial, k_subsets

# bytes of one renorm block above which a run warns before sampling: a chunk
# holds at least one
_CHUNK_MEMORY_LIMIT = 2 ** 30
# B of the derived renorm interval floor(B / lambda_bar) (``_derived_interval``):
# a block then spans at most about e^(2B) in the mean. Longer blocks round
# off the bottom exponents, and with them exact zeros such as lambda_1 +
# lambda_d of ext:k: at B = 20, su(5,1) ext:3 said "mismatch" at 5000 x 8
_RENORM_BUDGET = 12.0
# largest |sum of a trial's exponents| accepted. At the default scale and
# renorm interval 10 the largest sum measured was 5e-8 (so*(6) ext:3), 1e-11
# on the acceptance pairs; at the derived intervals 4.2e-11 on the benchmark
# pairs (120 seeds) and 1.1e-12 on the acceptance pairs. SL(2,R) at scale 2
# and interval 10, which lost precision, gave 0.05.
_SUM_RULE_TOL = 1e-4

_SPIN_MESSAGE = "unsupported: spin representations are weight-combinatorics only"


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; defaults complete the su(2,1) suite in seconds.
    Any pair that ``predict`` accepts simulates, except the (half-)spin ones.
    ``renorm_interval`` None, the default, takes the interval derived from
    the run's table of steps; ``LyapunovResult.config`` holds the one used
    first, so that rerunning it gives the same bits."""

    form: RealFormSpec
    rep: RepSpec = RepSpec.standard()
    steps: int = 100_000
    trials: int = 8
    renorm_interval: int | None = None
    scale: float = 0.3
    master_seed: int = 42
    zero_threshold: float = 0.05

    def __post_init__(self):
        if self.rep.is_spin_like():
            raise UnsupportedFeatureError(_SPIN_MESSAGE)
        _check_coherent(self.form, self.rep)
        if self.steps < 1 or self.trials < 1:
            raise ParameterError("steps and trials must be positive")
        if self.renorm_interval is not None and not 1 <= self.renorm_interval <= 50:
            raise ParameterError("renorm_interval must lie in 1..50")
        if not math.isfinite(self.scale) or self.scale < 0:
            raise ParameterError("scale must be finite and nonnegative")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ParameterError("master_seed must be a 64-bit unsigned integer")
        if not 0.0 < self.zero_threshold < 0.5:
            raise ParameterError("zero_threshold must lie in (0, 0.5)")

    def resolved_warmup(self, interval: int) -> int:
        """min(1000, steps // 10) steps, rounded down to whole blocks of
        ``interval``, let the QR frame align with the Oseledets flag before
        accumulation, so the O(1/T) transient spares the zero error bars."""
        return (min(1000, self.steps // 10) // interval) * interval


@dataclass(frozen=True)
class ZeroCluster:
    """Indices of the zero-classified band in a descending exponent list."""

    status: str                 # "ok" | "inconclusive"
    reason: str
    start: int | None = None    # slice bounds, 0-based
    stop: int | None = None

    @property
    def size(self) -> int:
        if self.start is None or self.stop is None:
            return 0
        return self.stop - self.start

    def as_record(self) -> dict:
        return {"status": self.status, "reason": self.reason,
                "start": self.start, "stop": self.stop, "size": self.size}


_EXACT_ZERO = 1e-12   # below float resolution of the accumulated estimates


def classify_zero_cluster(exponents, stderr, zero_threshold: float) -> ZeroCluster:
    """Classify which exponents of a descending list are zero.

    An exponent is a zero candidate when |lambda_i| < threshold * lambda_max
    and |lambda_i| < 3 * stderr_i. Estimates below an absolute 1e-12 floor
    count as zero outright: metric-preserving directions yield exact zeros
    whose values and error bars are both rounding noise, where the
    3-stderr comparison would be meaningless. Candidates must be contiguous
    and separated from the nonzero ones by a multiplicative gap >= 2, else
    the classification is inconclusive. No positive top exponent, or a top
    exponent indistinguishable from its own error bar, is inconclusive.
    """
    exps = [float(x) for x in exponents]
    errs = [float(s) for s in stderr]
    if len(exps) != len(errs) or not exps:
        raise ParameterError("exponents and stderr must be equal-length, nonempty")
    lam_max = exps[0]
    if lam_max <= 0:
        return ZeroCluster("inconclusive", "no positive top exponent")
    if lam_max < 3 * errs[0]:
        return ZeroCluster("inconclusive", "top exponent indistinguishable from zero")
    zero_idx = [i for i, (x, s) in enumerate(zip(exps, errs))
                if abs(x) < zero_threshold * lam_max
                and (abs(x) < 3 * s or abs(x) < _EXACT_ZERO)]
    if not zero_idx:
        return ZeroCluster("ok", "no zero exponents")
    start, stop = zero_idx[0], zero_idx[-1] + 1
    if stop - start != len(zero_idx):
        return ZeroCluster("inconclusive", "zero candidates are not contiguous")
    max_zero = max(abs(exps[i]) for i in zero_idx)
    min_nonzero = min(abs(exps[i]) for i in range(len(exps)) if not start <= i < stop)
    if max_zero > 0 and min_nonzero / max_zero < 2.0:
        return ZeroCluster(
            "inconclusive",
            f"gap ratio {min_nonzero / max_zero:.3g} below 2 between zero and nonzero bands")
    return ZeroCluster("ok", "gap-separated zero band", start, stop)


@dataclass(frozen=True, eq=False)
class LyapunovResult:
    """Estimated spectrum on the realified space, with diagnostics."""

    config: SimConfig
    exponents: tuple[float, ...]            # realified, descending
    stderr: tuple[float, ...]
    complex_exponents: tuple[float, ...]    # one entry per matrix dimension
    complex_stderr: tuple[float, ...]
    trial_exponents: tuple[tuple[float, ...], ...]   # realified, aligned columns
    zero_cluster: ZeroCluster
    standard_exponents: tuple[float, ...]   # complex, of the simulated standard cocycle
    standard_stderr: tuple[float, ...]
    max_sample_form_error: float
    max_block_form_error: float             # relative to each block's ||B||_F^2
    renorm_interval_used: int
    elapsed_seconds: float
    verdict: str | None = None

    def as_record(self) -> dict:
        return {
            "form": self.config.form.label(),
            "representation": self.config.rep.label(),
            "exponents_real": list(self.exponents),
            "stderr_real": list(self.stderr),
            "zero_cluster": self.zero_cluster.as_record(),
            "verdict": self.verdict,
            "max_sample_form_error": self.max_sample_form_error,
            "max_block_form_error": self.max_block_form_error,
            "renorm_interval_used": self.renorm_interval_used,
            "elapsed_seconds": self.elapsed_seconds,
        }


class _CocycleOverflow(Exception):
    pass


def _trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    # documented stream contract: stream j = default_rng([master_seed, j])
    return np.random.default_rng([master_seed, trial])


def _table_rng(master_seed: int) -> np.random.Generator:
    # documented stream contract: the table's stream is the first child of
    # SeedSequence(master_seed). Not default_rng(master_seed): that draws
    # what default_rng([master_seed, 0]), trial 0's stream, draws
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))


def _fold_buffers(table: np.ndarray, trials: int, d: int, blocks: int) -> np.ndarray:
    """The two buffers of ``_fold_blocks`` for ``blocks`` blocks of ``trials`` trials."""
    width = _expm.slice_length(table)
    return np.empty((2, min(max(1, width // trials), blocks), min(trials, width),
                     table.shape[-1], d), table.dtype)


def _fold_blocks(table: np.ndarray, idx: np.ndarray, interval: int,
                 out: np.ndarray, buffers: np.ndarray | None = None) -> np.ndarray:
    """Products over consecutive blocks of ``interval`` steps of every
    trial, written to ``out`` (blocks, trials, d, d), which is returned:
    block b of trial t multiplies the steps idx[b * interval:(b + 1) *
    interval, t] of the step table whose ``_expm.lift`` is ``table``.

    The tail block may be shorter. Product order matches cocycle order:
    the last step of a block is applied last, so the j-th step of every
    block that has one multiplies its running product from the left. The
    (blocks, trials) stack is folded in slices of ``_expm.slice_length``
    lifted steps, whole blocks of all trials where they fit and trials of
    one block where they do not, and the steps of a slice are gathered one
    step position at a time, table[idx[j::interval]]. A slice's running
    products, real split rows (``_expm.lift``), take turns in two buffers
    (``buffers``, which a run allocates once, or ``_fold_buffers``): the
    first step is the split rows of its lift's even columns, each further
    step is one real GEMM into the other buffer, and each finished block is
    written to ``out`` once. A real table, its own lift, goes through the
    same calls.
    """
    if buffers is None:
        buffers = _fold_buffers(table, idx.shape[1], out.shape[-1], len(out))
    blocks, part = buffers.shape[1:3]
    first = table[..., ::table.shape[-1] // out.shape[-1]]   # split rows, or a real step
    for lo in range(0, len(out), blocks):
        for t in range(0, idx.shape[1], part):
            steps = idx[lo * interval:(lo + blocks) * interval, t:t + part]
            dst = out[lo:lo + blocks, t:t + part]
            live = len(dst)
            P, next_P = buffers[:, :live, :dst.shape[1]]
            P[...] = first[steps[::interval]]
            for j in range(1, min(interval, len(steps))):
                rows = steps[j::interval]
                if len(rows) < live:    # the tail block ended at step j - 1
                    _write_split(dst[len(rows):live], P[len(rows):])
                    live = len(rows)
                    P, next_P = P[:live], next_P[:live]
                # unnamed, so one slice of gathered steps is held at a time
                np.matmul(table[rows], P, out=next_P)
                P, next_P = next_P, P
            _write_split(dst[:live], P)
    return out


def _write_split(out: np.ndarray, P: np.ndarray) -> None:
    """Write the split rows P (..., 2d, d) of complex matrices, or the real
    matrices P, to ``out`` (..., d, d)."""
    if np.iscomplexobj(out):
        out.real, out.imag = P[..., 0::2, :], P[..., 1::2, :]
    else:
        out[...] = P


def _max_form_error(sampler: GroupSampler, g: np.ndarray, relative: bool = False) -> float:
    return max(form_preservation_errors(sampler, g, relative).values(), default=0.0)


def _numpy_qr_kernels():
    """(qr_r_raw, qr_reduced), the two LAPACK kernels that np.linalg.qr calls
    (geqrf, then orgqr or ungqr), if they exist and reproduce np.linalg.qr
    bit for bit, Q and diag R, on a fixed small real and complex stack;
    None otherwise (numpy 1.x names them differently)."""
    try:
        from numpy.linalg import _umath_linalg
        factor, reduced = _umath_linalg.qr_r_raw, _umath_linalg.qr_reduced
    except (ImportError, AttributeError):
        return None
    rng = np.random.default_rng(0)
    real = rng.standard_normal((3, 4, 4))
    for A in (real, real[:, :3, :3] + 1j * real[:, 1:, 1:]):
        Q, R = np.linalg.qr(A)
        A = A.copy()
        try:
            Qk = reduced(A, factor(A))
        except (TypeError, ValueError):
            return None
        if (Q.tobytes() != Qk.tobytes() or np.diagonal(R, axis1=-2, axis2=-1).tobytes()
                != np.diagonal(A, axis1=-2, axis2=-1).tobytes()):
            return None
    return factor, reduced


_QR_KERNELS = _numpy_qr_kernels()


def _qr_step(B: np.ndarray, Q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One stacked QR step of the Benettin scheme: the orthonormal factor of
    A = B @ Q, with |diag R| written to ``out``. A is a fresh matmul output,
    native float64 or complex128 and C-contiguous, so ``qr_r_raw`` factors
    it in place, R on and above its diagonal, with the bits of np.linalg.qr
    and without its dtype copy, triu and errstate blocks. Non-finite
    entries give a non-finite |diag R| for the caller to refuse, and no
    warning. Where the kernels are missing (``_QR_KERNELS`` None), this
    calls np.linalg.qr."""
    A = B @ Q
    if _QR_KERNELS is None:
        Q, R = np.linalg.qr(A)
        np.abs(R.diagonal(0, -2, -1), out=out)
        return Q
    factor, reduced = _QR_KERNELS
    tau = factor(A)
    np.abs(A.diagonal(0, -2, -1), out=out)
    return reduced(A, tau)


def _run_lockstep(sampler: GroupSampler, steps: int, warmup: int, interval: int,
                  rngs: list[np.random.Generator], rep=None):
    """QR scheme for all trials at once, on the calling thread, trial j
    drawing from ``rngs[j]`` the rows of ``sampler.table``, in renorm
    blocks of ``interval`` steps: (per-trial exponents, max block form
    error relative to the squared norm).

    The table is lifted once per call (``_expm.lift``). A chunk holds as
    many whole renorm blocks as fit in ``_expm._BLOCK_BYTES``, read when
    the run starts, counting a block's (trials, d, d) matrices or its index
    draws, whichever take more, and at least one; each trial draws the
    indices of as many whole chunks at once as fit in it, rng.integers(0,
    2m, count), into its column of one (count, trials) array. Each step is
    a function of its own index draw, so neither length moves a bit. Each
    chunk is folded (``_fold_blocks``) into a prefix of one (blocks,
    trials, d, d) array, form-checked (a non-finite block reads inf, and
    only then is the chunk scanned for one) and multiplied into the frames
    (trials, d, d), one stacked QR per block (``_qr_step``), whose logs of
    |diag R| are then summed. All arrays are allocated once per call, so a
    run holds a few budgets whatever its length; a non-finite sum is
    refused at the end. Trial j's result does not depend on the others.
    ``rep``, if given, maps each stacked block to the matrices the frames
    are multiplied by (g + Lambda^k g of exterior_consistency_check).
    """
    d, trials = sampler.matrix_dim, len(rngs)
    eye = np.eye(d, dtype=sampler.dtype) if rep is None else rep(np.eye(d, dtype=sampler.dtype))
    Q = np.broadcast_to(eye, (trials,) + eye.shape)
    acc, max_block_err = np.zeros(Q.shape[:-1]), 0.0
    table = _expm.lift(sampler.table)
    per_block = trials * max(8 * interval, d * d * sampler.dtype.itemsize)
    chunk = max(1, _expm._BLOCK_BYTES // per_block) * interval
    batch = max(1, _expm._BLOCK_BYTES // (8 * trials * chunk)) * chunk
    draws = np.empty((batch, trials), np.intp)
    held = np.empty((-(-min(chunk, steps) // interval), trials, d, d), sampler.dtype)
    fold = _fold_buffers(table, trials, d, len(held))
    # row i + 1 takes |diag R| of a chunk's block i, and row 0 the sum so far
    logs = np.empty((len(held) + 1,) + acc.shape)
    # an overflow in the fold or a log of 0 reads non-finite, and is refused
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, steps, chunk):
            if lo % batch == 0:
                count = min(batch, steps - lo)
                for j, rng in enumerate(rngs):
                    draws[:count, j] = rng.integers(0, len(table), count)
            idx = draws[lo % batch:][:min(chunk, steps - lo)]
            blocks = held[:-(-len(idx) // interval)]
            _fold_blocks(table, idx, interval, blocks, fold)
            err = _max_form_error(sampler, blocks, relative=True)
            if not math.isfinite(err) and not np.isfinite(blocks).all():
                raise _CocycleOverflow("block product overflow")
            max_block_err = max(max_block_err, err)
            for i, B in enumerate(blocks):    # one block of every trial
                Q = _qr_step(B if rep is None else rep(B), Q, logs[i + 1])
            # the warmup blocks are dropped (lo and warmup are multiples of
            # interval), and the row before the first block kept takes acc
            rows = logs[min(len(blocks), max(0, (warmup - lo) // interval)):len(blocks) + 1]
            np.log(rows[1:], out=rows[1:])
            rows[0] = acc
            acc = np.add.reduce(rows, axis=0)   # block by block, as a running sum
    if not np.isfinite(acc).all():
        raise _CocycleOverflow("degenerate QR factor")
    return acc / (steps - warmup), max_block_err


def _sum_rule_violation(per_trial: np.ndarray, interval: int) -> NumericalError | None:
    """Every sampled element has |det| = 1, so each trial's exponents must
    sum to 0; a larger sum means the QR scheme lost precision at renorm
    interval ``interval``."""
    for trial, total in enumerate(per_trial.sum(axis=1)):
        if not abs(total) <= _SUM_RULE_TOL:
            return NumericalError(
                "trace sum rule violated: the exponents must sum to 0; "
                "the QR scheme lost precision (lower renorm_interval or scale)",
                {"trial": trial, "sum": float(total), "threshold": _SUM_RULE_TOL,
                 "renorm_interval": interval})
    return None


def _derived_interval(table: np.ndarray, k: int | None = None) -> int:
    """The renorm interval of a run on ``table`` that sets none:
    clamp(floor(_RENORM_BUDGET / lambda_bar), 1, 50). lambda_bar is the
    table's mean log ||g||_2 of the matrices the frames are multiplied by,
    which bounds lambda_1 of the uniform law on the table from above
    (subadditivity; Furstenberg & Kesten): log sigma_1(g), or for the direct
    sum diag(g, Lambda^k g) of exterior_consistency_check max(log sigma_1,
    sum_{i <= k} log sigma_i). Row m + i, F^-1 g_i^dag F for a signed
    permutation F, has the singular values of g_i, so the first m rows
    suffice; sigma_i^2 are the eigenvalues of g^dag g. The interval depends
    on the table alone, not on the steps or trials, so a shorter run stays a
    prefix of a longer one."""
    g = table[:len(table) // 2]
    squares = np.linalg.eigvalsh(np.conj(np.swapaxes(g, -1, -2)) @ g)[:, ::-1]
    logs = np.log(np.maximum(squares, np.finfo(float).tiny)) / 2   # no log of a rounded 0
    top = logs[:, 0] if k is None else np.maximum(logs[:, 0], logs[:, :k].sum(axis=1))
    lam = max(float(top.mean()), _RENORM_BUDGET / 50)   # a scale-0 table gives 0
    return max(1, math.floor(_RENORM_BUDGET / lam))


def _run_with_retry(config: SimConfig, k: int | None = None):
    """(config with its renorm interval resolved, per-trial exponents, max
    table and block form errors, renorm interval used). The run's one table
    of steps (``matrices.step_table``) comes from ``_table_rng`` and is
    form-checked once; a config without a renorm interval takes
    ``_derived_interval`` of it. A cocycle overflow or a violated sum rule
    is retried once at half the renorm interval, on the same table, since
    shorter blocks are better conditioned; a second failure raises
    NumericalError. With ``k``, the frames are multiplied by the direct
    sums diag(B, Lambda^k B) of the blocks B, and the sum rule holds for
    the first matrix_dim columns and for the rest. A chunk holds at least
    one renorm block, so a run whose block (every trial's index draws and
    folded block) exceeds ``_CHUNK_MEMORY_LIMIT`` warns before sampling;
    the retry's half interval costs less."""
    form, d = config.form, config.form.matrix_dim
    sampler = step_table(lie_algebra_basis(form, config.scale), _table_rng(config.master_seed))
    if config.renorm_interval is None:
        config = replace(config, renorm_interval=_derived_interval(sampler.table, k))
    nbytes = config.trials * (8 * config.renorm_interval + d * d * sampler.dtype.itemsize)
    _warn_size(nbytes, _CHUNK_MEMORY_LIMIT, lambda: (
        f"{form.label()} runs of {config.trials:,} trials take {nbytes:,} bytes per "
        f"renorm block of {config.renorm_interval} steps"))
    table_err = _max_form_error(sampler, sampler.table)
    rep = None if k is None else partial(_direct_sum, k=k)
    for interval in (config.renorm_interval, config.renorm_interval // 2):
        if interval == 0:   # renorm_interval 1 has no half
            break
        rngs = [_trial_rng(config.master_seed, j) for j in range(config.trials)]
        try:
            out = _run_lockstep(sampler, config.steps, config.resolved_warmup(interval),
                                interval, rngs, rep)
        except _CocycleOverflow as exc:
            failure = NumericalError(f"cocycle overflow at renorm_interval {interval}",
                                     {"config": repr(config), "failure": str(exc)})
            continue
        failure = (_sum_rule_violation(out[0][:, :d], interval)
                   or _sum_rule_violation(out[0][:, d:], interval))
        if failure is None:
            return config, out[0], table_err, out[1], interval
    raise failure


def _aggregate(per_trial: np.ndarray, trials: int):
    # the exponents sum to 0 (|det| = 1): project the means onto that
    # plane, which makes lambda_2 = -lambda_1 exact for 2 x 2 groups
    means = per_trial.mean(axis=0)
    means -= means.mean()
    if trials >= 2:
        stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        stderr = np.zeros_like(means)
    order = np.argsort(-means, kind="stable")
    return means[order], stderr[order], order


def _subset_sums(per_trial: np.ndarray, k: int) -> np.ndarray:
    """Each trial's k-subset sums of its exponents, in k_subsets order."""
    return per_trial[:, np.array(k_subsets(per_trial.shape[1], k))].sum(axis=-1)


def _within_tolerance(measured, expected, stderr, lam_max: float):
    """(agree, worst deviation, tolerances): ``measured`` agrees with
    ``expected`` entry by entry within max(0.05 * lam_max, 3 * stderr)."""
    tols = [max(0.05 * lam_max, 3 * se) for se in stderr]
    devs = [abs(a - b) for a, b in zip(measured, expected)]
    return all(dv <= t for dv, t in zip(devs, tols)), max(devs, default=0.0), tols


def _realify(arr: np.ndarray, factor: int) -> np.ndarray:
    return np.repeat(arr, factor, axis=-1)


def _floats(arr) -> tuple[float, ...]:
    return tuple(float(x) for x in arr)


def lyapunov_spectrum(config: SimConfig) -> LyapunovResult:
    """Estimate the Lyapunov spectrum of the random cocycle in ``config``.

    Returns exponents on the realified space: for su and so* every complex
    exponent is reported twice, so counts line up with real dimensions.
    Only the standard cocycle is run; each trial's ext:k exponents are the
    k-subset sums of its standard exponents, in k_subsets order, before
    aggregation (a RuntimeWarning first if there are over EXTERIOR_WEIGHT_LIMIT).
    One trial gives no error bar, so its zero cluster is inconclusive.
    """
    rep = config.rep
    if rep.kind is RepKind.EXTERIOR:
        sums = binomial(config.form.matrix_dim, rep.degree)
        _warn_size(sums, EXTERIOR_WEIGHT_LIMIT, lambda: (
            f"{config.form.label()} {rep.label()} forms {sums:,} subset sums per trial"),
            "time, memory and output")

    t0 = time.perf_counter()
    config, per_trial, sample_err, block_err, interval_used = _run_with_retry(config)
    std_means, std_stderr, _ = _aggregate(per_trial, config.trials)
    if rep.kind is RepKind.EXTERIOR:
        per_trial = _subset_sums(per_trial, rep.degree)

    factor = config.form.real_factor
    means, stderr, order = _aggregate(per_trial, config.trials)
    real_means = _realify(means, factor)
    real_stderr = _realify(stderr, factor)
    trial_rows = tuple(_floats(_realify(row[order], factor)) for row in per_trial)
    if config.trials >= 2:
        # the projection shifts every mean by the trials' mean sum over the
        # dimension, which no stderr sees: on larger forms it exceeds the
        # 1e-12 floor that exact zeros (about 1e-15) are read under, so the
        # zero band is read off the unprojected means
        raw_means = _realify(per_trial.mean(axis=0)[order], factor)
        cluster = classify_zero_cluster(raw_means, real_stderr, config.zero_threshold)
    else:
        cluster = ZeroCluster("inconclusive", "one trial gives no error bar")

    return LyapunovResult(
        config=config,
        exponents=_floats(real_means), stderr=_floats(real_stderr),
        complex_exponents=_floats(means), complex_stderr=_floats(stderr),
        trial_exponents=trial_rows,
        zero_cluster=cluster,
        standard_exponents=_floats(std_means), standard_stderr=_floats(std_stderr),
        max_sample_form_error=float(sample_err),
        max_block_form_error=float(block_err),
        renorm_interval_used=interval_used,
        elapsed_seconds=time.perf_counter() - t0)


def estimate_lyapunov_vector(form: RealFormSpec,
                             standard_complex_exponents) -> LyapunovVector:
    """Read the Lyapunov vector off a standard-representation spectrum.

    The descending complex exponent list is aligned positionally with the
    canonical order of the standard restricted weights, which puts f_i at
    positions [i * mult, (i + 1) * mult) (standard_multiplicities), and
    the entries there are averaged.
    """
    exps = [float(x) for x in standard_complex_exponents]
    if len(exps) != form.matrix_dim:
        raise ParameterError(
            f"expected {form.matrix_dim} standard exponents, got {len(exps)}")
    mult = standard_multiplicities(form)[0]
    return LyapunovVector(tuple(sum(exps[i * mult:(i + 1) * mult]) / mult
                                for i in range(form.restricted_rank)))


@dataclass(frozen=True, eq=False)
class VerdictReport:
    """Outcome of comparing a simulation against a prediction."""

    verdict: str                 # "match" | "mismatch" | "inconclusive"
    details: tuple[str, ...]
    prediction: SpectrumPrediction
    result: LyapunovResult
    lambda_hat: LyapunovVector | None
    expected_exponents: tuple[float, ...] | None

    def as_record(self) -> dict:
        return {
            "verdict": self.verdict,
            "details": list(self.details),
            "prediction": self.prediction.as_record(),
            "result": self.result.as_record(),
            "lambda_hat": list(self.lambda_hat.values) if self.lambda_hat else None,
            "expected_exponents_real": (list(self.expected_exponents)
                                        if self.expected_exponents else None),
        }


def verify_prediction(config: SimConfig, prediction: SpectrumPrediction) -> VerdictReport:
    """Run the cocycle and compare against the predicted spectrum.

    Match requires the zero cluster to have exactly the predicted real
    size and the full spectrum to agree, exponent by exponent, with the
    prediction's weights evaluated at the estimated Lyapunov vector, within
    max(0.05 * lambda_max, 3 * stderr_i).
    """
    if prediction.form != config.form or prediction.rep != config.rep:
        raise ParameterError("prediction and config describe different pairs")
    result = lyapunov_spectrum(config)
    details = []
    cluster = result.zero_cluster
    if cluster.status != "ok":
        return VerdictReport("inconclusive", (f"zero cluster: {cluster.reason}",),
                             prediction, result, None, None)
    verdict = "match"
    if cluster.size != prediction.zero_count_real:
        verdict = "mismatch"
        details.append(f"zero cluster size {cluster.size} != predicted "
                       f"{prediction.zero_count_real}")
    else:
        details.append(f"zero cluster size {cluster.size} as predicted")

    try:
        lam_hat = estimate_lyapunov_vector(config.form, result.standard_exponents)
    except ParameterError as exc:
        return VerdictReport("inconclusive",
                             tuple(details) + (f"Lyapunov vector estimate failed: {exc}",),
                             prediction, result, None, None)
    expected = [0.0] * prediction.zero_count_real
    for w, m in prediction.nonzero_structure:
        expected += [w.evaluate(lam_hat.values)] * m
    expected.sort(reverse=True)
    structure_ok, worst, _ = _within_tolerance(result.exponents, expected, result.stderr,
                                               result.exponents[0])
    if structure_ok:
        details.append(f"spectrum matches weight evaluation (max deviation {worst:.2e})")
    else:
        verdict = "mismatch"
        details.append(f"spectrum deviates from weight evaluation by {worst:.2e}")
    return VerdictReport(verdict, tuple(details), prediction,
                         replace(result, verdict=verdict), lam_hat,
                         tuple(expected))


@dataclass(frozen=True, eq=False)
class ExteriorConsistencyReport:
    """Exterior-power exponents versus k-subset sums of standard ones."""

    matched: bool
    max_deviation: float
    subset_sums: tuple[float, ...]
    direct: tuple[float, ...]
    tolerances: tuple[float, ...]
    standard_result: tuple[float, ...]
    max_sample_form_error: float
    max_block_form_error: float
    renorm_interval_used: int

    def as_record(self) -> dict:
        return {
            "matched": self.matched,
            "max_deviation": self.max_deviation,
            "subset_sums": list(self.subset_sums),
            "direct_exterior": list(self.direct),
            "tolerances": list(self.tolerances),
            "standard_complex_exponents": list(self.standard_result),
            "max_sample_form_error": self.max_sample_form_error,
            "max_block_form_error": self.max_block_form_error,
            "renorm_interval_used": self.renorm_interval_used,
        }


def _direct_sum(B: np.ndarray, k: int) -> np.ndarray:
    """diag(B, Lambda^k B) of each stacked matrix of B."""
    d = B.shape[-1]
    C = exterior_power_matrix(B, k)
    out = np.zeros(B.shape[:-2] + (d + C.shape[-1],) * 2, dtype=B.dtype)
    out[..., :d, :d] = B
    out[..., d:, d:] = C
    return out


def exterior_consistency_check(config: SimConfig, k: int) -> ExteriorConsistencyReport:
    """Compare directly simulated exterior-power exponents of config.form
    with k-subset sums of its standard exponents (complex counting).

    One run multiplies its frames by diag(g, Lambda^k g) for each sampled
    block g. QR keeps that block-diagonal, so its first matrix_dim columns
    are a standard run and the rest a compound run on the same samples,
    each under its own sum rule. Tolerance: max(0.05 * lambda_max, 3 *
    (stderr of the trials' subset sums + stderr of the direct exponent)).
    The frames are dense, (d + C(d, k))^2 entries per trial for d =
    matrix_dim: a RuntimeWarning comes first above EXTERIOR_WEIGHT_LIMIT.
    """
    cfg = replace(config, rep=RepSpec.standard())
    d = config.form.matrix_dim
    if not 1 <= k <= d:
        raise ParameterError(f"exterior degree {k} out of range 1..{d}")
    entries = (d + binomial(d, k)) ** 2
    _warn_size(entries, EXTERIOR_WEIGHT_LIMIT, lambda: (
        f"exterior-check on {config.form.label()} k={k} forms dense frames of "
        f"{entries:,} entries per trial"))

    _, per_trial, sample_err, block_err, interval_used = _run_with_retry(cfg, k)
    std = _aggregate(per_trial[:, :d], cfg.trials)[0]
    direct, direct_err, _ = _aggregate(per_trial[:, d:], cfg.trials)
    sums, sums_err, _ = _aggregate(_subset_sums(per_trial[:, :d], k), cfg.trials)
    matched, worst, tols = _within_tolerance(sums, direct, sums_err + direct_err,
                                             float(np.abs(direct).max()))
    return ExteriorConsistencyReport(
        matched, float(worst), _floats(sums), _floats(direct), _floats(tols),
        _floats(std), float(sample_err), float(block_err), interval_used)

"""Lyapunov spectrum estimation for random cocycles and verdicts against
spectrum predictions.

The cocycle is an i.i.d. product of group elements, the scaled Cayley
steps of X = sum c_i B_i with gaussian coefficients (close to exp(X); see
``_expm``). Exponents are estimated per trial by the QR (Benettin) scheme:
the orthonormal frame is multiplied by blocks of ``renorm_interval`` steps
and re-orthonormalized, accumulating log |diag R|. Trials use independent,
reproducible streams derived from (master_seed, trial index) via numpy's
SeedSequence, so identical configurations give bit-identical results. The
trials advance in lockstep, one stacked QR per block over all trials,
without mixing their arithmetic; their sampling runs on up to two
threads, which changes no trial's bits. BLAS thread settings are never
touched.
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
import os
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._expm import real_form, times
from .errors import NumericalError, ParameterError, UnsupportedFeatureError
from .prediction import LyapunovVector, SpectrumPrediction
from .realforms import (EXTERIOR_WEIGHT_LIMIT, GroupSampler, RealFormSpec,
                        _check_coherent, _warn_size, exterior_power_matrix,
                        form_preservation_errors, lie_algebra_basis,
                        sample_group_elements, standard_multiplicities)
from .weights import RepKind, RepSpec, binomial, k_subsets

# bytes that one sampling chunk of whole renorm blocks may hold
# (``_block_bytes``), as ``_expm._BLOCK_BYTES`` sizes slices; bounds memory,
# not bits
_CHUNK_BYTES = 2 ** 25
# bytes of one renorm block above which a run warns before sampling: a chunk
# holds at least one
_CHUNK_MEMORY_LIMIT = 2 ** 30
# largest |sum of a trial's exponents| accepted. At the default scale and
# renorm interval the largest sum measured was 5e-8 (so*(6) ext:3), 1e-11 on
# the acceptance pairs; SL(2,R) at scale 2, which lost precision, gave 0.05.
_SUM_RULE_TOL = 1e-4

_SPIN_MESSAGE = "unsupported: spin representations are weight-combinatorics only"


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; defaults complete the su(2,1) suite in seconds.
    Any pair that ``predict`` accepts simulates, except the (half-)spin ones."""

    form: RealFormSpec
    rep: RepSpec = RepSpec.standard()
    steps: int = 100_000
    trials: int = 8
    renorm_interval: int = 10
    scale: float = 0.3
    master_seed: int = 42
    zero_threshold: float = 0.05

    def __post_init__(self):
        if self.rep.is_spin_like():
            raise UnsupportedFeatureError(_SPIN_MESSAGE)
        _check_coherent(self.form, self.rep)
        if self.steps < 1 or self.trials < 1:
            raise ParameterError("steps and trials must be positive")
        if not 1 <= self.renorm_interval <= 50:
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
    max_block_form_error: float
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


def _block_bytes(sampler: GroupSampler, interval: int, trials: int) -> int:
    """Bytes that one renorm block of ``interval`` steps costs a chunk: the
    coefficients and X of each sampling thread, counted at the thread cap
    min(2, trials) and not at the CPUs, so that chunk lengths do not depend
    on the machine, plus every trial's folded block."""
    matrix = sampler.matrix_dim ** 2 * sampler.dtype.itemsize
    return (interval * min(2, trials) * (8 * sampler.form.algebra_dim + matrix)
            + trials * matrix)


def _fold_blocks(G: np.ndarray, interval: int, out: np.ndarray) -> np.ndarray:
    """Products over consecutive blocks of ``interval`` matrices of G,
    written to ``out`` (blocks, d, d), which is returned.

    The tail block may be shorter. Product order matches cocycle order:
    the last matrix of a block is applied last, so the j-th step of every
    block that has one multiplies its running product from the left.
    """
    out[...] = G[::interval]
    for j in range(1, min(interval, len(G))):
        step = G[j::interval]
        out[:len(step)] = times(step, real_form(out[:len(step)]))
    return out


def _max_form_error(sampler: GroupSampler, g: np.ndarray) -> float:
    return max(form_preservation_errors(sampler, g).values(), default=0.0)


def _sample_trial(sampler: GroupSampler, interval: int, count: int,
                  rng: np.random.Generator, out: np.ndarray):
    """One trial's chunk of ``count`` steps, folded into its blocks of
    ``interval`` steps in ``out``: (max sample, max block form error)."""
    G = sample_group_elements(sampler, rng, count)
    sample_err = _max_form_error(sampler, G)
    _fold_blocks(G, interval, out)
    if not np.isfinite(out).all():
        raise _CocycleOverflow("block product overflow")
    return sample_err, _max_form_error(sampler, out)


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
        np.abs(np.diagonal(R, axis1=-2, axis2=-1), out=out)
        return Q
    factor, reduced = _QR_KERNELS
    tau = factor(A)
    np.abs(np.diagonal(A, axis1=-2, axis2=-1), out=out)
    return reduced(A, tau)


def _worker_count(trials: int) -> int:
    """Trial threads of a run: min(2, usable CPUs, trials)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus, trials)


def _run_lockstep(sampler: GroupSampler, steps: int, warmup: int, interval: int,
                  rngs: list[np.random.Generator], rep=None):
    """QR scheme for all trials at once, trial j drawing from ``rngs[j]``.

    The steps are sampled in chunks of as many whole renorm blocks as fit
    in ``_CHUNK_BYTES`` at ``_block_bytes`` each, and at least one. Each
    step is a function of its own draw, so the chunk length bounds memory
    and moves no bit. Each chunk, every trial samples, checks and folds its
    own blocks (``_sample_trial``) into its column of a prefix of one
    (blocks, trials, d, d) array, allocated once per call, on one of
    min(2, usable CPUs, trials) threads, which live for this call only;
    the blocks are then multiplied into the stacked frames
    (trials, d, d) with one stacked QR per block (``_qr_step``). The logs
    of |diag R|, their finiteness check and their accumulation run once
    per chunk.
    Trial j's result depends neither on the other trials nor on the thread
    count, and errors surface in trial order. ``rep``, if given, maps each
    stacked block to the matrices the frames are multiplied by instead (the
    direct sums g + Lambda^k g of exterior_consistency_check).
    """
    rep = rep or (lambda B: B)
    d, trials = sampler.matrix_dim, len(rngs)
    eye = rep(np.eye(d, dtype=sampler.dtype))
    Q = np.broadcast_to(eye, (trials,) + eye.shape)
    acc = np.zeros(Q.shape[:-1])
    max_sample_err = 0.0
    max_block_err = 0.0
    chunk = max(1, _CHUNK_BYTES // _block_bytes(sampler, interval, trials)) * interval
    held = np.empty((-(-min(chunk, steps) // interval), trials, d, d), sampler.dtype)
    # row i + 1 takes |diag R| of a chunk's block i, and row 0 the sum so far
    logs = np.empty((len(held) + 1,) + acc.shape)
    workers = _worker_count(trials)
    pool = None
    if workers > 1:
        # imported here, so that callers that never simulate (predict,
        # classify) do not pay for importing it and logging
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    try:
        for lo in range(0, steps, chunk):
            count = min(chunk, steps - lo)
            blocks = held[:-(-count // interval)]
            trial = partial(_sample_trial, sampler, interval, count)
            errs = (pool.map if pool else map)(trial, rngs, np.swapaxes(blocks, 0, 1))
            sample_errs, block_errs = zip(*errs)
            max_sample_err = max(max_sample_err, *sample_errs)
            max_block_err = max(max_block_err, *block_errs)
            nblocks = len(blocks)
            for i, B in enumerate(blocks):    # one block of every trial
                Q = _qr_step(rep(B), Q, logs[i + 1])
            # the warmup blocks are dropped (lo and warmup are multiples of
            # interval), and the row before the first block kept takes acc
            rows = logs[min(nblocks, max(0, (warmup - lo) // interval)):nblocks + 1]
            with np.errstate(divide="ignore"):   # log 0 reads -inf, refused just below
                np.log(rows[1:], out=rows[1:])
            if not np.isfinite(rows[1:]).all():
                raise _CocycleOverflow("degenerate QR factor")
            rows[0] = acc
            acc = np.add.reduce(rows, axis=0)   # block by block, as a running sum
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return acc / (steps - warmup), max_sample_err, max_block_err


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


def _run_with_retry(config: SimConfig, rep=None):
    """(per-trial exponents, max sample and block form errors, renorm
    interval used). A cocycle overflow or a violated sum rule is retried
    once at half the renorm interval, since shorter blocks are better
    conditioned; a second failure raises NumericalError. The sum rule holds
    for the first matrix_dim columns and for the rest, if ``rep`` adds any.
    A chunk holds at least one renorm block, so a run whose block at the
    configured interval (``_block_bytes``) exceeds ``_CHUNK_MEMORY_LIMIT``
    warns first; the retry's half interval costs less."""
    form, d = config.form, config.form.matrix_dim
    sampler = lie_algebra_basis(form, config.scale)
    nbytes = _block_bytes(sampler, config.renorm_interval, config.trials)
    _warn_size(nbytes, _CHUNK_MEMORY_LIMIT, lambda: (
        f"{form.label()} runs of {config.trials:,} trials take {nbytes:,} bytes per "
        f"renorm block of {config.renorm_interval} steps"))
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
            return out + (interval,)
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
    per_trial, sample_err, block_err, interval_used = _run_with_retry(config)
    std_means, std_stderr, _ = _aggregate(per_trial, config.trials)
    if rep.kind is RepKind.EXTERIOR:
        per_trial = _subset_sums(per_trial, rep.degree)

    factor = config.form.real_factor
    means, stderr, order = _aggregate(per_trial, config.trials)
    real_means = _realify(means, factor)
    real_stderr = _realify(stderr, factor)
    trial_rows = tuple(_floats(_realify(row[order], factor)) for row in per_trial)
    if config.trials >= 2:
        cluster = classify_zero_cluster(real_means, real_stderr, config.zero_threshold)
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

    per_trial, sample_err, block_err, interval_used = _run_with_retry(
        cfg, partial(_direct_sum, k=k))
    std = _aggregate(per_trial[:, :d], cfg.trials)[0]
    direct, direct_err, _ = _aggregate(per_trial[:, d:], cfg.trials)
    sums, sums_err, _ = _aggregate(_subset_sums(per_trial[:, :d], k), cfg.trials)
    matched, worst, tols = _within_tolerance(sums, direct, sums_err + direct_err,
                                             float(np.abs(direct).max()))
    return ExteriorConsistencyReport(
        matched, float(worst), _floats(sums), _floats(direct), _floats(tols),
        _floats(std), float(sample_err), float(block_err), interval_used)

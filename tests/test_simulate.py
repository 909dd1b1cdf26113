import concurrent.futures
import dataclasses
import json
import os
import threading
import tracemalloc
import warnings
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import lyapzeros as lz
from lyapzeros import (NumericalError, ParameterError, RepSpec, SimConfig,
                       UnsupportedFeatureError, classify_zero_cluster,
                       estimate_lyapunov_vector, exterior_consistency_check,
                       lyapunov_spectrum, predict, so_split, so_star, sp, su,
                       verify_prediction)
from lyapzeros._expm import lift, real_form, times
from lyapzeros.simulate import _SPIN_MESSAGE, _fold_blocks


def quick(form, rep=RepSpec.standard(), **kw):
    defaults = dict(steps=20_000, trials=4, master_seed=42)
    defaults.update(kw)
    return SimConfig(form=form, rep=rep, **defaults)


def table_sampler(form, seed=42):
    """The sampler with the table that a run of ``form`` on ``seed`` builds."""
    return lz.matrices.step_table(lz.lie_algebra_basis(form), lz.simulate._table_rng(seed))


def derived(form, seed=42, k=None):
    """The renorm interval that a run of ``form`` on ``seed`` derives from
    its table (with ``k``, that of exterior_consistency_check)."""
    return lz.simulate._derived_interval(table_sampler(form, seed).table, k)


def chunk_steps(monkeypatch, form, trials, steps, interval=None):
    """Size the sampling chunks of ``trials`` trials of ``form`` at renorm
    interval ``interval`` (by default the one derived on seed 42) to
    ``steps`` steps, through the byte budget that a run reads when it
    starts (``_expm._BLOCK_BYTES``, which also sizes its slices)."""
    interval = interval or derived(form)
    sampler = lz.lie_algebra_basis(form)
    per_block = trials * max(8 * interval, sampler.matrix_dim ** 2 * sampler.dtype.itemsize)
    monkeypatch.setattr(lz._expm, "_BLOCK_BYTES", steps // interval * per_block)


def fold(G, interval):
    """_fold_blocks of the stack G, as the steps of one trial, into a fresh
    array."""
    out = np.empty((-(-len(G) // interval), 1) + G.shape[1:], G.dtype)
    return _fold_blocks(lift(G), np.arange(len(G))[:, None], interval, out)[:, 0]


def unsplit(P):
    """The complex matrices whose split rows (row 2j Re B_j, row 2j + 1 Im
    B_j) are P (..., 2d, d)."""
    return np.stack([P[..., 0::2, :], P[..., 1::2, :]], axis=-1).view(complex)[..., 0]


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(form=su(2, 1))
        assert cfg.steps == 100_000 and cfg.trials == 8
        assert cfg.renorm_interval is None and cfg.scale == 0.3
        assert cfg.master_seed == 42 and cfg.zero_threshold == 0.05

    def test_spin_rejected(self):
        with pytest.raises(UnsupportedFeatureError, match="weight-combinatorics"):
            SimConfig(form=so_split(5), rep=RepSpec.spin())
        with pytest.raises(UnsupportedFeatureError):
            SimConfig(form=so_split(6), rep=RepSpec.half_spin("+"))

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(form=su(2, 1), renorm_interval=51)
        with pytest.raises(ParameterError):
            SimConfig(form=su(2, 1), zero_threshold=0.5)
        with pytest.raises(ParameterError):
            SimConfig(form=su(2, 1), steps=0)
        with pytest.raises(ParameterError):
            SimConfig(form=su(2, 1), master_seed=-1)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_scale_finite_and_nonnegative(self, scale):
        with pytest.raises(ParameterError, match="scale"):
            SimConfig(form=su(2, 1), scale=scale)

    def test_warmup_resolution(self):
        cfg = SimConfig(form=su(2, 1), steps=100_000)
        assert cfg.resolved_warmup(10) == 1000
        cfg = SimConfig(form=su(2, 1), steps=50)
        assert cfg.resolved_warmup(10) == 0
        cfg = SimConfig(form=su(2, 1), steps=250)
        assert cfg.resolved_warmup(10) == 20


PAIR_FORMS = [su(3, 1), so_split(5), so_split(6), so_star(4), sp(2)]
PAIR_REPS = ["standard", "ext:1", "ext:2", "ext:d+1", "spin", "half-spin:+", "half-spin:-"]


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("text", PAIR_REPS)
@pytest.mark.parametrize("form", PAIR_FORMS, ids=lambda f: f.label())
def test_simulator_accepts_the_pairs_predict_accepts(form, text):
    # one pair rule: SimConfig refuses (half-)spin outright and otherwise
    # exactly the pairs predict refuses, with the same error class
    rep = RepSpec.parse(text.replace("d+1", str(form.matrix_dim + 1)))
    sim = raised(lambda: SimConfig(form=form, rep=rep))
    if rep.is_spin_like():
        assert sim is UnsupportedFeatureError
    else:
        assert sim is raised(lambda: predict(form, rep))
        assert (sim is None) == (text != "ext:d+1")


class TestClassifyZeroCluster:
    def test_clear_gap(self):
        zc = classify_zero_cluster([1.0, 0.001, -0.001, -1.0], [0.01] * 4, 0.05)
        assert zc.status == "ok"
        assert (zc.start, zc.stop, zc.size) == (1, 3, 2)

    def test_no_signal(self):
        zc = classify_zero_cluster([1e-9, 0.0, -1e-9], [1e-6] * 3, 0.05)
        assert zc.status == "inconclusive"

    def test_no_positive_top(self):
        zc = classify_zero_cluster([0.0, 0.0], [0.0, 0.0], 0.05)
        assert zc.status == "inconclusive"

    def test_gap_rule(self):
        # ratio 1.6 between smallest nonzero and largest zero candidate
        zc = classify_zero_cluster([1.0, 0.04, 0.025, -0.025, -0.04, -1.0],
                                   [0.01] * 6, 0.03)
        assert zc.status == "inconclusive"
        assert "gap" in zc.reason

    def test_empty_cluster_is_ok(self):
        zc = classify_zero_cluster([1.0, -1.0], [0.001, 0.001], 0.05)
        assert zc.status == "ok" and zc.size == 0

    def test_non_contiguous_inconclusive(self):
        zc = classify_zero_cluster([1.0, 0.001, -0.2, -0.001, -1.0],
                                   [0.01] * 5, 0.05)
        assert zc.status == "inconclusive"
        assert "contiguous" in zc.reason


class TestBlockMachinery:
    def test_fold_blocks_product_order(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((7, 3, 3))
        B = fold(G, 3)
        assert B.shape == (3, 3, 3)
        assert np.allclose(B[0], G[2] @ G[1] @ G[0])
        assert np.allclose(B[2], G[6])
        # a complex stack goes through the real-GEMM products
        sampler = lz.lie_algebra_basis(su(3, 1))
        G = lz.sample_group_elements(sampler, rng, 7)
        B = fold(G, 3)
        assert B.shape == (3, 4, 4) and B.dtype == G.dtype
        for got, want in zip(B, (G[2] @ G[1] @ G[0], G[5] @ G[4] @ G[3], G[6])):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("form", [sp(2), su(3, 1)], ids=lambda f: f.label())
    @pytest.mark.parametrize("count", [28, 25, 22], ids=["whole", "tail", "tail-of-one"])
    def test_fold_blocks_bits_match_block_by_block(self, form, count):
        # each block folded on its own, one single-matrix product at a time:
        # a complex block as lifted steps on its split rows, and a real one
        # by 0.7.0's product, whose bits the real fold keeps
        sampler = lz.lie_algebra_basis(form)
        G = lz.sample_group_elements(sampler, np.random.default_rng(3), count)
        got = fold(G, 7)
        assert len(got) == 4
        for block, lo in zip(got, range(0, count, 7)):
            if np.iscomplexobj(G):
                P = lift(G[lo])[:, 0::2]
                for g in G[lo + 1:lo + 7]:
                    P = lift(g) @ P
                want = unsplit(P)
            else:
                B = G[lo:lo + 1]
                for g in G[lo + 1:lo + 7]:
                    B = times(g[None], real_form(B))
                want = B[0]
            assert same_bits(block, want)

    @pytest.mark.parametrize("form", [sp(2), su(3, 1)], ids=lambda f: f.label())
    def test_fold_slices_do_not_change_the_bits(self, form, monkeypatch):
        # slices of 3 lifted steps: one trial's 64 steps in blocks of 7 fold
        # in slices of 3, 3, 3 and 1 blocks, the last a lone block of one
        # step; five trials fold block by block, in slices of 3 and 2 trials
        sampler = lz.lie_algebra_basis(form)
        G = lz.sample_group_elements(sampler, np.random.default_rng(4), 5 * 64)
        idx = np.arange(len(G)).reshape(64, 5)
        alone = [fold(G[idx[:, t]], 7) for t in range(5)]
        stacked = np.empty((10, 5) + G.shape[1:], G.dtype)
        whole = _fold_blocks(lift(G), idx, 7, stacked.copy())
        monkeypatch.setattr(lz._expm, "_BLOCK_BYTES", 3 * lift(G[0]).nbytes)
        assert same_bits(fold(G[idx[:, 0]], 7), alone[0])
        assert same_bits(_fold_blocks(lift(G), idx, 7, stacked), whole)
        for t in range(5):
            assert same_bits(whole[:, t], alone[t])

    def test_block_form_error_is_relative_to_the_squared_norm(self):
        # blocks of 50 table steps reach norms of about 1e3: each block's
        # error g^dag H g - H is read against ||g||_F^2, which it scales with
        sampler = table_sampler(su(2, 1))
        idx = np.random.default_rng(5).integers(0, len(sampler.table), 2000)
        blocks = fold(sampler.table[idx], 50)
        absolute = [lz.simulate._max_form_error(sampler, B) for B in blocks]
        squares = [np.linalg.norm(B) ** 2 for B in blocks]
        relative = lz.simulate._max_form_error(sampler, blocks, relative=True)
        assert relative == pytest.approx(max(np.divide(absolute, squares)), rel=1e-12)
        assert max(squares) > 1e5 and max(absolute) > 1e3 * relative


class TestLyapunovSpectrum:
    def test_su21_structure(self):
        res = lyapunov_spectrum(quick(su(2, 1)))
        assert len(res.exponents) == 6
        assert res.zero_cluster.status == "ok" and res.zero_cluster.size == 2
        # complex pairing: realified exponents repeat in adjacent pairs
        for i in range(0, 6, 2):
            assert res.exponents[i] == res.exponents[i + 1]

    def test_su11_realification(self):
        res = lyapunov_spectrum(quick(su(1, 1)))
        lam = res.exponents[0]
        assert lam > 0
        assert res.exponents[1] == lam
        assert res.exponents[2] == res.exponents[3]
        assert abs(res.exponents[3] + lam) < 3 * (res.stderr[0] + res.stderr[3])

    @pytest.mark.parametrize("form", [su(1, 1), sp(1)], ids=lambda f: f.label())
    def test_two_by_two_means_are_exactly_antisymmetric(self, form):
        # the means are projected onto the sum-zero plane, so lambda_2 is
        # -lambda_1 to the bit on every seed, not only where rounding cancels
        for seed in range(30, 40):
            res = lyapunov_spectrum(quick(form, steps=2000, trials=2, master_seed=seed))
            assert res.complex_exponents[1] == -res.complex_exponents[0], seed

    def test_antisymmetry(self):
        res = lyapunov_spectrum(quick(sp(2)))
        D = len(res.exponents)
        for i in range(D):
            tol = 3 * (res.stderr[i] + res.stderr[D - 1 - i]) + 1e-9
            assert abs(res.exponents[i] + res.exponents[D - 1 - i]) < tol

    def test_scale_zero(self):
        res = lyapunov_spectrum(SimConfig(form=sp(2), steps=100, trials=2, scale=0.0))
        assert res.exponents == (0.0,) * 4
        assert res.zero_cluster.status == "inconclusive"

    def test_determinism(self):
        cfg = quick(su(2, 1), steps=5000, trials=3, master_seed=7)
        a = lyapunov_spectrum(cfg)
        b = lyapunov_spectrum(cfg)
        assert a.exponents == b.exponents
        assert a.stderr == b.stderr
        assert a.trial_exponents == b.trial_exponents

    def test_seed_changes_result(self):
        a = lyapunov_spectrum(quick(su(2, 1), steps=5000, trials=2, master_seed=1))
        b = lyapunov_spectrum(quick(su(2, 1), steps=5000, trials=2, master_seed=2))
        assert a.exponents != b.exponents

    def test_form_errors_tracked(self):
        res = lyapunov_spectrum(quick(su(2, 1), steps=2000, trials=2))
        assert 0 < res.max_sample_form_error < 1e-10
        assert 0 < res.max_block_form_error < 1e-8

    def test_exterior_tracks_standard(self):
        res = lyapunov_spectrum(quick(su(3, 1), RepSpec.exterior(2), steps=10_000, trials=2))
        assert len(res.exponents) == 12
        assert res.standard_exponents is not None
        assert len(res.standard_exponents) == 4

    @pytest.mark.parametrize("form,k", [(su(3, 1), 2), (su(5, 1), 3), (so_star(3), 2),
                                        (su(4, 2), 3)],
                             ids=["su(3,1)-2", "su(5,1)-3", "so*(6)-2", "su(4,2)-3"])
    def test_exterior_rows_are_subset_sums_of_standard_rows(self, form, k):
        # the same streams drive the standard run, so trial j's ext:k row is
        # the k-subset sums of trial j's standard row
        cfg = quick(form, steps=5000, trials=3, master_seed=7)
        std = lyapunov_spectrum(cfg)
        ext = lyapunov_spectrum(dataclasses.replace(cfg, rep=RepSpec.exterior(k)))
        assert ext.renorm_interval_used == std.renorm_interval_used
        for std_row, ext_row in zip(std.trial_exponents, ext.trial_exponents):
            complex_row = std_row[::2]    # realified rows repeat each exponent
            sums = sorted(2 * [sum(s) for s in combinations(complex_row, k)])
            assert np.abs(np.subtract(sorted(ext_row), sums)).max() <= 1e-12

    def test_exterior_power_of_sp_verifies(self):
        # ext:k exponents are k-subset sums of the standard ones in every
        # family, real ones included
        cfg = quick(sp(2), RepSpec.exterior(2), steps=5000, trials=8, master_seed=1)
        report = verify_prediction(cfg, predict(sp(2), RepSpec.exterior(2)))
        assert report.verdict == "match"
        assert report.result.zero_cluster.size == 2

    def test_exterior_degree_range(self):
        with pytest.raises(ParameterError):
            lyapunov_spectrum(quick(su(2, 1), RepSpec.exterior(5)))

    def test_large_exterior_warns_before_sampling(self, monkeypatch):
        # su(10,10) ext:10 forms C(20,10) = 184,756 subset sums per trial
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(lz.simulate, "_run_with_retry", sampled)
        with pytest.warns(RuntimeWarning, match="184,756 subset sums"):
            with pytest.raises(Sampled):
                lyapunov_spectrum(quick(su(10, 10), RepSpec.exterior(10)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Sampled):
                lyapunov_spectrum(quick(su(8, 8), RepSpec.exterior(8)))

    def test_one_block_over_the_limit_warns_before_sampling(self, monkeypatch):
        # a chunk holds at least one renorm block: for su(30,30) at 20,000
        # trials, 20,000 * 10 * 8 bytes of index draws and 20,000 * 60^2 * 16
        # of folded blocks, 1.15e9
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(lz.simulate, "_run_lockstep", sampled)
        for run in (lyapunov_spectrum, lambda cfg: exterior_consistency_check(cfg, 1)):
            with pytest.warns(RuntimeWarning, match="su\\(30,30\\) runs of 20,000 trials "
                                                    "take 1,153,600,000 bytes per renorm "
                                                    "block of 10 steps") as record:
                with pytest.raises(Sampled):
                    run(SimConfig(form=su(30, 30), trials=20_000, renorm_interval=10))
            assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (su(30, 30), su(8, 8)):
                with pytest.raises(Sampled):
                    lyapunov_spectrum(SimConfig(form=form, trials=8))

    @pytest.mark.parametrize("form", [su(3, 1), sp(2)], ids=lambda f: f.label())
    def test_chunked_accumulation_adds_block_by_block(self, form, monkeypatch):
        # three chunks, a warmup of 29 blocks and a 5-step tail block: the
        # per-chunk sums give the bits of a running sum over the blocks of
        # one unchunked sample per trial. Each chunk folds the draws of all
        # trials at once
        steps, warmup, interval, trials = 2995, 290, 10, 3
        chunk_steps(monkeypatch, form, trials, 1000, interval)
        shapes = []
        real_fold = lz.simulate._fold_blocks

        def spy(table, idx, interval, out, buffers=None):
            shapes.append(idx.shape)
            return real_fold(table, idx, interval, out, buffers)

        monkeypatch.setattr(lz.simulate, "_fold_blocks", spy)
        sampler = table_sampler(form)
        real = lz.sample_group_elements

        def rngs():
            return [lz.simulate._trial_rng(7, j) for j in range(trials)]

        got = lz.simulate._run_lockstep(sampler, steps, warmup, interval, rngs())[0]
        assert shapes == [(1000, trials), (1000, trials), (995, trials)]
        Q = np.eye(form.matrix_dim, dtype=sampler.dtype)
        acc = np.zeros((trials, form.matrix_dim))
        blocks = np.stack([fold(real(sampler, rng, steps), interval) for rng in rngs()],
                          axis=1)
        for i, B in enumerate(blocks):
            Q, R = np.linalg.qr(B @ Q)
            if i * interval >= warmup:
                acc += np.log(np.abs(np.diagonal(R, axis1=-2, axis2=-1)))
        assert np.array_equal(got, acc / (steps - warmup))

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=1,
                                        scale=700.0, renorm_interval=1))

    def test_block_overflow_is_a_numerical_error_without_warnings(self):
        # sp(1) steps at scale 100 reach about 1e43: blocks of 20 and then 10
        # leave the floats, and the fold's overflow is not a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="cocycle overflow at renorm_interval 10"):
                lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=2,
                                            scale=100.0, renorm_interval=20))

    def test_overflow_retry_halves_interval(self, monkeypatch):
        calls = []
        real = lz.simulate._run_lockstep

        def flaky(sampler, steps, warmup, interval, rngs, rep=None):
            calls.append(interval)
            if interval == 10:
                raise lz.simulate._CocycleOverflow("forced")
            return real(sampler, steps, warmup, interval, rngs, rep)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", flaky)
        res = lyapunov_spectrum(SimConfig(form=sp(1), steps=1000, trials=2, renorm_interval=10))
        assert res.renorm_interval_used == 5
        assert 10 in calls and 5 in calls


    @pytest.mark.parametrize("rep", [RepSpec.standard(), RepSpec.exterior(2)],
                             ids=lambda r: r.label())
    def test_trials_run_independently(self, rep, monkeypatch):
        # trial j's stream and arithmetic do not depend on the other trials;
        # short chunks make streams shared across trials show
        chunk_steps(monkeypatch, su(3, 1), 3, 1000)
        two = lyapunov_spectrum(quick(su(3, 1), rep, steps=3000, trials=2))
        three = lyapunov_spectrum(quick(su(3, 1), rep, steps=3000, trials=3))
        for a, b in zip(two.trial_exponents, three.trial_exponents[:2]):
            assert sorted(a) == sorted(b)

    @pytest.mark.parametrize("form,rep", [
        (su(2, 1), RepSpec.standard()), (su(3, 1), RepSpec.standard()),
        (so_star(3), RepSpec.standard()), (sp(2), RepSpec.standard()),
        (so_split(5), RepSpec.standard()), (su(3, 1), RepSpec.exterior(2)),
        (su(5, 1), RepSpec.exterior(3)),
    ], ids=lambda v: v.label())
    def test_chunk_size_does_not_change_the_bits(self, form, rep, monkeypatch):
        # one chunk of 10,000 steps and ten of 1,000 give the same run
        runs = []
        for chunk in (10_000, 1000):
            chunk_steps(monkeypatch, form, 8, chunk)
            result = lyapunov_spectrum(quick(form, rep, steps=10_000, trials=8))
            record = result.as_record()
            record.pop("elapsed_seconds")
            runs.append(json.dumps([record, result.trial_exponents]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scale", [5.0, 2.0])
    def test_sum_rule_gate(self, scale):
        # SL(2,R) blocks this large lose precision in the QR scheme: the
        # estimates ran to (3.83, 0.11) at scale 5 and summed to 0.047 at
        # scale 2, where healthy runs sum to about 1e-15
        with pytest.raises(NumericalError, match="sum rule") as info:
            lyapunov_spectrum(SimConfig(form=sp(1), steps=2000, trials=2, scale=scale,
                                        renorm_interval=10))
        diag = info.value.diagnostics
        assert set(diag) == {"trial", "sum", "threshold", "renorm_interval"}
        assert diag["renorm_interval"] == 5     # the retry's half interval
        assert abs(diag["sum"]) > diag["threshold"]

    def test_healthy_run_is_not_retried(self, monkeypatch):
        intervals = []
        real = lz.simulate._run_lockstep

        def spy(sampler, steps, warmup, interval, rngs, rep=None):
            intervals.append(interval)
            return real(sampler, steps, warmup, interval, rngs, rep)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", spy)
        res = lyapunov_spectrum(quick(su(3, 1), RepSpec.exterior(2), steps=3000, trials=2))
        interval = derived(su(3, 1))
        assert intervals == [interval] and res.renorm_interval_used == interval
        assert res.config.renorm_interval == interval

    def test_healthy_sums_are_far_below_the_gate(self):
        res = lyapunov_spectrum(quick(su(5, 1), RepSpec.exterior(3), steps=5000, trials=2))
        for row in res.trial_exponents:
            # realified rows count each complex exponent twice
            assert abs(sum(row)) < 1e-3 * lz.simulate._SUM_RULE_TOL


def label(x):
    return x.label() if hasattr(x, "label") else str(x)


def frames_and_blocks(form, trials=8, count=200, interval=10, seed=11):
    """An orthonormal frame stack and the folded blocks of ``count`` steps of
    every trial, (count / interval, trials, d, d)."""
    sampler = lz.lie_algebra_basis(form)
    rng = np.random.default_rng(seed)
    blocks = np.stack([fold(lz.sample_group_elements(sampler, rng, count), interval)
                       for _ in range(trials)], axis=1)
    Q = np.linalg.qr(lz.sample_group_elements(sampler, rng, trials))[0]
    return Q, blocks


def numpy_qr_steps(blocks, Q):
    """The frames and |diag R| of np.linalg.qr over the blocks, in order."""
    out = []
    for B in blocks:
        Q, R = np.linalg.qr(B @ Q)
        out.append((Q, np.abs(np.diagonal(R, axis1=-2, axis2=-1))))
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestQrStep:
    def test_kernels_are_used_where_numpy_has_them(self):
        from numpy.linalg import _umath_linalg
        has = all(hasattr(_umath_linalg, name) for name in ("qr_r_raw", "qr_reduced"))
        assert (lz.simulate._QR_KERNELS is not None) == has

    @pytest.mark.parametrize("form", [su(2, 1), su(3, 1), so_star(3), sp(2), so_split(5)],
                             ids=lambda f: f.label())
    def test_step_is_numpy_qr(self, form):
        # the sim pairs: complex d = 3, 4, 6 and real d = 4, 7
        Q, blocks = frames_and_blocks(form)
        for B, (want_Q, want_diag) in zip(blocks, numpy_qr_steps(blocks, Q)):
            diag = np.empty(want_diag.shape)
            Q = lz.simulate._qr_step(B, Q, diag)
            assert same_bits(Q, want_Q) and same_bits(diag, want_diag)

    @pytest.mark.parametrize("form,k", [(su(3, 1), 2), (su(5, 1), 3), (sp(2), 2),
                                        (so_star(3), 3)], ids=label)
    def test_step_is_numpy_qr_on_direct_sums(self, form, k):
        # diag(B, Lambda^k B), the matrices of exterior_consistency_check
        sums = lz.simulate._direct_sum(frames_and_blocks(form, count=100)[1], k)
        Q = np.broadcast_to(np.eye(sums.shape[-1], dtype=sums.dtype), sums.shape[1:])
        for B, (want_Q, want_diag) in zip(sums, numpy_qr_steps(sums, Q)):
            diag = np.empty(want_diag.shape)
            Q = lz.simulate._qr_step(B, Q, diag)
            assert same_bits(Q, want_Q) and same_bits(diag, want_diag)

    @pytest.mark.parametrize("form", [su(3, 1), sp(2)], ids=lambda f: f.label())
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_gives_non_finite_diagonal(self, form, bad, monkeypatch):
        # a product that leaves the floats reads non-finite in |diag R|, and
        # the kernels add no warning to those of np.linalg.qr's path
        Q, blocks = frames_and_blocks(form)
        B = blocks[0].copy()
        B[2, 1, 1] = bad
        seen = []
        for kernels in (lz.simulate._QR_KERNELS, None):
            monkeypatch.setattr(lz.simulate, "_QR_KERNELS", kernels)
            diag = np.empty(Q.shape[:-1])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                lz.simulate._qr_step(B, Q, diag)
            assert not np.isfinite(diag[2]).all() and np.isfinite(np.delete(diag, 2, 0)).all()
            seen.append([str(w.message) for w in caught])
        assert seen[0] == seen[1]
        if np.isnan(bad):     # NaN passes through quietly, without a warning
            assert seen[0] == []

    def test_non_finite_block_ends_as_cocycle_overflow(self):
        sampler = table_sampler(su(3, 1))
        rngs = [lz.simulate._trial_rng(7, j) for j in range(3)]

        def poisoned(B):    # trial 1's blocks; rep also maps the starting identity
            B = B.copy()
            if B.ndim == 3:
                B[1, 0, 0] = np.nan
            return B

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(lz.simulate._CocycleOverflow, match="degenerate QR factor"):
                lz.simulate._run_lockstep(sampler, 500, 0, 10, rngs, poisoned)

    @pytest.mark.parametrize("form,k", [(su(3, 1), None), (sp(2), None), (so_split(5), None),
                                        (su(3, 1), 2)], ids=label)
    def test_lockstep_bits_without_the_kernels(self, form, k, monkeypatch):
        # np.linalg.qr's path, the only one on numpy 1.x, gives the same bits
        chunk_steps(monkeypatch, form, 3, 1000, 10)   # two chunks
        sampler = table_sampler(form)
        rep = partial(lz.simulate._direct_sum, k=k) if k else None
        runs = []
        for kernels in (lz.simulate._QR_KERNELS, None):
            monkeypatch.setattr(lz.simulate, "_QR_KERNELS", kernels)
            rngs = [lz.simulate._trial_rng(5, j) for j in range(3)]
            runs.append(lz.simulate._run_lockstep(sampler, 2000, 200, 10, rngs, rep))
        assert same_bits(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestTrialThreads:
    @pytest.fixture
    def no_threads(self, monkeypatch):
        """Refuse every thread pool and Python thread that a run would start."""
        def refused(*args, **kwargs):
            raise AssertionError("a run started a thread")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        monkeypatch.setattr(threading.Thread, "start", refused)

    @staticmethod
    def bits(result):
        record = result.as_record()
        record.pop("elapsed_seconds", None)
        return np.array(result.trial_exponents), record

    @pytest.mark.parametrize("form", [su(3, 1), sp(2)], ids=lambda f: f.label())
    def test_thread_count_does_not_change_the_bits(self, form, monkeypatch, no_threads):
        chunk_steps(monkeypatch, form, 3, 1000)   # three chunks
        runs = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            runs.append(self.bits(lyapunov_spectrum(quick(form, steps=3000, trials=3))))
        (serial, serial_record), (two, two_record) = runs
        assert np.array_equal(serial, two)
        assert serial_record == two_record

    def test_stacked_trials_keep_their_own_bits(self, monkeypatch):
        # every trial folds into its column of one chunk array: slices of
        # three lifted steps split each block's eight trials 3, 3, 2 and
        # must give the bits of slices of whole blocks
        chunk_steps(monkeypatch, su(3, 1), 8, 1000)
        cfg = quick(su(3, 1), steps=3000, trials=8)
        whole = self.bits(lyapunov_spectrum(cfg))
        monkeypatch.setattr(lz._expm, "_BLOCK_BYTES", 3 * 8 ** 2 * 8)
        split = self.bits(lyapunov_spectrum(cfg))
        assert np.array_equal(whole[0], split[0])
        assert whole[1] == split[1]

    def test_thread_count_does_not_change_the_direct_sum_run(self, monkeypatch, no_threads):
        records = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            chk = exterior_consistency_check(quick(su(3, 1), steps=3000, trials=3), 2)
            records.append(chk.as_record())
        assert records[0] == records[1]

    def test_one_cpu_runs_without_a_pool(self, monkeypatch, no_threads):
        usable_cpus(monkeypatch, 1)
        res = lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2))
        assert res.zero_cluster.status == "ok"

    def test_no_thread_outlives_a_run(self, monkeypatch, no_threads):
        usable_cpus(monkeypatch, 2)
        baseline = threading.active_count()
        lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2))
        assert threading.active_count() == baseline
        # an element overflows while the table is built
        # (test_overflow_reported's data)
        with pytest.raises(NumericalError, match="overflowed"):
            lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=2,
                                        scale=700.0, renorm_interval=1))
        assert threading.active_count() == baseline
        # a block product overflows in the fold, at interval 20 and at 10
        with pytest.raises(NumericalError, match="cocycle overflow"):
            lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=2,
                                        scale=100.0, renorm_interval=20))
        assert threading.active_count() == baseline
        # a degenerate QR factor, a retry at half the interval, then the sum rule
        with pytest.raises(NumericalError, match="sum rule"):
            lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2, scale=5.0,
                                    renorm_interval=10))
        assert threading.active_count() == baseline


def traced_peak(config):
    """Peak bytes that tracemalloc sees during lyapunov_spectrum(config)."""
    tracemalloc.start()
    try:
        lyapunov_spectrum(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepTable:
    @staticmethod
    def run_table(monkeypatch, cfg):
        """The table sampler that lyapunov_spectrum(cfg) builds, and its result."""
        built = []
        real = lz.simulate.step_table

        def spy(sampler, rng):
            built.append(real(sampler, rng))
            return built[-1]

        monkeypatch.setattr(lz.simulate, "step_table", spy)
        result = lyapunov_spectrum(cfg)
        monkeypatch.undo()
        assert len(built) == 1
        return built[0], result

    def test_table_stream_is_the_first_child_of_the_master_seed(self, monkeypatch):
        # SeedSequence(42).spawn(1)[0] has spawn_key (0,); default_rng(42)
        # draws what default_rng([42, 0]), trial 0's stream, draws
        table, _ = self.run_table(monkeypatch, quick(su(2, 1), steps=200, trials=2))
        sampler = lz.lie_algebra_basis(su(2, 1))
        child = np.random.SeedSequence(42).spawn(1)[0]
        assert child.spawn_key == (0,)
        want = lz.matrices.step_table(sampler, np.random.default_rng(child)).table
        assert same_bits(table.table, want)
        for seed in (42, [42], [42, 0]):
            other = lz.matrices.step_table(sampler, np.random.default_rng(seed)).table
            assert not np.array_equal(other, want)

    @pytest.mark.parametrize("form", [su(2, 1), su(3, 1), so_star(3), sp(2), so_split(5),
                                      su(5, 1)], ids=lambda f: f.label())
    def test_rows_m_on_are_the_inverses(self, form):
        sampler = lz.matrices.step_table(lz.lie_algebra_basis(form), np.random.default_rng(3))
        m = lz.matrices._TABLE_PAIRS
        assert sampler.table.shape == (2 * m,) + (form.matrix_dim,) * 2
        eye = np.eye(form.matrix_dim)
        assert np.abs(sampler.table[m:] @ sampler.table[:m] - eye).max() < 1e-13
        assert np.abs(sampler.table[:m] @ sampler.table[m:] - eye).max() < 1e-13

    @pytest.mark.parametrize("pairs", [10, 1, 0], ids=["10", "1", "under-one"])
    def test_byte_cap_sizes_the_table(self, pairs, monkeypatch):
        # m = min(256, _TABLE_BYTES // (2 d^2 itemsize)), and at least one
        sampler = lz.lie_algebra_basis(su(3, 1))
        monkeypatch.setattr(lz.matrices, "_TABLE_BYTES", pairs * 2 * 16 * 16 + 100)
        table = lz.matrices.step_table(sampler, np.random.default_rng(0)).table
        assert len(table) == 2 * max(1, pairs)

    def test_a_step_is_one_index_draw(self):
        sampler = lz.matrices.step_table(lz.lie_algebra_basis(sp(2)), np.random.default_rng(0))
        got = lz.sample_group_elements(sampler, np.random.default_rng(9), 1001)
        idx = np.random.default_rng(9).integers(0, 2 * lz.matrices._TABLE_PAIRS, 1001)
        assert same_bits(got, sampler.table[idx])

    def test_sample_form_error_is_the_tables(self, monkeypatch):
        sampler, result = self.run_table(monkeypatch, quick(so_star(3), steps=2000, trials=2))
        want = lz.simulate._max_form_error(sampler, sampler.table)
        assert result.max_sample_form_error == want and 0 < want < 1e-13

    @pytest.mark.parametrize("form", [su(3, 1), sp(2)], ids=lambda f: f.label())
    def test_odd_chunks_do_not_change_the_bits(self, form, monkeypatch):
        # at renorm 5 a chunk of 201 blocks draws an odd count of indices;
        # numpy keeps the unused half of the last 64-bit word for the next
        # chunk's first draw, as one unchunked draw would use it
        runs = []
        for chunk in (3000, 1005):
            chunk_steps(monkeypatch, form, 3, chunk, interval=5)
            result = lyapunov_spectrum(quick(form, steps=3000, trials=3, renorm_interval=5))
            runs.append(np.array(result.trial_exponents))
        assert same_bits(runs[0], runs[1])


class TestDerivedInterval:
    @pytest.mark.parametrize("form,k", [(su(2, 1), None), (sp(2), None), (so_split(5), None),
                                        (su(3, 1), 2), (su(5, 1), 3), (so_star(3), 3)],
                             ids=label)
    def test_rule_reads_the_two_norms_of_the_table(self, form, k):
        # clamp(floor(budget / mean log ||g||_2), 1, 50) over all 2m rows, with
        # diag(g, Lambda^k g) for exterior_consistency_check: the inverses
        # in rows m on change no norm
        table = table_sampler(form, seed=3).table
        matrices = table if k is None else lz.simulate._direct_sum(table, k)
        lam = np.log(np.linalg.norm(matrices, 2, axis=(-2, -1))).mean()
        want = min(50, max(1, int(lz.simulate._RENORM_BUDGET // lam)))
        assert lz.simulate._derived_interval(table, k) == want
        assert 1 < want < 50

    def test_scale_zero_takes_the_longest_interval(self):
        res = lyapunov_spectrum(SimConfig(form=sp(2), steps=100, trials=2, scale=0.0))
        assert res.renorm_interval_used == 50

    def test_large_steps_take_interval_one(self):
        # sp(2,R) at scale 5 broke the sum rule at intervals 10 and 5
        res = lyapunov_spectrum(SimConfig(form=sp(1), steps=2000, trials=2, scale=5.0))
        assert res.renorm_interval_used == 1
        assert abs(sum(res.trial_exponents[0])) < 1e-3 * lz.simulate._SUM_RULE_TOL

    def test_explicit_interval_wins(self, monkeypatch):
        def derived_too(*args):
            raise AssertionError("an explicit interval was derived")

        monkeypatch.setattr(lz.simulate, "_derived_interval", derived_too)
        res = lyapunov_spectrum(quick(su(2, 1), steps=2000, trials=2, renorm_interval=7))
        assert res.renorm_interval_used == 7 and res.config.renorm_interval == 7

    @pytest.mark.parametrize("form", [su(3, 1), so_split(5)], ids=lambda f: f.label())
    def test_interval_depends_on_the_table_alone(self, form):
        want = derived(form)
        for steps, trials in ((200, 2), (5000, 2), (200, 1), (200, 8)):
            res = lyapunov_spectrum(quick(form, steps=steps, trials=trials))
            assert res.renorm_interval_used == want, (steps, trials)
            assert res.config.renorm_interval == want
        chk = exterior_consistency_check(quick(form, steps=200, trials=2), 2)
        assert chk.renorm_interval_used == derived(form, k=2)

    @pytest.mark.parametrize("form", [su(2, 1), sp(2)], ids=lambda f: f.label())
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, form, monkeypatch):
        # every block of a 3000-step run, and its |diag R|, is the block of a
        # 6000-step run on the same seed, bit for bit: same table, interval
        # and streams
        real = lz.simulate._qr_step

        def run(steps):
            seen = []

            def spy(B, Q, out):
                Q = real(B, Q, out)
                seen.append((B.copy(), out.copy()))
                return Q

            monkeypatch.setattr(lz.simulate, "_qr_step", spy)
            res = lyapunov_spectrum(quick(form, steps=steps, trials=3))
            return res.renorm_interval_used, seen

        (r3, short), (r6, long) = run(3000), run(6000)
        assert r3 == r6
        whole = 3000 // r3   # a shorter tail block may follow
        assert len(short) == -(-3000 // r3) and len(long) == -(-6000 // r6)
        for (a, da), (b, db) in zip(short[:whole], long[:whole]):
            assert same_bits(a, b) and same_bits(da, db)


class TestChunkMemory:
    def test_peak_stays_within_the_lifted_table_and_a_few_budgets(self):
        # su(8,8) at 30,000 steps x 2 trials, at its derived interval 6,
        # folds 5,000 blocks in 157 chunks of 32 (2^18 bytes). Its table
        # (2 MiB) and lift (4 MiB) are held all run; the draw batch, the
        # block array, the fold's buffers, a slice of gathered steps and the
        # form check's slices stay within a few budgets on top
        form = su(8, 8)
        table = table_sampler(form).table
        peak = traced_peak(SimConfig(form=form, steps=30_000, trials=2))
        assert peak <= table.nbytes + lift(table).nbytes + 8 * lz._expm._BLOCK_BYTES

    def test_peak_does_not_grow_with_the_steps(self):
        # every array that a run holds is sized by the byte budget, not by
        # the steps: ten times the steps, 70 chunks of 288 steps for 7,
        # may cost a few small objects more
        form, trials = su(4, 4), 8
        short, long = (traced_peak(quick(form, steps=steps, trials=trials))
                       for steps in (2000, 20_000))
        assert long - short < 2 ** 15

    def test_several_chunks_peak_no_higher_than_one(self, monkeypatch):
        # the block array, 680 KB here, the draw batch and the fold's
        # buffers are held once per run, and each chunk fills a prefix of
        # them. Only the trials' frames, which a one-chunk run has not
        # formed while it samples, and a few KB of small objects come on top.
        form, trials = su(4, 4), 12
        chunk_steps(monkeypatch, form, trials, 500)
        one, several = (traced_peak(quick(form, steps=steps, trials=trials))
                        for steps in (500, 1500))
        frames = trials * form.matrix_dim ** 2 * 16
        assert several <= one + frames + 2 ** 15


class TestEstimateLyapunovVector:
    def test_su21(self):
        res = lyapunov_spectrum(quick(su(2, 1)))
        lam = estimate_lyapunov_vector(su(2, 1), res.complex_exponents)
        assert len(lam) == 1
        assert abs(lam.values[0] - res.exponents[0]) < 1e-12

    def test_so_star(self):
        res = lyapunov_spectrum(quick(so_star(3)))
        lam = estimate_lyapunov_vector(so_star(3), res.complex_exponents)
        top4 = res.exponents[:4]
        assert abs(lam.values[0] - sum(top4) / 4) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            estimate_lyapunov_vector(su(2, 1), (1.0, 0.5))


class TestVerifyPrediction:
    def test_match_su21(self):
        cfg = quick(su(2, 1))
        report = verify_prediction(cfg, predict(cfg.form, cfg.rep))
        assert report.verdict == "match"
        assert report.result.verdict == "match"
        assert report.lambda_hat is not None

    @pytest.mark.parametrize("form,steps,interval,seed,zeros", [
        (su(12, 4), 3000, 10, 1, 16), (so_star(9), 2000, 10, 1, 4), (su(3, 1), 5000, 25, 2, 4),
    ], ids=["su(12,4)", "so*(18)", "su(3,1)-renorm-25"])
    def test_zero_band_is_read_off_the_unprojected_means(self, form, steps, interval, seed,
                                                         zeros):
        # the sum-zero projection shifts every mean alike, here by more than
        # the 1e-12 floor that exact zeros are read under; classified on the
        # projected means, each run said "zero cluster size 0"
        cfg = quick(form, steps=steps, trials=8, master_seed=seed, renorm_interval=interval)
        report = verify_prediction(cfg, predict(form, cfg.rep))
        assert report.verdict == "match", report.details
        cluster = report.result.zero_cluster
        assert cluster.size == zeros
        band = report.result.exponents[cluster.start:cluster.stop]
        raw = np.array(report.result.trial_exponents).mean(axis=0)[cluster.start:cluster.stop]
        shift = abs(band[0] - raw[0])
        assert shift > 1e-12 and np.abs(raw).max() < 1e-12

    def test_negative_control(self):
        cfg = quick(su(2, 1))
        pred = predict(cfg.form, cfg.rep)
        bad = dataclasses.replace(pred, zero_count_real=pred.zero_count_real + 2,
                                  real_dim=pred.real_dim + 2)
        report = verify_prediction(cfg, bad)
        assert report.verdict == "mismatch"

    def test_pair_mismatch_rejected(self):
        cfg = quick(su(2, 1))
        with pytest.raises(ParameterError):
            verify_prediction(cfg, predict(su(3, 1), RepSpec.standard()))

    def test_inconclusive_on_zero_scale(self):
        cfg = SimConfig(form=su(2, 1), steps=200, trials=2, scale=0.0)
        report = verify_prediction(cfg, predict(cfg.form, cfg.rep))
        assert report.verdict == "inconclusive"

    def test_record_shape(self):
        import json
        cfg = quick(su(1, 1), steps=2000, trials=2)
        report = verify_prediction(cfg, predict(cfg.form, cfg.rep))
        rec = report.as_record()
        assert json.loads(json.dumps(rec)) == rec

    def test_size_warning_names_the_callers_line(self, monkeypatch):
        # raised inside lyapunov_spectrum, two library frames below this one
        monkeypatch.setattr(lz.simulate, "EXTERIOR_WEIGHT_LIMIT", 1)
        cfg = quick(su(3, 1), RepSpec.exterior(2), steps=200)
        with pytest.warns(RuntimeWarning, match="6 subset sums") as records:
            verify_prediction(cfg, predict(cfg.form, cfg.rep))
        assert [r.filename for r in records] == [__file__]

    def test_expected_spectrum_is_read_off_the_prediction(self, monkeypatch):
        cfg = quick(su(3, 1), RepSpec.exterior(2), steps=200, trials=2)
        pred = predict(cfg.form, cfg.rep)

        def recomputed(*args):
            raise AssertionError("verify_prediction recomputed the restricted weights")

        monkeypatch.setattr(lz.prediction, "weights_restricted", recomputed)
        report = verify_prediction(cfg, pred)
        monkeypatch.undo()
        assert report.expected_exponents is not None
        assert list(report.expected_exponents) == lz.evaluate_spectrum(
            lz.realified_weights(cfg.form, cfg.rep), report.lambda_hat)


class TestExteriorConsistency:
    def test_k1_identity(self):
        chk = exterior_consistency_check(quick(su(2, 1), steps=5000, trials=2), 1)
        assert chk.matched
        assert np.allclose(chk.subset_sums, chk.standard_result)

    def test_top_power_determinant(self):
        chk = exterior_consistency_check(quick(su(2, 1), steps=5000, trials=2), 3)
        assert len(chk.direct) == 1
        assert abs(chk.direct[0]) < 1e-8

    def test_sp_matches(self):
        chk = exterior_consistency_check(quick(sp(2), steps=5000, trials=8, master_seed=1), 2)
        assert chk.matched
        assert len(chk.direct) == 6

    def test_direct_run_is_a_compound_run(self, monkeypatch):
        # the check must not go through the k-subset-sum path of ext:k runs,
        # which would compare the subset sums with themselves
        matrices = []
        real = lz.simulate.exterior_power_matrix

        def spy(M, k):
            matrices.append(M.size // M.shape[-1] ** 2)
            return real(M, k)

        monkeypatch.setattr(lz.simulate, "exterior_power_matrix", spy)
        cfg = quick(su(3, 1), steps=5000, trials=4)
        chk = exterior_consistency_check(cfg, 2)
        assert sum(matrices) >= cfg.trials * cfg.steps // chk.renorm_interval_used
        assert chk.direct != chk.subset_sums
        assert chk.matched
        assert all(abs(s - d) <= t for s, d, t in
                   zip(chk.subset_sums, chk.direct, chk.tolerances))

    def test_samples_each_chunk_once(self, monkeypatch):
        # one run of g + Lambda^k g: the standard and compound summands share
        # every sample, so each chunk's draws of all trials fold once
        chunk_steps(monkeypatch, su(3, 1), 3, 1000, 10)
        calls = []
        real = lz.simulate._fold_blocks

        def spy(table, idx, interval, out, buffers=None):
            calls.append(idx.shape)
            return real(table, idx, interval, out, buffers)

        monkeypatch.setattr(lz.simulate, "_fold_blocks", spy)
        cfg = quick(su(3, 1), steps=3000, trials=3, renorm_interval=10)
        chk = exterior_consistency_check(cfg, 2)
        assert chk.matched
        assert calls == [(1000, 3)] * 3

    def test_large_check_warns_before_sampling(self, monkeypatch):
        # su(6,6) k=6 forms dense frames of (12 + C(12,6))^2 = 876,096 entries;
        # su(5,5) k=5 (68,644) and su(5,1) k=3 (676) stay below the limit
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(lz.simulate, "_run_with_retry", sampled)
        with pytest.warns(RuntimeWarning, match="876,096 entries per trial"):
            with pytest.raises(Sampled):
                exterior_consistency_check(quick(su(6, 6)), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form, k in ((su(5, 5), 5), (su(5, 1), 3)):
                with pytest.raises(Sampled):
                    exterior_consistency_check(quick(form), k)

    @pytest.mark.parametrize("form,k", [(su(2, 1), 0), (su(2, 1), 5), (su(2, 1), -1),
                                        (su(200, 200), 500)],
                             ids=lambda x: x.label() if hasattr(x, "label") else str(x))
    def test_degree_is_checked_before_sampling(self, form, k, monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before checking k")

        monkeypatch.setattr(lz.simulate, "_run_with_retry", sampled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"exterior degree {k} out of range"):
                exterior_consistency_check(quick(form), k)

    def test_sum_rule_gates_each_summand(self, monkeypatch):
        # shifting the standard and the compound summand by opposite amounts
        # keeps each trial's row total but breaks both summands' sum rules
        real = lz.simulate._run_lockstep

        def shifted(sampler, steps, warmup, interval, rngs, rep=None):
            per_trial, *rest = real(sampler, steps, warmup, interval, rngs, rep)
            d = sampler.matrix_dim
            per_trial[:, 0] += 1e-3
            per_trial[:, d] -= 1e-3
            return (per_trial, *rest)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", shifted)
        with pytest.raises(NumericalError, match="sum rule"):
            exterior_consistency_check(quick(su(3, 1), steps=2000, trials=2), 2)

    def test_overflow_reruns_the_whole_check_at_half_interval(self, monkeypatch):
        intervals = []
        real = lz.simulate._run_lockstep

        def flaky(sampler, steps, warmup, interval, rngs, rep=None):
            intervals.append(interval)
            if interval == 10:
                raise lz.simulate._CocycleOverflow("forced")
            return real(sampler, steps, warmup, interval, rngs, rep)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", flaky)
        chk = exterior_consistency_check(quick(su(3, 1), steps=2000, trials=2,
                                               renorm_interval=10), 2)
        assert intervals == [10, 5]
        assert chk.renorm_interval_used == 5 and chk.matched
        assert chk.as_record()["renorm_interval_used"] == 5

    def test_spin_message_text(self):
        assert _SPIN_MESSAGE == ("unsupported: spin representations are "
                                 "weight-combinatorics only")

import concurrent.futures
import dataclasses
import os
import threading
import warnings
from itertools import combinations

import numpy as np
import pytest

import lyapzeros as lz
from lyapzeros import (NumericalError, ParameterError, RepSpec, SimConfig,
                       UnsupportedFeatureError, classify_zero_cluster,
                       estimate_lyapunov_vector, exterior_consistency_check,
                       lyapunov_spectrum, predict, so_split, so_star, sp, su,
                       verify_prediction)
from lyapzeros.simulate import _SPIN_MESSAGE, _block_bounds, _fold_blocks


def quick(form, rep=RepSpec.standard(), **kw):
    defaults = dict(steps=20_000, trials=4, master_seed=42)
    defaults.update(kw)
    return SimConfig(form=form, rep=rep, **defaults)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(form=su(2, 1))
        assert cfg.steps == 100_000 and cfg.trials == 8
        assert cfg.renorm_interval == 10 and cfg.scale == 0.3
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
    def test_block_bounds_cover(self):
        bounds = _block_bounds(105, 10, 40)
        assert bounds[0] == (0, 40)
        assert bounds[-1][1] == 105
        assert [hi - lo for lo, hi in bounds] == [40, 40, 25]

    def test_fold_blocks_product_order(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((7, 3, 3))
        B = _fold_blocks(G, 3)
        assert B.shape == (3, 3, 3)
        assert np.allclose(B[0], G[2] @ G[1] @ G[0])
        assert np.allclose(B[2], G[6])
        # a complex stack goes through the real-GEMM products
        sampler = lz.lie_algebra_basis(su(3, 1))
        G = lz.sample_group_elements(sampler, rng, 7)
        B = _fold_blocks(G, 3)
        assert B.shape == (3, 4, 4) and B.dtype == G.dtype
        for got, want in zip(B, (G[2] @ G[1] @ G[0], G[5] @ G[4] @ G[3], G[6])):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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

    def test_exterior_needs_su_or_so_star(self):
        with pytest.raises(UnsupportedFeatureError):
            lyapunov_spectrum(quick(sp(2), RepSpec.exterior(2)))

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

    def test_overflow_reported(self):
        with pytest.raises(NumericalError):
            lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=1,
                                        scale=700.0, renorm_interval=1))

    def test_overflow_retry_halves_interval(self, monkeypatch):
        calls = []
        real = lz.simulate._run_lockstep

        def flaky(sampler, steps, warmup, interval, rngs, rep=None):
            calls.append(interval)
            if interval == 10:
                raise lz.simulate._CocycleOverflow("forced")
            return real(sampler, steps, warmup, interval, rngs, rep)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", flaky)
        res = lyapunov_spectrum(SimConfig(form=sp(1), steps=1000, trials=2))
        assert res.renorm_interval_used == 5
        assert 10 in calls and 5 in calls


    @pytest.mark.parametrize("rep", [RepSpec.standard(), RepSpec.exterior(2)],
                             ids=lambda r: r.label())
    def test_trials_run_independently(self, rep, monkeypatch):
        # trial j's stream and arithmetic do not depend on the other trials;
        # short chunks make streams shared across trials show
        monkeypatch.setattr(lz.simulate, "_CHUNK_TARGET", 1000)
        two = lyapunov_spectrum(quick(su(3, 1), rep, steps=3000, trials=2))
        three = lyapunov_spectrum(quick(su(3, 1), rep, steps=3000, trials=3))
        for a, b in zip(two.trial_exponents, three.trial_exponents[:2]):
            assert sorted(a) == sorted(b)

    @pytest.mark.parametrize("scale", [5.0, 2.0])
    def test_sum_rule_gate(self, scale):
        # SL(2,R) blocks this large lose precision in the QR scheme: the
        # estimates ran to (3.83, 0.11) at scale 5 and summed to 0.047 at
        # scale 2, where healthy runs sum to about 1e-15
        with pytest.raises(NumericalError, match="sum rule") as info:
            lyapunov_spectrum(SimConfig(form=sp(1), steps=2000, trials=2, scale=scale))
        diag = info.value.diagnostics
        assert set(diag) == {"trial", "sum", "threshold"}
        assert abs(diag["sum"]) > diag["threshold"]

    def test_healthy_run_is_not_retried(self, monkeypatch):
        intervals = []
        real = lz.simulate._run_lockstep

        def spy(sampler, steps, warmup, interval, rngs, rep=None):
            intervals.append(interval)
            return real(sampler, steps, warmup, interval, rngs, rep)

        monkeypatch.setattr(lz.simulate, "_run_lockstep", spy)
        res = lyapunov_spectrum(quick(su(3, 1), RepSpec.exterior(2), steps=3000, trials=2))
        assert intervals == [10] and res.renorm_interval_used == 10

    def test_healthy_sums_are_far_below_the_gate(self):
        res = lyapunov_spectrum(quick(su(5, 1), RepSpec.exterior(3), steps=5000, trials=2))
        for row in res.trial_exponents:
            # realified rows count each complex exponent twice
            assert abs(sum(row)) < 1e-3 * lz.simulate._SUM_RULE_TOL


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestTrialThreads:
    @pytest.fixture
    def pools(self, monkeypatch):
        made = []
        real = concurrent.futures.ThreadPoolExecutor

        def counting(workers):
            made.append(workers)
            return real(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        return made

    @staticmethod
    def bits(result):
        record = result.as_record()
        record.pop("elapsed_seconds", None)
        return np.array(result.trial_exponents), record

    @pytest.mark.parametrize("form", [su(3, 1), sp(2)], ids=lambda f: f.label())
    def test_thread_count_does_not_change_the_bits(self, form, monkeypatch, pools):
        monkeypatch.setattr(lz.simulate, "_CHUNK_TARGET", 1000)   # three chunks
        runs = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            runs.append(self.bits(lyapunov_spectrum(quick(form, steps=3000, trials=3))))
        assert pools == [2]
        (serial, serial_record), (threaded, threaded_record) = runs
        assert np.array_equal(serial, threaded)
        assert serial_record == threaded_record

    def test_thread_count_does_not_change_the_direct_sum_run(self, monkeypatch, pools):
        records = []
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            chk = exterior_consistency_check(quick(su(3, 1), steps=3000, trials=3), 2)
            records.append(chk.as_record())
        assert pools == [2]
        assert records[0] == records[1]

    def test_one_cpu_runs_without_a_pool(self, monkeypatch):
        def refused(workers):
            raise AssertionError("a one-CPU run created a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        usable_cpus(monkeypatch, 1)
        res = lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2))
        assert res.zero_cluster.status == "ok"

    @pytest.mark.parametrize("cpu_count,workers", [(None, 1), (1, 1), (8, 2)])
    def test_cpu_count_without_affinity(self, cpu_count, workers, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert lz.simulate._worker_count(8) == workers
        assert lz.simulate._worker_count(1) == 1

    def test_no_thread_outlives_a_run(self, monkeypatch, pools):
        usable_cpus(monkeypatch, 2)
        baseline = threading.active_count()
        lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2))
        assert threading.active_count() == baseline
        # an element overflows in a worker (test_overflow_reported's data)
        with pytest.raises(NumericalError, match="overflowed"):
            lyapunov_spectrum(SimConfig(form=sp(1), steps=200, trials=2,
                                        scale=700.0, renorm_interval=1))
        assert threading.active_count() == baseline
        # a degenerate QR factor, a retry at half the interval, then the sum rule
        with pytest.raises(NumericalError, match="sum rule"):
            lyapunov_spectrum(quick(su(3, 1), steps=2000, trials=2, scale=5.0))
        assert threading.active_count() == baseline
        assert pools == [2] * 4


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


class TestExteriorConsistency:
    def test_k1_identity(self):
        chk = exterior_consistency_check(quick(su(2, 1), steps=5000, trials=2), 1)
        assert chk.matched
        assert np.allclose(chk.subset_sums, chk.standard_result)

    def test_top_power_determinant(self):
        chk = exterior_consistency_check(quick(su(2, 1), steps=5000, trials=2), 3)
        assert len(chk.direct) == 1
        assert abs(chk.direct[0]) < 1e-8

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFeatureError):
            exterior_consistency_check(quick(sp(2)), 2)

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
        assert sum(matrices) >= cfg.trials * cfg.steps // cfg.renorm_interval
        assert chk.direct != chk.subset_sums
        assert chk.matched
        assert all(abs(s - d) <= t for s, d, t in
                   zip(chk.subset_sums, chk.direct, chk.tolerances))

    def test_samples_each_chunk_once(self, monkeypatch):
        # one run of g + Lambda^k g: the standard and compound summands share
        # every sample, so each trial draws each of its chunks once
        monkeypatch.setattr(lz.simulate, "_CHUNK_TARGET", 1000)
        calls = []
        real = lz.simulate.sample_group_elements

        def spy(sampler, rng, count):
            calls.append(count)
            return real(sampler, rng, count)

        monkeypatch.setattr(lz.simulate, "sample_group_elements", spy)
        cfg = quick(su(3, 1), steps=3000, trials=3)
        chk = exterior_consistency_check(cfg, 2)
        assert chk.matched
        assert calls == [1000] * (3 * 3)

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
        chk = exterior_consistency_check(quick(su(3, 1), steps=2000, trials=2), 2)
        assert intervals == [10, 5]
        assert chk.renorm_interval_used == 5 and chk.matched
        assert chk.as_record()["renorm_interval_used"] == 5

    def test_spin_message_text(self):
        assert _SPIN_MESSAGE == ("unsupported: spin representations are "
                                 "weight-combinatorics only")

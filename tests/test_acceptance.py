"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The simulation pairs
share a session-cached set of runs at the pinned configuration
(steps=100000, trials=8, seed=42, defaults elsewhere).
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

import lyapzeros as lz
from lyapzeros import (RepSpec, binomial, evaluate_spectrum, hodge_admissible,
                       predict, predicted_zero_count, realified_weights,
                       so_split, so_star, sp, su, su_exterior_zero_multiplicity,
                       su_p1_exterior_signature, weights_restricted)
from lyapzeros.cli import _admissible_rows

from conftest import ACCEPTANCE_PAIRS


def _report(n, message):
    print(f"[criterion {n}] PASS - {message}")


def test_criterion_1_combinatorial_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for total in range(2, 9):
        for q in range(1, total // 2 + 1):
            p = total - q
            for k in range(1, total + 1):
                brute = 0
                for subset in combinations(range(1, total + 1), k):
                    chosen = set(subset)
                    image = [0] * q
                    for i in chosen:
                        if i <= q:
                            image[i - 1] += 1
                        elif i > total - q:
                            image[total - i] -= 1
                    if all(c == 0 for c in image):
                        brute += 1
                closed = sum(binomial(q, a) * binomial(p - q, k - 2 * a)
                             for a in range(q + 1))
                assert closed == brute, (p, q, k)
                assert closed == su_exterior_zero_multiplicity(p, q, k)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"closed form == brute force on {checked} (p,q,k) triples "
               f"in {elapsed:.2f}s")


def test_criterion_2_reference_value_reproduction():
    # su(p,q) standard zero counts on the grid p+q <= 10
    for total in range(2, 11):
        for q in range(1, total // 2 + 1):
            p = total - q
            assert predicted_zero_count(su(p, q), RepSpec.standard()) == 2 * (p - q)
    # su(3,1) second exterior power
    pred = predict(su(3, 1), RepSpec.exterior(2))
    assert pred.zero_count_real == 4
    assert pred.signature == (3, 3)
    assert pred.definite_split == (2, 2)
    # su(p,1) exterior signatures for p <= 8
    for p in range(1, 9):
        for k in range(1, p + 2):
            assert su_p1_exterior_signature(p, k) == (binomial(p, k), binomial(p, k - 1))
    # so*(2n) standard zero counts for n <= 8
    for n in range(2, 9):
        want = 4 if n % 2 == 1 else 0
        assert predicted_zero_count(so_star(n), RepSpec.standard()) == want
    # spin restricted multiplicities with no zero weight
    for n in range(2, 9):
        ms = weights_restricted(so_split(2 * n - 1), RepSpec.spin())
        assert ms.zero_multiplicity() == 0
        assert all(m == 2 ** (n - 2) for _, m in ms.items())
    for n in range(3, 9):
        for sign in "+-":
            ms = weights_restricted(so_split(2 * n - 2), RepSpec.half_spin(sign))
            assert ms.zero_multiplicity() == 0
            assert all(m == 2 ** (n - 3) for _, m in ms.items())
    # second fundamental form rank bounds
    for total in range(2, 11):
        for q in range(1, total // 2 + 1):
            p = total - q
            assert lz.sigma_rank_bound(su(p, q), RepSpec.standard()) == 2 * min(p, q)
    for n in range(2, 9):
        want = 2 * n - 2 if n % 2 == 1 else 2 * n
        assert lz.sigma_rank_bound(so_star(n), RepSpec.standard()) == want
    _report(2, "standard/exterior/spin counts, signatures, splits, rank bounds")


def _expected_admissible_table(max_dim):
    """Independent enumeration of the admissible pairs with real_dim <= max_dim."""
    rows = set()
    for p in range(1, max_dim):
        for q in range(1, p + 1):
            if 2 * (p + q) <= max_dim:
                rows.add((f"su({p},{q})", "standard", 2 * (p + q)))
    for p in range(2, max_dim):
        for k in range(2, p + 1):
            dim = 2 * math.comb(p + 1, k)
            if dim <= max_dim:
                rows.add((f"su({p},1)", f"ext:{k}", dim))
    for g in range(1, max_dim // 2 + 1):
        rows.add((f"sp({2 * g},R)", "standard", 2 * g))
    n = 2
    while 4 * n <= max_dim:
        rows.add((f"so*({2 * n})", "standard", 4 * n))
        n += 1
    n = 2
    while 2 ** n <= max_dim:
        rows.add((f"so({2 * n - 1},2)", "spin", 2 ** n))
        n += 1
    n = 3
    while 2 ** (n - 1) <= max_dim:
        rows.add((f"so({2 * n - 2},2)", "half-spin:+", 2 ** (n - 1)))
        rows.add((f"so({2 * n - 2},2)", "half-spin:-", 2 ** (n - 1)))
        n += 1
    return rows


def test_criterion_3_hodge_classification_table():
    got = {(r["form"], r["rep"], r["real_dim"]) for r in _admissible_rows(24)}
    assert got == _expected_admissible_table(24)
    # the negative case on the same grid: q >= 2 exterior powers are out
    negatives = 0
    for p in range(2, 12):
        for q in range(2, p + 1):
            for k in range(2, p + q):
                if 2 * binomial(p + q, k) <= 24:
                    ok, reason = hodge_admissible(su(p, q), RepSpec.exterior(k))
                    assert not ok and "q = 1" in reason
                    negatives += 1
    assert negatives > 0
    _report(3, f"{len(got)} admissible rows at real_dim <= 24; "
               f"{negatives} q>=2 exterior pairs correctly rejected")


def test_criterion_4_simulation_verdicts(acceptance_runs):
    t0 = time.perf_counter()
    sizes = {}
    for form, rep, want in ACCEPTANCE_PAIRS:
        res = acceptance_runs(form, rep)
        zc = res.zero_cluster
        assert zc.status == "ok", (form.label(), rep.label(), zc.reason)
        assert zc.size == want, (form.label(), rep.label(), zc.size, want)
        sizes[(form.label(), rep.label())] = zc.size
    # su(3,1) ext:2 nonzero exponents group as +-lambda_1, four each
    res = acceptance_runs(su(3, 1), RepSpec.exterior(2))
    assert len(res.exponents) == 12
    top4 = res.exponents[:4]
    bot4 = res.exponents[-4:]
    se = res.stderr
    for i in range(4):
        assert abs(top4[i] - np.mean(top4)) < 3 * se[i]
        assert abs(bot4[i] + np.mean(top4)) < 3 * (se[i] + se[-4 + i])
    # so(5,2) standard has structure {f1, f2, 0 x3, -f2, -f1} up to merging
    res = acceptance_runs(so_split(5), RepSpec.standard())
    assert len(res.exponents) == 7
    assert (res.zero_cluster.start, res.zero_cluster.stop) == (2, 5)
    gap = res.exponents[0] - res.exponents[1]
    assert gap > 3 * (res.stderr[0] + res.stderr[1])   # f1 and f2 are distinct
    # sp(4,R) has four distinct nonzero exponents
    res = acceptance_runs(sp(2), RepSpec.standard())
    for a, b in zip(res.exponents, res.exponents[1:]):
        assert a - b > 3 * (max(res.stderr))
    wall = time.perf_counter() - t0
    _report(4, f"zero clusters {sizes} (cached wall time {wall:.1f}s; "
               f"expected < 60s fresh on a laptop core)")


def test_criterion_5_exterior_consistency():
    cfg = lz.SimConfig(form=su(3, 1), rep=RepSpec.exterior(2))
    report = lz.exterior_consistency_check(cfg, 2)
    assert report.matched, report.max_deviation
    _report(5, f"su(3,1) wedge-2 subset sums match direct run "
               f"(max deviation {report.max_deviation:.2e})")


def test_criterion_6_kaimanovich_evaluation(acceptance_runs):
    worst = 0.0
    for form, rep, _ in ACCEPTANCE_PAIRS:
        res = acceptance_runs(form, rep)
        lam_hat = lz.estimate_lyapunov_vector(form, res.standard_exponents)
        expected = evaluate_spectrum(realified_weights(form, rep), lam_hat)
        lam_max = res.exponents[0]
        for sim, exp_v, se in zip(res.exponents, expected, res.stderr):
            tol = max(0.05 * lam_max, 3 * se)
            dev = abs(sim - exp_v)
            worst = max(worst, dev)
            assert dev <= tol, (form.label(), rep.label(), sim, exp_v, tol)
    _report(6, f"weight evaluation at estimated Lyapunov vectors reproduces "
               f"all six spectra (worst deviation {worst:.2e})")


def test_criterion_7_property_suites(acceptance_runs):
    # determinism: bit-identical reruns
    cfg = lz.SimConfig(form=su(2, 1), steps=20_000, trials=4, master_seed=42)
    a = lz.lyapunov_spectrum(cfg)
    b = lz.lyapunov_spectrum(cfg)
    assert a.exponents == b.exponents and a.trial_exponents == b.trial_exponents

    for form, rep, _ in ACCEPTANCE_PAIRS:
        res = acceptance_runs(form, rep)
        D = len(res.exponents)
        # antisymmetry within 3 * combined stderr
        for i in range(D):
            tol = 3 * (res.stderr[i] + res.stderr[D - 1 - i]) + 1e-12
            assert abs(res.exponents[i] + res.exponents[D - 1 - i]) < tol
        # complex pairing: realified exponents arrive in equal adjacent pairs
        if form.real_factor == 2:
            for i in range(0, D, 2):
                assert res.exponents[i] == res.exponents[i + 1]
        # form preservation at sampling time
        assert res.max_sample_form_error < 1e-10

    # fresh sampling check across every family
    for form in [su(2, 1), so_split(5), so_split(6), so_star(3), sp(2)]:
        sampler = lz.lie_algebra_basis(form)
        g = lz.sample_group_elements(sampler, np.random.default_rng(99), 10_000)
        from lyapzeros.realforms import form_preservation_errors
        for name, err in form_preservation_errors(sampler, g).items():
            assert err < 1e-10, (form.label(), name)

    # JSON round trip through the CLI surface
    import io
    from lyapzeros import cli
    buf = io.StringIO()
    code = cli.main(["predict", "--group", "su", "--p", "3", "--q", "1",
                     "--rep", "ext:2", "--format", "json"], out=buf)
    assert code == 0
    rec = json.loads(buf.getvalue())
    assert json.loads(json.dumps(rec)) == rec
    _report(7, "determinism, antisymmetry, pairing, form preservation, JSON round trip")

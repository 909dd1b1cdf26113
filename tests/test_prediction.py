import json
from itertools import combinations

import pytest

import lyapzeros as lz
from lyapzeros import (InternalError, LyapunovVector, ParameterError, RepSpec,
                       UnsupportedFeatureError, binomial, evaluate_spectrum,
                       hodge_admissible, predict,
                       predicted_counts, predicted_zero_count,
                       realified_weights, sigma_rank_bound, so_split, so_star,
                       sp, su,
                       su_exterior_zero_multiplicity, su_p1_exterior_signature,
                       su_p1_zero_block_split, weights_restricted)
from lyapzeros.prediction import su_zero_weight_parity_counts


def brute_force_zero_count(p, q, k):
    """Independent oracle: count k-subsets of e_1..e_{p+q} whose sum
    restricts to zero under e_i -> f_i, e_{p+q+1-i} -> -f_i (i <= q)."""
    n = p + q
    zero = 0
    for subset in combinations(range(1, n + 1), k):
        image = [0] * q
        for i in subset:
            if i <= q:
                image[i - 1] += 1
            elif i > n - q:
                image[n - i] -= 1
        if all(c == 0 for c in image):
            zero += 1
    return zero


def brute_force_parity_counts(p, q, k):
    """Independent oracle: zero-restricted k-subsets of e_1..e_{p+q}, split
    by the parity of the number of canceling pairs {i, p+q+1-i}, i <= q,
    that they contain whole."""
    n = p + q
    even = odd = 0
    for subset in combinations(range(1, n + 1), k):
        chosen = set(subset)
        if any((i in chosen) != (n + 1 - i in chosen) for i in range(1, q + 1)):
            continue
        pairs = sum(1 for i in range(1, q + 1) if i in chosen)
        if pairs % 2 == 0:
            even += 1
        else:
            odd += 1
    return even, odd


class TestZeroCounts:
    def test_su_standard(self):
        assert predicted_zero_count(su(3, 1), RepSpec.standard()) == 4
        assert predicted_zero_count(su(2, 2), RepSpec.standard()) == 0

    def test_su31_ext2(self):
        assert predicted_zero_count(su(3, 1), RepSpec.exterior(2)) == 4

    def test_su41_ext2(self):
        # brute force over all C(5,2)=10 pair sums gives 4 complex zeros
        assert brute_force_zero_count(4, 1, 2) == 4
        assert predicted_zero_count(su(4, 1), RepSpec.exterior(2)) == 8

    def test_so_star(self):
        assert predicted_zero_count(so_star(3), RepSpec.standard()) == 4
        assert predicted_zero_count(so_star(4), RepSpec.standard()) == 0

    def test_sp(self):
        assert predicted_zero_count(sp(2), RepSpec.standard()) == 0

    def test_so52_spin(self):
        assert predicted_zero_count(so_split(5), RepSpec.spin()) == 0

    STANDARD_FORMS = [su(1, 1), su(3, 1), su(5, 3), su(4, 4), so_star(2), so_star(3),
                      so_star(8), so_split(3), so_split(6), so_split(23), sp(1), sp(7)]

    @pytest.mark.parametrize("form", STANDARD_FORMS, ids=lambda f: f.label())
    def test_standard_counts_equal_predict(self, form):
        pred = predict(form, RepSpec.standard())
        assert predicted_counts(form, RepSpec.standard()) == \
            (pred.real_dim, pred.zero_count_real)

    @pytest.mark.parametrize("form", [su(3, 1), so_star(3), so_split(5)],
                             ids=lambda f: f.label())
    def test_standard_counts_cross_check_the_closed_form(self, form, monkeypatch):
        monkeypatch.setattr(lz.prediction, "_zero_count_closed_form", lambda f, r: 99)
        with pytest.raises(InternalError, match="closed form 99"):
            predicted_counts(form, RepSpec.standard())

    def test_closed_form_equals_enumeration_small_grid(self):
        for p in range(1, 6):
            for q in range(1, p + 1):
                for k in range(1, p + q + 1):
                    assert (su_exterior_zero_multiplicity(p, q, k)
                            == brute_force_zero_count(p, q, k))


class TestSignatureAndSplit:
    def test_su31_ext2(self):
        assert su_p1_exterior_signature(3, 2) == (3, 3)
        assert su_p1_zero_block_split(3, 2) == (2, 2)

    def test_standard_k1(self):
        for p in range(1, 7):
            assert su_p1_exterior_signature(p, 1) == (p, 1)
            assert su_p1_zero_block_split(p, 1) == (2 * (p - 1), 0)

    def test_derived_cases(self):
        # oracle: parity of canceling pairs
        assert su_zero_weight_parity_counts(4, 1, 3) == (binomial(3, 3), binomial(3, 1))
        assert su_p1_exterior_signature(4, 3) == (4, 6)
        assert su_zero_weight_parity_counts(4, 1, 2) == (3, 1)
        assert su_p1_zero_block_split(4, 2) == (6, 2)

    def test_parity_oracle_matches_closed_forms(self):
        for p in range(1, 8):
            for k in range(1, p + 2):
                even, odd = su_zero_weight_parity_counts(p, 1, k)
                assert (2 * even, 2 * odd) == (
                    su_p1_zero_block_split(p, k)[0], su_p1_zero_block_split(p, k)[1])

    def test_parity_closed_form_equals_enumeration(self):
        for p in range(1, 8):
            for q in range(1, p + 1):
                for k in range(1, p + q + 1):
                    assert su_zero_weight_parity_counts(p, q, k) == \
                        brute_force_parity_counts(p, q, k), (p, q, k)

    def test_signature_bookkeeping(self):
        for p in range(1, 9):
            for k in range(1, p + 2):
                pos, neg = su_p1_exterior_signature(p, k)
                assert pos + neg == binomial(p + 1, k)

    def test_split_sums_to_zero_count(self):
        for p in range(1, 9):
            for k in range(1, p + 2):
                pos, neg = su_p1_zero_block_split(p, k)
                assert pos + neg == predicted_zero_count(su(p, 1), RepSpec.exterior(k))

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            su_p1_exterior_signature(3, 0)
        with pytest.raises(ParameterError):
            su_p1_zero_block_split(3, 5)


class TestDimensionBookkeeping:
    def test_pascal_identity(self):
        for p in range(1, 13):
            for k in range(1, p + 2):
                assert binomial(p + 1, k) == (binomial(p - 1, k)
                                              + 2 * binomial(p - 1, k - 1)
                                              + binomial(p - 1, k - 2))

    def test_su_exterior_real_dims(self):
        for p in range(1, 7):
            for q in range(1, p + 1):
                for k in range(1, p + q + 1):
                    pred = predict(su(p, q), RepSpec.exterior(k))
                    assert pred.real_dim == 2 * binomial(p + q, k)

    def test_large_exterior_power_needs_no_enumeration(self):
        # 2.2e9 subsets: only a method polynomial in p+q and k returns at all
        pred = predict(su(32, 2), RepSpec.exterior(16))
        assert pred.zero_count_real == 2 * su_exterior_zero_multiplicity(32, 2, 16)
        assert pred.real_dim == 2 * binomial(34, 16)

    def test_su_p1_nonzero_real_count(self):
        for p in range(1, 9):
            for k in range(1, p + 2):
                pred = predict(su(p, 1), RepSpec.exterior(k))
                nonzero = sum(m for _, m in pred.nonzero_structure)
                assert nonzero == 4 * binomial(p - 1, k - 1)


class TestSigmaRank:
    def test_su_standard(self):
        assert sigma_rank_bound(su(3, 1), RepSpec.standard()) == 2
        assert sigma_rank_bound(su(4, 2), RepSpec.standard()) == 4

    def test_so_star(self):
        assert sigma_rank_bound(so_star(3), RepSpec.standard()) == 4
        assert sigma_rank_bound(so_star(4), RepSpec.standard()) == 8

    def test_su_p1_exterior_per_block(self):
        assert sigma_rank_bound(su(3, 1), RepSpec.exterior(2)) == 2
        pred = predict(su(3, 1), RepSpec.exterior(2))
        assert pred.sigma_rank_bound == 2
        assert pred.sigma_rank_total == 4

    def test_ext1_gets_the_standard_bound(self):
        for form, want in [(su(3, 1), 2), (su(3, 2), 4), (so_star(3), 4)]:
            assert sigma_rank_bound(form, RepSpec.exterior(1)) == want

    def test_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            sigma_rank_bound(sp(2), RepSpec.standard())
        with pytest.raises(UnsupportedFeatureError):
            sigma_rank_bound(su(3, 2), RepSpec.exterior(2))


class TestHodgeAdmissible:
    def test_examples(self):
        ok, reason = hodge_admissible(su(3, 2), RepSpec.exterior(2))
        assert not ok and "q = 1" in reason
        assert hodge_admissible(sp(3), RepSpec.standard())[0]
        ok, reason = hodge_admissible(so_split(5), RepSpec.standard())
        assert not ok and "spin" in reason

    def test_list_membership(self):
        assert hodge_admissible(su(4, 2), RepSpec.standard())[0]
        assert hodge_admissible(su(4, 1), RepSpec.exterior(3))[0]
        assert hodge_admissible(so_split(5), RepSpec.spin())[0]
        assert hodge_admissible(so_split(6), RepSpec.half_spin("+"))[0]
        assert hodge_admissible(so_split(6), RepSpec.half_spin("-"))[0]
        assert hodge_admissible(so_star(4), RepSpec.standard())[0]
        assert not hodge_admissible(so_star(4), RepSpec.half_spin("+"))[0]
        assert not hodge_admissible(sp(2), RepSpec.exterior(2))[0]

    def test_exterior_degree_one_is_standard(self):
        assert hodge_admissible(su(3, 2), RepSpec.exterior(1))[0]

    def test_trivial_top_power_excluded(self):
        ok, reason = hodge_admissible(su(3, 1), RepSpec.exterior(4))
        assert not ok and "trivial" in reason

    def test_total_on_grid(self):
        # decidable and total: no exceptions anywhere on the grid
        reps = [RepSpec.standard(), RepSpec.exterior(2), RepSpec.exterior(5),
                RepSpec.spin(), RepSpec.half_spin("+"), RepSpec.half_spin("-")]
        forms = []
        for s in range(2, 13):
            forms.extend(su(s - q, q) for q in range(1, s // 2 + 1))
        forms += [so_split(m) for m in range(3, 13)]
        forms += [so_star(n) for n in range(2, 13)]
        forms += [sp(g) for g in range(1, 13)]
        for form in forms:
            for rep in reps:
                verdict, reason = hodge_admissible(form, rep)
                assert isinstance(verdict, bool) and reason


class TestEvaluateSpectrum:
    def test_su21_standard(self):
        ms = weights_restricted(su(2, 1), RepSpec.standard())
        assert evaluate_spectrum(ms.scaled(2), (1.0,)) == [1, 1, 0, 0, -1, -1]

    def test_zero_vector(self):
        ms = weights_restricted(su(3, 1), RepSpec.exterior(2))
        assert evaluate_spectrum(ms, (0.0,)) == [0.0] * 6

    def test_su31_ext2(self):
        lam = 0.37
        ms = realified_weights(su(3, 1), RepSpec.exterior(2))
        spec = evaluate_spectrum(ms, (lam,))
        assert spec == [lam] * 4 + [0.0] * 4 + [-lam] * 4

    def test_antisymmetric(self):
        for form, rep in [(su(3, 2), RepSpec.exterior(2)), (sp(3), RepSpec.standard()),
                          (so_split(6), RepSpec.half_spin("+"))]:
            ms = weights_restricted(form, rep)
            lam = LyapunovVector(tuple(1.0 / (i + 2) for i in range(form.restricted_rank)))
            spec = evaluate_spectrum(ms, lam)
            assert spec == sorted((-x for x in spec), reverse=True)

    def test_dimension_mismatch(self):
        ms = weights_restricted(su(2, 2), RepSpec.standard())
        with pytest.raises(ParameterError):
            evaluate_spectrum(ms, (1.0,))


class TestLyapunovVector:
    def test_validation(self):
        LyapunovVector((1.0, 0.5, 0.0))
        with pytest.raises(ParameterError):
            LyapunovVector((0.5, 1.0))
        with pytest.raises(ParameterError):
            LyapunovVector((1.0, -0.5))
        with pytest.raises(ParameterError):
            LyapunovVector(())


class TestQuotientIndependence:
    def test_row_sums_vanish(self):
        # the su(p,q) restriction kills e_1 + ... + e_{p+q} exactly
        for p in range(1, 6):
            for q in range(1, p + 1):
                for row in lz.restriction_map(su(p, q)):
                    assert sum(row) == 0

    def test_shift_invariance(self):
        rows = lz.restriction_map(su(3, 2))
        restrict = lambda v: tuple(sum(r * c for r, c in zip(row, v)) for row in rows)
        shift = (1,) * 5   # c = 1/2 times the all-ones vector, doubled
        for i in range(5):
            e_i = tuple(2 * (j == i) for j in range(5))
            assert restrict(tuple(a + b for a, b in zip(e_i, shift))) == restrict(e_i)


class TestPredictAssembly:
    def test_record_is_json_clean(self):
        pred = predict(su(3, 1), RepSpec.exterior(2))
        rec = pred.as_record()
        assert json.loads(json.dumps(rec)) == rec
        assert rec["counting"] == "real = 2 x complex"

    @pytest.mark.parametrize("form", [su(3, 1), so_split(5), so_split(6), so_star(3), sp(2)],
                             ids=lambda f: f.label())
    def test_ext1_is_the_standard_representation(self, form):
        ext1 = predict(form, RepSpec.exterior(1)).as_record()
        standard = predict(form, RepSpec.standard()).as_record()
        assert ext1.pop("representation") == "ext:1"
        assert standard.pop("representation") == "standard"
        assert ext1 == standard

    def test_so_families_count_as_real(self):
        pred = predict(so_split(5), RepSpec.spin())
        assert pred.real_dim == 8
        assert pred.zero_count_real == pred.zero_count_complex == 0
        for _, m in pred.nonzero_structure:
            assert m == 2

    def test_bookkeeping_invariant(self):
        for form, rep in [(su(4, 2), RepSpec.exterior(3)), (so_star(5), RepSpec.standard()),
                          (so_split(7), RepSpec.spin()), (sp(4), RepSpec.standard())]:
            pred = predict(form, rep)
            assert pred.zero_count_real + sum(m for _, m in pred.nonzero_structure) == pred.real_dim
            if form.real_factor == 2:
                assert pred.zero_count_real % 2 == 0

    def test_nonzero_structure_negation_symmetric(self):
        pred = predict(su(4, 2), RepSpec.exterior(2))
        mults = {w: m for w, m in pred.nonzero_structure}
        for w, m in mults.items():
            assert mults[-w] == m

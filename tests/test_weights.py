from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapzeros import (ParameterError, RepSpec, Weight, WeightMultiset, binomial,
                       so_split, sp, su, weights_restricted)
from lyapzeros.weights import exterior_power


def W(*coords):
    return Weight(tuple(2 * c for c in coords))


def units(n, signs=(1,), zero=False):
    """sign * e_i for i < n and each sign, plus the zero weight if asked."""
    ws = [Weight.unit(n, i, sign) for sign in signs for i in range(n)]
    return WeightMultiset(ws + [Weight.zero(n)] * zero)


# standard weights of A_r (in r + 1 coordinates) and of B_r, C_r, D_r
STANDARD = {"A": lambda r: units(r + 1), "B": lambda r: units(r, (1, -1), zero=True),
            "C": lambda r: units(r, (1, -1)), "D": lambda r: units(r, (1, -1))}


def negation_closed(ms):
    return ms == WeightMultiset({-w: m for w, m in ms.items()})


class TestWeight:
    def test_half_integer_coords(self):
        w = Weight((1, -2))   # stored doubled: (1/2, -1)
        assert w.rank == 2
        assert str(w) == "1/2*f1 - f2"

    def test_rejects_thirds(self):
        with pytest.raises(ParameterError):
            Weight((Fraction(2, 3),))
        with pytest.raises(ParameterError):
            Weight((0.5,))

    def test_negation_and_addition(self):
        # weights are added only inside exterior_power, as k-fold sums
        assert -W(1, 0) == W(-1, 0)
        assert exterior_power(WeightMultiset([W(1, 0), W(0, 1)]), 2) == WeightMultiset([W(1, 1)])

    def test_evaluate(self):
        assert W(1, -1).evaluate([2.0, 0.5]) == 1.5
        assert Weight((1,)).evaluate([3.0]) == 1.5
        with pytest.raises(ParameterError):
            W(1, 0).evaluate([1.0])

    def test_str(self):
        assert str(W(0, 0)) == "0"
        assert str(W(1, 0)) == "f1"
        assert str(W(1, -1)) == "f1 - f2"
        assert str(W(2, 0)) == "2*f1"
        assert str(Weight((1, -1))) == "1/2*f1 - 1/2*f2"
        assert str(Weight((-3, 1))) == "-3/2*f1 + 1/2*f2"


class TestWeightMultiset:
    def test_counts_and_order(self):
        ms = WeightMultiset([W(0, 1), W(1, 0), W(0, 1)])
        assert ms.total() == 3
        assert ms.distinct() == 2
        # canonical order is descending lexicographic
        assert [w for w, _ in ms.items()] == [W(1, 0), W(0, 1)]
        assert ms.expand() == [W(1, 0), W(0, 1), W(0, 1)]

    def test_validation(self):
        with pytest.raises(ParameterError):
            WeightMultiset({W(1, 0): 0})
        with pytest.raises(ParameterError):
            WeightMultiset([])
        with pytest.raises(ParameterError):
            WeightMultiset([W(1, 0), W(1)])

    def test_scaled(self):
        ms = WeightMultiset([W(1, 0)]).scaled(4)
        assert ms.multiplicity(W(1, 0)) == 4
        with pytest.raises(ParameterError):
            ms.scaled(0)


class TestRepSpec:
    def test_parse_label_roundtrip(self):
        for text in ["standard", "ext:2", "spin", "half-spin:+", "half-spin:-"]:
            assert RepSpec.parse(text).label() == text

    def test_parse_errors(self):
        for text in ["ext:0", "ext:x", "half-spin:3", "adjoint"]:
            with pytest.raises(ParameterError):
                RepSpec.parse(text)


class TestBinomial:
    def test_values(self):
        assert binomial(4, 2) == 6
        assert binomial(3, 0) == 1
        assert binomial(5, 7) == 0
        assert binomial(5, -1) == 0
        with pytest.raises(ParameterError):
            binomial(-1, 0)

    def test_big_integers(self):
        assert binomial(100, 50) == binomial(99, 49) + binomial(99, 50)


class TestStandardWeights:
    # the restricted standard weights of split forms, whose restriction keeps
    # the first coordinates: so(3,2) is B2, sp(2,R) is C1
    def test_b2(self):
        ms = weights_restricted(so_split(3), RepSpec.standard())
        assert ms == WeightMultiset([W(1, 0), W(0, 1), W(0, 0), W(0, -1), W(-1, 0)])

    def test_c1(self):
        ms = weights_restricted(sp(1), RepSpec.standard())
        assert ms == WeightMultiset([W(1), W(-1)])

    def test_a3(self):
        ms = weights_restricted(su(2, 2), RepSpec.standard())
        assert ms.total() == 4
        assert ms.multiplicity(W(1, 0)) == 1

    def test_counts(self):
        for form, expect in [(su(3, 2), 5), (so_split(5), 7), (sp(3), 6), (so_split(6), 8)]:
            assert weights_restricted(form, RepSpec.standard()).total() == expect


class TestExteriorWeights:
    def test_pair_count(self):
        ms = exterior_power(STANDARD["A"](3), 2)
        assert ms.total() == 6
        assert ms.multiplicity(W(1, 1, 0, 0)) == 1

    def test_top_wedge_is_sum(self):
        ms = exterior_power(STANDARD["A"](3), 4)
        assert ms == WeightMultiset([W(1, 1, 1, 1)])

    def test_range_errors(self):
        for k in (0, 4):
            with pytest.raises(ParameterError):
                exterior_power(STANDARD["A"](2), k)

    @pytest.mark.parametrize("series,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
    def test_equals_subset_enumeration(self, series, rank):
        base = STANDARD[series](rank)
        for k in range(1, base.total() + 1):
            sums = [Weight(tuple(map(sum, zip(*(w.doubled for w in subset)))))
                    for subset in combinations(base.expand(), k)]
            assert exterior_power(base, k) == WeightMultiset(sums), k

    def test_multiplicities_are_binomial(self):
        base = WeightMultiset({W(1, 0): 3, W(0, 1): 1})
        assert exterior_power(base, 2) == WeightMultiset({W(2, 0): 3, W(1, 1): 3})
        assert exterior_power(base, 4) == WeightMultiset({W(3, 1): 1})

    def test_su31_restriction_oracle(self):
        # brute force: push every pair sum through e1->f1, e4->-f1, e2,e3->0
        base = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        restrict = lambda v: v[0] - v[3]
        images = [restrict(tuple(a + b for a, b in zip(u, v)))
                  for u, v in combinations(base, 2)]
        assert sorted(images) == [-1, -1, 0, 0, 1, 1]
        # the library agrees
        ms = exterior_power(STANDARD["A"](3), 2)
        zero_after = sum(m for w, m in ms.items()
                         if w.doubled[0] - w.doubled[3] == 0)
        assert zero_after == 2


class TestSpinWeights:
    # restricted (half-)spin weights of so(m,2): e_1, e_2 -> f_1, f_2, the rest to 0
    def test_b2_spin(self):
        ms = weights_restricted(so_split(3), RepSpec.spin())
        assert ms == WeightMultiset([Weight((1, 1)), Weight((1, -1)), Weight((-1, 1)),
                                     Weight((-1, -1))])

    def test_d3_halfplus(self):
        ms = weights_restricted(so_split(4), RepSpec.half_spin("+"))
        assert ms == WeightMultiset([Weight((1, 1)), Weight((1, -1)), Weight((-1, 1)),
                                     Weight((-1, -1))])

    def test_d4_halfminus(self):
        ms = weights_restricted(so_split(6), RepSpec.half_spin("-"))
        assert ms == WeightMultiset({Weight((1, 1)): 2, Weight((1, -1)): 2,
                                     Weight((-1, 1)): 2, Weight((-1, -1)): 2})

    def test_dimensions(self):
        for n in range(2, 9):
            assert weights_restricted(so_split(2 * n - 1), RepSpec.spin()).total() == 2 ** n
        for n in range(3, 9):
            for sign in "+-":
                ms = weights_restricted(so_split(2 * n - 2), RepSpec.half_spin(sign))
                assert ms.total() == 2 ** (n - 1)

    def test_mismatches(self):
        with pytest.raises(ParameterError):
            weights_restricted(so_split(3), RepSpec.half_spin("+"))
        with pytest.raises(ParameterError):
            weights_restricted(so_split(4), RepSpec.spin())
        with pytest.raises(ParameterError):
            weights_restricted(su(2, 1), RepSpec.spin())


class TestNegationClosure:
    @pytest.mark.parametrize("series,rank", [("B", 2), ("B", 4), ("C", 3), ("D", 3), ("D", 5)])
    def test_standard_and_exterior(self, series, rank):
        base = STANDARD[series](rank)
        assert negation_closed(base)
        for k in range(1, min(base.total(), 5) + 1):
            assert negation_closed(exterior_power(base, k))

    def test_type_a_is_not(self):
        assert not negation_closed(exterior_power(STANDARD["A"](2), 2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), k=st.integers(1, 10))
def test_exterior_count_property(n, k):
    base = STANDARD["A"](n - 1)
    if k > n:
        with pytest.raises(ParameterError):
            exterior_power(base, k)
    else:
        assert exterior_power(base, k).total() == binomial(n, k)


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(1, 5), k=st.integers(1, 4))
def test_exterior_negation_closure_property(rank, k):
    base = STANDARD["C"](rank)
    k = min(k, base.total())
    assert negation_closed(exterior_power(base, k))

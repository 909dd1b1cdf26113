from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapzeros import (Basis, ParameterError, RepSpec, RootSystemSpec, Weight,
                       WeightMultiset, binomial, weights_exterior, weights_of,
                       weights_spin, weights_standard)


def W(*coords, basis=Basis.ABSOLUTE):
    return Weight.from_coords(coords, basis)


class TestWeight:
    def test_half_integer_coords(self):
        w = Weight.from_coords([Fraction(1, 2), -1])
        assert w.doubled == (1, -2)
        assert w.coords == (Fraction(1, 2), Fraction(-1))

    def test_rejects_thirds(self):
        with pytest.raises(ParameterError):
            Weight.from_coords([Fraction(1, 3)])

    def test_negation_and_addition(self):
        assert -W(1, 0) == W(-1, 0)
        assert W(1, 0) + W(0, 1) == W(1, 1)
        with pytest.raises(ParameterError):
            W(1, 0) + W(1, 0, 0)
        with pytest.raises(ParameterError):
            W(1) + W(1, basis=Basis.RESTRICTED)

    def test_evaluate(self):
        assert W(1, -1).evaluate([2.0, 0.5]) == 1.5
        assert Weight.from_coords([Fraction(1, 2)]).evaluate([3.0]) == 1.5

    def test_str(self):
        assert str(W(0, 0)) == "0"
        assert str(W(1, 0)) == "e1"
        assert str(W(1, -1)) == "e1 - e2"
        assert str(Weight.from_coords([Fraction(1, 2), Fraction(-1, 2)])) == "1/2*e1 - 1/2*e2"
        assert str(W(1, basis=Basis.RESTRICTED)) == "f1"


class TestWeightMultiset:
    def test_counts_and_order(self):
        ms = WeightMultiset([W(0, 1), W(1, 0), W(0, 1)])
        assert ms.total() == 3
        assert ms.distinct() == 2
        # canonical order is descending lexicographic
        assert [w for w, _ in ms.items()] == [W(1, 0), W(0, 1)]
        assert ms.expand() == [W(1, 0), W(0, 1), W(0, 1)]

    def test_map_merges_collisions(self):
        ms = WeightMultiset([W(1, 0), W(0, 1)])
        squashed = ms.map_weights(lambda w: Weight((0, 0), w.basis))
        assert squashed.multiplicity(W(0, 0)) == 2

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


class TestRootSystemSpec:
    def test_rank_floors(self):
        with pytest.raises(ParameterError):
            RootSystemSpec("D", 2)
        with pytest.raises(ParameterError):
            RootSystemSpec("B", 1)
        with pytest.raises(ParameterError):
            RootSystemSpec("E", 8)
        assert RootSystemSpec("A", 3).ambient_dim == 4
        assert RootSystemSpec("B", 2).standard_dim == 5


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
    def test_b2(self):
        ms = weights_standard(RootSystemSpec("B", 2))
        assert ms == WeightMultiset([W(1, 0), W(0, 1), W(0, 0), W(0, -1), W(-1, 0)])

    def test_c1(self):
        ms = weights_standard(RootSystemSpec("C", 1))
        assert ms == WeightMultiset([W(1), W(-1)])

    def test_a3(self):
        ms = weights_standard(RootSystemSpec("A", 3))
        assert ms.total() == 4
        assert ms.multiplicity(W(1, 0, 0, 0)) == 1

    def test_counts(self):
        for rank, series, expect in [(4, "A", 5), (3, "B", 7), (3, "C", 6), (4, "D", 8)]:
            assert weights_standard(RootSystemSpec(series, rank)).total() == expect


class TestExteriorWeights:
    def test_pair_count(self):
        base = weights_standard(RootSystemSpec("A", 3))
        ms = weights_exterior(base, 2)
        assert ms.total() == 6
        assert ms.multiplicity(W(1, 1, 0, 0)) == 1

    def test_top_wedge_is_sum(self):
        base = weights_standard(RootSystemSpec("A", 3))
        ms = weights_exterior(base, 4)
        assert ms.total() == 1
        assert ms.multiplicity(W(1, 1, 1, 1)) == 1

    def test_range_errors(self):
        base = weights_standard(RootSystemSpec("A", 2))
        for k in (0, 4):
            with pytest.raises(ParameterError):
                weights_exterior(base, k)

    @pytest.mark.parametrize("series,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
    def test_equals_subset_enumeration(self, series, rank):
        base = weights_standard(RootSystemSpec(series, rank))
        for k in range(1, base.total() + 1):
            sums = [reduce(add, subset) for subset in combinations(base.expand(), k)]
            assert weights_exterior(base, k) == WeightMultiset(sums), k

    def test_requires_multiplicity_free_base(self):
        ms = WeightMultiset({W(1, 0): 2})
        with pytest.raises(ParameterError):
            weights_exterior(ms, 1)

    def test_su31_restriction_oracle(self):
        # brute force: push every pair sum through e1->f1, e4->-f1, e2,e3->0
        base = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        restrict = lambda v: v[0] - v[3]
        images = [restrict(tuple(a + b for a, b in zip(u, v)))
                  for u, v in combinations(base, 2)]
        assert sorted(images) == [-1, -1, 0, 0, 1, 1]
        # the library agrees
        ms = weights_exterior(weights_standard(RootSystemSpec("A", 3)), 2)
        zero_after = sum(m for w, m in ms.items()
                         if w.doubled[0] - w.doubled[3] == 0)
        assert zero_after == 2


class TestSpinWeights:
    def test_b2_spin(self):
        ms = weights_spin(RootSystemSpec("B", 2), RepSpec.spin())
        expect = [Weight((1, 1)), Weight((1, -1)), Weight((-1, 1)), Weight((-1, -1))]
        assert ms == WeightMultiset(expect)

    def test_d3_halfplus(self):
        ms = weights_spin(RootSystemSpec("D", 3), RepSpec.half_spin("+"))
        assert ms.total() == 4
        for w, _ in ms.items():
            assert sum(1 for c in w.doubled if c < 0) % 2 == 0

    def test_d4_halfminus(self):
        ms = weights_spin(RootSystemSpec("D", 4), RepSpec.half_spin("-"))
        assert ms.total() == 8
        for w, _ in ms.items():
            assert sum(1 for c in w.doubled if c < 0) % 2 == 1
        # negating flips the minus count parity by the rank, so a single
        # half-spin is negation-closed exactly for even rank
        assert ms.is_negation_closed()
        ms3 = weights_spin(RootSystemSpec("D", 3), RepSpec.half_spin("-"))
        assert not ms3.is_negation_closed()

    def test_dimensions(self):
        for n in range(2, 9):
            assert weights_spin(RootSystemSpec("B", n), RepSpec.spin()).total() == 2 ** n
        for n in range(3, 9):
            for sign in "+-":
                ms = weights_spin(RootSystemSpec("D", n), RepSpec.half_spin(sign))
                assert ms.total() == 2 ** (n - 1)

    def test_mismatches(self):
        with pytest.raises(ParameterError):
            weights_spin(RootSystemSpec("B", 2), RepSpec.half_spin("+"))
        with pytest.raises(ParameterError):
            weights_spin(RootSystemSpec("D", 3), RepSpec.spin())
        with pytest.raises(ParameterError):
            weights_spin(RootSystemSpec("A", 2), RepSpec.spin())


class TestNegationClosure:
    @pytest.mark.parametrize("series,rank", [("B", 2), ("B", 4), ("C", 3), ("D", 3), ("D", 5)])
    def test_standard_and_exterior(self, series, rank):
        base = weights_standard(RootSystemSpec(series, rank))
        assert base.is_negation_closed()
        for k in range(1, min(base.total(), 5) + 1):
            assert weights_exterior(base, k).is_negation_closed()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), k=st.integers(1, 10))
def test_exterior_count_property(n, k):
    base = weights_standard(RootSystemSpec("A", n - 1))
    if k > n:
        with pytest.raises(ParameterError):
            weights_exterior(base, k)
    else:
        assert weights_exterior(base, k).total() == binomial(n, k)


@settings(max_examples=20, deadline=None)
@given(rank=st.integers(1, 5), k=st.integers(1, 4))
def test_exterior_negation_closure_property(rank, k):
    base = weights_standard(RootSystemSpec("C", rank))
    k = min(k, base.total())
    assert weights_exterior(base, k).is_negation_closed()


def test_weights_of_dispatch():
    rs = RootSystemSpec("B", 3)
    assert weights_of(rs, RepSpec.standard()).total() == 7
    assert weights_of(rs, RepSpec.exterior(2)).total() == 21
    assert weights_of(rs, RepSpec.spin()).total() == 8

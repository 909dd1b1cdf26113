import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapzeros import (ParameterError, RepSpec, Weight, WeightMultiset, binomial,
                       so_split, sp, su, weights_restricted)
from lyapzeros.weights import exterior_power, exterior_power_bound


def W(*coords):
    return Weight(tuple(2 * c for c in coords))


def units(n, signs=(1,), zero=False):
    """sign * e_i for i < n and each sign, plus the zero weight if asked."""
    ws = [Weight.unit(n, i, sign) for sign in signs for i in range(n)]
    return WeightMultiset(ws + [Weight.zero(n)] * zero)


# standard weights of A_r (in r + 1 coordinates) and of B_r, C_r, D_r
STANDARD = {"A": lambda r: units(r + 1), "B": lambda r: units(r, (1, -1), zero=True),
            "C": lambda r: units(r, (1, -1)), "D": lambda r: units(r, (1, -1))}


def subset_sums(base, k):
    """Brute force: the weight sums of all k-subsets of the expanded base."""
    return WeightMultiset([Weight(tuple(map(sum, zip(*(w.doubled for w in subset)))))
                           for subset in combinations(base.expand(), k)])


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

    @pytest.mark.parametrize("doubled,text", [
        ((0,), "0"), ((0, 0, 0), "0"),
        ((2,), "f1"), ((-2,), "-f1"), ((0, 0, 2), "f3"), ((0, -2, 0), "-f2"),
        ((4, -6), "2*f1 - 3*f2"), ((0, -8, 20), "-4*f2 + 10*f3"),
        ((1,), "1/2*f1"), ((-1, 0, 3), "-1/2*f1 + 3/2*f3"), ((0, 5, -7), "5/2*f2 - 7/2*f3"),
        ((-2, 2, -2, 2), "-f1 + f2 - f3 + f4"),
        ((-3, -4, 2, 1, 0, -2), "-3/2*f1 - 2*f2 + f3 + 1/2*f4 - f6"),
    ])
    def test_str_pinned(self, doubled, text):
        assert str(Weight(doubled)) == text

    def test_str_matches_the_unmemoized_formatter(self):
        def oracle(doubled):   # Weight.__str__ before its terms were memoized
            text = "".join(
                f" {'-' if c < 0 else '+'} "
                f"{'' if c in (2, -2) else f'{abs(c)}/2*' if c % 2 else f'{abs(c) // 2}*'}f{i}"
                for i, c in enumerate(doubled, 1) if c)
            return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

        for rank in (1, 2, 3):
            for doubled in product(range(-7, 8), repeat=rank):
                assert str(Weight(doubled)) == oracle(doubled), doubled

    def test_unit_rejects_a_non_integer_sign(self):
        assert Weight.unit(3, 1, -1) == Weight((0, -2, 0))
        for sign in (0.5, 1.0, Fraction(1, 2)):
            with pytest.raises(ParameterError):
                Weight.unit(2, 0, sign)


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
        for factor in (0, -1, 2.0):
            with pytest.raises(ParameterError):
                ms.scaled(factor)


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
            assert exterior_power(base, k) == subset_sums(base, k), k

    def test_duality_shifts_by_the_weight_sum(self):
        # sigma = 2 f1 + f2 - f1 = f1 + f2 is nonzero, so every k > n/2 checks
        # the shift of Lambda^k = (Lambda^(n-k))^* (x) det, and k = n gives {sigma}
        base = WeightMultiset({W(1, 0): 2, W(0, 1): 1, W(-1, 0): 1, W(0, 0): 1})
        for k in range(1, base.total() + 1):
            assert exterior_power(base, k) == subset_sums(base, k), k
        assert exterior_power(base, 5) == WeightMultiset([W(1, 1)])

    def test_recurrence_runs_to_the_smaller_degree(self, monkeypatch):
        # Lambda^k and Lambda^(n-k) of su(40,1) cost the same binomials
        calls = []
        real = math.comb

        def counting(m, b):
            calls.append((m, b))
            return real(m, b)

        monkeypatch.setattr(math, "comb", counting)
        base = weights_restricted(su(40, 1), RepSpec.standard())
        per_degree = []
        for k in (3, 38, 1, 40):
            calls.clear()
            exterior_power(base, k)
            per_degree.append(len(calls))
        assert per_degree[0] == per_degree[1] and per_degree[2] == per_degree[3]

    @pytest.mark.parametrize("p", range(2, 41))
    def test_su_p1_top_power_is_negated_standard(self, p):
        # Lambda^p of C^(p+1) is (Lambda^1)^* (x) det, and det restricts to 0
        top = weights_restricted(su(p, 1), RepSpec.exterior(p))
        ext1 = weights_restricted(su(p, 1), RepSpec.exterior(1))
        assert top == WeightMultiset({-w: m for w, m in ext1.items()})

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


@settings(max_examples=100, deadline=None)
@given(entries=st.integers(1, 4).flatmap(lambda rank: st.dictionaries(
           st.tuples(*[st.integers(-5, 5)] * rank), st.integers(1, 3),
           min_size=1, max_size=5)))
def test_packed_keys_match_subset_sums(entries):
    # odd, asymmetric doubled coordinates, every k (k > n/2 takes the dual step)
    base = WeightMultiset({Weight(v): m for v, m in entries.items()})
    for k in range(1, base.total() + 1):
        assert exterior_power(base, k) == subset_sums(base, k), k


def test_packed_keys_reach_the_field_ends():
    # top = 5: the k-fold sums (k <= 3 after duality) reach +-5k in both
    # coordinates, the ends of each packed field
    base = WeightMultiset({Weight((5, -5)): 3, Weight((-5, 5)): 3, Weight((1, 2)): 1})
    for k in range(1, base.total() + 1):
        assert exterior_power(base, k) == subset_sums(base, k), k
    assert exterior_power(base, 3).multiplicity(Weight((15, -15))) == 1


def bound_by_sorting(base, k):
    """The expand-and-sort formula that exterior_power_bound computes."""
    bound = 1
    for column in zip(*(w.doubled for w in base.expand())):
        ordered = sorted(column)
        step = math.gcd(*(v - ordered[0] for v in ordered))
        if step:
            bound *= (sum(ordered[-k:]) - sum(ordered[:k])) // step + 1
    return bound


@settings(max_examples=200, deadline=None)
@given(entries=st.integers(1, 4).flatmap(lambda rank: st.dictionaries(
           st.tuples(*[st.integers(-5, 5)] * rank), st.integers(1, 4),
           min_size=1, max_size=8)),
       k=st.integers(1, 12))
def test_exterior_power_bound_matches_sorting(entries, k):
    base = WeightMultiset({Weight(v): m for v, m in entries.items()})
    assert exterior_power_bound(base, k) == bound_by_sorting(base, k)

import io
import warnings
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import lyapzeros as lz
from lyapzeros import cli
from lyapzeros import (Family, InternalError, NumericalError, ParameterError, RepKind,
                       RepSpec, Weight, WeightMultiset, exterior_power_matrix, lie_algebra_basis,
                       restriction_map, sample_group_elements, so_split, so_star,
                       sp, su, weights_restricted)
from lyapzeros._expm import cayley_in_place, slice_length
from lyapzeros.realforms import form_preservation_errors
from lyapzeros.weights import exterior_power_bound

ALL_FORMS = [su(2, 1), su(3, 1), su(2, 2), so_split(5), so_split(6),
             so_star(2), so_star(3), sp(1), sp(2)]


def F(*coords):
    return Weight(tuple(int(2 * c) for c in coords))


class TestRealFormSpec:
    def test_su_normalization(self):
        form = su(1, 3)
        assert (form.p, form.q) == (3, 1)
        assert form.swapped
        assert not su(3, 1).swapped

    def test_validation(self):
        with pytest.raises(ParameterError):
            su(0, 1)
        with pytest.raises(ParameterError):
            so_star(1)
        with pytest.raises(ParameterError):
            sp(0)
        with pytest.raises(ParameterError):
            lz.RealFormSpec(Family.SO_EVEN, n=2)

    def test_so_split_dispatch(self):
        assert so_split(5).family is Family.SO_ODD
        assert so_split(5).n == 3
        assert so_split(6).family is Family.SO_EVEN
        assert so_split(6).n == 4
        assert so_split(5).label() == "so(5,2)"
        assert so_split(6).label() == "so(6,2)"

    def test_dimensions(self):
        assert su(3, 1).matrix_dim == 4
        assert su(3, 1).algebra_dim == 15
        assert so_split(5).matrix_dim == 7
        assert so_split(5).algebra_dim == 21
        assert so_star(3).matrix_dim == 6
        assert so_star(3).algebra_dim == 15
        assert sp(2).matrix_dim == 4
        assert sp(2).algebra_dim == 10

    def test_real_factor(self):
        assert su(2, 1).real_factor == 2
        assert so_star(3).real_factor == 2
        assert so_split(5).real_factor == 1
        assert sp(2).real_factor == 1

    def test_relative_root_type_metadata(self):
        assert su(3, 1).relative_root_type == "BC1"
        assert su(2, 2).relative_root_type == "C2"
        assert so_star(3).relative_root_type == "BC1"
        assert so_star(4).relative_root_type == "C2"

    @pytest.mark.parametrize("form,algebra_dim,ambient_dim,root_type", [
        (su(2, 1), 8, 3, "BC1"), (su(5, 2), 48, 7, "BC2"), (su(4, 4), 63, 8, "C4"),
        (so_split(3), 10, 2, "B2"), (so_split(4), 15, 3, "B2"), (so_split(5), 21, 3, "B2"),
        (so_split(6), 28, 4, "B2"), (so_star(2), 6, 2, "C1"), (so_star(3), 15, 3, "BC1"),
        (so_star(4), 28, 4, "C2"), (so_star(5), 45, 5, "BC2"), (sp(1), 3, 1, "C1"),
        (sp(3), 21, 3, "C3")])
    def test_derived_properties(self, form, algebra_dim, ambient_dim, root_type):
        assert (form.algebra_dim, form.ambient_dim, form.relative_root_type) == \
            (algebra_dim, ambient_dim, root_type)
        # the basis builder refuses a count other than algebra_dim
        assert lie_algebra_basis(form).basis.shape[0] == algebra_dim


class TestRestrictionMap:
    def test_su31(self):
        assert restriction_map(su(3, 1)) == ((1, 0, 0, -1),)

    def test_su22(self):
        assert restriction_map(su(2, 2)) == ((1, 0, 0, -1), (0, 1, -1, 0))

    def test_so52(self):
        assert restriction_map(so_split(5)) == ((1, 0, 0), (0, 1, 0))

    def test_sp4_identity(self):
        assert restriction_map(sp(2)) == ((1, 0), (0, 1))

    def test_so_star_pairs_coordinates(self):
        assert restriction_map(so_star(3)) == ((1, 1, 0),)


def absolute_weights(form, rep):
    """Doubled e-basis coordinates of the weights of (form, rep): unit
    vectors for the standard representation (+-e_i, and 0 for so(2n-1,2);
    e_i alone for su(p,q)), sign vectors for the (half-)spins, and k-subset
    sums of the standard weights for ext:k."""
    n = form.ambient_dim
    if rep.kind is RepKind.EXTERIOR:
        standard = absolute_weights(form, RepSpec.standard())
        return [tuple(map(sum, zip(*subset))) for subset in combinations(standard, rep.degree)]
    if rep.is_spin_like():
        minus = {RepKind.SPIN: (0, 1), RepKind.HALF_SPIN_PLUS: (0,),
                 RepKind.HALF_SPIN_MINUS: (1,)}[rep.kind]
        return [s for s in product((1, -1), repeat=n) if s.count(-1) % 2 in minus]
    units = [tuple(2 * sign * (j == i) for j in range(n))
             for sign in ((1,) if form.family is Family.SU else (1, -1)) for i in range(n)]
    return units + [(0,) * n] * (form.family is Family.SO_ODD)


def restricted_by_enumeration(form, rep):
    """Reference: push every absolute weight through the restriction rows."""
    rows = restriction_map(form)
    return WeightMultiset([Weight(tuple(sum(r * c for r, c in zip(row, v)) for row in rows))
                           for v in absolute_weights(form, rep)])


def _exterior_pairs(forms):
    return [(form, RepSpec.exterior(k)) for form in forms
            for k in range(1, form.matrix_dim + 1)]


ORACLE_GRIDS = {
    "su": _exterior_pairs([su(p, q) for p in range(1, 9) for q in range(1, p + 1)
                           if p + q <= 9]),
    "so-star": _exterior_pairs([so_star(n) for n in range(2, 8)]),
    "sp": _exterior_pairs([sp(g) for g in range(1, 6)]),
    # up to so(23,2), whose spin representation has 4,096 absolute weights
    "so-odd": [(so_split(2 * n - 1), rep) for n in range(2, 13)
               for rep in (RepSpec.standard(), RepSpec.spin())]
              + _exterior_pairs([so_split(3), so_split(5), so_split(7)]),
    "so-even": [(so_split(2 * n - 2), rep) for n in range(3, 13)
                for rep in (RepSpec.standard(), RepSpec.half_spin("+"), RepSpec.half_spin("-"))]
               + _exterior_pairs([so_split(4), so_split(6), so_split(8)]),
    # the half-spins of so*(2n) pair coordinates, unlike those of so(m,2)
    "so-star-half-spin": [(so_star(n), RepSpec.half_spin(sign)) for n in range(3, 9)
                          for sign in "+-"],
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS)
def test_restricted_first_equals_restricting_absolute_weights(grid):
    for form, rep in ORACLE_GRIDS[grid]:
        assert weights_restricted(form, rep) == restricted_by_enumeration(form, rep), \
            (form.label(), rep.label())


class TestWeightsRestricted:
    def test_su31_ext2(self):
        ms = weights_restricted(su(3, 1), RepSpec.exterior(2))
        assert ms == WeightMultiset({F(1): 2, F(0): 2, F(-1): 2})

    def test_so52_spin(self):
        ms = weights_restricted(so_split(5), RepSpec.spin())
        h = Fraction(1, 2)
        expect = {F(h, h): 2, F(h, -h): 2, F(-h, h): 2, F(-h, -h): 2}
        assert ms == WeightMultiset(expect)

    def test_so_star6_standard(self):
        ms = weights_restricted(so_star(3), RepSpec.standard())
        assert ms == WeightMultiset({F(1): 2, F(0): 2, F(-1): 2})

    def test_so_star_direct_agrees_with_map(self):
        for n in range(2, 9):
            form = so_star(n)
            direct = weights_restricted(form, RepSpec.standard())
            assert direct == restricted_by_enumeration(form, RepSpec.standard())

    def test_half_spins_restrict_identically(self):
        for n in range(3, 9):
            form = so_split(2 * n - 2)
            plus = weights_restricted(form, RepSpec.half_spin("+"))
            minus = weights_restricted(form, RepSpec.half_spin("-"))
            assert plus == minus
            assert plus.zero_multiplicity() == 0
            for _, m in plus.items():
                assert m == 2 ** (n - 3)

    def test_so_star8_half_spins_pair_coordinates(self):
        # not (+-f1 +- f2)/2: e_1, e_2 both restrict to f_1 and e_3, e_4 to f_2
        plus = weights_restricted(so_star(4), RepSpec.half_spin("+"))
        assert plus == WeightMultiset({F(1, 1): 1, F(1, -1): 1, F(-1, 1): 1,
                                       F(-1, -1): 1, F(0, 0): 4})
        minus = weights_restricted(so_star(4), RepSpec.half_spin("-"))
        assert minus == WeightMultiset({F(1, 0): 2, F(-1, 0): 2, F(0, 1): 2, F(0, -1): 2})

    def test_incoherent_pairs(self):
        with pytest.raises(ParameterError):
            weights_restricted(so_star(2), RepSpec.half_spin("+"))
        with pytest.raises(ParameterError):
            weights_restricted(su(2, 1), RepSpec.spin())
        with pytest.raises(ParameterError):
            weights_restricted(so_split(5), RepSpec.half_spin("+"))
        with pytest.raises(ParameterError):
            weights_restricted(sp(2), RepSpec.exterior(9))

    def test_restricted_multisets_negation_closed(self):
        pairs = [(su(3, 2), RepSpec.exterior(k)) for k in range(1, 6)]
        pairs += [(form, RepSpec.standard()) for form in ALL_FORMS]
        pairs += [(so_split(5), RepSpec.spin()), (so_split(6), RepSpec.half_spin("-"))]
        for form, rep in pairs:
            ms = weights_restricted(form, rep)
            assert ms == WeightMultiset({-w: m for w, m in ms.items()}), (form.label(), rep.label())

    @pytest.mark.parametrize("form", [su(3, 2), so_split(5), so_split(6), so_star(5), sp(3)],
                             ids=lambda form: form.label())
    def test_unchecked_producers_pass_the_public_checks(self, form):
        # the library builds its multisets without Weight/WeightMultiset
        # validation; each must be one the public constructors accept as is
        d = form.matrix_dim
        reps = [RepSpec.standard(), RepSpec.spin(), RepSpec.half_spin("+"),
                RepSpec.half_spin("-")] + [RepSpec.exterior(k) for k in (1, 2, d - 1)]
        checked = 0
        for rep in reps:
            try:
                ms = weights_restricted(form, rep)
            except ParameterError:   # an incoherent pair
                continue
            checked += 1
            for multiset in (ms, ms.scaled(2), WeightMultiset({-w: m for w, m in ms.items()})):
                assert WeightMultiset(dict(multiset.items())) == multiset
                assert len({w.rank for w, _ in multiset.items()}) == 1
                for w, m in multiset.items():
                    assert type(w) is Weight and type(w.doubled) is tuple
                    assert all(type(c) is int for c in w.doubled)
                    assert type(m) is int and m > 0
        assert checked >= 4


class TestLieAlgebraBases:
    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.label())
    def test_dimension_and_relations(self, form):
        sampler = lie_algebra_basis(form)
        assert sampler.basis.shape[0] == form.algebra_dim
        # linear independence over R
        flat = sampler.basis.reshape(form.algebra_dim, -1)
        stacked = np.concatenate([flat.real, flat.imag], axis=1)
        assert np.linalg.matrix_rank(stacked) == form.algebra_dim
        # every element satisfies the defining relations, not only the
        # random combination checked on construction
        for X in sampler.basis:
            assert lz.matrices._relation_residual(sampler, X) == 0.0

    @pytest.mark.parametrize("builder,form", [
        ("_su_elements", su(2, 1)), ("_so_elements", so_split(6)),
        ("_so_star_elements", so_star(3)), ("_sp_elements", sp(2))],
        ids=lambda x: x.label() if hasattr(x, "label") else x)
    def test_corrupted_table_is_refused(self, builder, form, monkeypatch):
        real = getattr(lz.matrices, builder)

        def short(*args):
            return real(*args)[:-1]

        def flipped(*args):
            elements = real(*args)
            (r, c, v), *rest = elements[-1]
            elements[-1] = [(r, c, -v), *rest]
            return elements

        def crowded(*args):
            # three copies of the first element put three terms on each of
            # its coordinates
            elements = real(*args)
            return elements[:1] * 3 + elements[3:]

        monkeypatch.setattr(lz.matrices, builder, short)
        with pytest.raises(NumericalError, match="cardinality") as info:
            lie_algebra_basis(form)
        assert info.value.diagnostics["built"] == form.algebra_dim - 1
        monkeypatch.setattr(lz.matrices, builder, flipped)
        with pytest.raises(NumericalError, match="defining relations") as info:
            lie_algebra_basis(form)
        assert info.value.diagnostics["residual"] > lz.matrices._RELATION_TOL
        monkeypatch.setattr(lz.matrices, builder, crowded)
        with pytest.raises(InternalError, match="over two basis terms"):
            lie_algebra_basis(form)

    def test_su11_dimension(self):
        assert lie_algebra_basis(su(1, 1)).basis.shape[0] == 3

    def test_closed_form_dimensions_grid(self):
        forms = [su(p, q) for p in range(1, 7) for q in range(1, p + 1)]
        forms += [so_split(m) for m in range(3, 11)]
        forms += [so_star(n) for n in range(2, 7)]
        forms += [sp(g) for g in range(1, 7)]
        for form in forms:
            assert lie_algebra_basis(form).basis.shape[0] == form.algebra_dim

    def test_sp2_is_sl2(self):
        sampler = lie_algebra_basis(sp(1))
        assert sampler.basis.shape[0] == 3
        for X in sampler.basis:
            assert abs(np.trace(X)) < 1e-14

    def test_so_star4_dimension(self):
        sampler = lie_algebra_basis(so_star(2))
        assert sampler.basis.shape[0] == 6

    def test_declared_forms(self):
        assert set(lie_algebra_basis(su(2, 1)).forms) == {"hermitian"}
        assert set(lie_algebra_basis(so_star(2)).forms) == {"hermitian", "symmetric"}
        assert set(lie_algebra_basis(so_split(5)).forms) == {"symmetric"}
        assert set(lie_algebra_basis(sp(2)).forms) == {"symplectic"}

    def test_split_torus_inside_so_algebra(self):
        # diag(0, t1, t2, -t2, -t1) satisfies the so(m,2) relations
        sampler = lie_algebra_basis(so_split(5))
        d = sampler.form.matrix_dim
        X = np.zeros((d, d))
        X[d - 4:, d - 4:] = np.diag([1.0, 0.5, -0.5, -1.0])
        Q = sampler.forms["symmetric"]
        assert np.abs(X.T @ Q + Q @ X).max() < 1e-14


class TestSampling:
    def test_scale_zero_is_identity(self):
        sampler = lie_algebra_basis(su(2, 1), scale=0.0)
        g = sample_group_elements(sampler, np.random.default_rng(0), 1)
        assert np.array_equal(g, np.eye(3, dtype=complex)[None])

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_scale_finite_and_nonnegative(self, scale):
        with pytest.raises(ParameterError, match="scale"):
            lie_algebra_basis(su(2, 1), scale)

    @pytest.mark.parametrize("form", ALL_FORMS, ids=lambda f: f.label())
    def test_form_preservation_bulk(self, form):
        sampler = lie_algebra_basis(form)
        g = sample_group_elements(sampler, np.random.default_rng(2024), 10_000)
        for name, err in form_preservation_errors(sampler, g).items():
            assert err < 1e-10, (form.label(), name, err)

    @pytest.mark.parametrize("form", [su(2, 1), su(2, 2), so_star(3), so_split(5),
                                      so_split(6), sp(2)], ids=lambda f: f.label())
    def test_gather_form_check_equals_dense_product(self, form):
        sampler = lie_algebra_basis(form)
        rng = np.random.default_rng(11)
        g = sample_group_elements(sampler, rng, 200)
        noise = rng.standard_normal(g.shape) * 0.1
        perturbed = g + noise.astype(g.dtype)
        for m, group in ((g, True), (perturbed, False)):
            errors = form_preservation_errors(sampler, m)
            assert set(errors) == set(sampler.forms)
            for name, F in sampler.forms.items():
                mt = np.swapaxes(m, -1, -2)
                left = np.conj(mt) if name == "hermitian" else mt
                dense = float(np.abs(left @ F @ m - F).max() / np.abs(F).max())
                assert abs(errors[name] - dense) <= 1e-13 * max(1.0, dense)
                assert (errors[name] < 1e-12) if group else (errors[name] > 1e-3)

    @pytest.mark.parametrize("form", [su(3, 1), so_star(3), sp(2)],
                             ids=lambda f: f.label())
    def test_sliced_check_equals_whole_check(self, form, monkeypatch):
        # slices of _BLOCK_BYTES: 1,024 matrices for su(3,1), 455 for so*(6)
        # and 2,048 for sp(4,R), so the check takes three slices
        sampler = lie_algebra_basis(form)
        d = form.matrix_dim
        n = 2 * slice_length(np.empty((1, d, d), sampler.dtype)) + 100
        g = sample_group_elements(sampler, np.random.default_rng(3), n)
        g[n - 50] *= 1.001          # the worst matrix sits in the last slice
        sliced = form_preservation_errors(sampler, g)
        monkeypatch.setattr(lz._expm, "_BLOCK_BYTES", g.nbytes)
        assert slice_length(g) == n
        assert form_preservation_errors(sampler, g) == sliced
        assert min(sliced.values()) > 1e-3

    @pytest.mark.parametrize("form", [su(2, 1), su(3, 1), so_star(3), sp(2), so_split(5),
                                      su(5, 1)], ids=lambda f: f.label())
    def test_a_shorter_draw_is_a_prefix_of_a_longer_one(self, form):
        # each step is a function of its own draw: the first m of n steps,
        # n over three slices, are the m steps of a fresh generator on the
        # same seed, for m in the first and second slice
        sampler = lie_algebra_basis(form)
        d = form.matrix_dim
        length = slice_length(np.empty((1, d, d), sampler.dtype))
        longer = sample_group_elements(sampler, np.random.default_rng(11), 2 * length + 100)
        for m in (1, 37, length + 37):
            shorter = sample_group_elements(sampler, np.random.default_rng(11), m)
            assert np.array_equal(longer[:m].view(np.uint64), shorter.view(np.uint64)), m

    @pytest.mark.parametrize("form", [su(2, 1), so_star(3), sp(2)],
                             ids=lambda f: f.label())
    def test_non_finite_entry_reads_inf(self, form):
        sampler = lie_algebra_basis(form)
        g = sample_group_elements(sampler, np.random.default_rng(0), 10)
        g[3, 0, 0] = np.inf
        assert all(err == np.inf for err in form_preservation_errors(sampler, g).values())

    def test_dense_form_is_refused(self, monkeypatch):
        # the form check gathers rows, so every declared form must be a
        # signed permutation
        real = lz.matrices._so_form

        def dense(d):
            O = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))[0]
            return O @ real(d) @ O.T

        monkeypatch.setattr(lz.matrices, "_so_form", dense)
        with pytest.raises(InternalError, match="signed permutation"):
            lie_algebra_basis(so_split(5))

    @pytest.mark.parametrize("form,count", [
        (su(2, 1), 5000), (su(3, 1), 5000), (so_star(3), 5000), (sp(2), 5000),
        (so_split(5), 5000), (su(5, 1), 5000), (so_split(23), 2000), (su(8, 8), 1000),
        (su(2, 2), 5000), (so_split(6), 5000), (so_star(2), 5000), (sp(1), 5000),
    ], ids=lambda x: x.label() if hasattr(x, "label") else str(x))
    def test_combination_is_tensordot_in_unthreaded_calls(self, form, count, monkeypatch):
        # X = sum c_i B_i is gathered from the index tables by numpy
        # indexing and ufuncs, which never thread; it must equal one
        # tensordot with the expanded basis in value, and give the same bits
        # after the Cayley step (only the sign of a zero may differ before it).
        # The sampler steps its X in place, so the spy copies it first
        sampler = lie_algebra_basis(form)
        combined = []
        in_place = lz.matrices.cayley_in_place

        def spy_cayley(X):
            combined.append(X.copy())
            return in_place(X)

        monkeypatch.setattr(lz.matrices, "cayley_in_place", spy_cayley)
        g = sample_group_elements(sampler, np.random.default_rng(7), count)
        monkeypatch.undo()

        coeffs = np.random.default_rng(7).standard_normal((count, len(sampler.basis)))
        X = np.tensordot(coeffs * sampler.scale, sampler.basis, axes=(1, 0))
        assert combined[0].dtype == X.dtype == sampler.dtype
        assert np.array_equal(combined[0], X)
        assert np.array_equal(g.view(np.uint64), cayley_in_place(X).view(np.uint64))

    def test_large_algebra_builds_no_dense_basis(self):
        # su(30,30)'s dense basis alone takes 3599 * 60^2 * 16 bytes = 207 MB
        import tracemalloc
        tracemalloc.start()
        try:
            sampler = lie_algebra_basis(su(30, 30))
            g = sample_group_elements(sampler, np.random.default_rng(0), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.shape == (10, 60, 60)
        assert peak < 50e6, peak

    @pytest.mark.parametrize("form", [su(4, 4), su(5, 1)], ids=lambda f: f.label())
    def test_chunk_holds_one_buffer_of_steps(self, form):
        # the coefficients are scaled in place and dropped after the gather,
        # and X is stepped in place: the peak is the coefficients and X, or X
        # and one slice's workspace, bounded by two real (2d, 2d) matrices
        # per matrix of the slice (8.2 MB against 8.7 MB for su(4,4), whose
        # slices hold 256 matrices; keeping the coefficients or a second copy
        # of the steps breaks the bound)
        import tracemalloc
        sampler = lie_algebra_basis(form)
        sample_group_elements(sampler, np.random.default_rng(0), 10)   # warm caches
        count, d = 5000, form.matrix_dim
        tracemalloc.start()
        try:
            g = sample_group_elements(sampler, np.random.default_rng(1), count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = count * (8 * form.algebra_dim + d * d * g.itemsize)
        workspace = 2 * slice_length(g) * (2 * d) ** 2 * 8
        assert peak <= held + workspace, (peak, held, workspace)

    def test_su21_seeded(self):
        sampler = lie_algebra_basis(su(2, 1), scale=0.3)
        g = sample_group_elements(sampler, np.random.default_rng(42), 1)[0]
        H = sampler.forms["hermitian"]
        rel = np.abs(np.conj(g.T) @ H @ g - H).max() / np.abs(H).max()
        assert rel < 1e-10

    def test_sp_determinant_one(self):
        sampler = lie_algebra_basis(sp(2))
        g = sample_group_elements(sampler, np.random.default_rng(5), 100)
        assert np.abs(np.linalg.det(g) - 1).max() < 1e-10


class TestExteriorPowerMatrix:
    def test_identity(self):
        assert np.array_equal(exterior_power_matrix(np.eye(4), 2), np.eye(6))

    def test_top_power_is_det(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        out = exterior_power_matrix(M, 5)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.linalg.det(M)) < 1e-10

    def test_diagonal_case(self):
        M = np.diag([1.0, 2.0, 3.0, 4.0])
        out = exterior_power_matrix(M, 2)
        assert np.allclose(np.diag(out), [2.0, 3.0, 4.0, 6.0, 8.0, 12.0])
        assert np.allclose(out, np.diag(np.diag(out)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_functorial(self, d):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        N = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for k in range(1, d + 1):
            left = exterior_power_matrix(M @ N, k)
            right = exterior_power_matrix(M, k) @ exterior_power_matrix(N, k)
            scale = max(np.abs(left).max(), 1.0)
            assert np.abs(left - right).max() / scale < 1e-10

    def test_range_error(self):
        with pytest.raises(ParameterError):
            exterior_power_matrix(np.eye(3), 4)

    @pytest.mark.parametrize("d,k", [(4, 2), (6, 3), (8, 4)])
    def test_equals_explicit_minors(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        M = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        got = exterior_power_matrix(M, k)
        subsets = [list(s) for s in combinations(range(d), k)]
        want = np.array([[np.linalg.det(M[..., rows, :][..., cols])
                          for cols in subsets] for rows in subsets])
        want = np.moveaxis(want, (0, 1), (-2, -1))
        assert got.shape == (2, 3, len(subsets), len(subsets))
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-13


class TestExteriorWeightBound:
    def test_su_bound_is_three_to_q(self):
        for p, q, k in [(3, 1, 2), (12, 4, 8), (40, 8, 20)]:
            standard = weights_restricted(su(p, q), RepSpec.standard())
            assert exterior_power_bound(standard, k) == 3 ** q

    def test_bound_holds(self):
        for form, k in [(su(5, 3), 4), (so_star(6), 3), (su(2, 2), 2)]:
            standard = weights_restricted(form, RepSpec.standard())
            exact = weights_restricted(form, RepSpec.exterior(k)).distinct()
            assert exact <= exterior_power_bound(standard, k)

    def test_huge_exterior_power_warns_before_the_recurrence(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(lz.realforms, "exterior_power", reached)
        with pytest.warns(RuntimeWarning, match="distinct restricted weights"):
            with pytest.raises(Reached):
                weights_restricted(su(32, 32), RepSpec.exterior(32))

    def test_huge_half_spin_warns_before_the_expansion(self, monkeypatch):
        # so*(2n) half-spin weights number at most 3^(n//2): so*(44) is the
        # first so* over the limit
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(lz.realforms, "_restricted_spin", reached)
        for n, bound in ((22, "177,147"), (24, "531,441")):
            with pytest.warns(RuntimeWarning, match=f"up to {bound} distinct restricted weights"):
                with pytest.raises(Reached):
                    weights_restricted(so_star(n), RepSpec.half_spin("+"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Reached):
                weights_restricted(so_star(21), RepSpec.half_spin("-"))

    def test_size_warning_names_the_callers_line(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(lz.realforms, "_restricted_spin", reached)
        with pytest.warns(RuntimeWarning, match="distinct restricted weights") as records:
            with pytest.raises(Reached):
                lz.predict(so_star(22), RepSpec.half_spin("+"))
        assert [r.filename for r in records] == [__file__]

    def test_spin_bound_holds(self):
        for n in range(3, 13):
            for sign in "+-":
                assert weights_restricted(so_star(n), RepSpec.half_spin(sign)).distinct() \
                    <= 3 ** (n // 2)
        for m in (3, 6, 9, 12):
            rep = RepSpec.spin() if m % 2 else RepSpec.half_spin("+")
            assert weights_restricted(so_split(m), rep).distinct() <= 4

    def test_benchmark_queries_do_not_warn(self):
        queries = [(su(16, 2), 9), (su(12, 4), 8), (so_star(10), 5), (su(40, 8), 20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form, k in queries:
                lz.predict(form, RepSpec.exterior(k))
            lz.predict(so_split(23), RepSpec.spin())
            cli.main(["classify", "--max-dim", "120"], out=io.StringIO())

import numpy as np
import pytest

from lyapzeros import _expm, lie_algebra_basis, so_split, so_star, sp, su
from lyapzeros._expm import cayley_in_place, real_form, times
from lyapzeros.errors import NumericalError, ParameterError
from lyapzeros.realforms import form_preservation_errors


def test_zero_matrix():
    out = cayley_in_place(np.zeros((3, 2, 2)))
    assert np.array_equal(out, np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_rotation_closed_form():
    # norm 0.7 < 1 takes no squaring: cay(A) for A = X/2 is the rotation
    # by 2 atan(theta / 2)
    theta = 0.7
    phi = 2 * np.arctan(theta / 2)
    X = np.array([[0.0, -theta], [theta, 0.0]])
    want = np.array([[np.cos(phi), -np.sin(phi)],
                     [np.sin(phi), np.cos(phi)]])
    assert np.abs(cayley_in_place(X) - want).max() < 1e-14


def test_inverse_identity():
    # cay(-A) = cay(A)^-1, and -X selects the same s as X
    rng = np.random.default_rng(7)
    X = 0.4 * (rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4)))
    G = cayley_in_place(X.copy())
    Ginv = cayley_in_place(-X)
    err = np.abs(G @ Ginv - np.eye(4)).max()
    assert err < 1e-12


@pytest.mark.parametrize("form", [su(3, 1), so_star(3), sp(2), so_split(5), su(5, 1)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.3, 5.0])
def test_result_is_bit_identical_in_any_batch(form, scale):
    X = _samples(form, scale, 1200, seed=5)
    whole = cayley_in_place(X.copy())
    for i in (0, 511, 512, 1199):
        assert np.array_equal(cayley_in_place(X[[i, 0]])[0], whole[i])
    assert np.array_equal(cayley_in_place(X[600:1100].copy()), whole[600:1100])


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _products_agree(A, B):
    got, want = times(A, real_form(B)), A @ B
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("batch", [(7,), (5, 3)], ids=["n", "blocks,trials"])
def test_real_form_product_matches_matmul(d, batch):
    rng = np.random.default_rng(d)
    A = _complex_stack(rng, batch + (d, d))
    B = _complex_stack(rng, batch + (d, d))
    _products_agree(A, B)
    _products_agree(np.conj(np.swapaxes(A, -1, -2)), np.swapaxes(B, -1, -2))
    body = _complex_stack(rng, (4, 3, d, d))     # the fold's strided slices
    _products_agree(body[:, 2], body[:, 1])
    R, S = A.real.copy(), B.real.copy()
    assert real_form(S) is S
    assert np.array_equal(times(R, real_form(S)), R @ S)


def test_rejects_bad_input():
    with pytest.raises(NumericalError):
        cayley_in_place(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(NumericalError):     # finite entries, 1-norm 2e308
        cayley_in_place(np.full((2, 2), 1e308))


@pytest.mark.parametrize("X", [
    # a transposed 4-d stack: reshaping it would copy, and the copy be stepped
    0.3 * np.arange(54.0).reshape(3, 3, 3, 2).transpose(0, 3, 1, 2),
    np.arange(12).reshape(3, 2, 2),
], ids=["non-contiguous", "integer"])
def test_rejects_a_stack_it_cannot_step_in_place(X):
    before = X.copy()
    with pytest.raises(ParameterError, match="C-contiguous float or complex"):
        cayley_in_place(X)
    assert np.array_equal(X, before)


# the six forms of the benchmark's simulation workload
BENCH_FORMS = [su(2, 1), su(3, 1), so_star(3), sp(2), so_split(5), su(5, 1)]


def _samples(form, scale, count, seed):
    sampler = lie_algebra_basis(form, scale)
    coeffs = np.random.default_rng(seed).standard_normal((count, sampler.basis.shape[0]))
    return np.tensordot(coeffs * scale, sampler.basis, axes=(1, 0))


def _norms(X):
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _squarings(X):
    # s = max(0, ceil(log2 ||X||_1)) for each matrix of X
    return np.maximum(0, np.ceil(np.log2(_norms(X)))).astype(int)


@pytest.mark.parametrize("form", BENCH_FORMS + [so_split(10), su(5, 5)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.05, 0.3, 5.0])
def test_stacked_steps_equal_single_steps(form, scale):
    # each step is a function of its own draw: stepping the stack in place
    # gives the bits of stepping every draw alone. so(10,2) and su(5,5)
    # take the LAPACK solve; 1200 of their matrices are six and eight slices
    X = _samples(form, scale, 1200, seed=6)
    single = np.concatenate([cayley_in_place(X[i:i + 1].copy()) for i in range(len(X))])
    stepped = cayley_in_place(X)
    assert np.shares_memory(stepped, X)
    assert np.array_equal(stepped.view(np.uint64), single.view(np.uint64))


@pytest.mark.parametrize("form,length", [
    (su(2, 1), 1820), (sp(2), 2048), (so_split(5), 668), (so_star(3), 455),
    (su(4, 4), 256), (su(8, 8), 64), (so_split(10), 227), (su(100, 100), 1),
], ids=lambda x: x.label() if hasattr(x, "label") else str(x))
def test_slices_hold_a_fixed_number_of_bytes(form, length):
    # as many matrices as fit in 256 KiB, and at least one
    d = form.matrix_dim
    dtype = complex if form.is_complex_family else float
    assert _expm.slice_length(np.empty((3, d, d), dtype)) == length


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_the_last_slice_raises_before_any_step(bad):
    # the 1-norm is taken slice by slice; Python's max() would drop a NaN
    X = _samples(su(2, 1), 0.3, 5000, seed=8)
    X[-1, 1, 2] = bad
    before = X.copy()
    with pytest.raises(NumericalError, match="non-finite"):
        cayley_in_place(X)
    assert np.array_equal(X, before, equal_nan=True)


@pytest.mark.parametrize("form", BENCH_FORMS, ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.05, 0.3, 5.0])
def test_steps_preserve_forms(form, scale):
    # rounding grows with the entries, so the error is relative to max|g|^2;
    # at scale 5 the steps reach |g| ~ 1e10
    g = cayley_in_place(_samples(form, scale, 500, seed=1))
    bound = 1e-13 * max(1.0, float(np.abs(g).max())) ** 2
    for name, err in form_preservation_errors(lie_algebra_basis(form, scale), g).items():
        assert err <= bound, (name, err, bound)


def _within_third_order_of_expm(X):
    # cay(A) = exp(2 artanh(A)), so g = exp(X + X^3 / (12 * 4^s) + ...) for
    # s = ceil(log2 of each matrix's 1-norm) squarings; the factor 2 leaves
    # room for the higher terms
    scipy_linalg = pytest.importorskip("scipy.linalg")
    want = scipy_linalg.expm(X)
    s = _squarings(X)
    err = _norms(cayley_in_place(X.copy()) - want) / _norms(want)
    assert (err <= _norms(X) ** 3 / (6 * 4 ** s)).all()


@pytest.mark.parametrize("form", BENCH_FORMS, ids=lambda f: f.label())
def test_matches_scipy_on_samplers(form):
    for scale in (0.05, 0.3):     # norms mostly below 1, and up to above 2
        _within_third_order_of_expm(_samples(form, scale, 500, seed=1))


def test_single_matrix_matches_scipy():
    X = 0.1 * np.random.default_rng(4).standard_normal((6, 6))
    assert cayley_in_place(X.copy()).shape == (6, 6)
    _within_third_order_of_expm(X)


# Gauss-Jordan is checked up to d = 11 for both dtypes, above the complex
# cutoff too: so(9,2) and su(10,1)
CUTOFF_FORMS = [so_split(9), su(10, 1)]
ALL_GAUSS_JORDAN = {"f": 11, "c": 11}


@pytest.mark.parametrize("form", BENCH_FORMS + CUTOFF_FORMS, ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.05, 0.3, 5.0])
def test_gauss_jordan_agrees_with_lapack(form, scale, monkeypatch):
    X = _samples(form, scale, 1200, seed=2)
    monkeypatch.setattr(_expm, "_GAUSS_JORDAN_MAX_DIM", ALL_GAUSS_JORDAN)
    g = cayley_in_place(X.copy())
    monkeypatch.setattr(_expm, "_GAUSS_JORDAN_MAX_DIM", {"f": 0, "c": 0})
    want = cayley_in_place(X)
    bound = 1e-14 * max(1.0, float(np.abs(want).max())) ** 2
    assert np.abs(g - want).max() <= bound


@pytest.mark.parametrize("form", BENCH_FORMS + CUTOFF_FORMS, ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.05, 0.3, 5.0])
def test_scaled_batches_are_column_diagonally_dominant(form, scale, monkeypatch):
    # the Gauss-Jordan solve does not pivot: |1 - h_jj| > sum_{i != j} |h_ij|
    # for every column j of every matrix it receives
    seen = []
    real = _expm._solve_gauss_jordan

    def spy(X, scale):
        seen.append(X * scale[:, None, None])
        return real(X, scale)

    monkeypatch.setattr(_expm, "_solve_gauss_jordan", spy)
    monkeypatch.setattr(_expm, "_GAUSS_JORDAN_MAX_DIM", ALL_GAUSS_JORDAN)
    X = _samples(form, scale, 1200, seed=3)
    monkeypatch.setattr(_expm, "_BLOCK_BYTES", 512 * X[0].nbytes)
    cayley_in_place(X)
    assert len(seen) == 3       # slices of 512, 512 and 176 matrices
    for H in seen:
        diag = np.diagonal(H, axis1=-2, axis2=-1)
        off = np.abs(H).sum(axis=-2) - np.abs(diag)
        assert (np.abs(1 - diag) > off).all()


@pytest.mark.parametrize("form,gauss_jordan", [
    (so_split(9), True), (su(4, 4), True), (su(8, 1), False), (su(5, 5), False),
], ids=lambda x: x.label() if hasattr(x, "label") else str(x))
def test_solve_follows_the_cutoff_of_its_dtype(form, gauss_jordan, monkeypatch):
    # real d = 11 and complex d = 8 keep Gauss-Jordan; complex d = 9 and 10
    # take LAPACK's solve
    calls = []
    real = _expm._solve_gauss_jordan
    monkeypatch.setattr(_expm, "_solve_gauss_jordan", lambda *args: calls.append(1) or real(*args))
    cayley_in_place(_samples(form, 0.3, 10, seed=9))
    assert bool(calls) == gauss_jordan


@pytest.mark.parametrize("form", [so_split(10), su(6, 6), su(8, 1), su(5, 5)],
                         ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.05, 0.3])
def test_above_the_cutoff_keeps_the_lapack_solve(form, scale):
    dtype = complex if form.is_complex_family else float
    assert form.matrix_dim > _expm._GAUSS_JORDAN_MAX_DIM[np.dtype(dtype).kind]
    X = _samples(form, scale, 600, seed=4)
    s = _squarings(X)
    eye = np.eye(form.matrix_dim)
    H = X * np.ldexp(1.0, -1 - s)[:, None, None]
    want = np.linalg.solve(eye - H, eye + H)
    for k in range(s.max()):
        sq = s > k
        want[sq] = times(want[sq], real_form(want[sq]))
    assert np.array_equal(cayley_in_place(X), want)

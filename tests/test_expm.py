import numpy as np
import pytest

from lyapzeros import lie_algebra_basis, so_split, so_star, sp, su
from lyapzeros._expm import _THETA_13, expm_batch, real_form, times
from lyapzeros.errors import NumericalError


def test_zero_matrix():
    out = expm_batch(np.zeros((3, 2, 2)))
    assert np.array_equal(out, np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_rotation_closed_form():
    theta = 0.7
    X = np.array([[0.0, -theta], [theta, 0.0]])
    want = np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])
    assert np.abs(expm_batch(X) - want).max() < 1e-14


def test_inverse_identity():
    rng = np.random.default_rng(7)
    X = 0.4 * (rng.standard_normal((50, 4, 4)) + 1j * rng.standard_normal((50, 4, 4)))
    G = expm_batch(X)
    Ginv = expm_batch(-X)
    err = np.abs(G @ Ginv - np.eye(4)).max()
    assert err < 1e-12


def test_batch_matches_loop():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 5, 5)) * 2.0
    batched = expm_batch(X)
    for i in range(20):
        assert np.abs(batched[i] - expm_batch(X[i])).max() < 1e-12


@pytest.mark.parametrize("form", [su(3, 1), so_star(3), sp(2)], ids=lambda f: f.label())
@pytest.mark.parametrize("scale", [0.3, 5.0])
def test_result_is_bit_identical_in_any_batch(form, scale):
    # same (m, s): pair each matrix with the batch's largest-norm one
    X = _samples(form, scale, 1200, seed=5)
    whole = expm_batch(X)
    top = np.abs(X).sum(axis=-2).max(axis=-1).argmax()
    for i in (0, 511, 512, 1199):
        assert np.array_equal(expm_batch(X[[i, top]])[0], whole[i])
    assert np.array_equal(expm_batch(X[600:1100]), whole[600:1100])


def test_determinant_exponentiates_trace():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 3, 3))
    G = expm_batch(X)
    assert np.abs(np.linalg.det(G) - np.exp(np.trace(X, axis1=1, axis2=2))).max() < 1e-10


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
        expm_batch(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        expm_batch(np.array([[np.nan, 0.0], [0.0, 0.0]]))


# the six forms of the benchmark's simulation workload
BENCH_FORMS = [su(2, 1), su(3, 1), so_star(3), sp(2), so_split(5), su(5, 1)]


def _samples(form, scale, count, seed):
    sampler = lie_algebra_basis(form, scale)
    coeffs = np.random.default_rng(seed).standard_normal((count, sampler.basis.shape[0]))
    return np.tensordot(coeffs * scale, sampler.basis, axes=(1, 0))


def _rel_errors(got, want):
    return (np.linalg.norm(got - want, axis=(-2, -1))
            / np.linalg.norm(want, axis=(-2, -1)))


@pytest.mark.parametrize("form", BENCH_FORMS, ids=lambda f: f.label())
def test_matches_scipy_on_samplers(form):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for scale in (0.05, 0.3):     # batch norms below and above theta_9 = 2.1
        X = _samples(form, scale, 500, seed=1)
        assert _rel_errors(expm_batch(X), scipy_linalg.expm(X)).max() <= 1e-13


def test_single_matrix_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    X = np.random.default_rng(4).standard_normal((6, 6))
    got = expm_batch(X)
    assert got.shape == (6, 6)
    assert _rel_errors(got, scipy_linalg.expm(X)) <= 1e-13


@pytest.mark.parametrize("form", BENCH_FORMS, ids=lambda f: f.label())
def test_scaled_branch_matches_high_precision(form):
    # At scale 5 scipy's own result is off by up to 2e-12 relative on the
    # real families (measured against mpmath), so the reference here is a
    # 40-digit exponential. The batch norm forces squaring, and the checked
    # matrices include the smallest-norm ones, which are scaled the most.
    mpmath = pytest.importorskip("mpmath")
    X = _samples(form, 5.0, 200, seed=2)
    norms = np.abs(X).sum(axis=-2).max(axis=-1)
    assert norms.max() > _THETA_13
    got = expm_batch(X)
    order = np.argsort(norms)
    with mpmath.workdps(40):
        for i in np.concatenate([order[:3], order[-3:]]):
            ref = mpmath.expm(mpmath.matrix(X[i].tolist()))
            want = np.array(ref.tolist(), dtype=X.dtype)
            assert _rel_errors(got[i], want) <= 1e-13, (form.label(), norms[i])

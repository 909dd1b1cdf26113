"""Matrix realizations, invariant forms, samplers, form check, compound matrices.

Matrix conventions
------------------
su(p,q)      complex (p+q) x (p+q), preserving the hermitian form
             H = diag(I_p, -I_q).
so(m,2)      real (m+2) x (m+2), preserving the symmetric form
             diag(I_{m-2}, J_4) with J_4 the 4x4 antidiagonal; the split
             torus is then literally diag(0, t1, t2, -t2, -t1).
so*(2n)      complex 2n x 2n, the intersection of the unitary algebra of
             the split hermitian form [[0, I], [I, 0]] with the orthogonal
             algebra of the symmetric form diag(I_n, -I_n); block shape
             [[A, B], [B^T, conj(A)]] with A antisymmetric and B
             anti-hermitian.
sp(2g,R)     real 2g x 2g with the symplectic form [[0, I], [-I, 0]].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._expm import _SLICE, cayley_batch, real_form, times
from .errors import InternalError, NumericalError, ParameterError
from .realforms import Family, RealFormSpec

_RELATION_TOL = 1e-12
# OpenBLAS runs a GEMM on one thread while M * N * K is at most
# GEMM_MULTITHREAD_THRESHOLD (4) * 65536 (SMP_THRESHOLD_MIN, interface/gemm.c).
# Calls kept this small never wake its worker threads, which otherwise spin
# on the other CPU and slow every call after them.
_GEMM_SERIAL_MNK = 2 ** 18


def _unit(d, j, k, val, dtype):
    m = np.zeros((d, d), dtype=dtype)
    m[j, k] = val
    return m


def _su_basis(p: int, q: int) -> np.ndarray:
    n = p + q
    out = []
    # traceless imaginary diagonals (adjacent differences)
    for j in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1j
        m[j + 1, j + 1] = -1j
        out.append(m)
    # anti-hermitian within each definite block
    for block in (range(p), range(p, n)):
        for j, k in combinations(block, 2):
            out.append(_unit(n, j, k, 1, complex) - _unit(n, k, j, 1, complex))
            out.append(_unit(n, j, k, 1j, complex) + _unit(n, k, j, 1j, complex))
    # hermitian cross-block terms
    for j in range(p):
        for k in range(p, n):
            out.append(_unit(n, j, k, 1, complex) + _unit(n, k, j, 1, complex))
            out.append(_unit(n, j, k, 1j, complex) - _unit(n, k, j, 1j, complex))
    return np.stack(out)


def _so_form(d: int) -> np.ndarray:
    Q = np.eye(d)
    J4 = np.zeros((4, 4))
    J4[[0, 1, 2, 3], [3, 2, 1, 0]] = 1.0
    Q[d - 4:, d - 4:] = J4
    return Q


def _so_basis(d: int) -> np.ndarray:
    # X^T Q + Q X = 0  <=>  X = Q S with S skew (Q is its own inverse)
    Q = _so_form(d)
    out = []
    for j, k in combinations(range(d), 2):
        S = _unit(d, j, k, 1.0, float) - _unit(d, k, j, 1.0, float)
        out.append(Q @ S)
    return np.stack(out)


def _so_star_basis(n: int) -> np.ndarray:
    d = 2 * n
    out = []

    def embed(A, B):
        X = np.zeros((d, d), dtype=complex)
        X[:n, :n] = A
        X[:n, n:] = B
        X[n:, :n] = B.T
        X[n:, n:] = np.conj(A)
        return X

    zero = np.zeros((n, n), dtype=complex)
    for j, k in combinations(range(n), 2):
        A = _unit(n, j, k, 1, complex) - _unit(n, k, j, 1, complex)
        out.append(embed(A, zero))
        out.append(embed(1j * A, zero))
        B = _unit(n, j, k, 1, complex) - _unit(n, k, j, 1, complex)
        out.append(embed(zero, B))
        B = _unit(n, j, k, 1j, complex) + _unit(n, k, j, 1j, complex)
        out.append(embed(zero, B))
    for j in range(n):
        out.append(embed(zero, _unit(n, j, j, 1j, complex)))
    return np.stack(out)


def _sp_basis(g: int) -> np.ndarray:
    d = 2 * g
    omega = _sp_form(g)
    omega_inv = -omega
    out = []
    for j in range(d):
        out.append(omega_inv @ _unit(d, j, j, 1.0, float))
    for j, k in combinations(range(d), 2):
        S = _unit(d, j, k, 1.0, float) + _unit(d, k, j, 1.0, float)
        out.append(omega_inv @ S)
    return np.stack(out)


def _sp_form(g: int) -> np.ndarray:
    d = 2 * g
    omega = np.zeros((d, d))
    omega[:g, g:] = np.eye(g)
    omega[g:, :g] = -np.eye(g)
    return omega


@dataclass(frozen=True, eq=False)
class GroupSampler:
    """Matrix realization of a real form plus its random-walk step law.

    ``basis`` has shape (algebra_dim, d, d); a step is the scaled Cayley
    step of X = sum c_i B_i (``_expm.cayley_batch``), close to exp(X), with
    i.i.d. gaussian coefficients c_i of standard deviation ``scale``.
    ``forms`` maps "hermitian", "symmetric" or "symplectic" to the invariant
    forms the group preserves.
    """

    form: RealFormSpec
    basis: np.ndarray
    scale: float
    forms: dict[str, np.ndarray]

    @property
    def matrix_dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.basis)


def _relation_residual(sampler: GroupSampler, X: np.ndarray) -> float:
    """Largest residual of the defining algebra relations on X."""
    worst = abs(np.trace(X)) if sampler.form.family is Family.SU else 0.0
    for name, F in sampler.forms.items():
        left = np.conj(X.T) if name == "hermitian" else X.T
        worst = max(worst, float(np.abs(left @ F + F @ X).max()))
    return worst


def lie_algebra_basis(form: RealFormSpec, scale: float = 0.3) -> GroupSampler:
    """Real basis of the Lie algebra in its standard matrix realization.

    The basis cardinality equals the real dimension of the algebra and
    every element is checked against the defining relations on
    construction.
    """
    if not math.isfinite(scale) or scale < 0:
        raise ParameterError("scale must be finite and nonnegative")
    fam = form.family
    if fam is Family.SU:
        H = np.diag([1.0] * form.p + [-1.0] * form.q).astype(complex)
        basis, forms = _su_basis(form.p, form.q), {"hermitian": H}
    elif fam in (Family.SO_ODD, Family.SO_EVEN):
        d = form.matrix_dim
        basis, forms = _so_basis(d), {"symmetric": _so_form(d)}
    elif fam is Family.SO_STAR:
        n = form.n
        H = np.zeros((2 * n, 2 * n), dtype=complex)
        H[:n, n:] = np.eye(n)
        H[n:, :n] = np.eye(n)
        S = np.diag([1.0] * n + [-1.0] * n).astype(complex)
        basis, forms = _so_star_basis(n), {"hermitian": H, "symmetric": S}
    else:
        basis, forms = _sp_basis(form.g), {"symplectic": _sp_form(form.g)}
    sampler = GroupSampler(form, basis, scale, forms)
    for F in forms.values():
        _signed_permutation(F)
    if sampler.basis.shape[0] != form.algebra_dim:
        raise NumericalError("basis cardinality disagrees with the algebra dimension",
                             {"form": form.label(), "built": sampler.basis.shape[0],
                              "expected": form.algebra_dim})
    worst = max(_relation_residual(sampler, X) for X in sampler.basis)
    if worst > _RELATION_TOL:
        raise NumericalError("basis violates the defining relations",
                             {"form": form.label(), "residual": worst})
    return sampler


def sample_group_elements(sampler: GroupSampler, rng: np.random.Generator,
                          count: int) -> np.ndarray:
    """Draw ``count`` random group elements, the scaled Cayley steps
    cay(X / 2^(s+1))^(2^s) of X = sum c_i B_i, c_i ~ N(0, scale^2).

    X is a real GEMM of the coefficients with the basis viewed as real
    rows, (nb, d^2) or (nb, 2 d^2), cut into calls of at most
    ``_GEMM_SERIAL_MNK`` multiply-adds (for nb below that), which BLAS
    never threads: row blocks, over column panels sqrt(_GEMM_SERIAL_MNK /
    nb) wide where a row is wider, so that a large basis is not reread for
    every sample. X equals np.tensordot's result, up to the sign of a zero,
    which I +- X / 2^(s+1) in the Cayley step erases."""
    basis = sampler.basis
    nb = basis.shape[0]
    coeffs = rng.standard_normal((count, nb)) * sampler.scale
    rows = basis.reshape(nb, -1)
    if np.iscomplexobj(basis):
        rows = rows.view(basis.real.dtype)
    X = np.empty((count, rows.shape[1]), rows.dtype)
    width = min(rows.shape[1], max(1, math.isqrt(_GEMM_SERIAL_MNK // nb)))
    step = max(1, _GEMM_SERIAL_MNK // (nb * width))
    for c0 in range(0, rows.shape[1], width):
        panel = rows[:, c0:c0 + width]
        for lo in range(0, count, step):
            np.matmul(coeffs[lo:lo + step], panel, out=X[lo:lo + step, c0:c0 + width])
    G = cayley_batch(X.view(basis.dtype).reshape((count,) + basis.shape[1:]))
    if not np.isfinite(G).all():
        raise NumericalError("group element overflowed",
                             {"form": sampler.form.label(), "scale": sampler.scale})
    return G


def _signed_permutation(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, v) with F[i, c_i] = v_i = +-1 the only nonzero entries of F;
    InternalError unless F is a signed permutation matrix."""
    A = np.abs(F)
    if not (np.isin(A, (0, 1)).all() and (A.sum(axis=0) == 1).all()
            and (A.sum(axis=1) == 1).all()):
        raise InternalError("declared invariant form is not a signed permutation")
    c = A.argmax(axis=1)
    return c, F[np.arange(len(F)), c]


def form_preservation_errors(sampler: GroupSampler, g: np.ndarray) -> dict[str, float]:
    """Relative errors of the declared invariant forms under g (batched ok).

    hermitian: ||g^dag H g - H|| / ||H||; bilinear forms use g^T. Every form
    is a signed permutation, F[r_j, j] = w_j, so ||F|| = 1 in the max norm,
    g^dag F is the column gather w_j g^dag[:, r_j], and each form costs one
    product (g^dag F) g, taken in slices of ``_SLICE`` matrices. A
    non-finite product reads inf.
    """
    g = g.reshape((-1,) + g.shape[-2:])
    gathers = {name: _signed_permutation(F.T) for name, F in sampler.forms.items()}
    out = dict.fromkeys(sampler.forms, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(g), _SLICE):
            part = g[lo:lo + _SLICE]
            M, gt = real_form(part), np.swapaxes(part, -1, -2)
            for name, F in sampler.forms.items():
                r, w = gathers[name]
                left = np.conj(gt) if name == "hermitian" else gt
                err = float(np.abs(times(left[..., r] * w, M) - F).max())
                out[name] = max(out[name], math.inf if math.isnan(err) else err)
    return out


@functools.lru_cache(maxsize=64)
def _laplace_tables(d: int, r: int):
    """Index tables expanding every r x r minor of a d x d matrix along its
    first row: for row subset a and column subset b (both in k_subsets
    order), det M[a, b] = sum_t (-1)^t M[first[a], cols[t][b]] *
    det M[rest[a], rest_cols[t][b]], the smaller minors indexed in the
    (r-1)-subset order."""
    lower = {s: i for i, s in enumerate(combinations(range(d), r - 1))}
    subs = list(combinations(range(d), r))
    first = np.array([s[0] for s in subs])[:, None]
    rest = np.array([lower[s[1:]] for s in subs])[:, None]
    cols = np.array([[s[t] for s in subs] for t in range(r)])[:, None, :]
    rest_cols = np.array([[lower[s[:t] + s[t + 1:]] for s in subs]
                          for t in range(r)])[:, None, :]
    return first, rest, cols, rest_cols


def exterior_power_matrix(M: np.ndarray, k: int) -> np.ndarray:
    """k-th compound matrix: entries are k x k minors indexed by k_subsets.

    Functorial: the compound of a product is the product of compounds.
    Accepts a single matrix or a batch (..., d, d). The r x r minors are
    built from the (r-1) x (r-1) ones by Laplace expansion along the first
    row, for r = 2..k.
    """
    M = np.asarray(M)
    d = M.shape[-1]
    if not 1 <= k <= d:
        raise ParameterError(f"compound degree {k} out of range 1..{d}")
    minors = M.copy()
    for r in range(2, k + 1):
        first, rest, cols, rest_cols = _laplace_tables(d, r)
        nxt = M[..., first, cols[0]] * minors[..., rest, rest_cols[0]]
        for t in range(1, r):
            term = M[..., first, cols[t]] * minors[..., rest, rest_cols[t]]
            if t % 2:
                nxt -= term
            else:
                nxt += term
        minors = nxt
    return minors

"""Batched matrix exponential by scaling and squaring with Pade approximants.

exp(A) = r_m(A / 2^s)^(2^s), with r_m the [m/m] Pade approximant of degree
m in (3, 5, 7, 9, 13), following Higham, "The scaling and squaring method
for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26
(2005). The degree and the squaring count s are chosen once per call from
the largest 1-norm in the batch: the smallest m whose threshold theta_m
bounds it, else m = 13 with s = ceil(log2(norm / theta_13)). This bounds
the backward error by the unit roundoff for every matrix of the batch.

The batch is processed in slices of at most ``_SLICE`` = 512 matrices, so
the working set stays bounded; each slice solves its stacked Pade systems
in one ``np.linalg.solve`` call. A complex product A @ B is computed as
``times(A, real_form(B))``, one real (d, 2d) @ (2d, 2d) GEMM per matrix,
which numpy runs several times faster than its stacked complex matmul; a
real stack goes through the same calls. A matrix's result depends only on
itself and on (m, s), so it is bit-identical whatever batch or slice it is
computed in, as long as the batch's largest norm selects the same (m, s).

Overflow in the squaring phase is silent: it surfaces as non-finite
output for callers to check, not as a RuntimeWarning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

_SLICE = 512

# (degree, theta_m): largest 1-norm for which r_m has backward error below
# the unit roundoff (Higham 2005, Table 2.3)
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
          (13, 5.371920351148152e0))

# coefficients b_0..b_m of the Pade numerator p_m(x) = sum b_j x^j
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600.,
         670442572800., 33522128640., 1323241920., 40840800., 960960.,
         16380., 182., 1.),
}


def _degree_and_squarings(norm: float) -> tuple[int, int]:
    for m, theta in _THETA:
        if norm <= theta:
            return m, 0
    return 13, max(0, math.ceil(math.log2(norm / _THETA[-1][1])))


def real_form(B: np.ndarray) -> np.ndarray:
    """The real (..., 2d, 2d) matrices M with x.view(float) @ M equal to
    (x @ B).view(float) for complex rows x; a real B is returned as is."""
    if not np.iscomplexobj(B):
        return B
    d = B.shape[-1]
    M = np.empty(B.shape[:-2] + (d, 2, d), B.dtype)   # rows B[k], 1j * B[k]
    M[..., 0, :] = B
    np.multiply(B, 1j, out=M[..., 1, :])
    return M.view(B.real.dtype).reshape(B.shape[:-2] + (2 * d, 2 * d))


def times(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A @ B for M = real_form(B), as one real GEMM per matrix."""
    if not np.iscomplexobj(A):
        return A @ M
    if A.strides[-1] != A.itemsize:
        A = np.ascontiguousarray(A)
    return (A.view(A.real.dtype) @ M).view(A.dtype)


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """r_m(A) = q_m(A)^-1 p_m(A) for a stack A of shape (n, d, d). Every
    right factor is A, A^2 or A^6, which commute with the left ones, so
    each real form is built once."""
    b = _PADE[m]
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    RA = real_form(A)
    A2 = times(A, RA)
    RA2 = real_form(A2)
    if m == 13:
        A4 = times(A2, RA2)
        A6 = times(A4, RA2)
        RA6 = real_form(A6)
        U = times(times(b[13] * A6 + b[11] * A4 + b[9] * A2, RA6)
                  + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye, RA)
        V = (times(b[12] * A6 + b[10] * A4 + b[8] * A2, RA6)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    else:
        powers = [eye, A2]                       # A^0, A^2, ..., A^(m-1)
        while len(powers) < (m + 1) // 2:
            powers.append(times(powers[-1], RA2))
        U = times(sum(b[2 * j + 1] * P for j, P in enumerate(powers)), RA)
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
    return np.linalg.solve(V - U, V + U)


def expm_batch(X: np.ndarray) -> np.ndarray:
    """exp(X) for a stack of square matrices X of shape (..., d, d)."""
    X = np.asarray(X)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise NumericalError("expm_batch expects (..., d, d) input",
                             {"shape": X.shape})
    if X.size == 0:
        return X.copy()
    if not np.isfinite(X).all():
        raise NumericalError("non-finite entries in expm_batch input", {})
    if not np.issubdtype(X.dtype, np.inexact):
        X = X.astype(float)
    d = X.shape[-1]
    A = X.reshape(-1, d, d)
    m, s = _degree_and_squarings(float(np.abs(A).sum(axis=-2).max()))
    scale = 2.0 ** -s
    out = np.empty_like(A)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, A.shape[0], _SLICE):
            R = _pade(A[lo:lo + _SLICE] * scale, m)
            for _ in range(s):
                R = times(R, real_form(R))
            out[lo:lo + _SLICE] = R
    return out.reshape(X.shape)

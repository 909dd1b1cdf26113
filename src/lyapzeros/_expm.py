"""Batched matrix exponential by scaling and squaring with the [13/13] Pade
approximant: exp(A) = r_13(A / 2^s)^(2^s) (Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26
(2005)). s = ceil(log2(norm / theta_13)) for the largest 1-norm in the batch
if it exceeds theta_13, else 0, which bounds the backward error by the unit
roundoff for every matrix of the batch. Higham's lower degrees save products
only at norms up to theta_9 = 2.1, and simulation batches at the default
scale have norms 2.5-5.0, so one degree is enough (7e-16 from scipy at scales
0.001-0.3). An all-zero batch gives the identity exactly.

The batch is processed in slices of at most ``_SLICE`` = 512 matrices, so
the working set stays bounded; each slice solves its stacked Pade systems
in one ``np.linalg.solve`` call. A complex product A @ B is computed as
``times(A, real_form(B))``, one real (d, 2d) @ (2d, 2d) GEMM per matrix,
which numpy runs several times faster than its stacked complex matmul; a
real stack goes through the same calls. A matrix's result depends only on
itself and on s, so it is bit-identical whatever batch or slice it is
computed in, as long as the batch's largest norm selects the same s.

Overflow in the squaring phase is silent: it surfaces as non-finite
output for callers to check, not as a RuntimeWarning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

_SLICE = 512

# largest 1-norm for which r_13 has backward error below the unit roundoff
# (Higham 2005, Table 2.3)
_THETA_13 = 5.371920351148152e0

# coefficients b_0..b_13 of the Pade numerator p_13(x) = sum b_j x^j
_PADE_13 = (64764752532480000., 32382376266240000., 7771770303897600.,
            1187353796428800., 129060195264000., 10559470521600.,
            670442572800., 33522128640., 1323241920., 40840800., 960960.,
            16380., 182., 1.)


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


def _pade(A: np.ndarray) -> np.ndarray:
    """r_13(A) = q_13(A)^-1 p_13(A) for a stack A of shape (n, d, d). Every
    right factor is A, A^2 or A^6, which commute with the left ones, so
    each real form is built once."""
    b = _PADE_13
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    RA = real_form(A)
    A2 = times(A, RA)
    RA2 = real_form(A2)
    A4 = times(A2, RA2)
    A6 = times(A4, RA2)
    RA6 = real_form(A6)
    U = times(times(b[13] * A6 + b[11] * A4 + b[9] * A2, RA6)
              + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye, RA)
    V = (times(b[12] * A6 + b[10] * A4 + b[8] * A2, RA6)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
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
    norm = float(np.abs(A).sum(axis=-2).max())
    if norm == 0:
        return np.broadcast_to(np.eye(d, dtype=A.dtype), X.shape).copy()
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    scale = 2.0 ** -s
    out = np.empty_like(A)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, A.shape[0], _SLICE):
            R = _pade(A[lo:lo + _SLICE] * scale)
            for _ in range(s):
                R = times(R, real_form(R))
            out[lo:lo + _SLICE] = R
    return out.reshape(X.shape)

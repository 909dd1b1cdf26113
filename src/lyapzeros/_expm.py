"""Batched scaled Cayley steps: g = cay(X / 2^(s+1))^(2^s), where
cay(A) = (I - A)^-1 (I + A). Every family here is a quadratic group, one
that preserves the hermitian, symmetric and/or symplectic forms of its
sampler, so cay maps its Lie algebra into the group up to rounding (Diele,
Lopez & Peluso, Adv. Comput. Math. 8 (1998); Iserles, Munthe-Kaas, Norsett
& Zanna, "Lie-group methods", Acta Numerica 9 (2000)), and so do the
squarings. cay(A) = exp(2 artanh(A)), so g = exp(X + X^3 / (12 * 4^s)
+ ...) agrees with exp(X) to O(||X||^3). s = ceil(log2(norm / _THETA))
for the largest 1-norm in the batch, or 0 below _THETA = 1, so
||X / 2^(s+1)||_1 <= 1/2 and ||(I - A)^-1||_1 <= 2: every solve is well
conditioned. Unscaled steps (s = 0) are not: near an eigenvalue 2 of X
they are near-singular. An all-zero batch gives the identity exactly.

The batch is processed in slices of ``slice_length`` matrices, as many as
fit in ``_BLOCK_BYTES`` = 256 KiB (at least one): 1,820 for su(2,1), 2,048
for sp(4,R), 668 for so(5,2), 455 for so*(6), 256 for su(4,4) and 64 for
su(8,8). The working set stays bounded, and each numpy call carries enough
work for the sampler's two trial threads to overlap: a call of a few
microseconds mostly passes the GIL back and forth. One pass takes the
largest 1-norm slice by slice, and a second solves (I - A) R = I + A for
each slice, squares it s times and writes the result over the slice. ``cayley_in_place`` is that
core and steps its argument in place; the sampler calls it on its own X,
so a chunk of steps is held in one buffer. ``cayley_batch`` copies its
argument first and leaves the caller's array untouched.

For d <= ``_GAUSS_JORDAN_MAX_DIM`` the solve is batch-last Gauss-Jordan
elimination (``_solve_gauss_jordan``): a few array operations per column
over the whole slice, where a stacked ``np.linalg.solve`` makes one LAPACK
call per matrix and its per-call overhead dominates. ||A||_1 <= 1/2 makes
I - A strictly column diagonally dominant, so elimination needs no
pivoting: partial pivoting would never swap rows (Higham, "Accuracy and
Stability of Numerical Algorithms", 2002, sec. 9.5), and Gauss-Jordan
meets the same pivots as Gaussian elimination. The cutoff is the
crossover measured on slices of 512: Gauss-Jordan took 0.26-0.67 of
LAPACK's time at every d = 2..11, real and complex, and 1.04-1.22 of it at
complex d = 12. Larger d keep the stacked LAPACK solve. On the 256 KiB
slices (medians of 21 alternated pairs, two runs) it takes 0.50-0.95 of
LAPACK's time at real d = 8..11 and 0.75-1.02 at real d = 12; at complex
d = 8, 9 it takes 0.74-0.83, at d = 10 0.93-1.12, at d = 11 1.01-1.32 and
at d = 12 1.43-1.53. The complex crossover has thus moved down to d = 10-11,
but the cutoff stays at 11, since moving it would move those steps' bits.

A complex product A @ B is computed as ``times(A, real_form(B))``, one
real (d, 2d) @ (2d, 2d) GEMM per matrix, which numpy runs several times
faster than its stacked complex matmul; a real stack goes through the
same calls. A matrix's result depends only on itself and on s, so it is
bit-identical whatever batch or slice it is computed in, as long as the
batch's largest norm selects the same s.

Overflow in the squaring phase is silent: it surfaces as non-finite
output for callers to check, not as a RuntimeWarning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

# bytes of matrices that one slice of a sliced loop holds, here and in
# matrices: 256 KiB stays in a core's L2 cache and is work enough per call
# for two threads to overlap
_BLOCK_BYTES = 2 ** 18

# largest batch 1-norm taken without squaring
_THETA = 1.0

# largest matrix dimension solved by Gauss-Jordan; LAPACK's solve above it
_GAUSS_JORDAN_MAX_DIM = 11


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


def slice_length(A: np.ndarray) -> int:
    """Matrices per slice of the stack A (..., d, d): as many as fit in
    ``_BLOCK_BYTES``, and at least one."""
    return max(1, _BLOCK_BYTES // (A.shape[-1] ** 2 * A.itemsize))


def _solve_gauss_jordan(H: np.ndarray) -> np.ndarray:
    """(I - H)^-1 (I + H) for a stack H of shape (n, d, d) whose I - H are
    strictly column diagonally dominant, by Gauss-Jordan elimination
    without pivoting on M = [I - H | I + H], laid out (d, 2d, n): step k
    scales row k by 1 / M[k, k] and subtracts column k times row k from
    the rows above and below it. Columns 0..k are never read again, so
    they are not updated."""
    n, d = H.shape[0], H.shape[-1]
    Ht = H.transpose(1, 2, 0)
    M = np.empty((d, 2 * d, n), H.dtype)
    np.negative(Ht, out=M[:, :d])
    M[:, d:] = Ht
    diag = np.arange(d)
    M[diag, diag] += 1
    M[diag, d + diag] += 1
    for k in range(d):
        row = M[k, k + 1:]
        row *= 1 / M[k, k]
        M[:k, k + 1:] -= M[:k, k, None] * row
        M[k + 1:, k + 1:] -= M[k + 1:, k, None] * row
    return np.ascontiguousarray(M[:, d:].transpose(2, 0, 1))


def cayley_batch(X: np.ndarray) -> np.ndarray:
    """Scaled Cayley steps for a stack of square matrices X of shape (..., d, d):
    a copy of X, stepped by ``cayley_in_place``; X itself is left as it is."""
    X = np.asarray(X)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise NumericalError("cayley_batch expects (..., d, d) input",
                             {"shape": X.shape})
    if X.size == 0:
        return X.copy()
    dtype = X.dtype if np.issubdtype(X.dtype, np.inexact) else np.dtype(float)
    return cayley_in_place(np.array(X, dtype=dtype, order="C"))


def cayley_in_place(X: np.ndarray) -> np.ndarray:
    """The scaled Cayley steps of a C-contiguous stack X of shape (..., d, d)
    and inexact dtype, written over X, which is returned. s comes from the
    largest 1-norm, taken slice by slice, so no full-size |X| is built; a
    non-finite entry or 1-norm in any slice raises NumericalError before
    any step. Each slice's result then overwrites it, which is safe because
    the slice's H = X / 2^(s+1) is a scaled copy."""
    d = X.shape[-1]
    A = X.reshape(-1, d, d)
    step = slice_length(A)
    norm = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, A.shape[0], step):
            part = float(np.abs(A[lo:lo + step]).sum(axis=-2).max())
            if not math.isfinite(part):     # a non-finite entry, or finite ones too large
                raise NumericalError("non-finite entries or 1-norm in cayley_batch input", {})
            norm = max(norm, part)
    eye = np.eye(d, dtype=A.dtype)
    if norm == 0:
        A[...] = eye
        return A.reshape(X.shape)
    s = max(0, math.ceil(math.log2(norm / _THETA)))
    scale = 2.0 ** -(s + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, A.shape[0], step):
            H = A[lo:lo + step] * scale
            if d <= _GAUSS_JORDAN_MAX_DIM:
                R = _solve_gauss_jordan(H)
            else:
                R = np.linalg.solve(eye - H, eye + H)
            for _ in range(s):
                R = times(R, real_form(R))
            A[lo:lo + step] = R
    return A.reshape(X.shape)

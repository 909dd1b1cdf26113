"""Batched scaled Cayley steps: g = cay(X / 2^(s+1))^(2^s), where
cay(A) = (I - A)^-1 (I + A). Every family here is a quadratic group, one
that preserves the hermitian, symmetric and/or symplectic forms of its
sampler, so cay maps its Lie algebra into the group up to rounding (Diele,
Lopez & Peluso, Adv. Comput. Math. 8 (1998); Iserles, Munthe-Kaas, Norsett
& Zanna, "Lie-group methods", Acta Numerica 9 (2000)), and so do the
squarings, at any s. cay(A) = exp(2 artanh(A)), so g = exp(X + X^3 /
(12 * 4^s) + ...) agrees with exp(X) to O(||X||^3). Each matrix takes its
own s = max(0, ceil(log2 ||X||_1)), so ||X / 2^(s+1)||_1 <= 1/2 and
||(I - A)^-1||_1 <= 2: every solve is well conditioned. Unscaled steps
(s = 0 for all) are not: near an eigenvalue 2 of X they are near-singular.
A zero matrix takes s = 0 and gives the identity exactly.

The stack is processed in slices of ``slice_length`` matrices, as many as
fit in ``_BLOCK_BYTES`` = 256 KiB (at least one): 1,820 for su(2,1), 2,048
for sp(4,R), 668 for so(5,2), 455 for so*(6), 256 for su(4,4) and 64 for
su(8,8), so the working set stays bounded. One pass takes every matrix's
1-norm slice by slice, and a second solves (I - A) R = I + A for each
slice by LAPACK (one stacked ``np.linalg.solve``), squares the matrices
that still need it round by round, each matrix s times in all, and writes
the result over the slice. ``cayley_in_place`` steps its argument in
place; the sampler calls it on its own X, so its steps are held in one
buffer. A run calls it once, on the few hundred draws of its table of
steps (``matrices.step_table``).

A complex product A @ B is computed as ``times(A, real_form(B))``, one
real (d, 2d) @ (2d, 2d) GEMM per matrix, which numpy runs several times
faster than its stacked complex matmul; a real stack goes through the
same calls. A matrix's result depends only on itself, so it is
bit-identical whatever stack or slice it is computed in.

Overflow in the squaring phase is silent: it surfaces as non-finite
output for callers to check, not as a RuntimeWarning.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError

# bytes of matrices that one slice of a sliced loop holds, here and in
# matrices: 256 KiB stays in a core's L2 cache and is work enough per call
# for two threads to overlap
_BLOCK_BYTES = 2 ** 18


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


def cayley_in_place(X: np.ndarray) -> np.ndarray:
    """The scaled Cayley steps of a C-contiguous stack X of shape (..., d, d)
    and inexact dtype, written over X, which is returned. Each draw's s
    comes from its own 1-norm; the norms are taken slice by slice, so no
    full-size |X| is built, and a non-finite entry or 1-norm of any draw
    raises NumericalError before any step. Each slice's result then
    overwrites it, which is safe because the slice's H = X / 2^(s+1) is a
    scaled copy. Any other stack raises ParameterError before X is read:
    reshaping a non-contiguous one would copy it, and the steps would go to
    the copy."""
    if not X.flags.c_contiguous or X.dtype.kind not in "fc":
        raise ParameterError("cayley_in_place needs a C-contiguous float or complex "
                             f"stack (got dtype {X.dtype}, C-contiguous "
                             f"{X.flags.c_contiguous})")
    d = X.shape[-1]
    A = X.reshape(-1, d, d)
    step = slice_length(A)
    norms = np.empty(len(A))
    with np.errstate(over="ignore"):
        for lo in range(0, len(A), step):
            norms[lo:lo + step] = np.abs(A[lo:lo + step]).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():    # a non-finite entry, or finite ones too large
        raise NumericalError("non-finite entries or 1-norm in cayley_in_place input", {})
    eye = np.eye(d, dtype=A.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(A), step):
            # s = max(0, ceil(log2 norm)) exactly, for norm = m 2^e with
            # 1/2 <= m < 1; a zero norm gives m = e = 0, s = 0, and cay(0) = I
            m, e = np.frexp(norms[lo:lo + step])
            s = np.maximum(e - (m == 0.5), 0)
            H = A[lo:lo + step] * np.ldexp(1.0, -1 - s)[:, None, None]
            R = np.linalg.solve(eye - H, eye + H)
            for k in range(s.max()):    # square the draws with s > k
                sq = np.flatnonzero(s > k)
                part = R[sq]
                R[sq] = times(part, real_form(part))
            A[lo:lo + step] = R
    return X

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
su(8,8). The working set stays bounded, and each numpy call carries enough
work for the sampler's two trial threads to overlap: a call of a few
microseconds mostly passes the GIL back and forth. One pass takes every
matrix's 1-norm slice by slice, and a second solves (I - A) R = I + A for
each slice, squares it round by round, each matrix s times in all, and
writes the result over the slice. A round squares only the matrices that
still need it, or, when those are most of the slice, squares the whole
slice and puts the others back, which copies less. ``cayley_in_place``
steps its argument in place; the sampler calls it on its own X, so a chunk
of steps is held in one buffer.

For d <= ``_GAUSS_JORDAN_MAX_DIM`` (11 real, 8 complex) the solve is
batch-last Gauss-Jordan elimination (``_solve_gauss_jordan``): a few array
operations per column over the whole slice, where a stacked
``np.linalg.solve`` makes one LAPACK call per matrix and its per-call
overhead dominates. ||A||_1 <= 1/2 makes I - A strictly column diagonally
dominant, so elimination needs no pivoting: partial pivoting would never
swap rows (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
sec. 9.5), and Gauss-Jordan meets the same pivots as Gaussian elimination.
The cutoffs are the crossover on the 256 KiB slices (2 CPUs, medians of 21
alternated pairs, each side the fastest of 5 calls): a whole step took
0.81-0.88 of its time on LAPACK's solve at real d = 8..11 and 1.05 at
real d = 12; 0.79-0.82 at complex d = 6, 7, 0.98 at d = 8, and 1.02, 1.10,
1.20 and 1.41 at complex d = 9..12. Larger d keep the stacked LAPACK solve.

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

# largest matrix dimension solved by Gauss-Jordan, by dtype kind (real
# "f", complex "c"); LAPACK's solve above it
_GAUSS_JORDAN_MAX_DIM = {"f": 11, "c": 8}


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


def _solve_gauss_jordan(X: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(I - H)^-1 (I + H) for the stack H_i = scale_i X_i of shape (n, d, d),
    whose I - H are strictly column diagonally dominant, by Gauss-Jordan
    elimination without pivoting on M = [I - H | I + H], laid out (d, 2d, n)
    so that the scales multiply along its contiguous last axis: step k
    scales row k by 1 / M[k, k] and subtracts column k times row k from
    the rows above and below it. Columns 0..k are never read again, so
    they are not updated."""
    n, d = X.shape[0], X.shape[-1]
    Xt = X.transpose(1, 2, 0)
    M = np.empty((d, 2 * d, n), X.dtype)
    np.multiply(Xt, -scale, out=M[:, :d])
    np.multiply(Xt, scale, out=M[:, d:])
    diag = np.arange(d)
    M[diag, diag] += 1
    M[diag, d + diag] += 1
    for k in range(d):
        row = M[k, k + 1:]
        row *= 1 / M[k, k]
        M[:k, k + 1:] -= M[:k, k, None] * row
        M[k + 1:, k + 1:] -= M[k + 1:, k, None] * row
    return np.ascontiguousarray(M[:, d:].transpose(2, 0, 1))


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
    sums = np.empty((d, step))      # a slice's column sums of |A_i|, batch last
    with np.errstate(over="ignore"):
        for lo in range(0, len(A), step):
            part = sums[:, :len(A) - lo]
            np.abs(A[lo:lo + step]).sum(axis=-2, out=part.T)
            part.max(axis=0, out=norms[lo:lo + step])
    if not np.isfinite(norms).all():    # a non-finite entry, or finite ones too large
        raise NumericalError("non-finite entries or 1-norm in cayley_in_place input", {})
    gauss_jordan = d <= _GAUSS_JORDAN_MAX_DIM[A.dtype.kind]
    eye = np.eye(d, dtype=A.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(A), step):
            # s = max(0, ceil(log2 norm)) exactly, for norm = m 2^e with
            # 1/2 <= m < 1; a zero norm gives m = e = 0, s = 0, and cay(0) = I
            m, e = np.frexp(norms[lo:lo + step])
            s = np.maximum(e - (m == 0.5), 0)
            scale = np.ldexp(1.0, -1 - s)
            if gauss_jordan:
                R = _solve_gauss_jordan(A[lo:lo + step], scale)
            else:
                H = A[lo:lo + step] * scale[:, None, None]
                R = np.linalg.solve(eye - H, eye + H)
            for k in range(s.max()):    # square the draws with s > k
                done = s <= k
                if 2 * np.count_nonzero(done) < len(s):     # square all, restore the done
                    rest = np.flatnonzero(done)
                    kept = R[rest]
                    R = times(R, real_form(R))
                    R[rest] = kept
                else:
                    sq = np.flatnonzero(~done)
                    part = R[sq]
                    R[sq] = times(part, real_form(part))
            A[lo:lo + step] = R
    return X

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

A Lie algebra basis is stored as index tables, not as a dense
(algebra_dim, d, d) array of about 16 d^4 bytes: every basis element has at
most four nonzero real coordinates, each +-1, and every real coordinate at
most two terms (``_index_tables``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from ._expm import _BLOCK_BYTES, cayley_in_place, real_form, slice_length, times
from .errors import InternalError, NumericalError, ParameterError
from .realforms import Family, RealFormSpec

_RELATION_TOL = 1e-12
# a run's table holds up to _TABLE_PAIRS steps and their inverses, and at
# most _TABLE_BYTES of them, half a sampling chunk's budget: all 256 pairs
# up to complex d = 45 and real d = 64, 13 pairs for su(100,100)
_TABLE_PAIRS = 256
_TABLE_BYTES = 2 ** 24


def _su_elements(p: int, q: int) -> list:
    n = p + q
    # traceless imaginary diagonals (adjacent differences)
    out = [[(j, j, 1j), (j + 1, j + 1, -1j)] for j in range(n - 1)]
    # anti-hermitian within each definite block
    for block in (range(p), range(p, n)):
        for j, k in combinations(block, 2):
            out += [[(j, k, 1), (k, j, -1)], [(j, k, 1j), (k, j, 1j)]]
    # hermitian cross-block terms
    for j, k in product(range(p), range(p, n)):
        out += [[(j, k, 1), (k, j, 1)], [(j, k, 1j), (k, j, -1j)]]
    return out


def _so_form(d: int) -> np.ndarray:
    Q = np.eye(d)
    J4 = np.zeros((4, 4))
    J4[[0, 1, 2, 3], [3, 2, 1, 0]] = 1.0
    Q[d - 4:, d - 4:] = J4
    return Q


def _so_elements(d: int) -> list:
    # X^T Q + Q X = 0  <=>  X = Q S with S skew (Q is its own inverse). Q is
    # symmetric, Q[c_j, j] = w_j, so Q S moves entry (j, k) of S to row c_j
    c, w = _signed_permutation(_so_form(d))
    return [[(c[j], k, w[j]), (c[k], j, -w[k])] for j, k in combinations(range(d), 2)]


def _so_star_elements(n: int) -> list:
    # [[A, B], [B^T, conj(A)]], A antisymmetric, B anti-hermitian; a, b
    # index the second block
    out = []
    for j, k in combinations(range(n), 2):
        a, b = n + j, n + k
        out.append([(j, k, 1), (k, j, -1), (a, b, 1), (b, a, -1)])          # A real
        out.append([(j, k, 1j), (k, j, -1j), (a, b, -1j), (b, a, 1j)])      # A imaginary
        out.append([(j, b, 1), (k, a, -1), (b, j, 1), (a, k, -1)])          # B real
        out.append([(j, b, 1j), (k, a, 1j), (b, j, 1j), (a, k, 1j)])        # B imaginary
    out += [[(j, n + j, 1j), (n + j, j, 1j)] for j in range(n)]            # B diagonal
    return out


def _sp_elements(g: int) -> list:
    # X = omega^-1 S with S symmetric. omega^-1 = omega^T has omega[j, c_j]
    # = w_j at (c_j, j), so it moves entry (j, k) of S to row c_j
    c, w = _signed_permutation(_sp_form(g))
    return ([[(c[j], j, w[j])] for j in range(2 * g)]
            + [[(c[j], k, w[j]), (c[k], j, w[k])] for j, k in combinations(range(2 * g), 2)])


def _sp_form(g: int) -> np.ndarray:
    d = 2 * g
    omega = np.zeros((d, d))
    omega[:g, g:] = np.eye(g)
    omega[g:, :g] = -np.eye(g)
    return omega


def _index_tables(elements: list, d: int, is_complex: bool):
    """(index, sign) of shape (2, D): real coordinate t of sum_i c_i B_i, in
    a (complex) d x d array's float view, is sum_l sign[l, t] c[index[l, t]],
    B_i having the entries (row, column, +-1 or +-1j) of ``elements[i]``."""
    width = 2 if is_complex else 1
    index = [[0] * (width * d * d) for _ in range(2)]
    sign = [[0.0] * (width * d * d) for _ in range(2)]
    for i, entries in enumerate(elements):
        for r, c, v in entries:
            t = width * (r * d + c) + (v.imag != 0)
            layer = 0 if sign[0][t] == 0 else 1
            if sign[layer][t] != 0:
                raise InternalError("a matrix coordinate has over two basis terms")
            index[layer][t], sign[layer][t] = i, v.real + v.imag
    return np.array(index, dtype=np.intp), np.array(sign)


@dataclass(frozen=True, eq=False)
class GroupSampler:
    """Matrix realization of a real form plus its random-walk step law.

    Without a ``table``, a step is the scaled Cayley step of X = sum c_i B_i
    (``_expm.cayley_in_place``), close to exp(X), with i.i.d. gaussian
    coefficients c_i of standard deviation ``scale``; X is gathered from
    them through the index tables of the basis (``_index_tables``). With
    one (``step_table``), a step is a uniform draw from its rows. ``forms``
    maps "hermitian", "symmetric" or "symplectic" to the invariant forms
    the group preserves.
    """

    form: RealFormSpec
    index: np.ndarray
    sign: np.ndarray
    scale: float
    forms: dict[str, np.ndarray]
    table: np.ndarray | None = None

    @property
    def matrix_dim(self) -> int:
        return self.form.matrix_dim

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(complex if self.form.is_complex_family else float)

    @functools.cached_property
    def gathers(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """(r, w) of each form F, F[r_j, j] = w_j: g^dag F is the signed
        column gather w_j g^dag[:, r_j]. Computed once per sampler."""
        return {name: _signed_permutation(F.T) for name, F in self.forms.items()}

    @property
    def basis(self) -> np.ndarray:
        """The dense (algebra_dim, d, d) basis the tables stand for, about
        16 d^4 bytes; for reference checks, not for sampling."""
        return _combine(self, np.eye(self.form.algebra_dim))


def _combine(sampler: GroupSampler, coeffs: np.ndarray) -> np.ndarray:
    """The (count, d, d) stack of X = sum_i c_i B_i over the rows c of ``coeffs``."""
    count, width = len(coeffs), sampler.index.shape[1]
    X = np.empty((count, width))
    rows = max(1, _BLOCK_BYTES // (16 * width))    # a block's two float64 term layers
    for lo in range(0, count, rows):
        terms = coeffs[lo:lo + rows, sampler.index]    # (rows, 2, width)
        terms *= sampler.sign
        np.add(terms[:, 0], terms[:, 1], out=X[lo:lo + rows])
    return X.view(sampler.dtype).reshape((count,) + (sampler.matrix_dim,) * 2)


def _relation_residual(sampler: GroupSampler, X: np.ndarray) -> float:
    """Largest residual of the defining algebra relations on X."""
    worst = abs(np.trace(X)) if sampler.form.family is Family.SU else 0.0
    for name, F in sampler.forms.items():
        left = np.conj(X.T) if name == "hermitian" else X.T
        worst = max(worst, float(np.abs(left @ F + F @ X).max()))
    return worst


def lie_algebra_basis(form: RealFormSpec, scale: float = 0.3) -> GroupSampler:
    """Real basis of the Lie algebra in its standard matrix realization, as
    the index tables of a GroupSampler. The element count is checked against
    the real dimension of the algebra, and one random combination of all
    elements against the defining relations."""
    if not math.isfinite(scale) or scale < 0:
        raise ParameterError("scale must be finite and nonnegative")
    if form.family is Family.SU:
        H = np.diag([1.0] * form.p + [-1.0] * form.q).astype(complex)
        elements, forms = _su_elements(form.p, form.q), {"hermitian": H}
    elif form.family in (Family.SO_ODD, Family.SO_EVEN):
        d = form.matrix_dim
        elements, forms = _so_elements(d), {"symmetric": _so_form(d)}
    elif form.family is Family.SO_STAR:
        n = form.n
        H = np.kron([[0, 1], [1, 0]], np.eye(n)).astype(complex)
        S = np.diag([1.0] * n + [-1.0] * n).astype(complex)
        elements, forms = _so_star_elements(n), {"hermitian": H, "symmetric": S}
    else:
        elements, forms = _sp_elements(form.g), {"symplectic": _sp_form(form.g)}
    for F in forms.values():
        _signed_permutation(F)
    if len(elements) != form.algebra_dim:
        raise NumericalError("basis cardinality disagrees with the algebra dimension",
                             {"form": form.label(), "built": len(elements),
                              "expected": form.algebra_dim})
    sampler = GroupSampler(form, *_index_tables(elements, form.matrix_dim,
                                                form.is_complex_family), scale, forms)
    coeffs = np.random.default_rng(0).standard_normal((1, form.algebra_dim))
    worst = _relation_residual(sampler, _combine(sampler, coeffs)[0])
    if worst > _RELATION_TOL:
        raise NumericalError("basis violates the defining relations",
                             {"form": form.label(), "residual": worst})
    return sampler


def sample_group_elements(sampler: GroupSampler, rng: np.random.Generator,
                          count: int) -> np.ndarray:
    """Draw ``count`` random group elements. With a table, each is the row
    of one index draw ``rng.integers(0, len(table))``. Without one, each is
    the scaled Cayley step cay(X / 2^(s+1))^(2^s) of X = sum c_i B_i, c_i ~
    N(0, scale^2), with s set by the draw's own 1-norm. Either way each
    element is a function of its own draw, so the first m of ``count``
    draws are the m draws of a fresh generator on the same seed, bit for
    bit. A coordinate of X is a sum of at most two terms +-c_i, in any
    order the same, so the gathered X equals np.tensordot's against
    ``basis`` up to the sign of a zero, which I +- X / 2^(s+1) in the
    Cayley step erases. The coefficients are scaled in place and dropped
    once X is gathered, and X is stepped in place (``_expm.cayley_in_place``),
    so the Cayley draws hold count * (8 algebra_dim + d^2 itemsize) bytes,
    plus one slice's workspace."""
    if sampler.table is not None:
        return sampler.table[rng.integers(0, len(sampler.table), count)]
    coeffs = rng.standard_normal((count, sampler.form.algebra_dim))
    coeffs *= sampler.scale
    X = _combine(sampler, coeffs)
    del coeffs
    G = cayley_in_place(X)
    if not np.isfinite(G).all():
        raise NumericalError("group element overflowed",
                             {"form": sampler.form.label(), "scale": sampler.scale})
    return G


def step_table(sampler: GroupSampler, rng: np.random.Generator) -> GroupSampler:
    """``sampler`` with the table law: m Cayley steps g_i of ``rng``, then
    their inverses, rows m + i. m is ``_TABLE_PAIRS``, or as many pairs as
    fit in ``_TABLE_BYTES``, and at least one. The law is symmetric, and
    for m >= 2 generic steps generate a Zariski-dense subgroup. Each inverse
    is read off the group's first form F, g^dag F g = F (g^T for a
    bilinear F), as g^-1 = F^-1 g^dag F: F is a signed permutation, F[r_j,
    j] = w_j, so that is the gather w_i w_j g^dag[r_i, r_j], exact to the
    bit, and its error is g's form error."""
    matrix = sampler.matrix_dim ** 2 * sampler.dtype.itemsize
    m = max(1, min(_TABLE_PAIRS, _TABLE_BYTES // (2 * matrix)))
    G = sample_group_elements(sampler, rng, m)
    name = next(iter(sampler.forms))
    r, w = sampler.gathers[name]
    Gt = np.swapaxes(G, -1, -2)
    star = np.conj(Gt) if name == "hermitian" else Gt
    return replace(sampler, table=np.concatenate([G, star[:, r[:, None], r] * np.outer(w, w)]))


def _signed_permutation(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, v) with F[i, c_i] = v_i = +-1 the only nonzero entries of F;
    InternalError unless F is a signed permutation matrix."""
    A = np.abs(F)
    if not (np.isin(A, (0, 1)).all() and (A.sum(axis=0) == 1).all()
            and (A.sum(axis=1) == 1).all()):
        raise InternalError("declared invariant form is not a signed permutation")
    c = A.argmax(axis=1)
    return c, F[np.arange(len(F)), c]


def form_preservation_errors(sampler: GroupSampler, g: np.ndarray,
                             relative: bool = False) -> dict[str, float]:
    """Errors of the declared invariant forms under g (batched ok).

    hermitian: ||g^dag H g - H|| / ||H||; bilinear forms use g^T. Every form
    is a signed permutation, F[r_j, j] = w_j, so ||F|| = 1 in the max norm,
    g^dag F is the column gather w_j g^dag[:, r_j], and each form costs one
    product (g^dag F) g. Slices of a third of ``_expm.slice_length``
    matrices for a complex g and half for a real one (at least one) keep
    what a slice allocates (real form, g^dag F, product) within 4/3 of
    ``_expm._BLOCK_BYTES`` = 256 KiB: at twice that, glibc's malloc gave it
    back after each of the simulator's chunks and faulted it in again. With
    ``relative``, each matrix's error is divided by its squared Frobenius
    norm, one elementwise pass and at least ||g||_2^2, the scale of the
    rounding in g^dag F g. A non-finite product reads inf.
    """
    g = g.reshape((-1,) + g.shape[-2:])
    gt, out = g.swapaxes(-1, -2), dict.fromkeys(sampler.forms, 0.0)
    if relative:
        flat = g.view(g.real.dtype)
        squares = np.einsum("ijk,ijk->i", flat, flat)[:, None, None]
    step = max(1, slice_length(g) // (3 if np.iscomplexobj(g) else 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(g), step):
            M = real_form(g[lo:lo + step])
            for name, F in sampler.forms.items():
                r, w = sampler.gathers[name]
                prod = gt[lo:lo + step, :, r] * w   # g^dag F, conjugated if hermitian
                prod = times(np.conj(prod, out=prod) if name == "hermitian" else prod, M)
                prod -= F
                err = np.abs(prod)
                if relative:
                    err /= squares[lo:lo + step]
                err = float(err.max())
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

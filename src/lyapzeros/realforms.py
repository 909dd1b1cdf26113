"""Real forms: parameter validation, restriction maps to the maximal split
torus, matrix realizations with their invariant forms, and random
group-element samplers.

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
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import add

import numpy as np

from ._expm import _SLICE, cayley_batch, real_form, times
from .errors import InternalError, NumericalError, ParameterError
from .weights import (RepKind, RepSpec, Weight, WeightMultiset, exterior_power,
                      exterior_power_bound)

_RELATION_TOL = 1e-12
# distinct restricted exterior-power weights above which weights_restricted
# warns (su(40,8) ext:20 has at most 3^8 = 6,561 and takes about 0.25 s)
EXTERIOR_WEIGHT_LIMIT = 100_000
# OpenBLAS runs a GEMM on one thread while M * N * K is at most
# GEMM_MULTITHREAD_THRESHOLD (4) * 65536 (SMP_THRESHOLD_MIN, interface/gemm.c).
# Calls kept this small never wake its worker threads, which otherwise spin
# on the other CPU and slow every call after them.
_GEMM_SERIAL_MNK = 2 ** 18


class Family(Enum):
    SU = "su"
    SO_ODD = "so-odd"        # so(2n-1, 2), type B_n
    SO_EVEN = "so-even"      # so(2n-2, 2), type D_n
    SO_STAR = "so-star"      # so*(2n), type D_n
    SP = "sp"                # sp(2g, R), type C_g


_SERIES = {Family.SU: "A", Family.SO_ODD: "B", Family.SO_EVEN: "D",
           Family.SO_STAR: "D", Family.SP: "C"}


@dataclass(frozen=True)
class RealFormSpec:
    """A validated real form; build via the factory functions below."""

    family: Family
    p: int | None = None
    q: int | None = None
    n: int | None = None
    g: int | None = None
    swapped: bool = False    # su input arrived as (q, p) and was normalized

    def __post_init__(self):
        f = self.family
        if f is Family.SU:
            if self.p is None or self.q is None or self.p < self.q or self.q < 1:
                raise ParameterError("su(p,q) requires p >= q >= 1")
        elif f is Family.SO_ODD:
            if self.n is None or self.n < 2:
                raise ParameterError("so(2n-1,2) requires n >= 2")
        elif f is Family.SO_EVEN:
            if self.n is None or self.n < 3:
                raise ParameterError("so(2n-2,2) requires n >= 3")
        elif f is Family.SO_STAR:
            if self.n is None or self.n < 2:
                raise ParameterError("so*(2n) requires n >= 2")
        elif f is Family.SP:
            if self.g is None or self.g < 1:
                raise ParameterError("sp(2g,R) requires g >= 1")

    @property
    def series(self) -> str:
        return _SERIES[self.family]

    @property
    def ambient_dim(self) -> int:
        """Number of e-basis coordinates (columns of restriction_map)."""
        if self.family is Family.SU:
            return self.p + self.q
        if self.family is Family.SP:
            return self.g
        return self.n

    @property
    def restricted_rank(self) -> int:
        """Real rank of the form (dimension of the maximal split torus)."""
        if self.family is Family.SU:
            return self.q
        if self.family in (Family.SO_ODD, Family.SO_EVEN):
            return 2
        if self.family is Family.SO_STAR:
            return self.n // 2
        return self.g

    @property
    def matrix_dim(self) -> int:
        """Size d of the standard matrix realization (complex for SU, SO*)."""
        if self.family is Family.SU:
            return self.p + self.q
        if self.family is Family.SO_ODD:
            return 2 * self.n + 1
        if self.family in (Family.SO_EVEN, Family.SO_STAR):
            return 2 * self.n
        return 2 * self.g

    @property
    def is_complex_family(self) -> bool:
        """True when representations carry a commuting C-action (SU, SO*)."""
        return self.family in (Family.SU, Family.SO_STAR)

    @property
    def real_factor(self) -> int:
        """Real multiplicities = complex multiplicities times this factor."""
        return 2 if self.is_complex_family else 1

    @property
    def algebra_dim(self) -> int:
        if self.family is Family.SU:
            return (self.p + self.q) ** 2 - 1
        if self.family is Family.SO_ODD:
            d = 2 * self.n + 1
            return d * (d - 1) // 2
        if self.family is Family.SO_EVEN:
            d = 2 * self.n
            return d * (d - 1) // 2
        if self.family is Family.SO_STAR:
            return self.n * (2 * self.n - 1)
        return self.g * (2 * self.g + 1)

    @property
    def relative_root_type(self) -> str:
        """Relative root system of the form (metadata only)."""
        if self.family is Family.SU:
            return f"BC{self.q}" if self.p > self.q else f"C{self.q}"
        if self.family in (Family.SO_ODD, Family.SO_EVEN):
            return "B2"
        if self.family is Family.SO_STAR:
            m = self.n // 2
            return f"C{m}" if self.n % 2 == 0 else f"BC{m}"
        return f"C{self.g}"

    def label(self) -> str:
        if self.family is Family.SU:
            return f"su({self.p},{self.q})"
        if self.family is Family.SO_ODD:
            return f"so({2 * self.n - 1},2)"
        if self.family is Family.SO_EVEN:
            return f"so({2 * self.n - 2},2)"
        if self.family is Family.SO_STAR:
            return f"so*({2 * self.n})"
        return f"sp({2 * self.g},R)"


def su(p: int, q: int) -> RealFormSpec:
    """su(p,q); inputs with q > p are normalized by swapping (recorded)."""
    if p < 1 or q < 1:
        raise ParameterError("su(p,q) requires p, q >= 1")
    if q > p:
        return RealFormSpec(Family.SU, p=q, q=p, swapped=True)
    return RealFormSpec(Family.SU, p=p, q=q)


def so_split(m: int) -> RealFormSpec:
    """so(m,2) for m >= 3, dispatching on the parity of m."""
    if m % 2 == 1:
        n = (m + 1) // 2
        return RealFormSpec(Family.SO_ODD, n=n)
    n = (m + 2) // 2
    return RealFormSpec(Family.SO_EVEN, n=n)


def so_star(n: int) -> RealFormSpec:
    return RealFormSpec(Family.SO_STAR, n=n)


def sp(g: int) -> RealFormSpec:
    return RealFormSpec(Family.SP, g=g)


def restriction_map(form: RealFormSpec) -> tuple[tuple[int, ...], ...]:
    """Rows (restricted_rank x ambient_dim, entries in {-1, 0, 1}) of the
    restriction of the e-basis to the f-basis of the maximal split torus.

    su(p,q): e_i -> f_i and e_{p+q+1-i} -> -f_i for i <= q, the rest to 0.
    so(m,2): e_1 -> f_1, e_2 -> f_2, the rest to 0.
    so*(2n): e_{2i-1}, e_{2i} -> f_i; for odd n, e_n -> 0.
    sp(2g,R): the identity (split form).
    """
    n = form.ambient_dim
    rank = form.restricted_rank
    rows = [[0] * n for _ in range(rank)]
    if form.family is Family.SU:
        for j in range(rank):
            rows[j][j] = 1
            rows[j][n - 1 - j] = -1
    elif form.family in (Family.SO_ODD, Family.SO_EVEN):
        rows[0][0] = 1
        rows[1][1] = 1
    elif form.family is Family.SO_STAR:
        for j in range(rank):
            rows[j][2 * j] = 1
            rows[j][2 * j + 1] = 1
    else:
        for j in range(rank):
            rows[j][j] = 1
    return tuple(tuple(r) for r in rows)


def _check_coherent(form: RealFormSpec, rep: RepSpec) -> None:
    if rep.kind is RepKind.SPIN and form.series != "B":
        raise ParameterError(f"spin representation undefined for {form.label()}")
    if rep.kind in (RepKind.HALF_SPIN_PLUS, RepKind.HALF_SPIN_MINUS) and form.series != "D":
        raise ParameterError(f"half-spin representations undefined for {form.label()}")
    if rep.is_spin_like() and form.family is Family.SO_STAR and form.n < 3:
        raise ParameterError("half-spin representations undefined for so*(4): D_2 is not simple")
    if rep.kind is RepKind.EXTERIOR and not 1 <= rep.degree <= form.matrix_dim:
        raise ParameterError(
            f"exterior degree {rep.degree} out of range 1..{form.matrix_dim} for {form.label()}")


def standard_multiplicities(form: RealFormSpec) -> tuple[int, int]:
    """Complex multiplicities (of each +-f_j, of 0) in the restricted standard
    weights: +-f_j has 2 for so*(2n) (e_{2j-1} and e_{2j} both go to f_j) and
    1 otherwise, and 0 takes the rest of the matrix dimension."""
    mult = 2 if form.family is Family.SO_STAR else 1
    return mult, form.matrix_dim - 2 * form.restricted_rank * mult


def _restricted_standard(form: RealFormSpec) -> WeightMultiset:
    """+-f_j for j < restricted rank and 0, with standard_multiplicities."""
    rank = form.restricted_rank
    mult, zero = standard_multiplicities(form)
    entries = {Weight.unit(rank, j, sign): mult
               for j in range(rank) for sign in (1, -1)}
    if zero:
        entries[Weight.zero(rank)] = zero
    return WeightMultiset(entries)


def _restricted_spin(form: RealFormSpec, rep: RepSpec) -> WeightMultiset:
    """Restricted (half-)spin weights. The spin module is the exterior
    algebra twisted by det^(-1/2) (Fulton-Harris section 20.1): the weight
    (+-e_1 ... +-e_n)/2 restricts to (+-r_1 ... +-r_n)/2, r_i the restriction
    image of e_i. One pass over the images expands prod_i (x^(r_i/2) +
    x^(-r_i/2)), keeping the terms by the parity of their minus signs: spin
    takes both, half-spin:+ the even ones, half-spin:- the odd ones. For
    so(m,2) they are (+-f_1 +- f_2)/2; so*(8) half-spin:+ is
    {+-f_1 +- f_2: 1, 0: 4}."""
    rows = restriction_map(form)
    by_parity = [Counter({(0,) * len(rows): 1}), Counter()]   # doubled coords
    for r, m in Counter(zip(*rows)).items():
        terms = Counter()               # b of the m equal images take a minus
        for b in range(m + 1):
            terms[b % 2, tuple((m - 2 * b) * c for c in r)] += math.comb(m, b)
        step = [Counter(), Counter()]
        for (flip, shift), coeff in terms.items():
            for parity, sums in enumerate(by_parity):
                target = step[parity ^ flip]
                for v, count in sums.items():
                    target[tuple(map(add, v, shift))] += coeff * count
        by_parity = step
    kept = {RepKind.SPIN: by_parity[0] + by_parity[1],
            RepKind.HALF_SPIN_PLUS: by_parity[0], RepKind.HALF_SPIN_MINUS: by_parity[1]}
    return WeightMultiset({Weight(v): c for v, c in kept[rep.kind].items()})


def weights_restricted(form: RealFormSpec, rep: RepSpec) -> WeightMultiset:
    """Restricted weight multiset of (form, rep), with complex multiplicities,
    built from the form without absolute weights.

    The standard weights restrict to +-f_j (complex multiplicity 2 for
    so*(2n), 1 otherwise) and 0. Restriction to the split torus is linear,
    so an exterior power is the exterior power of the restricted standard
    weights; its cost is polynomial in the standard dimension and the
    degree, times the number of distinct restricted weights, and a
    RuntimeWarning is issued first when exterior_power_bound puts that
    number above EXTERIOR_WEIGHT_LIMIT. (Half-)spin weights are exterior
    powers of the restriction images of e_1..e_n, shifted. Reported real
    counts of su(p,q) and so*(2n) are twice these.
    """
    _check_coherent(form, rep)
    if rep.is_spin_like():
        return _restricted_spin(form, rep)
    standard = _restricted_standard(form)
    if rep.kind is RepKind.STANDARD:
        return standard
    bound = exterior_power_bound(standard, rep.degree)
    if bound > EXTERIOR_WEIGHT_LIMIT:
        warnings.warn(
            f"{form.label()} {rep.label()} may have up to {bound:,} distinct "
            f"restricted weights (warning limit {EXTERIOR_WEIGHT_LIMIT:,}); "
            "time and memory grow with that number", RuntimeWarning, stacklevel=2)
    return exterior_power(standard, rep.degree)


# ---------------------------------------------------------------------------
# Matrix realizations and samplers
# ---------------------------------------------------------------------------

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

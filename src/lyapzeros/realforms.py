"""Real forms: parameter validation, restriction maps to the maximal split
torus and restricted weights, in pure Python. The numpy-backed matrix
realizations and samplers are in ``matrices``; their names resolve here too."""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import add

from .errors import ParameterError
from .weights import (RepKind, RepSpec, Weight, WeightMultiset, exterior_power,
                      exterior_power_bound)

# distinct restricted exterior-power weights above which weights_restricted
# warns (su(40,8) ext:20 has at most 3^8 = 6,561 and takes about 0.25 s);
# also the warning bound on what one run forms per trial in ``simulate``
# and on the rows of a ``classify`` table
EXTERIOR_WEIGHT_LIMIT = 100_000


def _warn_size(count: int, limit: int, message, costs: str = "time and memory") -> None:
    """Above ``limit``, a RuntimeWarning reading message() and "(warning
    limit N); <costs> grow with that number", located at the first caller
    outside this package. message() runs only then."""
    if count <= limit:
        return
    frame, level, package = sys._getframe(1), 2, os.path.dirname(__file__)
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    warnings.warn(f"{message()} (warning limit {limit:,}); {costs} grow with that number",
                  RuntimeWarning, stacklevel=level)


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
        if self.series == "A":
            return self.matrix_dim
        return self.matrix_dim // 2

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
        d = self.matrix_dim
        if self.series == "A":
            return d * d - 1
        if self.series == "C":
            return d * (d + 1) // 2
        return d * (d - 1) // 2       # B and D, so*(2n) included

    @property
    def relative_root_type(self) -> str:
        """Relative root system of the form (metadata only): B2 for so(m,2),
        else BC when the restricted standard weights include 0 and C if not."""
        if self.family in (Family.SO_ODD, Family.SO_EVEN):
            return "B2"
        prefix = "BC" if standard_multiplicities(self)[1] else "C"
        return f"{prefix}{self.restricted_rank}"

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
    return WeightMultiset._trusted(entries)


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
    return WeightMultiset._trusted({Weight._trusted(v): c for v, c in kept[rep.kind].items()})


def weights_restricted(form: RealFormSpec, rep: RepSpec) -> WeightMultiset:
    """Restricted weight multiset of (form, rep), with complex multiplicities,
    built from the form without absolute weights.

    The standard weights restrict to +-f_j (complex multiplicity 2 for
    so*(2n), 1 otherwise) and 0. Restriction to the split torus is linear,
    so an exterior power is the exterior power of the restricted standard
    weights; its cost is polynomial in the standard dimension and the
    degree, times the number of distinct restricted weights. (Half-)spin
    weights are subset sums of the restriction images of e_1..e_n,
    shifted, so there are at most as many as n-fold sums of those images
    and n zeros (4 for so(m,2), 3^(n//2) for so*(2n)). A RuntimeWarning is
    issued first when exterior_power_bound puts that number above
    EXTERIOR_WEIGHT_LIMIT.
    Reported real counts of su(p,q) and so*(2n) are twice these.
    """
    _check_coherent(form, rep)
    if rep.kind is RepKind.STANDARD:
        return _restricted_standard(form)
    if rep.is_spin_like():
        images = Counter(zip(*restriction_map(form)))
        images[(0,) * form.restricted_rank] += form.ambient_dim
        base = WeightMultiset._trusted({Weight._trusted(r): m for r, m in images.items()})
        degree = form.ambient_dim
    else:
        base, degree = _restricted_standard(form), rep.degree
    bound = exterior_power_bound(base, degree)
    _warn_size(bound, EXTERIOR_WEIGHT_LIMIT, lambda: (
        f"{form.label()} {rep.label()} may have up to {bound:,} distinct restricted weights"))
    if rep.is_spin_like():
        return _restricted_spin(form, rep)
    return exterior_power(base, degree)


_MATRIX_NAMES = ("GroupSampler", "lie_algebra_basis", "sample_group_elements",
                 "form_preservation_errors", "exterior_power_matrix")


def __getattr__(name):
    # PEP 562: the first access imports matrices and binds all five names here
    if name not in _MATRIX_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import matrices
    globals().update((n, getattr(matrices, n)) for n in _MATRIX_NAMES)
    return globals()[name]

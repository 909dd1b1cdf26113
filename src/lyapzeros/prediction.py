"""Closed-form spectrum predictions.

Counting convention: restricted weight multisets carry COMPLEX
multiplicities. Reported counts are real counts, which for the families
whose representations carry a commuting C-action (su(p,q), so*(2n)) are
twice the complex count, and equal to it for the real families (sp(2g,R)
and so(m,2)). Every serialized field is tagged accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, ParameterError, UnsupportedFeatureError
from .realforms import Family, RealFormSpec, weights_restricted
from .weights import RepKind, RepSpec, Weight, WeightMultiset, binomial


@dataclass(frozen=True)
class LyapunovVector:
    """Point of the closed positive Weyl chamber: descending, nonnegative."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ParameterError("Lyapunov vector cannot be empty")
        for a, b in zip(vals, vals[1:]):
            if b > a + 1e-12:
                raise ParameterError("Lyapunov vector must be descending")
        if vals[-1] < -1e-12:
            raise ParameterError("Lyapunov vector must be nonnegative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SpectrumPrediction:
    """Predicted Lyapunov structure of one (real form, representation) pair."""

    form: RealFormSpec
    rep: RepSpec
    real_dim: int
    zero_count_real: int
    zero_count_complex: int
    nonzero_structure: tuple[tuple[Weight, int], ...]   # (restricted weight, real mult)
    signature: tuple[int, int] | None          # pseudo-hermitian (+, -), complex units
    definite_split: tuple[int, int] | None     # zero block (positive, negative), real dims
    sigma_rank_bound: int | None               # second fundamental form, per block
    sigma_rank_total: int | None               # summed over conjugate blocks
    hodge_admissible: bool
    hodge_reason: str

    def __post_init__(self):
        nonzero_total = sum(m for _, m in self.nonzero_structure)
        if self.zero_count_real + nonzero_total != self.real_dim:
            raise ParameterError("zero and nonzero counts must sum to the real dimension")

    def as_record(self) -> dict:
        """Flat serialization with stable field names and tagged conventions."""
        return {
            "family": self.form.family.value,
            "form": self.form.label(),
            "parameters": _form_parameters(self.form),
            "representation": self.rep.label(),
            "real_dim": self.real_dim,
            "zero_count_real": self.zero_count_real,
            "zero_count_complex": self.zero_count_complex,
            "nonzero_structure_real": [
                {"weight": str(w), "real_multiplicity": m}
                for w, m in self.nonzero_structure
            ],
            "signature_complex": list(self.signature) if self.signature else None,
            "definite_split_real": list(self.definite_split) if self.definite_split else None,
            "sigma_rank_bound": self.sigma_rank_bound,
            "sigma_rank_total": self.sigma_rank_total,
            "hodge_admissible": self.hodge_admissible,
            "hodge_reason": self.hodge_reason,
            "counting": ("real = 2 x complex" if self.form.real_factor == 2
                         else "real = complex"),
        }


def _form_parameters(form: RealFormSpec) -> dict:
    if form.family is Family.SU:
        out = {"p": form.p, "q": form.q}
        if form.swapped:
            out["normalized_from"] = {"p": form.q, "q": form.p}
        return out
    if form.family in (Family.SO_ODD, Family.SO_EVEN, Family.SO_STAR):
        return {"n": form.n}
    return {"g": form.g}


def su_exterior_zero_multiplicity(p: int, q: int, k: int) -> int:
    """Complex zero multiplicity of su(p,q) on the k-th exterior power:
    sum over a of C(q,a) * C(p-q, k-2a), both parities of
    su_zero_weight_parity_counts."""
    return sum(su_zero_weight_parity_counts(p, q, k))


def _zero_count_closed_form(form: RealFormSpec, rep: RepSpec) -> int | None:
    """Complex zero count where a closed form exists, else None."""
    fam = form.family
    if fam is Family.SU:
        if rep.kind is RepKind.STANDARD:
            return form.p - form.q
        if rep.kind is RepKind.EXTERIOR:
            return su_exterior_zero_multiplicity(form.p, form.q, rep.degree)
    if fam is Family.SO_STAR and rep.kind is RepKind.STANDARD:
        return 2 if form.n % 2 == 1 else 0
    if fam in (Family.SO_ODD, Family.SO_EVEN):
        if rep.kind is RepKind.STANDARD:
            return form.matrix_dim - 4
        if rep.is_spin_like():
            return 0
    return None


def _checked_zero_count(form: RealFormSpec, rep: RepSpec, zero_complex: int) -> None:
    closed = _zero_count_closed_form(form, rep)
    if closed is not None and closed != zero_complex:
        raise InternalError(f"closed form {closed} != computed {zero_complex} zero "
                            f"weights for {form.label()} {rep.label()}")


def predicted_counts(form: RealFormSpec, rep: RepSpec) -> tuple[int, int]:
    """(real dimension, real zero count) of one pair, as predict gives them."""
    pred = predict(form, rep)
    return pred.real_dim, pred.zero_count_real


def predicted_zero_count(form: RealFormSpec, rep: RepSpec) -> int:
    """Number of zero Lyapunov exponents forced by the restricted weights,
    as a real count."""
    return predicted_counts(form, rep)[1]


def su_p1_exterior_signature(p: int, k: int) -> tuple[int, int]:
    """Signature of the pseudo-hermitian form on the k-th exterior power
    for su(p,1): (C(p,k) positive, C(p,k-1) negative), complex units."""
    if p < 1 or not 1 <= k <= p + 1:
        raise ParameterError("need p >= 1 and 1 <= k <= p+1")
    return binomial(p, k), binomial(p, k - 1)


def su_p1_zero_block_split(p: int, k: int) -> tuple[int, int]:
    """Real dimensions of the definite metric blocks inside the zero
    Lyapunov subspace for su(p,1) on the k-th exterior power:
    (2*C(p-1,k) positive-definite, 2*C(p-1,k-2) negative-definite)."""
    if p < 1 or not 1 <= k <= p + 1:
        raise ParameterError("need p >= 1 and 1 <= k <= p+1")
    return 2 * binomial(p - 1, k), 2 * binomial(p - 1, k - 2)


def su_zero_weight_parity_counts(p: int, q: int, k: int) -> tuple[int, int]:
    """Count zero-restricted k-subsets of su(p,q) by the parity of their
    canceling pairs: (even, odd), complex units.

    A subset restricts to zero iff index i <= q appears exactly when
    p+q+1-i does ("canceling pairs"); the invariant hermitian form is
    positive definite on even-parity zero weights and negative definite on
    odd-parity ones.
    """
    if p < q or q < 1 or not 1 <= k <= p + q:
        raise ParameterError("need p >= q >= 1 and 1 <= k <= p+q")
    # a zero subset takes a whole canceling pairs and k - 2a of the p - q
    # indices that restrict to 0
    counts = [binomial(q, a) * binomial(p - q, k - 2 * a) for a in range(q + 1)]
    return sum(counts[0::2]), sum(counts[1::2])


def _as_standard(rep: RepSpec) -> RepSpec:
    """ext:1 is the standard representation, and gets its answers."""
    return RepSpec.standard() if rep.kind is RepKind.EXTERIOR and rep.degree == 1 else rep


def sigma_rank_bound(form: RealFormSpec, rep: RepSpec) -> int:
    """Upper bound for the rank of the second fundamental form.

    2*min(p,q) for su(p,q) standard (and ext:1); 2n-2 for so*(2n) standard
    with n odd (2n for even n, no improvement); C(p-1,k-1) per conjugate
    block for su(p,1) exterior powers, k >= 2.
    """
    fam, rep = form.family, _as_standard(rep)
    if fam is Family.SU and rep.kind is RepKind.STANDARD:
        return 2 * min(form.p, form.q)
    if fam is Family.SO_STAR and rep.kind is RepKind.STANDARD:
        return 2 * form.n - 2 if form.n % 2 == 1 else 2 * form.n
    if fam is Family.SU and form.q == 1 and rep.kind is RepKind.EXTERIOR:
        if not 1 <= rep.degree <= form.p + 1:
            raise ParameterError(f"exterior degree {rep.degree} out of range")
        return binomial(form.p - 1, rep.degree - 1)
    raise UnsupportedFeatureError(
        f"no rank bound implemented for {form.label()} {rep.label()}")


def _sigma_ranks(form: RealFormSpec, rep: RepSpec) -> tuple[int | None, int | None]:
    rep = _as_standard(rep)
    try:
        per_block = sigma_rank_bound(form, rep)
    except UnsupportedFeatureError:
        return None, None
    if form.family is Family.SU and rep.kind is RepKind.EXTERIOR:
        return per_block, 2 * per_block
    return per_block, per_block


def hodge_admissible(form: RealFormSpec, rep: RepSpec) -> tuple[bool, str]:
    """Whether (form, rep) can carry a weight-1 Hodge structure.

    Admissible pairs: su(p,q) standard; su(p,1) in a nontrivial exterior
    power; so(2n-1,2) spin; sp(2g,R) standard; so*(2n) standard;
    so(2n-2,2) in either half-spin. Total on all inputs: incoherent pairs
    come back inadmissible rather than raising.
    """
    fam, kind = form.family, _as_standard(rep).kind
    if fam is Family.SU:
        if kind is RepKind.STANDARD:
            return True, "unitary form in the standard representation"
        if kind is RepKind.EXTERIOR:
            if form.q != 1:
                return False, "exterior powers beyond the first require q = 1"
            if rep.degree > form.p + 1:
                return False, "exterior degree exceeds the standard dimension"
            if rep.degree == form.p + 1:
                return False, ("top exterior power is the trivial representation; "
                               "the monodromy closure cannot be su(p,1) on it")
            return True, "exterior power of su(p,1) with a twisted circle action"
        return False, "spin representations undefined for the unitary family"
    if fam is Family.SO_ODD:
        if kind is RepKind.SPIN:
            return True, "odd split orthogonal form in the spin representation"
        return False, "so(2n-1,2) is admissible only in the spin representation"
    if fam is Family.SO_EVEN:
        if kind in (RepKind.HALF_SPIN_PLUS, RepKind.HALF_SPIN_MINUS):
            return True, "even split orthogonal form in a half-spin representation"
        return False, "so(2n-2,2) is admissible only in the half-spin representations"
    if fam is Family.SO_STAR:
        if kind is RepKind.STANDARD:
            return True, "quaternionic orthogonal form in the standard representation"
        return False, "so*(2n) is admissible only in the standard representation"
    if kind is RepKind.STANDARD:
        return True, "split symplectic form in the standard representation"
    return False, "sp(2g,R) is admissible only in the standard representation"


def realified_weights(form: RealFormSpec, rep: RepSpec) -> WeightMultiset:
    """Restricted weights with real multiplicities (complex scaled by the
    family's realification factor)."""
    ms = weights_restricted(form, rep)
    factor = form.real_factor
    return ms.scaled(factor) if factor != 1 else ms


def evaluate_spectrum(restricted: WeightMultiset, lam) -> list[float]:
    """Lyapunov exponents from weight evaluation: each restricted weight
    contributes its pairing with the Lyapunov vector, repeated by
    multiplicity, sorted descending. Pass realified_weights for real
    counts."""
    values = lam.values if isinstance(lam, LyapunovVector) else tuple(float(v) for v in lam)
    if restricted.rank != len(values):
        raise ParameterError(
            f"Lyapunov vector has {len(values)} entries, multiset rank is {restricted.rank}")
    out = []
    for w, m in restricted.items():
        out.extend([w.evaluate(values)] * m)
    out.sort(reverse=True)
    return out


def predict(form: RealFormSpec, rep: RepSpec) -> SpectrumPrediction:
    """Assemble the full spectrum prediction for one pair."""
    ms = weights_restricted(form, rep)
    factor = form.real_factor
    real_dim = ms.total() * factor
    zero_complex = ms.zero_multiplicity()
    _checked_zero_count(form, rep, zero_complex)
    nonzero = tuple((w, m * factor) for w, m in ms.items() if not w.is_zero())

    signature = None
    split = None
    if form.family is Family.SU and rep.kind in (RepKind.STANDARD, RepKind.EXTERIOR):
        k = 1 if rep.kind is RepKind.STANDARD else rep.degree
        even, odd = su_zero_weight_parity_counts(form.p, form.q, k)
        nonzero_complex = ms.total() - zero_complex
        signature = (even + nonzero_complex // 2, odd + nonzero_complex // 2)
        split = (2 * even, 2 * odd)
        if form.q == 1:
            if signature != su_p1_exterior_signature(form.p, k):
                raise InternalError(f"signature {signature} disagrees with its closed form "
                                    f"for {form.label()} {rep.label()}")
            if split != su_p1_zero_block_split(form.p, k):
                raise InternalError(f"zero block split {split} disagrees with its closed "
                                    f"form for {form.label()} {rep.label()}")

    per_block, total = _sigma_ranks(form, rep)
    admissible, reason = hodge_admissible(form, rep)
    return SpectrumPrediction(
        form=form, rep=rep, real_dim=real_dim,
        zero_count_real=zero_complex * factor, zero_count_complex=zero_complex,
        nonzero_structure=nonzero, signature=signature, definite_split=split,
        sigma_rank_bound=per_block, sigma_rank_total=total,
        hodge_admissible=admissible, hodge_reason=reason)

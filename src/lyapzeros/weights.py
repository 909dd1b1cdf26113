"""Exact restricted-weight combinatorics and representation labels.

A weight is a vector in the f-basis of a maximal split torus. Coordinates
are stored doubled (integers equal to twice the coordinate) so that
half-integer spin weights stay exact; multiset multiplicities are plain
Python integers and never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import sub
from typing import Iterable, Mapping

from .errors import ParameterError


@dataclass(frozen=True)
class Weight:
    """Exact restricted weight with coordinates stored as doubled integers."""

    doubled: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(c, int) for c in self.doubled):
            raise ParameterError("weight coordinates must be doubled integers")

    @classmethod
    def unit(cls, length: int, index: int, sign: int = 1) -> "Weight":
        """The weight sign * f_index (0-based index)."""
        doubled = [0] * length
        doubled[index] = 2 * sign
        return cls(tuple(doubled))

    @classmethod
    def zero(cls, length: int) -> "Weight":
        return cls((0,) * length)

    @property
    def rank(self) -> int:
        return len(self.doubled)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.doubled)

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.doubled))

    def evaluate(self, values) -> float:
        """Pairing with a real coordinate vector of matching length."""
        if len(values) != len(self.doubled):
            raise ParameterError(
                f"weight has {len(self.doubled)} coordinates, got {len(values)} values")
        return sum(c * v for c, v in zip(self.doubled, values)) / 2.0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.doubled):
            if c == 0:
                continue
            mag = abs(c)
            term = f"f{i + 1}" if mag == 2 else f"{mag}/2*f{i + 1}" if mag % 2 else f"{mag // 2}*f{i + 1}"
            parts.append(("-" if c < 0 else "+", term))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for s, term in parts[1:]:
            out += f" {s} {term}"
        return out


def _canonical_key(weight: Weight) -> tuple[int, ...]:
    # descending lexicographic order on coordinates
    return tuple(-c for c in weight.doubled)


class WeightMultiset:
    """Multiset of weights with positive integer multiplicities.

    All entries share one rank; iteration is in the canonical order
    (descending lexicographic on coordinates).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Weight, int] | Iterable[Weight]):
        acc: dict[Weight, int] = {}
        if isinstance(entries, Mapping):
            pairs = entries.items()
        else:
            pairs = ((w, 1) for w in entries)
        for w, m in pairs:
            if not isinstance(w, Weight):
                raise ParameterError(f"not a Weight: {w!r}")
            if not isinstance(m, int) or m <= 0:
                raise ParameterError(f"multiplicity of {w} must be a positive integer")
            acc[w] = acc.get(w, 0) + m
        if not acc:
            raise ParameterError("weight multiset cannot be empty")
        if len({w.rank for w in acc}) != 1:
            raise ParameterError("all weights must share one rank")
        object.__setattr__(self, "_entries", dict(acc))

    @property
    def rank(self) -> int:
        return next(iter(self._entries)).rank

    def items(self) -> list[tuple[Weight, int]]:
        """(weight, multiplicity) pairs in canonical order."""
        return sorted(self._entries.items(), key=lambda wm: _canonical_key(wm[0]))

    def expand(self) -> list[Weight]:
        """All weights repeated by multiplicity, in canonical order."""
        out = []
        for w, m in self.items():
            out.extend([w] * m)
        return out

    def total(self) -> int:
        return sum(self._entries.values())

    def distinct(self) -> int:
        return len(self._entries)

    def multiplicity(self, w: Weight) -> int:
        return self._entries.get(w, 0)

    def zero_multiplicity(self) -> int:
        return self._entries.get(Weight.zero(self.rank), 0)

    def scaled(self, factor: int) -> "WeightMultiset":
        """Multiply every multiplicity by a positive integer factor."""
        if factor <= 0:
            raise ParameterError("scaling factor must be positive")
        return WeightMultiset({w: m * factor for w, m in self._entries.items()})

    def __len__(self) -> int:
        return self.total()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"{w}: {m}" for w, m in self.items())
        return f"WeightMultiset({{{body}}})"


class RepKind(Enum):
    STANDARD = "standard"
    EXTERIOR = "exterior"
    SPIN = "spin"
    HALF_SPIN_PLUS = "half-spin:+"
    HALF_SPIN_MINUS = "half-spin:-"


@dataclass(frozen=True)
class RepSpec:
    """A representation label: standard, k-th exterior power, or (half-)spin."""

    kind: RepKind
    degree: int | None = None

    def __post_init__(self):
        if self.kind is RepKind.EXTERIOR:
            if not isinstance(self.degree, int) or self.degree < 1:
                raise ParameterError("exterior power degree must be a positive integer")
        elif self.degree is not None:
            raise ParameterError(f"{self.kind.value} takes no degree")

    @classmethod
    def standard(cls) -> "RepSpec":
        return cls(RepKind.STANDARD)

    @classmethod
    def exterior(cls, k: int) -> "RepSpec":
        return cls(RepKind.EXTERIOR, k)

    @classmethod
    def spin(cls) -> "RepSpec":
        return cls(RepKind.SPIN)

    @classmethod
    def half_spin(cls, sign: str) -> "RepSpec":
        if sign == "+":
            return cls(RepKind.HALF_SPIN_PLUS)
        if sign == "-":
            return cls(RepKind.HALF_SPIN_MINUS)
        raise ParameterError("half-spin sign must be '+' or '-'")

    @classmethod
    def parse(cls, text: str) -> "RepSpec":
        """Parse CLI vocabulary: standard, ext:K, spin, half-spin:+ / half-spin:-."""
        if text == "standard":
            return cls.standard()
        if text == "spin":
            return cls.spin()
        if text.startswith("half-spin:"):
            return cls.half_spin(text.removeprefix("half-spin:"))
        if text.startswith("ext:"):
            try:
                k = int(text.removeprefix("ext:"))
            except ValueError:
                raise ParameterError(f"bad exterior degree in {text!r}") from None
            return cls.exterior(k)
        raise ParameterError(f"unknown representation {text!r}")

    def label(self) -> str:
        if self.kind is RepKind.EXTERIOR:
            return f"ext:{self.degree}"
        return self.kind.value

    def is_spin_like(self) -> bool:
        return self.kind in (RepKind.SPIN, RepKind.HALF_SPIN_PLUS, RepKind.HALF_SPIN_MINUS)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 when k is out of range."""
    if n < 0:
        raise ParameterError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def k_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-element subsets of range(n) in lexicographic order.

    This is the canonical subset order shared by exterior-power weights
    and compound (minor) matrices.
    """
    return list(combinations(range(n), k))


def exterior_power(base: WeightMultiset, k: int) -> WeightMultiset:
    """Weights of the k-th exterior power of a representation with weights
    ``base``: the coefficient of t^k in prod_w (1 + t x^w), where a weight
    of multiplicity m contributes sum_b C(m, b) t^b x^(b w) (Fulton-Harris
    section 15). No subset is enumerated. For 2k > n the recurrence runs
    to degree n - k only: Lambda^k is (Lambda^(n-k))^* (x) det, so its
    weights are sigma minus those of degree n - k, sigma the weight sum."""
    n = base.total()
    if not 1 <= k <= n:
        raise ParameterError(f"exterior degree {k} out of range 1..{n}")
    dual, k = 2 * k > n, min(k, n - k)
    # by_degree[j]: doubled coordinates of a j-fold sum -> its multiplicity
    by_degree: list[dict[tuple[int, ...], int]] = [{(0,) * base.rank: 1}]
    by_degree += [{} for _ in range(k)]
    items = base.items()
    remaining = n
    for w, m in items:
        remaining -= m
        step = [{} for _ in by_degree]
        for j, sums in enumerate(by_degree):
            # skip the j + b that the remaining weights can no longer lift to k
            for b in range(max(0, k - remaining - j), min(m, k - j) + 1):
                coeff = math.comb(m, b)
                shift = tuple(b * c for c in w.doubled)
                target = step[j + b]
                for v, count in sums.items():
                    key = tuple(a + s for a, s in zip(v, shift))
                    target[key] = target.get(key, 0) + coeff * count
        by_degree = step
    sums = by_degree[k]
    if dual:
        sigma = [sum(m * w.doubled[i] for w, m in items) for i in range(base.rank)]
        sums = {tuple(map(sub, sigma, v)): c for v, c in sums.items()}
    return WeightMultiset({Weight(v): c for v, c in sums.items()})


def exterior_power_bound(base: WeightMultiset, k: int) -> int:
    """Upper bound on the number of distinct weights of the k-th exterior
    power: each coordinate of a k-fold sum lies between the sums of the k
    smallest and the k largest values of that coordinate, on the lattice
    spanned by the differences of those values. The bound is the product
    of these per-coordinate counts (3^q for su(p,q), any k >= 2)."""
    values = [w.doubled for w in base.expand()]
    bound = 1
    for column in zip(*values):
        ordered = sorted(column)
        lo, hi = sum(ordered[:k]), sum(ordered[-k:])
        step = math.gcd(*(v - ordered[0] for v in ordered))
        if step:
            bound *= (hi - lo) // step + 1
    return bound

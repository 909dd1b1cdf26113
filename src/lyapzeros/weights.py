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
from functools import lru_cache
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
    def _trusted(cls, doubled: tuple[int, ...]) -> "Weight":
        """No checks: for the library's own producers of int tuples."""
        w = object.__new__(cls)
        w.__dict__["doubled"] = doubled
        return w

    @classmethod
    def unit(cls, length: int, index: int, sign: int = 1) -> "Weight":
        """The weight sign * f_index (0-based index)."""
        doubled = [0] * length
        doubled[index] = 2 * sign
        if not isinstance(doubled[index], int):
            raise ParameterError("weight coordinates must be doubled integers")
        return cls._trusted(tuple(doubled))

    @classmethod
    def zero(cls, length: int) -> "Weight":
        return cls._trusted((0,) * length)

    @property
    def rank(self) -> int:
        return len(self.doubled)

    def is_zero(self) -> bool:
        return not any(self.doubled)

    def __hash__(self) -> int:
        return hash(self.doubled)

    def __neg__(self) -> "Weight":
        return Weight._trusted(tuple(-c for c in self.doubled))

    def evaluate(self, values) -> float:
        """Pairing with a real coordinate vector of matching length."""
        if len(values) != len(self.doubled):
            raise ParameterError(
                f"weight has {len(self.doubled)} coordinates, got {len(values)} values")
        return sum(c * v for c, v in zip(self.doubled, values)) / 2.0

    def __str__(self) -> str:
        # " + f1 - 3/2*f2 + 2*f3" in one join, then the leading sign trimmed
        text = "".join([_term(i, c) for i, c in enumerate(self.doubled, 1) if c])
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


@lru_cache(maxsize=4096)
def _term(i: int, c: int) -> str:   # " - 3/2*f2" for i = 2, c = -3
    return (f" {'-' if c < 0 else '+'} "
            f"{'' if c in (2, -2) else f'{abs(c)}/2*' if c % 2 else f'{abs(c) // 2}*'}f{i}")


class WeightMultiset:
    """Multiset of weights with positive integer multiplicities.

    All entries share one rank; iteration is in the canonical order
    (descending lexicographic on coordinates).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Weight, int] | Iterable[Weight]):
        acc: dict[Weight, int] = {}
        pairs = entries.items() if isinstance(entries, Mapping) else ((w, 1) for w in entries)
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
        self._entries = acc

    @classmethod
    def _trusted(cls, entries: dict[Weight, int]) -> "WeightMultiset":
        """No checks or copy: for the library's own producers of valid entries."""
        ms = object.__new__(cls)
        ms._entries = entries
        return ms

    @property
    def rank(self) -> int:
        return next(iter(self._entries)).rank

    def items(self) -> list[tuple[Weight, int]]:
        """(weight, multiplicity) pairs in canonical order."""
        return sorted(self._entries.items(), key=lambda wm: wm[0].doubled, reverse=True)

    def expand(self) -> list[Weight]:
        """All weights repeated by multiplicity, in canonical order."""
        return [w for w, m in self.items() for _ in range(m)]

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
        if factor <= 0 or not isinstance(factor, int):
            raise ParameterError("scaling factor must be a positive integer")
        return WeightMultiset._trusted({w: m * factor for w, m in self._entries.items()})

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
    """All k-element subsets of range(n) in lexicographic order: the order
    of the k-subset sums in ``simulate`` and of the compound-matrix rows
    and columns. Exterior-power weights are not built from subsets
    (``exterior_power``)."""
    return list(combinations(range(n), k))


def exterior_power(base: WeightMultiset, k: int) -> WeightMultiset:
    """Weights of the k-th exterior power of a representation with weights
    ``base``: the coefficient of t^k in prod_w (1 + t x^w), where a weight
    of multiplicity m contributes sum_b C(m, b) t^b x^(b w) (Fulton-Harris
    section 15). No subset is enumerated. For 2k > n the recurrence runs
    to degree n - k only: Lambda^k is (Lambda^(n-k))^* (x) det, so its
    weights are sigma minus those of degree n - k, sigma the weight sum.
    A sum is keyed by one int: with top the largest |doubled coordinate|,
    each coordinate of a j-fold sum (j <= k) plus k * top lies in
    [0, 2 k top] and fills its own bit field; packing is linear, so adding
    b w to a key is one integer add, and only degree-k keys are unpacked."""
    n = base.total()
    if not 1 <= k <= n:
        raise ParameterError(f"exterior degree {k} out of range 1..{n}")
    dual, k = 2 * k > n, min(k, n - k)
    items, rank = base.items(), base.rank
    top = max(abs(c) for w, _ in items for c in w.doubled)
    width = (2 * k * top).bit_length()
    shifts = [i * width for i in range(rank)]   # where each coordinate's field starts
    pack = lambda coords: sum(c << s for c, s in zip(coords, shifts))
    # by_degree[j]: packed key of a j-fold sum -> its multiplicity
    by_degree: list[dict[int, int]] = [{pack([k * top] * rank): 1}]
    by_degree += [{} for _ in range(k)]
    remaining = n
    for w, m in items:
        remaining -= m
        packed = pack(w.doubled)
        step = [{} for _ in by_degree]
        for j in range(k, -1, -1):   # downward: no lower degree has reached step[j] yet
            # skip the j + b that the remaining weights can no longer lift to k
            sums, lo = by_degree[j], max(0, k - remaining - j)
            if lo == 0:   # b = 0 adds sums to an empty step[j]: move it there
                step[j], lo = sums, 1
            for b in range(lo, min(m, k - j) + 1):
                coeff = math.comb(m, b)
                shift = b * packed
                target = step[j + b]
                for v, count in sums.items():
                    key = v + shift
                    target[key] = target.get(key, 0) + coeff * count
        by_degree = step
    mask = (1 << width) - 1
    sums = {tuple([((v >> s) & mask) - k * top for s in shifts]): c
            for v, c in by_degree[k].items()}
    if dual:
        sigma = [sum(m * w.doubled[i] for w, m in items) for i in range(rank)]
        sums = {tuple(map(sub, sigma, v)): c for v, c in sums.items()}
    return WeightMultiset._trusted({Weight._trusted(v): c for v, c in sums.items()})


def _leading_sum(column, k: int) -> int:
    """Sum of the first k values of (value, multiplicity) pairs, in order."""
    total = 0
    for value, m in column:
        if m >= k:
            return total + k * value
        total, k = total + m * value, k - m
    return total


def exterior_power_bound(base: WeightMultiset, k: int) -> int:
    """Upper bound on the number of distinct weights of the k-th exterior
    power: each coordinate of a k-fold sum lies between the sums of the k
    smallest and the k largest values of that coordinate, on the lattice
    spanned by the differences of those values. The bound is the product
    of these per-coordinate counts (3^q for su(p,q), any k >= 2), read off
    the distinct weights and their multiplicities."""
    mults, bound = base._entries.values(), 1
    for values in zip(*(w.doubled for w in base._entries)):
        column = sorted(zip(values, mults))
        lo, hi = _leading_sum(column, k), _leading_sum(reversed(column), k)
        step = math.gcd(*(v - column[0][0] for v in values))
        if step:
            bound *= (hi - lo) // step + 1
    return bound

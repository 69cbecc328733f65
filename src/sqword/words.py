"""Finite binary words and exact letter-weight machinery.

Words are plain Python strings over {'0', '1'}: immutable, value-semantic,
freely shareable.  All weight arithmetic is scaled by the length of a fixed
base word so that only integers appear; slopes are reduced fractions.  No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateBaseError,
    EmptyWordError,
    InvalidLetterError,
    TooShortError,
)


def check_binary(word: str) -> str:
    """Return *word* unchanged after checking it is a string over {0, 1}."""
    if not isinstance(word, str):
        raise InvalidLetterError(
            f"expected a string of '0'/'1' letters, got {type(word).__name__}"
        )
    if word.count("0") + word.count("1") != len(word):
        bad = next(ch for ch in word if ch not in "01")
        raise InvalidLetterError(f"invalid letter {bad!r} in binary word")
    return word


def slope(word: str) -> Fraction:
    """Fraction of 1s in *word*, in lowest terms."""
    check_binary(word)
    if not word:
        raise EmptyWordError("slope of the empty word is undefined")
    return Fraction(word.count("1"), len(word))


@dataclass(frozen=True)
class ScaledWeights:
    """Zero-sum letter weights for a base word, scaled by its length.

    ``w0`` is the weight of '0' and ``w1`` the weight of '1', both multiplied
    by ``base_len`` so they are exact integers.  By construction
    ``w1 - w0 == base_len`` (the unscaled weights differ by 1) and the base
    word itself sums to zero.
    """

    base_len: int
    w0: int
    w1: int

    def __post_init__(self):
        if self.base_len <= 0:
            raise DegenerateBaseError("base length must be positive")
        if self.w1 - self.w0 != self.base_len:
            raise DegenerateBaseError("weights must satisfy w1 - w0 == base_len")
        if not (self.w0 <= 0 <= self.w1):
            raise DegenerateBaseError("weights must straddle zero")

    @classmethod
    def from_base(cls, base: str) -> "ScaledWeights":
        check_binary(base)
        ones = base.count("1")
        if not base or ones == 0 or ones == len(base):
            raise DegenerateBaseError("base word must contain both letters")
        return cls(base_len=len(base), w0=-ones, w1=len(base) - ones)


def scaled_sum(word: str, base: str) -> int:
    """Sum of the letters of *word* under the weights of *base*, times |base|.

    Equals ``ones(word) * zeros(base) - zeros(word) * ones(base)``, an exact
    integer; dividing by ``len(base)`` recovers the rational letter sum.
    """
    w = ScaledWeights.from_base(base)
    check_binary(word)
    ones = word.count("1")
    return ones * w.w1 + (len(word) - ones) * w.w0


@dataclass(frozen=True)
class PrefixSumWord:
    """Running letter sums of a word, scaled by the base length.

    ``values[i]`` is the scaled sum of the first ``i + 1`` letters; dividing
    every value by ``denominator`` gives the rational prefix sums.
    """

    values: tuple[int, ...]
    denominator: int

    @property
    def min(self) -> int:
        return min(self.values)

    @property
    def max(self) -> int:
        return max(self.values)

    def to_json(self) -> dict:
        return {"denominator": self.denominator, "values": list(self.values)}


def prefix_sum_word(word: str, base: str) -> PrefixSumWord:
    """Prefix sum word of *word* under the zero-sum weights of *base*."""
    w = ScaledWeights.from_base(base)
    check_binary(word)
    values = []
    total = 0
    for ch in word:
        total += w.w1 if ch == "1" else w.w0
        values.append(total)
    return PrefixSumWord(values=tuple(values), denominator=w.base_len)


def exchange_first_two(word: str) -> str:
    """Swap the first two letters of *word* (an involution on length >= 2)."""
    check_binary(word)
    if len(word) < 2:
        raise TooShortError("exchange needs a word of length at least 2")
    return word[1] + word[0] + word[2:]


def primitive_root(word: str) -> tuple[str, int]:
    """The unique primitive ``p`` and exponent ``k >= 1`` with ``word == p*k``.

    Works for words over any alphabet.  Uses the doubling trick: the first
    occurrence of ``word`` inside ``word + word`` after position 0 is at its
    smallest power-period.
    """
    if not word:
        raise EmptyWordError("the empty word has no primitive root")
    period = (word + word).find(word, 1)
    if period < len(word):
        return word[:period], len(word) // period
    return word, 1


def is_primitive(word: str) -> bool:
    """True iff *word* is not a proper power of a shorter word."""
    return primitive_root(word)[1] == 1


def are_conjugate(u: str, v: str) -> bool:
    """True iff *v* is a rotation of *u*."""
    if len(u) != len(v):
        return False
    return v in u + u

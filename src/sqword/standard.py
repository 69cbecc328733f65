"""Standard words, central words, and recognition of reversed standard words.

A directive sequence (d1, d2, ...) of positive integers generates standard
words by the recursion::

    s(-1) = 1,  s(0) = 0,  s(1) = 0^(d1-1) 1,  s(k) = s(k-1)^dk s(k-2)

Nothing here searches directives.  A word of length d with c ones,
gcd(c, d) = 1, is reversed standard exactly when it is the central word of
slope c/d prefixed by 01 or 10.  The directive of a standard word is unique
and is read off the continued fraction of c/d by Euclid's algorithm; d1 >= 2
exactly when the word starts with 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import (
    EmptyDirectiveError,
    EmptyWordError,
    InvalidSlopeError,
    NotStandardError,
)
from .squares import Params
from .words import check_binary

Directive = tuple[int, ...]


def standard_from_directive(directive: Sequence[int]) -> str:
    """The standard word of the directive sequence, by the defining recursion."""
    terms = tuple(directive)
    if not terms:
        raise EmptyDirectiveError("directive sequence must be nonempty")
    if any(d < 1 for d in terms):
        raise EmptyDirectiveError("directive terms must be positive integers")
    prev2, prev = "1", "0"  # s(-1), s(0)
    word = "0" * (terms[0] - 1) + "1"
    for d in terms[1:]:
        prev2, prev = prev, word
        word = word * d + prev2
    return word


def fibonacci_word(k: int) -> str:
    """The k-th word of the directive (2, 1, 1, 1, ...); k >= -1."""
    if k < -1:
        raise EmptyDirectiveError("fibonacci index must be >= -1")
    if k == -1:
        return "1"
    if k == 0:
        return "0"
    return standard_from_directive((2,) + (1,) * (k - 1))


def central_word(c: int, d: int) -> str:
    """The palindromic word of length d - 2 with floor-difference letters.

    Letter j (1-based) is ``floor(c(j+1)/d) - floor(cj/d)``.  Requires
    coprime c, d with 1 <= c < d; the result is empty when d = 2.
    """
    if d < 2 or not 1 <= c < d or gcd(c, d) != 1:
        raise InvalidSlopeError(f"need coprime 1 <= c < d with d >= 2, got c={c}, d={d}")
    return "".join("01"[c * (j + 1) // d - c * j // d] for j in range(1, d - 1))


@dataclass(frozen=True)
class StandardWordInfo:
    """A recognized reversed standard word with its central word and slope."""

    word: str
    central: str
    slope: Fraction

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "central": self.central,
            "slope": f"{self.slope.numerator}/{self.slope.denominator}",
        }


def reversed_standard_info(word: str) -> StandardWordInfo | None:
    """Recognize *word* as a reversed standard word, or return None.

    Single letters are the base words and always accepted.  For length >= 2
    the slope determines the unique candidate pair {01u, 10u} with u the
    central word of that slope.
    """
    check_binary(word)
    if not word:
        raise EmptyWordError("the empty word is not a standard word")
    n = len(word)
    ones = word.count("1")
    if n == 1:
        return StandardWordInfo(word=word, central="", slope=Fraction(ones, 1))
    if ones == 0 or ones == n or gcd(n, ones) != 1:
        return None
    u = central_word(ones, n)
    if word == "01" + u or word == "10" + u:
        return StandardWordInfo(word=word, central=u, slope=Fraction(ones, n))
    return None


def is_reversed_standard(word: str) -> bool:
    return reversed_standard_info(word) is not None


def _directive(word: str) -> Directive | None:
    """The directive generating the standard word *word*, or None.

    Euclid's algorithm on (ones, length) gives the continued fraction
    [0; d1, ..., dk] of the slope with dk >= 2; the other standard word of
    the slope has the other expansion (d1, ..., dk - 1, 1).
    """
    if word == "0":
        return ()
    d, c = len(word), word.count("1")
    if gcd(c, d) != 1:
        return None
    terms: list[int] = []
    while c:
        q, r = divmod(d, c)
        terms.append(q)
        d, c = c, r
    directive = tuple(terms)
    if standard_from_directive(directive) == word:
        return directive
    directive = directive[:-1] + (directive[-1] - 1, 1)
    return directive if standard_from_directive(directive) == word else None


def directive_of_standard(word: str) -> Directive:
    """The directive sequence generating the standard word *word*.

    The directive is unique: it is read off the continued fraction of the
    slope, and d1 >= 2 exactly when the word starts with 0.  The base words
    get the designations ``()`` for "0" and ``(1,)`` for "1".
    """
    check_binary(word)
    directive = _directive(word)
    if directive is None:
        raise NotStandardError(f"{word!r} is not a standard word")
    return directive


def natural_params(word: str) -> Params | None:
    """The square-root parameters a reversed standard word naturally lives in.

    These are (d1 - 1, d2 - 1) for the directive of the reversal;
    length-one directives get b = 0.  None when the word is not reversed
    standard or its directive starts with d1 = 1 (the letter-swapped family).
    """
    check_binary(word)
    directive = _directive(word[::-1])
    if not directive or directive[0] < 2:
        return None
    return Params(directive[0] - 1, directive[1] - 1 if len(directive) > 1 else 0)

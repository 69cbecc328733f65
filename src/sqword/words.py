"""Finite binary words: validation, slope, exchange and primitivity.

Words are plain Python strings over {'0', '1'}: immutable, value-semantic,
freely shareable.  Slopes are reduced fractions; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyWordError, InvalidLetterError, TooShortError


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


def check_nonempty(word: str, message: str) -> str:
    """Return *word* unchanged after checking its letters, then that it is
    nonempty; the empty word raises ``EmptyWordError(message)``."""
    if not check_binary(word):
        raise EmptyWordError(message)
    return word


def slope(word: str) -> Fraction:
    """Fraction of 1s in *word*, in lowest terms."""
    check_nonempty(word, "slope of the empty word is undefined")
    return Fraction(word.count("1"), len(word))


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

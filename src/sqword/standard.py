"""Standard words, central words, and recognition of reversed standard words.

A directive sequence (d1, d2, ...) of positive integers generates standard
words by the recursion::

    s(-1) = 1,  s(0) = 0,  s(1) = 0^(d1-1) 1,  s(k) = s(k-1)^dk s(k-2)

This recursion, fed by Euclid's algorithm, is the only construction here;
nothing searches directives.  A word of length d with c ones, gcd(c, d) = 1,
has two candidate directives, the two continued-fraction expansions of c/d.
They generate u01 and u10 with u the central word of slope c/d, and a word
is standard exactly when it is one of them.  The directive of a standard
word is therefore unique; d1 >= 2 exactly when the word starts with 0.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import (
    EmptyDirectiveError,
    InvalidSlopeError,
    NotStandardError,
)
from .squares import Params
from .words import check_binary, check_nonempty

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


def _euclid(c: int, d: int) -> Directive:
    """The terms (d1, ..., dk) of the continued fraction c/d = [0; d1, ..., dk].

    Euclid's algorithm; dk >= 2 whenever c < d.
    """
    terms: list[int] = []
    while c:
        q, r = divmod(d, c)
        terms.append(q)
        d, c = c, r
    return tuple(terms)


def central_word(c: int, d: int) -> str:
    """The palindromic word of length d - 2 with floor-difference letters.

    Letter j (1-based) is ``floor(c(j+1)/d) - floor(cj/d)``.  Requires
    coprime c, d with 1 <= c < d; the result is empty when d = 2.  It is
    the standard word of slope c/d without its last two letters.
    """
    if d < 2 or not 1 <= c < d or gcd(c, d) != 1:
        raise InvalidSlopeError(f"need coprime 1 <= c < d with d >= 2, got c={c}, d={d}")
    return standard_from_directive(_euclid(c, d))[:-2]


def is_reversed_standard(word: str) -> bool:
    """True iff *word* is the reversal of a standard word.

    Single letters are the base words and always accepted.
    """
    check_nonempty(word, "the empty word is not a standard word")
    return _directive(word[::-1]) is not None


def _directive(word: str) -> Directive | None:
    """The directive generating the standard word *word*, or None.

    Euclid's algorithm on (ones, length) gives the expansion (d1, ..., dk)
    of the slope with dk >= 2.  The other standard word of the slope is
    that word with its last two letters swapped, generated by the other
    expansion (d1, ..., dk - 1, 1).
    """
    if word == "0":
        return ()
    d, c = len(word), word.count("1")
    if gcd(c, d) != 1:
        return None
    directive = _euclid(c, d)
    standard = standard_from_directive(directive)
    if standard == word:
        return directive
    if standard[:-2] + standard[:-3:-1] == word:
        return directive[:-1] + (directive[-1] - 1, 1)
    return None


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

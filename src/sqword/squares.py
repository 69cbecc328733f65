"""The six parameterized minimal square roots and the squareful languages.

For parameters ``a >= 1``, ``b >= 0`` the minimal square roots are::

    s1 = 0
    s2 = 0 1 0^(a-1)
    s3 = 0 1 0^a
    s4 = 1 0^a
    s5 = 1 0^(a+1) (1 0^a)^b
    s6 = 1 0^(a+1) (1 0^a)^(b+1)

The factor language consists of all factors of infinite concatenations of
``s5`` and ``s6`` (optionally preceded by runs of ``0`` and ``1 0^a``).  A
word has a square root when it lies in that language and splits, greedily
and uniquely, into squares of the six roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    EmptyAfterTrimError,
    EmptyWordError,
    InvalidParamsError,
    NoSquareMatchesError,
    NotInPiError,
)
from .words import check_binary


@dataclass(frozen=True, order=True)
class Params:
    """The parameter pair fixing the six minimal square roots."""

    a: int
    b: int = 0

    def __post_init__(self):
        if self.a < 1:
            raise InvalidParamsError(f"parameter a must be >= 1, got {self.a}")
        if self.b < 0:
            raise InvalidParamsError(f"parameter b must be >= 0, got {self.b}")


@lru_cache(maxsize=None)
def _roots(a: int, b: int) -> tuple[str, ...]:
    run = "0" * a
    s5 = "1" + "0" * (a + 1) + ("1" + run) * b
    return (
        "0",
        "01" + "0" * (a - 1),
        "01" + run,
        "1" + run,
        s5,
        s5 + "1" + run,
    )


@lru_cache(maxsize=None)
def _squares(a: int, b: int) -> tuple[str, ...]:
    return tuple(r + r for r in _roots(a, b))


def minimal_square_roots(params: Params) -> tuple[str, str, str, str, str, str]:
    """The six minimal square roots, shortest first."""
    return _roots(params.a, params.b)


def minimal_squares(params: Params) -> tuple[str, str, str, str, str, str]:
    """Squares of the six minimal square roots."""
    return _squares(params.a, params.b)


# NFA state layout for the factor language, per (a, b_eff):
#   (block_id, offset) where block 0/1 are the two long roots, block -2 is
#   the "1 0^a" preamble block and -1 the initial zero run.  A factor may
#   start at any offset of any allowed block; finishing a block branches to
#   the starts reachable from it.


def _window_b(word_len: int, a: int, b: int) -> int:
    # A window shorter than the spacing between consecutive 0^(a+1) runs
    # cannot tell b from any larger value, so cap b to keep the NFA small.
    cap = word_len // (a + 1) + 2
    return b if b <= cap else cap


def in_language(word: str, params: Params, allow_initial_runs: bool = False) -> bool:
    """Membership of *word* in the squareful factor language.

    With ``allow_initial_runs`` the language additionally admits the
    ``0^* (1 0^a)^*`` preamble that general squareful words may start with.
    Implemented as a nondeterministic search over (block, offset) states.
    """
    check_binary(word)
    if not word:
        return True
    a = params.a
    if "1" not in word:
        # Zero runs in the language never exceed a + 1 letters.
        return True if allow_initial_runs else len(word) <= a + 1
    b = _window_b(len(word), a, params.b)
    roots = _roots(a, b)
    five, six = roots[4], roots[5]
    four = roots[3]
    text = {0: five, 1: six, -2: four, -1: "0"}
    core_starts = ((0, 0), (1, 0))
    follow = {
        0: core_starts,
        1: core_starts,
        -2: ((-2, 0),) + core_starts,
        -1: ((-1, 0), (-2, 0)) + core_starts,
    }
    states = {(bid, off) for bid in (0, 1) for off in range(len(text[bid]))}
    if allow_initial_runs:
        states.add((-1, 0))
        states.update((-2, off) for off in range(len(four)))
    for ch in word:
        nxt = set()
        for bid, off in states:
            block = text[bid]
            if block[off] != ch:
                continue
            if off + 1 == len(block):
                nxt.update(follow[bid])
            else:
                nxt.add((bid, off + 1))
        if not nxt:
            return False
        states = nxt
    return True


def scan_minimal_squares(word: str, params: Params) -> tuple[list[int], int]:
    """Greedy left-to-right square parse; stops where no square matches.

    Returns the matched root indices (1-based) and the number of letters
    consumed.  At each position at most one square can match because no
    minimal square is a prefix of another, so no backtracking is needed.
    """
    squares = _squares(params.a, params.b)
    indices: list[int] = []
    pos = 0
    n = len(word)
    while pos < n:
        for i, sq in enumerate(squares):
            if word.startswith(sq, pos):
                indices.append(i + 1)
                pos += len(sq)
                break
        else:
            break
    return indices, pos


def _join_roots(indices, params: Params) -> str:
    roots = _roots(params.a, params.b)
    return "".join(roots[i - 1] for i in indices)


@dataclass(frozen=True)
class SquareFactorization:
    """The greedy minimal-square factorization of a word, possibly partial.

    ``indices`` are the matched root indices (1-based), ``consumed`` the
    number of letters they cover, and ``complete`` whether they cover the
    whole word.
    """

    indices: tuple[int, ...]
    params: Params
    consumed: int
    complete: bool

    def word(self) -> str:
        squares = minimal_squares(self.params)
        return "".join(squares[i - 1] for i in self.indices)

    def root(self) -> str:
        """The square root of the factored prefix: every square halved."""
        return _join_roots(self.indices, self.params)

    def to_json(self) -> dict:
        return {"a": self.params.a, "b": self.params.b, "indices": list(self.indices)}


def _parse(word: str, params: Params) -> SquareFactorization:
    # For words the package built itself; public entry points validate first.
    indices, consumed = scan_minimal_squares(word, params)
    return SquareFactorization(tuple(indices), params, consumed, consumed == len(word))


def parse(word: str, params: Params) -> SquareFactorization:
    """The greedy minimal-square factorization of *word*, stopping where no
    square matches.  Every square-root view derives from it; the factor
    language is not checked here."""
    check_binary(word)
    return _parse(word, params)


def factor_minimal_squares(word: str, params: Params) -> SquareFactorization:
    """Factor *word* as a product of minimal squares, or fail."""
    fact = parse(word, params)
    if not word:
        raise EmptyWordError("cannot factor the empty word")
    if not fact.complete:
        raise NoSquareMatchesError(fact.consumed)
    return fact


def has_square_root(word: str, params: Params) -> bool:
    """True iff *word* is nonempty, in the factor language, and a product
    of minimal squares (the domain of the square-root map)."""
    fact = parse(word, params)
    return bool(word) and fact.complete and in_language(word, params)


def square_root(word: str, params: Params, trim: bool = False) -> str:
    """Halve every square in the unique minimal-square factorization.

    Without *trim* the whole word must factor and lie in the factor
    language.  With *trim* the root of the longest factorable prefix is
    returned, and the only error is that not even one square fits.
    """
    fact = parse(word, params)
    if not word:
        raise NotInPiError("the empty word has no square root")
    if trim:
        if not fact.indices:
            raise EmptyAfterTrimError("no complete square at the start of the word")
    elif not fact.complete:
        raise NotInPiError(f"no complete square factorization (stuck at {fact.consumed})")
    elif not in_language(word, params):
        raise NotInPiError("word is not in the squareful factor language")
    return fact.root()

"""The six parameterized minimal square roots and the squareful languages.

For parameters ``a >= 1``, ``b >= 0`` the minimal square roots are::

    s1 = 0
    s2 = 0 1 0^(a-1)
    s3 = 0 1 0^a
    s4 = 1 0^a
    s5 = 1 0^(a+1) (1 0^a)^b
    s6 = 1 0^(a+1) (1 0^a)^(b+1)

The factor language consists of all factors of infinite concatenations of
``s5`` and ``s6``.  These two roots are the images of ``1 0^b`` and
``1 0^(b+1)`` under the substitution ``1 -> 1 0^(a+1)``, ``0 -> 1 0^a``, so
a word lies in the language exactly when it desubstitutes twice, first by a
and then by b.  A word has a square root when it lies in that language and
splits, greedily and uniquely, into squares of the six roots.  The split is
one compiled pattern per (a, b): an alternation of the six squares, matched
square after square by the regular-expression engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Iterator

from .errors import EmptyAfterTrimError, InvalidParamsError, NotInPiError
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


def _s6_length(params: Params) -> int:
    # |s6| = |1 0^(a+1)| + (b + 1) |1 0^a|, without building the root
    return (params.a + 2) + (params.b + 1) * (params.a + 1)


def _window(params: Params, n: int) -> tuple[int, int]:
    # The tables a parse of n letters needs, at a size bounded by n.  A root
    # longer than n letters never matches in n letters, nor does its square,
    # so capping a at n changes nothing; s5 has a + 2 + b (a + 1) letters,
    # more than n for every b >= n // (a + 1), so capping b there changes
    # nothing either.  Every parse runs this, and conditionals cost a
    # fraction of min() calls.  The empty word keeps a = 1, so that the
    # run 0^(a-1) of s2 has a length.
    a, b = params.a, params.b
    a = a if a <= n else n or 1
    cap = n // (a + 1)
    return a, (b if b <= cap else cap)


# The one per-(a, b) table cache, bounded: an entry's roots can have as many
# letters as the word parsed, and a parameter search asks for a new pair per
# candidate.  `count --range 1..60 --brute` builds 461 windows.
@lru_cache(maxsize=1024)
def _tables(a: int, b: int) -> tuple:
    # What a parse for Params(a, b) reads: the six squares as one compiled
    # alternation, group i matching square i, then the six roots and the
    # square lengths, each keyed by group.  In the pattern zero runs and the
    # run of s4 in s5 are counted repeats, so it stays a few hundred bytes
    # however large a and b are.  Callers that need the squares double them.
    s4 = "1" + "0" * a
    s5 = "1" + "0" * (a + 1) + s4 * b
    roots = dict(enumerate(("0", "01" + "0" * (a - 1), "0" + s4, s4, s5, s5 + s4), 1))
    p4 = "10{%d}" % a
    p5 = "10{%d}(?:%s){%d}" % (a + 1, p4, b)
    pattern = "|".join(f"({r}{r})" for r in ("0", "010{%d}" % (a - 1), "0" + p4, p4, p5, p5 + p4))
    return re.compile(pattern).scanner, roots, {i: 2 * len(r) for i, r in roots.items()}


def minimal_square_roots(params: Params) -> tuple[str, str, str, str, str, str]:
    """The six minimal square roots, shortest first."""
    return tuple(_tables(params.a, params.b)[1].values())


def minimal_squares(params: Params) -> tuple[str, str, str, str, str, str]:
    """Squares of the six minimal square roots."""
    return tuple(r + r for r in minimal_square_roots(params))


_KINDS = str.maketrans("LS", "10")


def _derive(word: str, k: int) -> str | None:
    # Undo 1 -> 1 0^(k+1), 0 -> 1 0^k on a factor of an image: the preimage
    # letters the factor pins down, or None if it is no such factor.  The
    # head zeros end a block and the tail 1 0^t starts one; either is a
    # whole long block only with k + 1 zeros.  Blocks longer than the word
    # cannot occur in it, so capping k at its length changes nothing.
    k = min(k, len(word))
    core = word.lstrip("0")
    body = core.rstrip("0")
    head, tail = len(word) - len(core), len(core) - len(body)
    if tail > k + 1 or head > k + 1:
        return None
    kinds = body[:-1].replace("1" + "0" * (k + 1), "L").replace("1" + "0" * k, "S")
    if "0" in kinds or "1" in kinds:
        return None
    if head == k + 1:
        kinds = "L" + kinds
    if tail == k + 1:
        kinds += "L"
    return kinds.translate(_KINDS)


def _levels(word: str, low: int, high: int) -> range:
    # The k in low..high that _derive(word, k) may accept: the edge zero
    # runs are at most k + 1, and the first zero run between two 1s is k or
    # k + 1.  _derive decides each k left.
    first = word.find("1")
    second = word.find("1", first + 1)
    low = max(low, first - 1, len(word) - 2 - word.rfind("1"))
    if second >= 0:
        run = second - first - 1
        low, high = max(low, run - 1), min(high, run)
    return range(low, high + 1)


def _language_params(word: str, a_max: int, b_max: int) -> Iterator[Params]:
    # Every Params(a, b) with a <= a_max and b <= min(b_max, |word| // (a + 1))
    # whose factor language holds *word*, in increasing order.  Each b past
    # that saturation point answers as it does, here and in every parse of
    # the word: _window caps the parse's b there, and each kinds letter
    # stands for a block of at least a + 1 letters, so the kinds word has at
    # most that many letters and _derive caps b at its length.  With no b to
    # try there is no pair, whatever a_max is.
    if b_max < 0:
        return
    for a in _levels(word, 1, a_max):
        kinds = _derive(word, a)
        if kinds is not None:
            for b in _levels(kinds, 0, min(b_max, len(word) // (a + 1))):
                if _derive(kinds, b) is not None:
                    yield Params(a, b)


def in_language(word: str, params: Params) -> bool:
    """Membership of *word* in the squareful factor language.

    ``s5`` and ``s6`` are the images of ``1 0^b`` and ``1 0^(b+1)`` under
    ``1 -> 1 0^(a+1)``, ``0 -> 1 0^a``, so a word is in the language exactly
    when it desubstitutes twice, first by a and then by b.
    """
    check_binary(word)
    kinds = _derive(word, params.a)
    return kinds is not None and _derive(kinds, params.b) is not None


_LASTINDEX = attrgetter("lastindex")


def _resume(word: str, q: int, tables: tuple) -> int:
    # Resume the greedy square parse of *word* at q, where its roots spell
    # word[:q/2]: where it stops now, or -1 if a new root differs from the
    # word.  Each square is twice its root.
    scanner, roots, _ = tables
    joined = "".join(map(roots.__getitem__, map(_LASTINDEX, iter(scanner(word, q).match, None))))
    return q + 2 * len(joined) if word.startswith(joined, q // 2) else -1


def scan_minimal_squares(word: str, params: Params) -> tuple[list[int], int]:
    """Greedy left-to-right square parse; stops where no square matches.

    Returns the matched root indices (1-based) and the number of letters
    consumed.  At each position at most one square can match because no
    minimal square is a prefix of another, so no backtracking is needed.
    The parse is one compiled pattern per (a, b): each match resumes where
    the previous one ended, and the first position where no square matches
    ends the scan.
    """
    scanner, _, lengths = _tables(*_window(params, len(word)))
    indices = list(map(_LASTINDEX, iter(scanner(word).match, None)))
    return indices, sum(map(lengths.__getitem__, indices))


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

    def root(self) -> str:
        """The square root of the factored prefix: every square halved."""
        roots = _tables(*_window(self.params, self.consumed))[1]
        return "".join(map(roots.__getitem__, self.indices))


def parse(word: str, params: Params) -> SquareFactorization:
    """The greedy minimal-square factorization of *word*, stopping where no
    square matches.  Every square-root view derives from it; the factor
    language is not checked here."""
    check_binary(word)
    indices, consumed = scan_minimal_squares(word, params)
    return SquareFactorization(tuple(indices), params, consumed, consumed == len(word))


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

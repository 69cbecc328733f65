"""Checking and classifying square-root solutions.

A nonempty binary word w is a *solution* (for parameters a, b) when its
square has a square root and that root is w again.  Every primitive solution
is either a reversed standard word, or the image of a nontrivial primitive
pattern word under the block substitution S -> B, L -> exchange(B) for a
long enough reversed standard block B; nonprimitive solutions are powers of
primitive ones.  The classifier implements exactly that trichotomy and
raises if a solution ever escapes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    ClassificationContradictionError,
    EmptyWordError,
    InvalidLetterError,
    NotDecomposableError,
)
from .squares import Params, _language_params, _resume, _s6_length, _tables, _window, in_language
from .standard import central_word, is_reversed_standard
from .words import check_nonempty, exchange_first_two, primitive_root, slope

_PATTERN_ALPHABET = frozenset("SL")


def doubling_orbits(n: int) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {0, ..., n-1} under x -> 2x mod n.

    Orbits are two-sided: i and j share an orbit when some forward images
    2^k1 i and 2^k2 j agree, i.e. the weakly connected components of the
    doubling graph.
    """
    if n < 1:
        raise EmptyWordError("orbit partition needs n >= 1")
    # each component holds one cycle, made of the multiples of step (the
    # largest power of two dividing n), and x * step mod n lies on x's
    # cycle; groups open in order of their least member
    step = n & -n
    label: dict[int, int] = {}
    for start in range(0, n, step):
        x = start
        while x not in label:
            label[x] = start
            x = 2 * x % n
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(label[x * step % n], []).append(x)
    return tuple(tuple(g) for g in groups.values())


def _check_pattern(pattern: str) -> str:
    if not isinstance(pattern, str) or not _PATTERN_ALPHABET.issuperset(pattern):
        raise InvalidLetterError("pattern words use the alphabet {'S', 'L'}")
    if not pattern:
        raise EmptyWordError("pattern words are nonempty")
    return pattern


def is_pattern_word(pattern: str) -> bool:
    """True iff the {S, L}-word is constant on every doubling orbit.

    The orbits are the weakly connected components of the edges
    i -> 2i mod n, so the word is constant on them exactly when it agrees
    along every edge.
    """
    _check_pattern(pattern)
    n = len(pattern)
    return all(pattern[i] == pattern[2 * i % n] for i in range(n))


def substitute_pattern(pattern: str, block: str) -> str:
    """Replace S by *block* and L by *block* with its first two letters swapped.

    A block shorter than two letters raises ``TooShortError`` through the
    exchange.
    """
    _check_pattern(pattern)
    swapped = exchange_first_two(block)
    return "".join(block if ch == "S" else swapped for ch in pattern)


def is_solution(word: str, params: Params) -> bool:
    """True iff the square of *word* has a square root equal to *word*."""
    check_nonempty(word, "solutions are nonempty")
    square = word + word
    tables = _tables(*_window(params, len(square)))
    return _resume(square, 0, tables) == len(square) and in_language(square, params)


def _bounds(
    word: str, a_max: int | None, b_max: int | None, empty: str = "solutions are nonempty"
) -> tuple[int, int]:
    # Validate *word* and default each missing bound to twice its length.
    check_nonempty(word, empty)
    default = 2 * len(word)
    return (default if a_max is None else a_max, default if b_max is None else b_max)


def find_params(word: str, a_max: int | None = None, b_max: int | None = None) -> set[Params]:
    """All parameter pairs within the bounds for which *word* is a solution.

    Bounds default to twice the word length, which is enough to decide
    solution-hood outright: a minimal square inside the square of *word*
    cannot be longer than the square itself.  Only the pairs whose factor
    language holds the square are tried, and each b only up to
    2|w| // (a + 1): every larger b parses and derives the square alike, so
    a solution there extends to every b up to ``b_max`` untried.
    """
    a_max, b_max = _bounds(word, a_max, b_max)
    square = word + word
    found = set()
    for p in _language_params(square, a_max, b_max):
        if is_solution(word, p):
            found.add(p)
            if p.b == len(square) // (p.a + 1):
                found.update(Params(p.a, b) for b in range(p.b + 1, b_max + 1))
    return found


def has_params(word: str, a_max: int | None = None, b_max: int | None = None) -> bool:
    """Early-exit version of ``find_params(word) != set()``."""
    a_max, b_max = _bounds(word, a_max, b_max)
    return any(is_solution(word, p) for p in _language_params(word + word, a_max, b_max))


def decompose_blocks(word: str) -> tuple[str, str]:
    """Split a solution into equal blocks S and L = exchange(S).

    The block is forced: it has the reduced slope c/d of *word*, length d,
    and is the 0-initial member of the candidate pair (01 or 10 followed by
    the central word of c/d).  Returns the block and the {S, L}-letter
    sequence of *word* read block by block.
    """
    check_nonempty(word, "cannot decompose the empty word")
    sl = slope(word)
    if sl in (0, 1):
        raise NotDecomposableError("block decomposition needs both letters")
    c, d = sl.numerator, sl.denominator
    block = "01" + central_word(c, d)
    swapped = exchange_first_two(block)
    letters = []
    for i in range(0, len(word), d):
        chunk = word[i : i + d]
        if chunk == block:
            letters.append("S")
        elif chunk == swapped:
            letters.append("L")
        else:
            raise NotDecomposableError(
                f"block at position {i} is neither the standard block nor its exchange"
            )
    return block, "".join(letters)


class Verdict(Enum):
    """Outcome of classifying a word against the solution trichotomy."""

    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    POWER_OF_PRIMITIVE = "PowerOfPrimitive"
    NOT_SOLUTION = "NotSolution"


@dataclass(frozen=True)
class Classification:
    """Classifier verdict with its witnesses.

    ``params`` is every (a, b) within the bounds for which the word is a
    solution; ``block``/``pattern`` witness a type II decomposition (JSON
    keys "S" and "u"); ``witness_params`` is a member of ``params`` whose
    sixth root is shorter than the block; ``root`` is (primitive root,
    exponent) for powers.
    """

    verdict: Verdict
    params: tuple[Params, ...]
    bounds: tuple[int, int]
    block: str | None = None
    pattern: str | None = None
    witness_params: Params | None = None
    root: tuple[str, int] | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "params": [[p.a, p.b] for p in self.params],
            "S": self.block,
            "u": self.pattern,
            "root": list(self.root) if self.root else None,
            "witness_params": (
                [self.witness_params.a, self.witness_params.b]
                if self.witness_params
                else None
            ),
            "bounds": list(self.bounds),
        }


def classify(word: str, a_max: int | None = None, b_max: int | None = None) -> Classification:
    """Classify *word* as type I, type II, a power of a primitive solution,
    or not a solution at all (within the parameter bounds).

    Raises ClassificationContradictionError if a solution fails every case;
    that never happens unless the trichotomy itself is falsified.
    """
    bounds = _bounds(word, a_max, b_max, "cannot classify the empty word")
    params = tuple(sorted(find_params(word, *bounds)))
    if not params:
        return Classification(Verdict.NOT_SOLUTION, params, bounds)
    root, k = primitive_root(word)
    if k > 1:
        if not has_params(root, *bounds):
            raise ClassificationContradictionError(
                f"{word!r} is a solution but its primitive root {root!r} is not"
            )
        return Classification(
            Verdict.POWER_OF_PRIMITIVE, params, bounds, root=(root, k)
        )
    if is_reversed_standard(word):
        return Classification(Verdict.TYPE_I, params, bounds)
    try:
        block, pattern = decompose_blocks(word)
    except NotDecomposableError as exc:
        raise ClassificationContradictionError(
            f"primitive non-standard solution {word!r} has no block decomposition"
        ) from exc
    witness = next((p for p in params if len(block) > _s6_length(p)), None)
    if (
        len(pattern) <= 1
        or not is_pattern_word(pattern)
        or primitive_root(pattern)[1] != 1
        or witness is None
    ):
        raise ClassificationContradictionError(
            f"type II witnesses for {word!r} violate the solution trichotomy"
        )
    return Classification(
        Verdict.TYPE_II,
        params,
        bounds,
        block=block,
        pattern=pattern,
        witness_params=witness,
    )

"""Prefix-verifiable constructions for the square-root map on infinite words.

Infinite words are never materialized as completed objects: a SquareStream
is a deterministic generator of minimal-square block indices plus whatever
prefix has been asked for.  Everything checked here is a statement about
prefixes: fixed-point behaviour, square prefixes, eventual periodicity of
shifted square roots.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import accumulate, chain, count, repeat, takewhile
from typing import Callable, Iterator

from .errors import (
    DomainError,
    EmptyAfterTrimError,
    NotInPiError,
    PreconditionFailedError,
)
from .squares import (
    Params,
    _pieces_in_language,
    _root_pieces,
    _s6_length,
    minimal_square_roots,
    minimal_squares,
    parse,
)
from .standard import natural_params
from .words import are_conjugate, check_binary, check_nonempty, exchange_first_two

# the largest leaf a tower builds (see _tower): a small leaf repeats, and a repeat is not re-spelled
_LEAF = 1 << 11

Blocks = tuple[int, ...]
BlockFactory = Callable[[], Iterator[Blocks]]


@dataclass(frozen=True)
class SquareStream:
    """A lazily generated infinite word given as minimal-square blocks.

    ``block_factory`` returns a fresh iterator of leaves: tuples of root
    indices (1..6), each adding the square of its root to the word, a leaf
    yielded again by reference being spelled once per prefix.  The word is
    a product of minimal squares at every block boundary by construction.
    """

    params: Params
    block_factory: BlockFactory
    description: str

    def _leaves(self, min_len: int) -> tuple[list[Blocks], list[str]]:
        # The leaves up to the one reaching min_len letters, cut after the block
        # reaching it, and the word each spells.  Each distinct leaf is spelled
        # once, keyed by its id, and its word repeats by reference; the memo
        # holds the leaf, so no id is reused.
        if min_len < 1:
            raise DomainError("prefix length must be >= 1")
        squares = dict(enumerate(minimal_squares(self.params), 1))
        spelled, leaves, words, total = {}, [], [], 0
        for leaf in self.block_factory():
            if id(leaf) not in spelled:
                with suppress(KeyError):  # a bad index: this leaf is read block by block
                    spelled[id(leaf)] = leaf, "".join(map(squares.__getitem__, leaf))
            word = spelled.get(id(leaf), (leaf, None))[1]
            if word is not None and total + len(word) < min_len:
                leaves.append(leaf)
                words.append(word)
                total += len(word)
                continue
            # the letters after each block, up to the first bad index
            good = map(squares.__getitem__, takewhile(squares.__contains__, leaf))
            ends = list(accumulate(map(len, good), initial=total))
            cut = bisect_left(ends, min_len)
            if cut == len(ends):
                raise DomainError(f"stream {self.description!r} emitted block index {leaf[cut - 1]!r}")
            leaves.append(leaf[:cut])
            words.append("".join(map(squares.__getitem__, leaf[:cut])))
            return leaves, words
        raise DomainError(f"stream {self.description!r} ended before {min_len} letters")

    def prefix_blocks(self, min_len: int) -> tuple[str, tuple[int, ...]]:
        """Materialize whole blocks until at least *min_len* letters."""
        leaves, words = self._leaves(min_len)
        return "".join(words), tuple(chain.from_iterable(leaves))

    def prefix(self, min_len: int) -> str:
        return "".join(self._leaves(min_len)[1])


def _chain_params(block: str, c: int) -> Params:
    # The checks shared by both views of the solution chain, letters first.
    params = natural_params(block)
    if c < 1:
        raise PreconditionFailedError("the power parameter c must be >= 1")
    if 2 * c > sys.maxsize:
        raise PreconditionFailedError(f"the power parameter c must be <= {sys.maxsize // 2}")
    if params is None:
        raise PreconditionFailedError(
            f"{block!r} is not a reversed standard word with usable parameters"
        )
    s6 = _s6_length(params)
    if len(block) <= s6:
        raise PreconditionFailedError(
            f"block length {len(block)} does not exceed the sixth root length {s6}"
        )
    return params


def _chain(block: str, c: int) -> Iterator[str]:
    word = block
    while True:
        yield word
        # |Z(j+1)| = (2c + 1)|Zj|: past sys.maxsize the string cannot be built
        if (2 * c + 1) * len(word) > sys.maxsize:
            raise PreconditionFailedError(
                f"the chain word after {len(word)} letters would exceed {sys.maxsize} letters"
            )
        word = exchange_first_two(word) + word * (2 * c)


def fixed_point_solutions(block: str, c: int = 1) -> Iterator[str]:
    """The solution chain Z0 = block, Z(n+1) = exchange(Zn) Zn^(2c).

    Every yielded word is a solution; Zn is a prefix of Z(n+2), so the even
    and odd subsequences converge to a fixed point of the square-root map
    and its first-two-letter exchange.  Asking for a word longer than
    sys.maxsize letters raises PreconditionFailedError.
    """
    _chain_params(block, c)
    return _chain(block, c)


def _tower(base, recipes, head: Blocks, tail) -> BlockFactory:
    """The leaves head, tail_0, tail_1, ..., where tail_j spells the runs of
    (piece, times) in *tail* over level j; level 0 is *base*, and piece p
    of level j + 1 spells the runs of recipes[p] over level j."""
    # A level is built as flat tuples only while its pieces fit in _LEAF
    # indices; above that a piece is a lazy walk over the level below.  Runs
    # repeat a flat piece by reference, a run longer than a leaf as one leaf
    # of k copies built once per piece, so memory follows the prefix read,
    # not the level that covers it, and a huge c still walks long leaves.
    levels, wide = [tuple(base)], {}

    def run(j: int, p: int, n: int) -> Iterator[Blocks]:
        piece, k = levels[j][p], max(1, _LEAF // len(levels[j][p]))
        if n > k and (j, p) not in wide:
            wide[j, p] = piece * k
        return chain(repeat(wide[j, p], n // k), repeat(piece, n % k)) if n > k else repeat(piece, n)

    def leaves(j: int, runs) -> Iterator[Blocks]:
        # the flat tuples that spell the runs of (piece, times) over level j
        if j < len(levels):
            return chain.from_iterable(run(j, p, n) for p, n in runs)
        return chain.from_iterable(leaves(j - 1, recipes[p]) for p, n in runs for _ in range(n))

    while max(sum(n * len(levels[-1][p]) for p, n in runs) for runs in recipes) <= _LEAF:
        last = len(levels) - 1
        levels.append(tuple(tuple(chain.from_iterable(leaves(last, runs))) for runs in recipes))
    # a fresh walk per call: prefix_blocks asks for a new iterator each time
    return lambda: chain([head], chain.from_iterable(leaves(j, tail) for j in count()))


def fixed_point_stream(block: str, c: int = 1) -> SquareStream:
    """The fixed point with prefixes Z0, Z2, Z4, ... as a block stream.

    With Z = Zj and X = exchange(Zj), Z(j+1) = X Z^(2c) and, since |Zj| >= 2,
    exchange(Z(j+1)) = Z^(2c+1).  No minimal square is a prefix of another,
    so complete factorizations join, and the block sequences xz, zz, zx of
    the pieces XZ, ZZ, ZX of level j give those of level j+1:

        zz' = xz + tail_j,   xz' = zz + tail_j,   zx' = xz + zz*(2c),
        where tail_j = zz*(c-1) + zx + zz*c.

    So Z(j+2) Z(j+2) = Zj Zj tail_j tail_(j+1), and the stream is
    Z0 Z0 tail_0 tail_1 ..., walked by _tower.

    Only X0 Z0, Z0 Z0 and Z0 X0 are parsed, when the stream is made; one
    that does not factor completely, or whose root is not its first half,
    raises NotInPiError.  Roots of joined factorizations join, so from
    root(X0 Z0) = X0 and root(Z0 Z0) = root(Z0 X0) = Z0 induction gives
    root(xz') = Z^(2c+1) = exchange(Z(j+1)) and root(zz') = root(zx') =
    Z(j+1): every Zj Zj has the root Zj, so the stream is a fixed point.
    """
    params = _chain_params(block, c)
    swapped = exchange_first_two(block)
    base = []
    for name, half, rest in (("X0 Z0", swapped, block), ("Z0 Z0", block, block),
                             ("Z0 X0", block, swapped)):
        fact = parse(half + rest, params)
        if not fact.complete:
            raise NotInPiError(f"fixed-point piece {name} failed to factor at position {fact.consumed}")
        if fact.root() != half:
            raise NotInPiError(f"fixed-point piece {name} does not have the root {name[:2]}")
        base.append(fact.indices)
    # the pieces xz, zz, zx are 0, 1, 2
    tail = ((1, c - 1), (2, 1), (1, c))
    recipes = (((1, 1), *tail), ((0, 1), *tail), ((0, 1), (1, 2 * c)))
    return SquareStream(
        params, _tower(base, recipes, base[1], tail), f"square-root fixed point over {block}"
    )


def no_square_prefix_word(a: int = 1) -> SquareStream:
    """The aperiodic fixed point with exactly one square prefix (b = 0).

    Its blocks are H T σ(T) σ²(T) ..., with H = 5, 6, 2, 1, 6, T = 3, 6, 3,
    6 and σ repeating each block twice.  The roots of σ(B) spell the squares
    of B for any blocks B, so the stream is a fixed point of the square-root
    map exactly when the squares of H spell the roots of H then T.
    """
    params = Params(a, 0)
    tower = _tower(((3,), (6,)), (((0, 2),), ((1, 2),)), (5, 6, 2, 1, 6),
                   ((0, 1), (1, 1), (0, 1), (1, 1)))
    return SquareStream(params, tower, f"single-square-prefix fixed point, a={a}")


def two_periodic_word(a: int = 1) -> SquareStream:
    """An aperiodic word moved by the square-root map but restored by its
    second iterate (b = 0).

    Its blocks are H T σ(T) σ²(T) ..., with H = 2, 1, 6, 6, 3, 3, T = 6⁶ 3⁸
    and σ quadrupling each run.
    """
    params = Params(a, 0)
    tower = _tower(((6,), (3,)), (((0, 4),), ((1, 4),)), (2, 1, 6, 6, 3, 3), ((0, 6), (1, 8)))
    return SquareStream(params, tower, f"two-periodic point, a={a}")


def square_prefixes(word: str) -> list[int]:
    """Lengths of all prefixes of *word* that are squares."""
    check_binary(word)
    return [
        length
        for length in range(2, len(word) + 1, 2)
        if word[: length // 2] == word[length // 2 : length]
    ]


@dataclass(frozen=True)
class PeriodReport:
    """An eventual-periodicity witness: word == prefix + repeats of period_word."""

    preperiod: int
    period: int
    period_word: str
    conjugate_to: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


def detect_period(
    word: str, max_period: int | None = None, reference: str | None = None
) -> PeriodReport | None:
    """Smallest (preperiod, period) pair explaining *word*.

    Each candidate period gets its minimal preperiod; a candidate counts
    only when the periodic tail covers at least two full periods, and the
    lexicographically smallest (preperiod, period) wins, so a genuinely
    periodic word reports preperiod 0 with its minimum period.  When a
    *reference* word is supplied and the period word is one of its
    rotations, the report records it.

    The winner is read off one border array of the reversed word: the
    suffix of length m has least period m - border[m], and a suffix with
    any qualifying period has its least one qualify too, so the longest
    suffix whose least period qualifies gives the answer in linear time.
    """
    check_binary(word)
    if reference is not None:
        check_binary(reference)
    n = len(word)
    limit = n if max_period is None else max_period
    reverse = word[::-1]
    border = array("q", [0]) * (n + 1)
    k = 0
    for i in range(1, n):
        while k and reverse[i] != reverse[k]:
            k = border[k]
        if reverse[i] == reverse[k]:
            k += 1
        border[i + 1] = k
    for m in range(n, 1, -1):
        period = m - border[m]
        if period <= limit and 2 * period <= m:
            break
    else:
        return None
    preperiod = n - m
    period_word = word[preperiod : preperiod + period]
    conjugate = (
        reference
        if reference is not None and are_conjugate(period_word, reference)
        else None
    )
    return PeriodReport(preperiod, period, period_word, conjugate)


def verify_fixed_point(stream: SquareStream, target_len: int, iterations: int = 1) -> bool:
    """Check that iterated trimmed square roots of a stream prefix stay prefixes.

    Materializes at least *target_len* letters, applies the square root
    ``iterations`` times (trimming to complete squares between iterations),
    and compares against the stream's own prefix.  A prefix outside the
    factor language signals a construction bug and raises; it is decided
    once per distinct leaf and once per distinct junction window between
    leaves, not letter by letter (``squares._pieces_in_language``).

    The first root is read off the emitted leaves, each distinct leaf spelled
    once, instead of a parse: the prefix is the product of their squares, and
    no minimal square is a prefix of another, so the greedy parse of the
    prefix is the block sequence itself.  Each later iteration parses the
    previous root piece by piece (``squares._root_pieces``): once per
    distinct pair of piece and the unparsed carry before it, never the whole
    joined root.
    """
    if target_len < 1 or iterations < 1:
        raise DomainError("target length and iteration count must be >= 1")
    leaves, words = stream._leaves(target_len)
    if not _pieces_in_language(words, stream.params):
        raise NotInPiError(
            f"stream {stream.description!r} emitted a prefix outside its language"
        )
    roots = dict(enumerate(minimal_square_roots(stream.params), 1))
    distinct = {id(leaf): leaf for leaf in leaves}  # leaves holds each, so no id is reused
    spelled = {key: "".join(map(roots.__getitem__, leaf)) for key, leaf in distinct.items()}
    pieces = [spelled[id(leaf)] for leaf in leaves]
    for _ in range(iterations - 1):
        pieces = _root_pieces(pieces, stream.params)
        if not any(pieces):
            raise EmptyAfterTrimError(
                f"stream {stream.description!r} root vanished after trimming"
            )
    return "".join(words).startswith("".join(pieces))


def find_periodic_shift(stream: SquareStream, block: str) -> tuple[int, PeriodReport] | None:
    """Search for a shift of the stream whose square root is purely periodic.

    The window is fixed by the block length: offsets 0 to its square are
    tried in order, and an offset qualifies when the trimmed root of the
    shifted prefix reaches twenty block lengths and is purely periodic with
    minimum period a rotation of *block*.  Returns None when no offset in
    the window qualifies.
    """
    check_nonempty(block, "need a nonempty reference block")
    length = len(block)
    max_offset, min_root_len = length * length, 20 * length
    need = max_offset + 2 * min_root_len + 4 * length + 8
    word = stream.prefix(need)
    for offset in range(max_offset + 1):
        root = parse(word[offset:], stream.params).root()
        if len(root) < min_root_len:
            continue
        report = detect_period(root, max_period=length, reference=block)
        if (
            report is not None
            and report.preperiod == 0
            and report.period == length
            and report.conjugate_to is not None
        ):
            return offset, report
    return None

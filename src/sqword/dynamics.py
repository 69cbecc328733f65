"""Prefix-verifiable constructions for the square-root map on infinite words.

Infinite words are never materialized as completed objects: a SquareStream
is a deterministic generator of minimal-square block indices plus whatever
prefix has been asked for.  Everything checked here is a statement about
prefixes: fixed-point behaviour, square prefixes, eventual periodicity of
shifted square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

from .errors import (
    DomainError,
    EmptyAfterTrimError,
    EmptyWordError,
    NotInPiError,
    PreconditionFailedError,
)
from .squares import (
    Params,
    _join_roots,
    _parse,
    in_language,
    minimal_square_roots,
    minimal_squares,
)
from .standard import natural_params
from .words import are_conjugate, check_binary, exchange_first_two

BlockFactory = Callable[[], Iterator[int]]


@dataclass(frozen=True)
class SquareStream:
    """A lazily generated infinite word given as minimal-square blocks.

    ``block_factory`` returns a fresh iterator of root indices (1..6), each
    contributing the square of that root to the word.  The emitted word is a
    product of minimal squares at every block boundary by construction.
    """

    params: Params
    block_factory: BlockFactory
    description: str

    def blocks(self) -> Iterator[int]:
        return self.block_factory()

    def prefix_blocks(self, min_len: int) -> tuple[str, tuple[int, ...]]:
        """Materialize whole blocks until at least *min_len* letters."""
        if min_len < 1:
            raise DomainError("prefix length must be >= 1")
        squares = dict(enumerate(minimal_squares(self.params), 1))
        parts: list[str] = []
        trace: list[int] = []
        total = 0
        for idx in self.blocks():
            try:
                square = squares[idx]
            except KeyError:
                raise DomainError(f"stream {self.description!r} emitted block index {idx!r}") from None
            parts.append(square)
            trace.append(idx)
            total += len(square)
            if total >= min_len:
                break
        if total < min_len:
            raise DomainError(
                f"stream {self.description!r} ended before {min_len} letters"
            )
        return "".join(parts), tuple(trace)

    def prefix(self, min_len: int) -> str:
        return self.prefix_blocks(min_len)[0]


def _chain_params(block: str, c: int) -> Params:
    # The checks shared by both views of the solution chain over *block*.
    check_binary(block)
    if c < 1:
        raise PreconditionFailedError("the power parameter c must be >= 1")
    params = natural_params(block)
    if params is None:
        raise PreconditionFailedError(
            f"{block!r} is not a reversed standard word with usable parameters"
        )
    s6 = minimal_square_roots(params)[5]
    if len(block) <= len(s6):
        raise PreconditionFailedError(
            f"block length {len(block)} does not exceed the sixth root length {len(s6)}"
        )
    return params


def _chain(block: str, c: int) -> Iterator[str]:
    word = block
    while True:
        yield word
        word = exchange_first_two(word) + word * (2 * c)


def fixed_point_solutions(block: str, c: int = 1) -> Iterator[str]:
    """The solution chain Z0 = block, Z(n+1) = exchange(Zn) Zn^(2c).

    Every yielded word is a solution; Zn is a prefix of Z(n+2), so the even
    and odd subsequences converge to a fixed point of the square-root map
    and its first-two-letter exchange.
    """
    _chain_params(block, c)
    return _chain(block, c)


def fixed_point_stream(block: str, c: int = 1) -> SquareStream:
    """The fixed point with prefixes Z0, Z2, Z4, ... as a block stream.

    Each square Z2k Z2k is a prefix of the next, Z(2k+2) Z(2k+2), and a
    complete parse ends on a block boundary, so the parse resumes where the
    previous square ended: every letter of the chain squares is scanned once
    and every block is emitted exactly once.
    """
    params = _chain_params(block, c)

    def gen() -> Iterator[int]:
        # a fresh chain per call: prefix_blocks asks for a new iterator each time
        pos = 0
        for word in islice(_chain(block, c), 0, None, 2):
            # (word + word)[pos:] without the doubled word: pos <= len(word),
            # since the even chain grows (2c + 1)^2-fold
            fact = _parse(word[pos:] + word, params)
            if not fact.complete:
                raise NotInPiError(
                    f"fixed-point prefix failed to factor at position {pos + fact.consumed}"
                )
            yield from fact.indices
            pos = 2 * len(word)

    return SquareStream(params, gen, f"square-root fixed point over {block}")


def no_square_prefix_word(a: int = 1) -> SquareStream:
    """The aperiodic fixed point with exactly one square prefix (b = 0).

    Head blocks are the squares of the fifth and sixth roots; the doubling
    groups alternate third- and sixth-root squares, except that the very
    first group only factors after regrouping, as squares 2, 1, 6.
    """
    params = Params(a, 0)

    def gen() -> Iterator[int]:
        yield 5
        yield 6
        yield 2
        yield 1
        yield 6
        half = 1
        while True:
            for _ in range(2):
                for _ in range(half):
                    yield 3
                for _ in range(half):
                    yield 6
            half *= 2

    return SquareStream(params, gen, f"single-square-prefix fixed point, a={a}")


def two_periodic_word(a: int = 1) -> SquareStream:
    """An aperiodic word moved by the square-root map but restored by its
    second iterate (b = 0).

    Blocks: squares 2, 1, then alternating runs of sixth- and third-root
    squares with run lengths (2, 2), (6, 8), and quadrupling afterwards.
    """
    params = Params(a, 0)

    def gen() -> Iterator[int]:
        yield 2
        yield 1
        r, s = 2, 2
        step = 1
        while True:
            for _ in range(r):
                yield 6
            for _ in range(s):
                yield 3
            r, s = (6, 8) if step == 1 else (4 * r, 4 * s)
            step += 1

    return SquareStream(params, gen, f"two-periodic point, a={a}")


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
        return {
            "preperiod": self.preperiod,
            "period": self.period,
            "period_word": self.period_word,
            "conjugate_to": self.conjugate_to,
        }


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
    """
    check_binary(word)
    n = len(word)
    if n == 0:
        return None
    # a period p with 2p > n never qualifies, so the cap is exact
    max_period = n // 2 if max_period is None else min(max_period, n // 2)
    best: tuple[int, int] | None = None
    for period in range(1, max_period + 1):
        preperiod = 0
        for i in range(n - period - 1, -1, -1):
            if word[i] != word[i + period]:
                preperiod = i + 1
                break
        if preperiod + 2 * period > n:
            continue
        if best is None or (preperiod, period) < best:
            best = (preperiod, period)
            if preperiod == 0:
                break
    if best is None:
        return None
    preperiod, period = best
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
    and compares against the stream's own prefix.  A prefix that fails the
    factor-language check signals a construction bug and raises.

    The first root is read off the emitted blocks instead of a parse: the
    prefix is the product of their squares, and no minimal square is a
    prefix of another, so the greedy parse of the prefix is the block
    sequence itself.  Only the later iterations parse.
    """
    if target_len < 1 or iterations < 1:
        raise DomainError("target length and iteration count must be >= 1")
    word, trace = stream.prefix_blocks(target_len)
    if not in_language(word, stream.params):
        raise NotInPiError(
            f"stream {stream.description!r} emitted a prefix outside its language"
        )
    current = _join_roots(trace, stream.params, len(word))
    # one entry per block: let it go before the later parses build their own
    del trace
    for _ in range(iterations - 1):
        current = _parse(current, stream.params).root()
        if not current:
            raise EmptyAfterTrimError(
                f"stream {stream.description!r} root vanished after trimming"
            )
    return current == word[: len(current)]


def find_periodic_shift(
    stream: SquareStream,
    block: str,
    max_offset: int | None = None,
    min_root_len: int | None = None,
) -> tuple[int, PeriodReport] | None:
    """Search for a shift of the stream whose square root is purely periodic.

    Offsets 0..max_offset (default: block length squared) are tried in
    order; an offset qualifies when the trimmed root of the shifted prefix
    reaches *min_root_len* (default: twenty block lengths) and is purely
    periodic with minimum period a rotation of *block*.  Returns None when
    no offset in the window qualifies.
    """
    check_binary(block)
    if not block:
        raise EmptyWordError("need a nonempty reference block")
    length = len(block)
    if max_offset is None:
        max_offset = length * length
    if min_root_len is None:
        min_root_len = 20 * length
    need = max_offset + 2 * min_root_len + 4 * length + 8
    word = stream.prefix(need)
    for offset in range(max_offset + 1):
        root = _parse(word[offset:], stream.params).root()
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

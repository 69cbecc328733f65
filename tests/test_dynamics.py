import itertools
import math
import re
import sys
import tracemalloc

import pytest

import sqword.dynamics
from sqword.dynamics import (
    PeriodReport,
    SquareStream,
    detect_period,
    find_periodic_shift,
    fixed_point_solutions,
    fixed_point_stream,
    no_square_prefix_word,
    square_prefixes,
    two_periodic_word,
    verify_fixed_point,
)
from sqword.errors import (
    DomainError,
    EmptyAfterTrimError,
    EmptyWordError,
    InvalidLetterError,
    InvalidParamsError,
    NotInPiError,
    PreconditionFailedError,
)
from sqword.solutions import classify, is_solution, Verdict
from sqword.squares import (
    Params,
    in_language,
    minimal_square_roots,
    minimal_squares,
    parse,
    square_root,
)
from sqword.standard import central_word, natural_params, standard_from_directive
from sqword.words import are_conjugate, exchange_first_two

P10 = Params(1, 0)
DEFAULT_LEAF = sqword.dynamics._LEAF
BLOCK = "01010010"
# reversed standard blocks of 84..91 letters with a = 1, 2, 3, the sizes the
# stream benchmark draws
LONG_BLOCKS = tuple(
    standard_from_directive(d)[::-1] for d in ((2, 4, 2, 4), (3, 1, 3, 1, 4), (4, 4, 4, 1))
)


def reparse_stream(block: str, c: int) -> SquareStream:
    """The re-parsing oracle for ``fixed_point_stream``: factor every even
    chain square Z2k Z2k from its start and emit the blocks not yet emitted."""
    params = natural_params(block)

    def gen():
        emitted = 0
        for word in itertools.islice(fixed_point_solutions(block, c), 0, None, 2):
            fact = parse(word + word, params)
            if not fact.complete:
                raise NotInPiError(f"fixed-point prefix failed to factor at position {fact.consumed}")
            yield fact.indices[emitted:]
            emitted = len(fact.indices)

    return SquareStream(params, gen, f"re-parsed fixed point over {block}")


def admissible_blocks(max_len: int):
    """Every reversed standard block of up to *max_len* letters that the
    solution chain accepts: natural parameters, longer than the sixth root.
    The standard words of length d are u01 and u10, u the central word of a
    slope c/d."""
    words = set()
    for d in range(2, max_len + 1):
        for c in range(1, d):
            if math.gcd(c, d) == 1:
                u = central_word(c, d)
                words.update(((u + "01")[::-1], (u + "10")[::-1]))
    for block in sorted(words, key=lambda w: (len(w), w)):
        params = natural_params(block)
        if params is not None and len(block) > len(minimal_square_roots(params)[5]):
            yield block


def verify_by_parsing(stream: SquareStream, target_len: int, iterations: int = 1) -> bool:
    """The two-parse oracle for ``verify_fixed_point``: every iteration,
    the first included, parses its word."""
    word = stream.prefix(target_len)
    if not in_language(word, stream.params):
        raise NotInPiError("prefix outside the language")
    current = word
    for _ in range(iterations):
        current = parse(current, stream.params).root()
        if not current:
            raise EmptyAfterTrimError("root vanished after trimming")
    return current == word[: len(current)]


def prefix_blocks_loop(stream: SquareStream, min_len: int) -> tuple[str, tuple[int, ...]]:
    """The block-by-block oracle for the leaf walk of ``prefix_blocks``."""
    squares = dict(enumerate(minimal_squares(stream.params), 1))
    parts, trace, total = [], [], 0
    for idx in itertools.chain.from_iterable(stream.block_factory()):
        try:
            square = squares[idx]
        except KeyError:
            raise DomainError(f"stream {stream.description!r} emitted block index {idx!r}") from None
        parts.append(square)
        trace.append(idx)
        total += len(square)
        if total >= min_len:
            break
    if total < min_len:
        raise DomainError(f"stream {stream.description!r} ended before {min_len} letters")
    return "".join(parts), tuple(trace)


def outcome(verify, stream: SquareStream, n: int, iterations: int):
    """A verify call's result, or EmptyAfterTrimError if the root vanished."""
    try:
        return verify(stream, n, iterations)
    except EmptyAfterTrimError:
        return EmptyAfterTrimError


def no_square_prefix_blocks():
    """The generator oracle for ``no_square_prefix_word``'s blocks."""
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


def two_periodic_blocks():
    """The generator oracle for ``two_periodic_word``'s blocks."""
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


def _streams():
    # every stream kind the package builds, over a few blocks and parameters
    for block in (BLOCK, *LONG_BLOCKS):
        for c in (1, 2):
            yield fixed_point_stream(block, c)
    for a in (1, 2, 3):
        yield no_square_prefix_word(a)
        yield two_periodic_word(a)


class TestSolutionChain:
    def test_first_step(self):
        chain = fixed_point_solutions(BLOCK, 1)
        assert next(chain) == BLOCK
        z1 = next(chain)
        assert z1 == exchange_first_two(BLOCK) + BLOCK * 2
        assert len(z1) == 24
        assert z1 == "100100100101001001010010"

    def test_growth_factor(self):
        for c in (1, 2):
            chain = fixed_point_solutions(BLOCK, c)
            lengths = [len(next(chain)) for _ in range(4)]
            for prev, cur in zip(lengths, lengths[1:]):
                assert cur == (2 * c + 1) * prev

    def test_chain_members_are_solutions(self):
        chain = fixed_point_solutions(BLOCK, 1)
        words = [next(chain) for _ in range(5)]
        for word in words:
            assert is_solution(word, P10)

    def test_two_apart_nesting(self):
        # consecutive words differ in their first two letters, but every
        # word is a prefix of the one two steps later
        chain = fixed_point_solutions(BLOCK, 1)
        words = [next(chain) for _ in range(6)]
        for near, far in zip(words, words[2:]):
            assert far.startswith(near)
        for prev, cur in zip(words, words[1:]):
            assert cur[:2] == prev[1] + prev[0]

    def test_second_iterate_classifies_type_two(self):
        chain = fixed_point_solutions(BLOCK, 1)
        next(chain)
        next(chain)
        z2 = next(chain)
        assert classify(z2).verdict is Verdict.TYPE_II

    def test_preconditions(self):
        with pytest.raises(PreconditionFailedError):
            fixed_point_solutions("10010", 1)  # not longer than the sixth root
        with pytest.raises(PreconditionFailedError):
            fixed_point_solutions("0101", 1)  # not reversed standard
        with pytest.raises(PreconditionFailedError):
            fixed_point_solutions(BLOCK, 0)
        # the stream's run counts of 2c must be machine-sized
        for c in (sys.maxsize // 2 + 1, 5 * 10**18, 10**19):
            for make in (fixed_point_solutions, fixed_point_stream):
                with pytest.raises(PreconditionFailedError, match=r"c must be <= \d+$"):
                    make(BLOCK, c)
        assert fixed_point_stream(BLOCK, sys.maxsize // 2).prefix(17) == (BLOCK * 3)[:20]
        # the chain checks each word's length before building it
        chain = fixed_point_solutions(BLOCK, sys.maxsize // 2)
        assert next(chain) == BLOCK
        with pytest.raises(PreconditionFailedError, match=r"would exceed \d+ letters$"):
            next(chain)

    def test_preconditions_are_checked_letters_then_c_then_standardness_then_length(self):
        for make in (fixed_point_solutions, fixed_point_stream):
            with pytest.raises(InvalidLetterError):
                make("01x", 0)
            with pytest.raises(PreconditionFailedError, match="c must be >= 1"):
                make("0101", 0)  # not reversed standard either
            with pytest.raises(PreconditionFailedError, match="c must be >= 1"):
                make("10010", 0)  # not longer than its sixth root either
            with pytest.raises(PreconditionFailedError, match="not a reversed standard word"):
                make("0101", 1)
            with pytest.raises(PreconditionFailedError, match="sixth root length"):
                make("10010", 1)


class TestStreams:
    def test_sl_stream_extends_chain(self):
        stream = fixed_point_stream(BLOCK, 1)
        prefix = stream.prefix(600)
        chain = fixed_point_solutions(BLOCK, 1)
        z0 = next(chain)
        next(chain)
        z2 = next(chain)
        assert prefix.startswith(z0 + z0)
        assert prefix.startswith(z2 + z2[: len(prefix) - len(z2)])

    def test_sl_stream_restarts_its_chain(self):
        # prefix_blocks asks the factory for a fresh chain on every call
        for c in (1, 2):
            stream = fixed_point_stream(BLOCK, c)
            long = stream.prefix_blocks(5000)
            short = stream.prefix_blocks(100)
            assert stream.prefix_blocks(5000) == long
            assert long[0].startswith(short[0]) and long[1][: len(short[1])] == short[1]

    def test_no_square_prefix_head(self):
        stream = no_square_prefix_word(1)
        assert stream.prefix(16).startswith("100100" + "1001010010")

    def test_no_square_prefix_blocks_in_language(self):
        for a in (1, 2):
            stream = no_square_prefix_word(a)
            word, trace = stream.prefix_blocks(800)
            assert trace[:5] == (5, 6, 2, 1, 6)
            assert parse(word, stream.params).complete and in_language(word, stream.params)

    def test_no_square_prefix_certificate(self):
        # the blocks are H T σ(T) ..., σ repeating each block twice: the
        # roots of σ(T) spell the squares of T, and the squares of H the
        # roots of H then T, so the stream is exactly its own square root
        head, tail, doubled = (5, 6, 2, 1, 6), (3, 6, 3, 6), (3, 3, 6, 6, 3, 3, 6, 6)

        def spell(words, blocks):
            return "".join(words[i - 1] for i in blocks)

        for a in range(1, 101):
            stream = no_square_prefix_word(a)
            blocks = itertools.chain.from_iterable(stream.block_factory())
            assert tuple(itertools.islice(blocks, 17)) == head + tail + doubled
            squares, roots = minimal_squares(stream.params), minimal_square_roots(stream.params)
            assert spell(squares, tail) == spell(roots, doubled), a
            assert spell(squares, head) == spell(roots, head + tail), a

    def test_two_periodic_block_counts(self):
        stream = two_periodic_word(1)
        trace = []
        for idx in itertools.chain.from_iterable(stream.block_factory()):
            trace.append(idx)
            if len(trace) >= 2 + 4 + 14 + 56:
                break
        assert trace[:2] == [2, 1]
        assert trace[2:6] == [6, 6, 3, 3]
        assert trace[6:20] == [6] * 6 + [3] * 8
        assert trace[20:76] == [6] * 24 + [3] * 32

    def test_stream_prefix_materializes_whole_blocks(self):
        stream = no_square_prefix_word(1)
        word, trace = stream.prefix_blocks(100)
        squares = [r + r for r in minimal_square_roots(stream.params)]
        assert word == "".join(squares[i - 1] for i in trace)
        assert len(word) >= 100

    @pytest.mark.parametrize(
        "check, error, message",
        [
            (lambda: verify_fixed_point(fixed_point_stream(BLOCK), 0), DomainError,
             "target length and iteration count must be >= 1"),
            (lambda: find_periodic_shift(fixed_point_stream(BLOCK), ""), EmptyWordError,
             "need a nonempty reference block"),
            # 0^n leaves the language of (1, 0) from three zeros on
            (lambda: verify_fixed_point(SquareStream(P10, lambda: itertools.repeat((1,)), "zeros"), 10),
             NotInPiError, "stream 'zeros' emitted a prefix outside its language"),
            (lambda: no_square_prefix_word(0), InvalidParamsError, "parameter a must be >= 1, got 0"),
            (lambda: two_periodic_word(0), InvalidParamsError, "parameter a must be >= 1, got 0"),
        ],
        ids=["verify-length", "shift-block", "verify-language", "nosquare-a", "biperiodic-a"],
    )
    def test_domain_errors(self, check, error, message):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            check()

    @pytest.mark.parametrize("index", [0, 7])
    def test_block_index_outside_one_to_six(self, index):
        stream = SquareStream(P10, lambda: iter([(1,), (index,), (1,)]), "bad")
        with pytest.raises(DomainError, match="block index"):
            stream.prefix(5)


class TestChunkedPrefix:
    @pytest.mark.parametrize("n", [1, 17, 10**4, 10**5])
    def test_equals_block_loop(self, n):
        for stream in _streams():
            assert stream.prefix_blocks(n) == prefix_blocks_loop(stream, n), stream.description

    def test_equals_block_loop_at_a_block_boundary(self):
        for stream in _streams():
            word, trace = prefix_blocks_loop(stream, 10**4)
            for n in (len(word) - 1, len(word), len(word) + 1):
                assert stream.prefix_blocks(n) == prefix_blocks_loop(stream, n), stream.description

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_factories_equal_generators(self, a, monkeypatch):
        # leaves of one and two indices walk every level lazily from the base
        for make, oracle in (
            (no_square_prefix_word, no_square_prefix_blocks),
            (two_periodic_word, two_periodic_blocks),
        ):
            expected = list(itertools.islice(oracle(), 10**5))
            for leaf in (1, 2, 50, DEFAULT_LEAF):
                monkeypatch.setattr(sqword.dynamics, "_LEAF", leaf)
                blocks = itertools.chain.from_iterable(make(a).block_factory())
                assert list(itertools.islice(blocks, 10**5)) == expected, (make.__name__, leaf)

    def test_finite_factory_ends_early(self):
        stream = SquareStream(P10, lambda: iter([(1,)] * 100), "finite")
        with pytest.raises(DomainError, match=r"ended before 1000 letters$"):
            stream.prefix_blocks(1000)
        assert stream.prefix_blocks(200) == ("00" * 100, (1,) * 100)

    @pytest.mark.parametrize("min_len", [10**4, 10**5])
    @pytest.mark.parametrize("index", [9, "x"])
    def test_bad_index_in_a_later_block(self, index, min_len):
        # both requests read block 5,000: the 4,999 blocks "00" before it
        # give 9,998 letters
        blocks = lambda: itertools.chain(
            itertools.repeat((1,), 4999), [(index,)], itertools.repeat((1,))
        )
        stream = SquareStream(P10, blocks, "bad")
        message = re.escape(f"emitted block index {index!r}") + "$"
        with pytest.raises(DomainError, match=message):
            stream.prefix_blocks(min_len)
        with pytest.raises(DomainError, match=message):
            prefix_blocks_loop(stream, min_len)

    def test_bad_index_after_the_length_is_not_read(self):
        blocks = lambda: itertools.chain(itertools.repeat((1,), 5000), [(9,)])
        stream = SquareStream(P10, blocks, "bad tail")
        assert stream.prefix_blocks(10**4) == ("00" * 5000, (1,) * 5000)
        assert stream.prefix_blocks(9999) == ("00" * 5000, (1,) * 5000)

    def test_bad_index_after_the_cut_is_not_read(self):
        # the leaf that reaches the length holds a bad index after the block
        # that reaches it
        leaves = [(1,) * 10, (1,) * 5 + (9,) + (1,) * 5]
        stream = SquareStream(P10, lambda: iter(leaves), "bad leaf")
        for n in (29, 30):
            assert stream.prefix_blocks(n) == ("00" * 15, (1,) * 15)
            assert stream.prefix_blocks(n) == prefix_blocks_loop(stream, n)
        for oracle in (SquareStream.prefix_blocks, prefix_blocks_loop):
            with pytest.raises(DomainError, match=r"emitted block index 9$"):
                oracle(stream, 31)

    def test_repeated_leaf_equals_block_loop(self):
        # one leaf object, spelled once and cut at every offset it can be
        leaf = fixed_point_stream(BLOCK).prefix_blocks(100)[1]
        stream = SquareStream(P10, lambda: itertools.repeat(leaf), "one leaf")
        for n in (*range(1, 400), 10**4, 10**5):
            assert stream.prefix_blocks(n) == prefix_blocks_loop(stream, n), n

    def test_fresh_leaves_are_spelled_by_content(self):
        # tuples that nothing else holds reuse their ids, so a memo keyed by
        # id must keep each leaf alive while the walk runs; a tuple made from
        # a list is allocated at its size, from CPython's free list
        def rechunked(stream):
            def factory():
                blocks = itertools.chain.from_iterable(stream.block_factory())
                for size in itertools.cycle((1, 2, 3, 5, 8, 13)):
                    yield tuple(list(itertools.islice(blocks, size)))

            return SquareStream(stream.params, factory, stream.description)

        for stream in _streams():
            fresh = rechunked(stream)
            ids = {id(leaf) for leaf in itertools.islice(fresh.block_factory(), 1000)}
            assert len(ids) < 100
            for n in (1, 50, 3000, 10**5):
                assert fresh.prefix_blocks(n) == stream.prefix_blocks(n), stream.description
                for iterations in (1, 2):
                    got = outcome(verify_fixed_point, fresh, n, iterations)
                    assert got == outcome(verify_fixed_point, stream, n, iterations), n


class TestResumedParse:
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("block", (BLOCK, *LONG_BLOCKS), ids=("flagship", "a1", "a2", "a3"))
    def test_blocks_equal_reparsing_oracle(self, block, c):
        stream = fixed_point_stream(block, c)
        assert stream.prefix_blocks(10**5) == reparse_stream(block, c).prefix_blocks(10**5)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_short_blocks_equal_reparsing_oracle(self, c, monkeypatch):
        # leaves of one and two indices walk every level lazily from the
        # base; at 50, long runs are walked as k copies of their piece
        for block in admissible_blocks(30):
            expected = reparse_stream(block, c).prefix_blocks(5000)
            for leaf in (1, 2, 50, DEFAULT_LEAF):
                monkeypatch.setattr(sqword.dynamics, "_LEAF", leaf)
                assert fixed_point_stream(block, c).prefix_blocks(5000) == expected, (block, leaf)

    def test_base_pieces_factor_completely(self):
        # the recursion joins the factorizations of X0 Z0, Z0 Z0 and Z0 X0,
        # and the fixed-point certificate their roots X0, Z0 and Z0
        blocks = list(admissible_blocks(100))
        assert len(blocks) == 2294
        for block in blocks:
            params, swapped = natural_params(block), exchange_first_two(block)
            for half, rest in ((swapped, block), (block, block), (block, swapped)):
                fact = parse(half + rest, params)
                assert fact.complete and fact.root() == half, (block, half + rest)

    def test_base_piece_with_another_root(self, monkeypatch):
        # exchange(Z0) with its last two letters swapped: X0 Z0 factors
        # completely, but its root is not X0
        bad = exchange_first_two(BLOCK)[:-2] + "01"
        fact = parse(bad + BLOCK, P10)
        assert bad == "10010001" and fact.complete and fact.root() == "10001010"
        monkeypatch.setattr(sqword.dynamics, "exchange_first_two", lambda word: bad)
        with pytest.raises(NotInPiError, match=r"piece X0 Z0 does not have the root X0$"):
            fixed_point_stream(BLOCK, 1)

    def test_prefix_memory_follows_the_length(self):
        # the level covering 10^6 letters is walked, not built: the peak is
        # the prefix, its trace and leaves of at most _LEAF indices
        for make in (lambda: fixed_point_stream(BLOCK, 1), lambda: no_square_prefix_word(1),
                     lambda: two_periodic_word(1)):
            tracemalloc.start()
            try:
                stream = make()
                stream.prefix_blocks(10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, stream.description

    def test_prefix_memory_at_ten_million_letters(self):
        # the prefix (9.5 MiB) and one tuple of its 1,875,002 blocks
        # (14.3 MiB): the leaves are joined once, with no list of the blocks
        stream = fixed_point_stream(BLOCK, 1)
        tracemalloc.start()
        try:
            word, trace = stream.prefix_blocks(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 1875002 and len(word) >= 10**7
        assert peak < 30 * 2**20

    @pytest.mark.parametrize("c", [10**4, 10**9])
    def test_huge_c_walks_long_leaves(self, c, monkeypatch):
        # no level is flattened once 2c·|zz₀| > _LEAF, and the first 10^5
        # letters lie in Z0 Z0 zz^(c-1): Z0 repeated, parsed into its blocks
        for leaf in (2, 3, 50, DEFAULT_LEAF):
            monkeypatch.setattr(sqword.dynamics, "_LEAF", leaf)
            stream = fixed_point_stream(BLOCK, c)
            word, trace = stream.prefix_blocks(10**5)
            assert word == BLOCK * (len(word) // len(BLOCK)), leaf
            assert parse(word, P10).indices == trace, leaf
            leaves = list(itertools.islice(stream.block_factory(), 3))
            assert leaf - len(leaves[0]) < len(leaves[1]) <= max(leaf, len(leaves[0])), leaf

    def test_stuck_base_piece(self, monkeypatch):
        # exchange(Z0) with its last letter flipped: X0 Z0 sticks at position 6
        bad = exchange_first_two(BLOCK)[:-1] + "1"
        assert bad == "10010011" and parse(bad + BLOCK, P10).consumed == 6
        monkeypatch.setattr(sqword.dynamics, "exchange_first_two", lambda word: bad)
        with pytest.raises(NotInPiError, match=r"piece X0 Z0 failed to factor at position 6$"):
            fixed_point_stream(BLOCK, 1)

    @pytest.mark.parametrize("n", [1, 17, 1000, 10**4])
    def test_greedy_parse_of_a_prefix_is_its_trace(self, n):
        # the claim verify_fixed_point reads its first root from
        for stream in _streams():
            word, trace = stream.prefix_blocks(n)
            fact = parse(word, stream.params)
            assert fact.complete and fact.indices == trace, stream.description

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_verify_equals_two_parse_oracle(self, iterations, monkeypatch):
        # the first root is spelled per leaf: leaves of one and two indices
        # walk every level lazily
        for leaf in (1, 2, DEFAULT_LEAF):
            monkeypatch.setattr(sqword.dynamics, "_LEAF", leaf)
            for stream in _streams():
                for n in (1, 50, 3000):
                    got = outcome(verify_fixed_point, stream, n, iterations)
                    expected = outcome(verify_by_parsing, stream, n, iterations)
                    assert got == expected, (stream.description, n, leaf)


class TestSquareRootPrefix:
    def test_exact(self):
        assert square_root("0101001001010010", P10, trim=True) == "01010010"

    def test_trim(self):
        root = square_root("010100100101001001", P10, trim=True)
        assert root == "01010010"
        fact = parse("010100100101001001", P10)
        assert fact.consumed == 16  # two trailing letters trimmed
        assert not fact.complete
        assert fact.root() == root

    def test_trivial(self):
        assert square_root("00", P10, trim=True) == "0"

    def test_exact_mode_rejects_partial(self):
        with pytest.raises(NotInPiError):
            square_root("010100100101001001", P10)

    def test_trim_mode_needs_one_square(self):
        with pytest.raises(EmptyAfterTrimError):
            square_root("01", P10, trim=True)
        with pytest.raises(NotInPiError):
            square_root("", P10, trim=True)


class TestSquarePrefixes:
    @pytest.mark.parametrize(
        "word,expected",
        [("0101", [4]), ("00100", [2]), ("0110", []), ("", []), ("00", [2])],
    )
    def test_examples(self, word, expected):
        assert square_prefixes(word) == expected

    def test_against_definition(self):
        for bits, n in itertools.product(range(256), (7, 8)):
            word = format(bits % (1 << n), f"0{n}b")
            expected = [
                 2 * k
                for k in range(1, n // 2 + 1)
                if word[:k] == word[k : 2 * k]
            ]
            assert square_prefixes(word) == expected


def period_loop(word, max_period=None):
    """The per-candidate rescan that ``detect_period`` replaced, as (preperiod, period)."""
    n = len(word)
    if n == 0:
        return None
    max_period = n // 2 if max_period is None else min(max_period, n // 2)
    best = None
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
    return best


class TestDetectPeriod:
    def test_purely_periodic(self):
        report = detect_period("010101", 4)
        assert (report.preperiod, report.period, report.period_word) == (0, 2, "01")

    def test_preperiod(self):
        report = detect_period("0010101", 4)
        assert (report.preperiod, report.period) == (1, 2)

    def test_no_period(self):
        assert detect_period("01101001", 2) is None

    def test_trailing_run_is_an_eventual_period(self):
        report = detect_period("01101000", 2)
        assert (report.preperiod, report.period, report.period_word) == (5, 1, "0")

    def test_reference_conjugacy(self):
        word = "10010100" * 5
        report = detect_period(word, 8, reference=BLOCK)
        assert report.preperiod == 0 and report.period == 8
        assert report.conjugate_to == BLOCK

    @pytest.mark.parametrize("reference", ["2", "01x0", ["0", "1"]])
    def test_reference_letters_are_checked(self, reference):
        with pytest.raises(InvalidLetterError):
            detect_period("0101", reference=reference)

    def test_minimum_period_of_periodic_word(self):
        # a primitive period word cannot be explained by a shorter period
        word = "0010110" * 6
        report = detect_period(word)
        assert (report.preperiod, report.period) == (0, 7)

    def test_empty(self):
        assert detect_period("", 3) is None

    def test_max_period_past_half_the_word_changes_nothing(self):
        for n in range(1, 11):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b")
                assert detect_period(word, n // 2) == detect_period(word, 10**12), word

    def test_border_array_equals_rescan(self):
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                for max_period in (None, 0, 1, 2, 3, 5):
                    report = detect_period(word, max_period)
                    found = None if report is None else (report.preperiod, report.period)
                    assert found == period_loop(word, max_period), (word, max_period)

    def test_long_tail_is_linear(self):
        # quadratic for the rescan, which reads the tail once per candidate period
        report = detect_period("1" + "0" * 99999)
        assert (report.preperiod, report.period, report.period_word) == (1, 1, "0")


class TestVerification:
    def test_sl_fixed_point(self):
        stream = fixed_point_stream(BLOCK, 1)
        assert verify_fixed_point(stream, 2000)

    def test_no_square_prefix_fixed_point(self):
        for a in (1, 2, 3):
            assert verify_fixed_point(no_square_prefix_word(a), 2000)

    def test_exactly_one_square_prefix(self):
        for a in (1, 2, 3):
            stream = no_square_prefix_word(a)
            roots = minimal_square_roots(stream.params)
            window = 4 * len(roots[4] + roots[5] + roots[2] + roots[5])
            prefix = stream.prefix(window)[:window]
            assert square_prefixes(prefix) == [2 * len(roots[4])], a

    def test_two_periodic_point(self):
        for a in (1, 2, 3):
            stream = two_periodic_word(a)
            assert not verify_fixed_point(stream, 2000, iterations=1)
            assert verify_fixed_point(stream, 2000, iterations=2)

    def test_two_periodic_divergence_is_early(self):
        stream = two_periodic_word(1)
        word = stream.prefix(600)
        root = parse(word, stream.params).root()
        # the root strays from the word already inside the first few blocks
        agree = next(i for i, (x, y) in enumerate(zip(word, root)) if x != y)
        assert agree <= 10

    def test_periodic_shift_found(self):
        stream = fixed_point_stream(BLOCK, 1)
        found = find_periodic_shift(stream, BLOCK)
        assert found is not None
        offset, report = found
        assert 0 <= offset <= len(BLOCK) ** 2
        assert report.preperiod == 0
        assert report.period == len(BLOCK)
        assert are_conjugate(report.period_word, BLOCK)

    def test_periodic_shift_not_found(self):
        # no shifted root of the stream is periodic with this reference
        assert find_periodic_shift(fixed_point_stream(BLOCK, 1), "00000001") is None

    def test_shifted_root_leaves_the_language_factors(self):
        # dropping one sixth-root length of the single-square-prefix word
        # yields a square root whose visible prefix never occurs in the word
        for a in (1, 2):
            stream = no_square_prefix_word(a)
            word = stream.prefix(12000)
            shift = len(minimal_square_roots(stream.params)[5])
            root = parse(word[shift:], stream.params).root()
            group = "1" + "0" * (a + 1) + "1" + "0" * (a + 1) + "1" + "0" * a
            visible = "01" + "0" * a + group * 3 + "1"
            assert root.startswith(visible)
            assert visible not in word[:10000]


def test_period_report_json():
    report = PeriodReport(1, 2, "01", conjugate_to=None)
    assert report.to_json() == {
        "preperiod": 1,
        "period": 2,
        "period_word": "01",
        "conjugate_to": None,
    }

import itertools

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
    NotInPiError,
    PreconditionFailedError,
)
from sqword.solutions import classify, is_solution, Verdict
from sqword.squares import Params, in_language, minimal_square_roots, parse, square_root
from sqword.standard import natural_params, standard_from_directive
from sqword.words import are_conjugate, exchange_first_two

P10 = Params(1, 0)
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
            yield from fact.indices[emitted:]
            emitted = len(fact.indices)

    return SquareStream(params, gen, f"re-parsed fixed point over {block}")


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

    def test_two_periodic_block_counts(self):
        stream = two_periodic_word(1)
        trace = []
        for idx in stream.blocks():
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

    @pytest.mark.parametrize("index", [0, 7])
    def test_block_index_outside_one_to_six(self, index):
        stream = SquareStream(P10, lambda: iter([1, index, 1]), "bad")
        with pytest.raises(DomainError, match="block index"):
            stream.prefix(5)


class TestResumedParse:
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize("block", (BLOCK, *LONG_BLOCKS), ids=("flagship", "a1", "a2", "a3"))
    def test_blocks_equal_reparsing_oracle(self, block, c):
        stream = fixed_point_stream(block, c)
        assert stream.prefix_blocks(10**5) == reparse_stream(block, c).prefix_blocks(10**5)

    def test_stuck_position_is_absolute(self, monkeypatch):
        # Z2 with letter 40 flipped: the parse resumes at 16 = |Z0 Z0| and
        # sticks 22 letters later, at position 38 of the square
        z0, z1, z2 = itertools.islice(fixed_point_solutions(BLOCK, 1), 3)
        bad = z2[:40] + ("1" if z2[40] == "0" else "0") + z2[41:]
        assert parse(bad + bad, P10).consumed == 38
        monkeypatch.setattr(sqword.dynamics, "_chain", lambda block, c: iter([z0, z1, bad]))
        with pytest.raises(NotInPiError, match=r"at position 38$"):
            fixed_point_stream(BLOCK, 1).prefix(100)

    @pytest.mark.parametrize("n", [1, 17, 1000, 10**4])
    def test_greedy_parse_of_a_prefix_is_its_trace(self, n):
        # the claim verify_fixed_point reads its first root from
        for stream in _streams():
            word, trace = stream.prefix_blocks(n)
            fact = parse(word, stream.params)
            assert fact.complete and fact.indices == trace, stream.description

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    def test_verify_equals_two_parse_oracle(self, iterations):
        def outcome(verify, stream, n):
            try:
                return verify(stream, n, iterations)
            except EmptyAfterTrimError:
                return EmptyAfterTrimError

        for stream in _streams():
            for n in (1, 50, 3000):
                got = outcome(verify_fixed_point, stream, n)
                assert got == outcome(verify_by_parsing, stream, n), (stream.description, n)


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

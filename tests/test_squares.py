import itertools
import random
import re
import tracemalloc

import pytest

from sqword import squares
from sqword.dynamics import fixed_point_stream, no_square_prefix_word, two_periodic_word
from sqword.errors import EmptyAfterTrimError, InvalidParamsError, NotInPiError
from sqword.squares import (
    Params,
    _s6_length,
    in_language,
    minimal_square_roots,
    minimal_squares,
    parse,
    scan_minimal_squares,
    square_root,
)
from sqword.standard import standard_from_directive
from sqword.words import slope

P10 = Params(1, 0)

SMALL_PARAMS = [Params(a, b) for a in range(1, 7) for b in range(7)]


def scan_loop(word, params):
    """The startswith loop that the compiled scanner replaced, over the
    full-size squares: at each position try the six squares in order."""
    full = minimal_squares(params)
    indices, pos = [], 0
    while pos < len(word):
        for i, sq in enumerate(full):
            if word.startswith(sq, pos):
                indices.append(i + 1)
                pos += len(sq)
                break
        else:
            break
    return indices, pos


def root_or_none(word, params):
    try:
        return square_root(word, params)
    except NotInPiError:
        return None


class TestRoots:
    def test_flagship_params(self):
        assert minimal_square_roots(P10) == ("0", "01", "010", "10", "100", "10010")

    def test_sixth_root_length(self):
        for p in SMALL_PARAMS:
            roots = minimal_square_roots(p)
            assert _s6_length(p) == len(roots[5]) == (p.a + 2) + (p.b + 1) * (p.a + 1)

    def test_substituted(self):
        roots = minimal_square_roots(Params(2, 1))
        assert roots[4] == "1000100"
        assert roots[5] == "1000100100"

    def test_bad_params(self):
        with pytest.raises(InvalidParamsError):
            Params(0, 0)
        with pytest.raises(InvalidParamsError):
            Params(1, -1)

    def test_squares_are_doubled_roots(self):
        for p in SMALL_PARAMS[:8]:
            roots = minimal_square_roots(p)
            assert minimal_squares(p) == tuple(r + r for r in roots)

    def test_pairwise_non_prefix(self):
        # grounds the greedy determinism of the factorization
        for p in SMALL_PARAMS:
            squares = minimal_squares(p)
            for s, t in itertools.permutations(squares, 2):
                assert not t.startswith(s)

    def test_six_slope_comparison(self):
        # splitting any root around an occurrence of 10 (resp. 01) leaves the
        # left part with strictly smaller (resp. larger) slope
        for p in SMALL_PARAMS:
            for root in minimal_square_roots(p):
                for i in range(1, len(root) - 1):
                    left, right = root[:i], root[i:]
                    if right.startswith("10"):
                        assert slope(left) < slope(right)
                    if right.startswith("01"):
                        assert slope(left) > slope(right)


def language_words(p, max_blocks):
    """All finite concatenations of the two long roots, up to a block count."""
    five, six = minimal_square_roots(p)[4], minimal_square_roots(p)[5]
    words = [""]
    for _ in range(max_blocks):
        words += [w + five for w in words if len(w) < 60] + [
            w + six for w in words if len(w) < 60
        ]
    return words


def nfa_in_language(word, p):
    """The block automaton over (block, offset) states that ``in_language``
    replaced; b is used as given, never capped to the word's length."""
    if not word:
        return True
    text = minimal_square_roots(p)[4:]
    states = {(b, o) for b in (0, 1) for o in range(len(text[b]))}
    for ch in word:
        nxt = set()
        for bid, off in states:
            if text[bid][off] != ch:
                continue
            if off + 1 == len(text[bid]):
                nxt.update(((0, 0), (1, 0)))
            else:
                nxt.add((bid, off + 1))
        if not nxt:
            return False
        states = nxt
    return True


def zero_runs(word):
    """The head and tail zero runs of *word* and the zero runs between its
    1s; a word without a 1 is one run that is both head and tail."""
    if "1" not in word:
        return len(word), len(word), []
    head, last = word.find("1"), word.rfind("1")
    inner = [len(run) for run in word[head + 1 : last].split("1")] if head < last else []
    return head, len(word) - 1 - last, inner


def peak_bytes(fn):
    """Peak traced allocation while *fn* runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


NFA_PARAMS = [Params(a, b) for a in (1, 2, 3) for b in (0, 1, 2)]


def product_word(p, rng, length):
    """A random product of s5 and s6 of at least *length* letters."""
    five, six = minimal_square_roots(p)[4], minimal_square_roots(p)[5]
    parts = []
    total = 0
    while total < length:
        parts.append(rng.choice((five, six)))
        total += len(parts[-1])
    return "".join(parts)


class TestLanguage:
    def test_flagship_square(self):
        assert in_language("0101001001010010", P10)

    def test_empty(self):
        assert in_language("", P10)
        assert in_language("", Params(4, 4))

    def test_zero_run_bound(self):
        assert not in_language("0101", Params(2, 0))
        assert in_language("00", P10)
        assert not in_language("000", P10)
        assert in_language("000", Params(2, 0))

    def test_factors_of_generated_words(self):
        # every factor of a language word is in the language
        rng = random.Random(7)
        for p in (P10, Params(2, 0), Params(1, 2), Params(3, 1)):
            for base in language_words(p, 3)[1:]:
                for _ in range(10):
                    i = rng.randrange(len(base))
                    j = rng.randrange(i, len(base) + 1)
                    assert in_language(base[i:j], p), (p, base[i:j])

    def test_eleven_never_occurs(self):
        for p in (P10, Params(2, 3)):
            assert not in_language("11", p)

    def test_run_too_long_rejected(self):
        for p in (P10, Params(2, 0)):
            assert not in_language("1" + "0" * (p.a + 2) + "1", p)

    def test_large_b_matches_small_window(self):
        # the language seen through a short window stabilizes once b is large
        words = ["0101", "1010", "100100", "010010", "0010100", "10010010"]
        for w in words:
            for a in (1, 2):
                base = in_language(w, Params(a, len(w) + 1))
                for b in (len(w) + 5, 4 * len(w)):
                    assert in_language(w, Params(a, b)) == base

    def test_membership_against_uncapped_reference(self):
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                for p in (Params(1, 9), Params(2, 17), Params(1, 30)):
                    assert in_language(word, p) == nfa_in_language(word, p), (word, p)

    def test_all_short_words_against_nfa(self):
        # Small a and b: the gap counts between long runs decide membership.
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                for p in NFA_PARAMS:
                    assert in_language(word, p) == nfa_in_language(word, p), (word, p)

    def test_random_factors_against_nfa(self):
        # Factors of up to 600 letters of s5/s6 products, half of them from
        # near the start, with up to two letters flipped.
        rng = random.Random(5)
        for trial in range(200):
            p = Params(rng.randrange(1, 4), rng.randrange(4))
            text = product_word(p, rng, 10**4)
            i = rng.randrange(len(text)) if trial % 4 < 2 else rng.randrange(20)
            letters = list(text[i : i + int(600 ** rng.random())])
            for _ in range(rng.randrange(3)):
                j = rng.randrange(len(letters))
                letters[j] = "1" if letters[j] == "0" else "0"
            word = "".join(letters)
            assert in_language(word, p) == nfa_in_language(word, p), (word, p)

    def test_huge_b_is_capped_exactly(self):
        # b = 10**9 must answer as any b beyond the word's length does; the
        # reference never runs at 10**9.  A missing cap fails the first
        # assertion, at 10**7, before anything runs at 10**9.
        assert peak_bytes(lambda: in_language("0101", Params(1, 10**7))) < 1 << 20
        rng = random.Random(3)
        words = [format(bits, f"0{n}b") for n in range(1, 11) for bits in range(1 << n)]
        words += [product_word(Params(a, 0), rng, 40)[:40] for a in (1, 2) for _ in range(20)]
        for word in words:
            for a in (1, 2, 3):
                huge = in_language(word, Params(a, 10**9))
                assert huge == nfa_in_language(word, Params(a, len(word) + 5)), (word, a)

    def test_kinds_word_saturates_b(self):
        # Each kinds letter stands for a block of at least a + 1 letters, so
        # no b past |w| // (a + 1) changes the second level: the saturation
        # point of _language_params.
        checks = 0
        for n in range(15):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                for a in range(1, n + 3):
                    kinds = squares._derive(word, a)
                    if kinds is not None:
                        assert len(kinds) <= n // (a + 1), (word, a, kinds)
                        checks += 1
        assert checks == 1689

    def test_derive_accepts_by_its_zero_runs(self):
        # The rule _levels relies on, in closed form: with k capped at |w|,
        # _derive(w, k) accepts exactly when the edge zero runs are at most
        # k + 1 and every zero run between two 1s is k or k + 1.
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                head, tail, inner = zero_runs(word)
                for k in range(n + 3):
                    cap = min(k, n)
                    rule = max(head, tail) <= cap + 1 and all(r - cap in (0, 1) for r in inner)
                    assert (squares._derive(word, k) is not None) == rule, (word, k)

    def test_huge_params_stay_small(self):
        words = ["0101", "0101001001010010", "1" + "0" * 50, "10" * 40]

        def run():
            for word in words:
                in_language(word, Params(10**7, 10**7))

        assert peak_bytes(run) < 1 << 20


class TestPiecesInLanguage:
    # squares._pieces_in_language against in_language of the join

    def test_every_two_piece_split_of_short_words(self):
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                pairs = [(word[:i], word[i:]) for i in range(n + 1)]
                for p in NFA_PARAMS:
                    got = [squares._pieces_in_language(pair, p) for pair in pairs]
                    assert got == [in_language(word, p)] * (n + 1), (word, p)

    def test_cut_products_with_a_repeated_piece(self):
        # Factors of s5/s6 products with up to two letters flipped, cut at up
        # to six places, one piece object repeated up to three times: a bad
        # run that straddles a cut, or a repeat, is seen only in a junction
        # window.  Windows of a + 3 letters fail here, and so do windows of
        # |s6| - 2 letters, just under the docstring's bound.
        rng = random.Random(29)
        inside = 0
        for _ in range(3000):
            p = Params(rng.randrange(1, 5), rng.randrange(4))
            text = product_word(p, rng, 400)
            i = rng.randrange(len(text) // 2)
            letters = list(text[i : i + rng.randrange(1, 200)])
            for _ in range(rng.randrange(3)):
                j = rng.randrange(len(letters))
                letters[j] = "1" if letters[j] == "0" else "0"
            word = "".join(letters)
            cuts = sorted(rng.sample(range(len(word) + 1), rng.randrange(min(7, len(word) + 2))))
            pieces = [word[j:k] for j, k in zip([0, *cuts], [*cuts, len(word)])]
            r = rng.randrange(len(pieces))
            pieces[r : r + 1] = [pieces[r]] * rng.randrange(1, 4)
            expected = in_language("".join(pieces), p)
            inside += expected
            assert squares._pieces_in_language(pieces, p) == expected, (pieces, p)
        assert 500 < inside < 2500


def stop_path(pieces, p):
    """Where the whole parse of the joined *pieces* stops, as the walk of
    ``_root_pieces`` meets it: "end" if fewer than 2|s6| letters are left
    after the stop, else "piece" if the stop lies in the piece after which
    2|s6| letters are left, and "carry" if it lies before that piece."""
    word = "".join(pieces)
    stop, limit = parse(word, p).consumed, 2 * _s6_length(p)
    if len(word) - stop < limit:
        return "end"
    start = 0
    for piece in pieces:
        if start + len(piece) - stop >= limit:
            return "piece" if stop >= start else "carry"
        start += len(piece)


class TestRootPieces:
    # squares._root_pieces against parse(...).root() of the join

    def test_every_two_piece_split_of_short_words(self):
        # 11 letters hold a carry of 2|s6| - 1 letters for (1, 0), the one
        # before a stop that the next letter undoes
        for n in range(12):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                pairs = [(word[:i], word[i:]) for i in range(n + 1)]
                for p in NFA_PARAMS:
                    root = parse(word, p).root()
                    for pair in pairs:
                        assert "".join(squares._root_pieces(pair, p)) == root, (pair, p)

    def test_cut_products_with_a_repeated_piece(self):
        # Products of minimal squares with up to two letters flipped, cut at
        # up to six places, one piece object repeated up to three times: a
        # repeat meets a different carry, and the parse sticks inside a
        # piece, inside a carry that spans a cut, or near the end.
        rng = random.Random(30)
        paths = {"end": 0, "piece": 0, "carry": 0}
        for _ in range(3000):
            p = Params(rng.randrange(1, 5), rng.randrange(4))
            full = minimal_squares(p)
            letters = list("".join(rng.choice(full) for _ in range(rng.randrange(1, 12))))
            for _ in range(rng.randrange(3)):
                j = rng.randrange(len(letters))
                letters[j] = "1" if letters[j] == "0" else "0"
            word = "".join(letters)
            cuts = sorted(rng.sample(range(len(word) + 1), rng.randrange(min(7, len(word) + 2))))
            pieces = [word[j:k] for j, k in zip([0, *cuts], [*cuts, len(word)])]
            r = rng.randrange(len(pieces))
            pieces[r : r + 1] = [pieces[r]] * rng.randrange(1, 4)
            got = squares._root_pieces(pieces, p)
            assert "".join(got) == parse("".join(pieces), p).root(), (pieces, p)
            paths[stop_path(pieces, p)] += 1
        assert min(paths.values()) > 100, paths


class TestFactorization:
    def test_flagship(self):
        fact = parse("0101001001010010", P10)
        assert fact.complete and fact.indices == (2, 1, 6)
        assert "".join(minimal_squares(P10)[i - 1] for i in fact.indices) == "0101001001010010"

    def test_single_square(self):
        assert parse("00", P10).indices == (1,)
        assert parse("01000100", Params(2, 0)).indices == (3,)

    def test_failure_position(self):
        fact = parse("00100010", P10)
        assert fact.consumed == 2 and not fact.complete

    def test_empty(self):
        fact = parse("", P10)
        assert (fact.indices, fact.consumed, fact.complete) == ((), 0, True)

    def test_roundtrip_random_products(self):
        rng = random.Random(11)
        for p in (P10, Params(2, 1), Params(3, 0)):
            squares = minimal_squares(p)
            for _ in range(50):
                indices = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 8)))
                word = "".join(squares[i - 1] for i in indices)
                fact = parse(word, p)
                assert fact.complete and fact.indices == indices

    def test_no_square_is_prefix_of_another(self):
        # scan_minimal_squares relies on at most one square matching.
        for p in SMALL_PARAMS:
            squares = minimal_squares(p)
            for i, x in enumerate(squares):
                for j, y in enumerate(squares):
                    assert i == j or not y.startswith(x), (p, x, y)

    def test_huge_params_parse_as_capped(self):
        # Roots longer than the word never match, so the parse at a or b far
        # beyond the word's length equals the parse just beyond it.
        words = [format(bits, f"0{n}b") for n in range(1, 11) for bits in range(1 << n)]
        for word in words:
            n = len(word)
            for huge, capped in (
                (Params(10**6, 0), Params(n + 1, 0)),
                (Params(1, 10**6), Params(1, n + 1)),
                (Params(2, 10**6), Params(2, n + 1)),
            ):
                fact, ref = parse(word, huge), parse(word, capped)
                assert (fact.indices, fact.consumed) == (ref.indices, ref.consumed)
                assert fact.root() == ref.root()

    def test_b_window_is_exact(self):
        # The window caps b at n // (a + 1), where s5 already outgrows the
        # word: the parse equals a greedy scan over the full-size squares.
        words = [format(bits, f"0{n}b") for n in range(1, 11) for bits in range(1 << n)]
        for a in (1, 2, 3, 4):
            for b in range(8):
                p = Params(a, b)
                for word in words:
                    indices, pos = scan_loop(word, p)
                    fact = parse(word, p)
                    assert (fact.indices, fact.consumed) == (tuple(indices), pos), (word, p)
                    assert fact.root() == "".join(minimal_square_roots(p)[i - 1] for i in indices)

    def test_partial_parse(self):
        fact = parse("00100010", P10)
        assert fact.indices == (1,)
        assert (fact.consumed, fact.complete) == (2, False)
        assert fact.root() == "0"
        assert parse("", P10).complete


def flipped(word, i):
    return word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1 :]


class TestScanner:
    @pytest.mark.parametrize("ab", [(1, 0), (1, 1), (2, 0), (2, 3), (3, 1), (50, 50)])
    def test_equals_loop_on_short_words(self, ab):
        p = Params(*ab)
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                assert scan_minimal_squares(word, p) == scan_loop(word, p), (word, p)

    @pytest.mark.parametrize(
        "stream",
        [
            fixed_point_stream("01010010", 1),
            fixed_point_stream(standard_from_directive((2, 4, 2, 4))[::-1], 1),
            no_square_prefix_word(2),
            two_periodic_word(3),
        ],
        ids=("sl-flagship", "sl-b3", "nosquare", "biperiodic"),
    )
    def test_equals_loop_on_stream_prefixes(self, stream):
        # whole prefixes, and prefixes with a letter flipped so that the
        # scan stops partway
        word = stream.prefix(10**5)
        p = stream.params
        for text in (word, flipped(word, 5000), flipped(word, 77777)):
            assert scan_minimal_squares(text, p) == scan_loop(text, p)
        assert scan_minimal_squares(word, p)[1] == len(word)

    def test_pattern_stays_small(self):
        # zero runs are counted repeats: the window at 2,000 letters is
        # a = 2000, where literal squares would compile to megabytes
        squares._tables.cache_clear()
        re.purge()
        p = Params(10**6, 10**6)
        peak = peak_bytes(lambda: scan_minimal_squares("0" * 2000, p))
        assert peak < 1 << 20
        assert scan_minimal_squares("0" * 2000, p) == ([1] * 1000, 2000)
        assert scan_minimal_squares("1" + "0" * 1999, p) == ([], 0)


class TestSquareRoot:
    def test_flagship(self):
        assert square_root("0101001001010010", P10) == "01010010"

    def test_trivial(self):
        assert square_root("00", P10) == "0"

    def test_four_block(self):
        # factors as squares 4, 2, 1, 6; the root is the concatenation
        # 10 + 01 + 0 + 10010
        assert square_root("10100101001001010010", P10) == "1001010010"

    def test_membership(self):
        assert square_root("1010", P10) == "10"
        # the empty word, and a word that factors into squares but leaves
        # the language (a zero run of 3)
        for word in ("", "101000"):
            assert root_or_none(word, P10) is None

    def test_root_halves_length(self):
        for word in ("00", "0101", "0101001001010010"):
            assert len(square_root(word, P10)) * 2 == len(word)

    def test_not_in_pi(self):
        with pytest.raises(NotInPiError):
            square_root("01", P10)
        with pytest.raises(NotInPiError):
            square_root("101000", P10)

    def test_multiplicative_on_products(self):
        rng = random.Random(23)
        squares = minimal_squares(P10)
        pool = [
            "".join(squares[rng.randrange(6)] for _ in range(rng.randrange(1, 5)))
            for _ in range(60)
        ]
        pool = [w for w in pool if root_or_none(w, P10) is not None]
        hits = 0
        for u in pool:
            for v in pool:
                if root_or_none(u + v, P10) is not None:
                    hits += 1
                    assert square_root(u + v, P10) == square_root(u, P10) + square_root(v, P10)
        assert hits > 10

    def test_views_agree_on_short_words(self):
        # Every view reads the one parse: square_root succeeds exactly on
        # the nonempty words in the language whose parse is complete, and
        # the trimmed root is the parse's root.
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                for p in (P10, Params(1, 1), Params(2, 0), Params(2, 1)):
                    fact = parse(word, p)
                    root = root_or_none(word, p)
                    in_domain = bool(word) and fact.complete and in_language(word, p)
                    assert in_domain == (root is not None), (word, p)
                    if root is not None:
                        assert root == fact.root()
                    if fact.indices:
                        assert square_root(word, p, trim=True) == fact.root()
                    else:
                        with pytest.raises((EmptyAfterTrimError, NotInPiError)):
                            square_root(word, p, trim=True)

    def test_each_square_in_own_language(self):
        for p in SMALL_PARAMS:
            for sq in minimal_squares(p):
                assert in_language(sq, p), (p, sq)

import math
from fractions import Fraction

import pytest

from sqword.errors import (
    EmptyDirectiveError,
    EmptyWordError,
    InvalidSlopeError,
    NotStandardError,
)
from sqword.squares import Params, in_language
from sqword.standard import (
    central_word,
    directive_of_standard,
    fibonacci_word,
    is_reversed_standard,
    natural_params,
    standard_from_directive,
)
from sqword.words import is_primitive, slope


def all_directives(max_len):
    """Every directive sequence whose standard word has length <= max_len."""
    out = []

    def extend(directive, word_len):
        out.append(directive)
        # appending a term of value d multiplies roughly by d; enumerate until
        # the generated word would overflow max_len
        d = 1
        while True:
            candidate = directive + (d,)
            if len(standard_from_directive(candidate)) > max_len:
                if d == 1:
                    return
                break
            d += 1
        for dd in range(1, d):
            extend(directive + (dd,), None)

    for d1 in range(1, max_len + 1):
        if len(standard_from_directive((d1,))) > max_len:
            break
        extend((d1,), None)
    return out


def floor_central(c, d):
    """The central word of slope c/d, letter by letter.

    Letter j (1-based) is floor(c(j+1)/d) - floor(cj/d).
    """
    return "".join("01"[c * (j + 1) // d - c * j // d] for j in range(1, d - 1))


def central_recognizer(word):
    """The central word of the reversed standard word *word*, or None.

    The per-letter predecessor of ``is_reversed_standard``, kept as its
    differential oracle.  Single letters are the base words and always
    accepted, with an empty central word.  A longer word of length d with
    c ones, gcd(c, d) = 1, must be 01u or 10u for the central word u of
    slope c/d.
    """
    n, ones = len(word), word.count("1")
    if n == 1:
        return ""
    if ones == 0 or ones == n or math.gcd(n, ones) != 1:
        return None
    u = floor_central(ones, n)
    return u if word in ("01" + u, "10" + u) else None


def search_directive(word):
    """The directive of a standard word by depth-first search over directives.

    The slow predecessor of ``directive_of_standard``, kept as its
    differential oracle: smallest terms first, d1 >= 2 before d1 = 1.
    """
    if not word or central_recognizer(word[::-1]) is None:
        return None
    if word == "0":
        return ()
    if word == "1":
        return (1,)
    n = len(word)

    def extend(prev2, prev, acc):
        d = 1
        nxt = prev + prev2
        while len(nxt) <= n:
            if nxt == word:
                return acc + (d,)
            found = extend(prev, nxt, acc + (d,))
            if found is not None:
                return found
            d += 1
            nxt = prev * d + prev2
        return None

    for d1 in range(2, n + 2):
        s1 = "0" * (d1 - 1) + "1"
        if len(s1) > n:
            break
        if s1 == word:
            return (d1,)
        found = extend("0", s1, (d1,))
        if found is not None:
            return found
    return extend("0", "1", (1,))


class TestGeneration:
    def test_fibonacci_directive(self):
        assert standard_from_directive((2, 1, 1, 1)) == "01001010"
        assert standard_from_directive((2, 1, 1, 1))[::-1] == "01010010"

    def test_two_term_form(self):
        # (a+1, b+1) gives (0^a 1)^(b+1) 0
        for a in range(1, 5):
            for b in range(4):
                expected = ("0" * a + "1") * (b + 1) + "0"
                assert standard_from_directive((a + 1, b + 1)) == expected

    def test_base(self):
        assert standard_from_directive((2,)) == "01"
        assert standard_from_directive((1,)) == "1"
        assert standard_from_directive((3,)) == "001"

    def test_empty_directive(self):
        with pytest.raises(EmptyDirectiveError):
            standard_from_directive(())
        with pytest.raises(EmptyDirectiveError):
            standard_from_directive((0, 1))

    def test_fibonacci_words(self):
        assert fibonacci_word(-1) == "1"
        assert fibonacci_word(0) == "0"
        assert fibonacci_word(1) == "01"
        assert fibonacci_word(4) == "01001010"
        # lengths follow the Fibonacci recurrence
        lengths = [len(fibonacci_word(k)) for k in range(-1, 12)]
        for i in range(2, len(lengths)):
            assert lengths[i] == lengths[i - 1] + lengths[i - 2]

    def test_standard_words_are_primitive(self):
        for directive in all_directives(40):
            assert is_primitive(standard_from_directive(directive))

    def test_gcd_of_length_and_ones(self):
        for directive in all_directives(40):
            word = standard_from_directive(directive)
            assert math.gcd(len(word), word.count("1")) == 1

    def test_standard_words_live_in_their_language(self):
        # directive (a+1, b+1, ...) generates words inside the (a, b) language
        for directive in all_directives(40):
            if len(directive) < 2 or directive[0] < 2:
                continue
            word = standard_from_directive(directive)
            params = Params(directive[0] - 1, directive[1] - 1)
            assert in_language(word, params), (directive, word)


class TestCentral:
    def test_flagship(self):
        assert central_word(3, 8) == "010010"

    def test_small(self):
        assert central_word(1, 2) == ""
        assert central_word(1, 3) == "0"
        assert central_word(2, 3) == "1"

    def test_invalid(self):
        for c, d in ((2, 8), (0, 5), (5, 5), (3, 1), (1, 1)):
            with pytest.raises(InvalidSlopeError):
                central_word(c, d)

    def test_palindromes(self):
        for d in range(2, 201):
            for c in range(1, d):
                if math.gcd(c, d) == 1:
                    u = central_word(c, d)
                    assert u == u[::-1], (c, d)

    def test_floor_difference_formula(self):
        # letter j (1-based) is floor(c(j+1)/d) - floor(cj/d); the deep
        # slopes have long continued fractions (Fibonacci ratios) or one
        # huge term
        slopes = [(c, d) for d in range(2, 200) for c in range(1, d) if math.gcd(c, d) == 1]
        slopes += [(377, 610), (514229, 832040), (1, 100000), (99999, 100000)]
        for c, d in slopes:
            expected = "".join(
                "1" if (c * (j + 1)) // d - (c * j) // d else "0" for j in range(1, d - 1)
            )
            assert central_word(c, d) == expected, (c, d)

    def test_extends_to_standard_words(self):
        # u01 and u10 are standard whenever u is central
        for d in range(2, 40):
            for c in range(1, d):
                if math.gcd(c, d) != 1:
                    continue
                u = central_word(c, d)
                assert is_reversed_standard((u + "01")[::-1])
                assert is_reversed_standard((u + "10")[::-1])


class TestRecognition:
    def test_flagship(self):
        # 01010010 is 01 followed by the central word of its slope 3/8
        assert is_reversed_standard("01010010")
        assert central_recognizer("01010010") == "010010"
        assert slope("01010010") == Fraction(3, 8)
        assert "01010010" == "01" + central_word(3, 8)

    def test_single_letters(self):
        assert is_reversed_standard("0")
        assert is_reversed_standard("1")

    def test_rejections(self):
        assert not is_reversed_standard("00")
        assert not is_reversed_standard("0101")
        assert not is_reversed_standard("0110")

    def test_sixth_root_is_reversed_standard(self):
        assert is_reversed_standard("10010")

    def test_empty(self):
        with pytest.raises(EmptyWordError):
            is_reversed_standard("")

    def test_duality_exhaustive(self):
        # reversals of generated standard words == words recognized by
        # either recognizer, for all short binary words
        generated = {standard_from_directive(d)[::-1] for d in all_directives(14)}
        generated |= {"0", "1"}
        for n in range(1, 15):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b")
                expected = word in generated
                recognized = central_recognizer(word) is not None
                assert is_reversed_standard(word) == recognized == expected, word

    def test_duality_counts_to_length_30(self):
        # two recognized words per admissible slope: totient many slopes
        generated = {standard_from_directive(d)[::-1] for d in all_directives(30)}
        generated |= {"0", "1"}
        by_length = {}
        for word in generated:
            by_length.setdefault(len(word), set()).add(word)
        phi = lambda n: sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for n in range(1, 31):
            words = by_length.get(n, set())
            assert all(is_reversed_standard(w) for w in words)
            expected = 2 if n == 1 else 2 * phi(n)
            assert len(words) == expected, n


class TestDirectiveInversion:
    @pytest.mark.parametrize(
        "word,directive",
        [
            ("01001010", (2, 1, 1, 1)),
            ("0", ()),
            ("1", (1,)),
            ("01", (2,)),
            ("010", (2, 1)),
            ("10", (1, 1)),
        ],
    )
    def test_examples(self, word, directive):
        assert directive_of_standard(word) == directive

    def test_not_standard(self):
        with pytest.raises(NotStandardError):
            directive_of_standard("0101")
        with pytest.raises(NotStandardError):
            directive_of_standard("")

    def test_inverts_generation(self):
        # the directive is unique, so recovery returns the generating one
        for directive in all_directives(200):
            word = standard_from_directive(directive)
            assert directive_of_standard(word) == directive, word
            assert (directive[0] >= 2) == (word[0] == "0"), directive

    def test_agrees_with_search(self):
        words = {standard_from_directive(d) for d in all_directives(60)} | {"0", "1"}
        for word in words:
            assert directive_of_standard(word) == search_directive(word), word

    def test_agrees_with_search_on_all_short_words(self):
        # standard or not; natural_params reads the same directive reversed
        for n in range(13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b") if n else ""
                expected = search_directive(word)
                if expected is None:
                    with pytest.raises(NotStandardError):
                        directive_of_standard(word)
                else:
                    assert directive_of_standard(word) == expected, word
                params = None
                if expected and expected[0] >= 2:
                    b = expected[1] - 1 if len(expected) > 1 else 0
                    params = Params(expected[0] - 1, b)
                assert natural_params(word[::-1]) == params, word


class TestNaturalParams:
    def test_flagship(self):
        assert natural_params("01010010") == Params(1, 0)

    def test_short_roots(self):
        assert natural_params("100") == Params(2, 0)  # 10^2 has a one-term directive
        assert natural_params("10010") == Params(1, 0)  # the sixth root at (1, 0)

    def test_reads_the_first_two_terms(self):
        for directive in all_directives(200):
            reversal = standard_from_directive(directive)[::-1]
            if directive[0] < 2:
                assert natural_params(reversal) is None, directive
                continue
            b = directive[1] - 1 if len(directive) > 1 else 0
            assert natural_params(reversal) == Params(directive[0] - 1, b), directive

    def test_unusable(self):
        assert natural_params("1") is None
        assert natural_params("0") is None
        assert natural_params("011") is None  # reversal forces d1 = 1
        assert natural_params("0101") is None  # not reversed standard

import math

import pytest
from hypothesis import given, strategies as st

from sqword.errors import EmptyWordError, InvalidLetterError, TooShortError
from sqword.words import (
    are_conjugate,
    check_binary,
    check_nonempty,
    exchange_first_two,
    is_primitive,
    primitive_root,
    slope,
)
from weights import prefix_sums, scaled_sum

binary_words = st.text(alphabet="01", max_size=40)
nonempty_words = st.text(alphabet="01", min_size=1, max_size=40)
# bases must contain both letters
bases = st.text(alphabet="01", min_size=2, max_size=30).filter(
    lambda w: "0" in w and "1" in w
)


class TestCheckBinary:
    def test_accepts_binary(self):
        for word in ("", "0", "1", "0110", "01" * 1000):
            assert check_binary(word) is word

    @pytest.mark.parametrize("word", ["2", "0102", "01 ", "10\u0661", "0" * 500 + "x"])
    def test_names_the_bad_letter(self, word):
        bad = next(ch for ch in word if ch not in "01")
        with pytest.raises(InvalidLetterError, match=repr(bad)):
            check_binary(word)

    def test_rejects_non_strings(self):
        for value in (None, 1, b"01", ["0", "1"]):
            with pytest.raises(InvalidLetterError, match=type(value).__name__):
                check_binary(value)


class TestCheckNonempty:
    def test_returns_the_word(self):
        for word in ("0", "1", "01" * 1000):
            assert check_nonempty(word, "unused") is word

    def test_letters_then_emptiness(self):
        with pytest.raises(EmptyWordError, match="^the caller's message$"):
            check_nonempty("", "the caller's message")
        for value in ("0x", None):
            with pytest.raises(InvalidLetterError):
                check_nonempty(value, "unused")


class TestSlope:
    def test_worked_example(self):
        assert slope("01010010") == pytest.approx(3 / 8)
        assert (slope("01010010").numerator, slope("01010010").denominator) == (3, 8)

    def test_all_zeros(self):
        s = slope("0")
        assert (s.numerator, s.denominator) == (0, 1)

    def test_reduced(self):
        s = slope("10010")
        assert (s.numerator, s.denominator) == (2, 5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            slope("")

    def test_bad_letter_rejected(self):
        with pytest.raises(InvalidLetterError):
            slope("012")


# The weighted-frequency method behind criteria 5 and 7; the weights live
# in tests/weights.py, since the library computes nothing with them.
class TestScaledSum:
    def test_base_is_zero_sum(self):
        assert scaled_sum("01010010", "01010010") == 0

    def test_single_zero(self):
        assert scaled_sum("0", "01010010") == -3

    def test_prefix_of_four(self):
        assert scaled_sum("0101", "01010010") == 4

    @given(u=binary_words, v=binary_words, base=bases)
    def test_additive(self, u, v, base):
        assert scaled_sum(u + v, base) == scaled_sum(u, base) + scaled_sum(v, base)

    @given(u=nonempty_words, base=bases)
    def test_weight_slope_identity(self, u, base):
        # scaled_sum(u)*d == |u| * (c*|base| - d*ones(base)) where slope(u) = c/d
        s = slope(u)
        c, d = s.numerator, s.denominator
        lhs = scaled_sum(u, base) * d
        rhs = len(u) * (c * len(base) - d * base.count("1"))
        assert lhs == rhs


class TestPrefixSumWord:
    def test_worked_example(self):
        sums = prefix_sums("01010010", "01010010")
        assert sums == (-3, 2, -1, 4, 1, -2, 3, 0)
        assert min(sums) == -3 and max(sums) == 4

    def test_single_step(self):
        assert prefix_sums("0", "01") == (-1,)

    def test_mixed_base(self):
        assert prefix_sums("10", "0100") == (3, 2)


class TestExchange:
    @pytest.mark.parametrize(
        "word,expected",
        [("01010010", "10010010"), ("00", "00"), ("10", "01"), ("011", "101")],
    )
    def test_examples(self, word, expected):
        assert exchange_first_two(word) == expected

    def test_too_short(self):
        for word in ("", "0", "1"):
            with pytest.raises(TooShortError):
                exchange_first_two(word)

    @given(word=st.text(alphabet="01", min_size=2, max_size=40))
    def test_involution_preserves_counts(self, word):
        swapped = exchange_first_two(word)
        assert exchange_first_two(swapped) == word
        assert len(swapped) == len(word)
        assert swapped.count("1") == word.count("1")


def brute_primitive_root(word):
    # independent oracle: try every divisor of the length
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d], n // d
    raise AssertionError("unreachable")


class TestPrimitivity:
    def test_worked_example(self):
        assert primitive_root("01010010") == ("01010010", 1)

    def test_square(self):
        assert primitive_root("0101") == ("01", 2)
        assert not is_primitive("0101")

    def test_quarter_square(self):
        # (0010)^2; checking all proper divisors of 8 confirms it
        assert primitive_root("00100010") == ("0010", 2)
        assert is_primitive("00100100")

    def test_empty(self):
        with pytest.raises(EmptyWordError):
            primitive_root("")

    def test_against_trial_division(self):
        # exhaustive over short words
        for n in range(1, 13):
            for bits in range(1 << n):
                word = format(bits, f"0{n}b")
                assert primitive_root(word) == brute_primitive_root(word)

    @given(word=nonempty_words)
    def test_reconstruction(self, word):
        root, k = primitive_root(word)
        assert root * k == word
        assert is_primitive(root)


class TestConjugacy:
    @pytest.mark.parametrize(
        "u,v,expected",
        [
            ("0100", "0010", True),
            ("01", "10", True),
            ("0011", "0101", False),
            ("", "", True),
            ("0", "1", False),
            ("01", "011", False),
        ],
    )
    def test_examples(self, u, v, expected):
        assert are_conjugate(u, v) is expected

    def test_matches_rotation_enumeration(self):
        for n in range(7):
            words = [format(b, f"0{n}b") if n else "" for b in range(1 << n)]
            for u in words:
                rotations = {u[i:] + u[:i] for i in range(max(len(u), 1))}
                for v in words:
                    assert are_conjugate(u, v) is (v in rotations)

    @given(u=binary_words, v=binary_words, w=binary_words)
    def test_equivalence_relation(self, u, v, w):
        assert are_conjugate(u, u)
        assert are_conjugate(u, v) == are_conjugate(v, u)
        if are_conjugate(u, v) and are_conjugate(v, w):
            assert are_conjugate(u, w)

    def test_gcd_with_reversal_is_unaffected(self):
        # conjugates share letter counts, so gcd(|w|, ones) is a class invariant
        u = "0100101"
        for i in range(len(u)):
            v = u[i:] + u[:i]
            assert math.gcd(len(v), v.count("1")) == math.gcd(len(u), u.count("1"))

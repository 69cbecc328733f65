import functools
import itertools
import math

import pytest

import sqword.enumeration
from sqword.enumeration import (
    brute_force_solutions,
    count_solutions,
    divisor_count,
    divisors,
    euler_phi,
    orbit_count,
    order_of_two,
    pattern_excess,
)
from sqword.errors import DomainError, NotADivisorError, NotCoprimeError
from sqword.solutions import doubling_orbits, has_params

# OEIS A000374: orbit counts of doubling mod n (first 21 terms).
A000374 = [1, 1, 2, 1, 2, 2, 3, 1, 3, 2, 2, 2, 2, 3, 5, 1, 3, 3, 2, 2, 6]

# OEIS A002326: multiplicative order of 2 mod 2n+1 (first 20 terms).
A002326 = [1, 2, 4, 3, 6, 10, 12, 4, 8, 18, 6, 11, 20, 18, 28, 5, 10, 12, 36, 12]

# OEIS A330878: solution counts by length (first 36 terms).
A330878 = [
    1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7,
    7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 14,
    13, 14, 14, 15, 15, 16, 16, 17, 19, 18, 18, 20,
]


@functools.lru_cache(maxsize=None)
def _no11_words(length: int, may_start_one: bool) -> tuple[str, ...]:
    # All 11-free words of the length, lexicographically; without
    # may_start_one only those starting with 0 (to follow a 1).
    if length == 0:
        return ("",)
    words = ["0" + w for w in _no11_words(length - 1, True)]
    if may_start_one:
        words += ["1" + w for w in _no11_words(length - 1, False)]
    return tuple(words)


def _candidate_words(n: int):
    """All length-n words that start with 0 and avoid 11, lexicographically.

    Each word is a head of about n/2 letters joined to a tail, both from
    cached tables, so the tables stay small.
    """
    tail_len = n // 2
    after_zero = _no11_words(tail_len, True)
    after_one = _no11_words(tail_len, False)
    for head in _no11_words(n - tail_len, False):
        for tail in after_one if head[-1] == "1" else after_zero:
            yield head + tail


def generate_and_test(n, a_cap=None, b_cap=None):
    """The unpruned oracle: every 0-initial 11-free word that has parameters."""
    return [w for w in _candidate_words(n) if has_params(w, a_cap, b_cap)]


def order_walk(d: int) -> int:
    """The residue-walk oracle for ``order_of_two``: double until back at 1."""
    if d == 1:
        return 1
    e, x = 1, 2 % d
    while x != 1:
        x = 2 * x % d
        e += 1
    return e


class TestArithmetic:
    def test_phi_small(self):
        assert euler_phi(8) == 4
        assert euler_phi(1) == 1
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_phi_against_gcd_count(self):
        for n in range(1, 300):
            direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert euler_phi(n) == direct

    def test_phi_divisor_identity(self):
        # sum of phi over the divisors of n gives back n
        for n in list(range(1, 2000)) + [9240, 10000]:
            assert sum(euler_phi(d) for d in divisors(n)) == n

    def test_divisor_count(self):
        assert divisor_count(7) == 2
        assert divisor_count(1) == 1
        for n in range(1, 500):
            assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1736) == [1, 2, 4, 7, 8, 14, 28, 31, 56, 62, 124, 217, 248, 434, 868, 1736]

    def test_order_of_two(self):
        assert order_of_two(7) == 3
        assert order_of_two(1) == 1
        assert [order_of_two(2 * n + 1) for n in range(20)] == A002326

    def test_order_equals_residue_walk(self):
        for d in itertools.chain(range(1, 20000, 2), (1000003, 1999993)):
            assert order_of_two(d) == order_walk(d), d

    def test_order_divides_phi(self):
        for d in range(1, 400, 2):
            assert euler_phi(d) % order_of_two(d) == 0

    def test_order_even_rejected(self):
        with pytest.raises(NotCoprimeError):
            order_of_two(6)


class TestOrbitCount:
    def test_published_prefix(self):
        assert [orbit_count(l) for l in range(1, 22)] == A000374

    def test_large_factor(self):
        assert orbit_count(217) == 21

    def test_power_of_two_invariance(self):
        for l in range(1, 100):
            assert orbit_count(l) == orbit_count(2 * l)

    def test_formula_equals_direct_enumeration(self):
        for l in range(1, 601):
            assert orbit_count(l) == len(doubling_orbits(l)), l


class TestExcessTerm:
    def test_examples(self):
        assert pattern_excess(24, 8) == 1
        assert pattern_excess(24, 3) == 0

    def test_full_divisor_vanishes(self):
        for n in (3, 10, 24, 36, 100):
            assert pattern_excess(n, n) == 0

    def test_nonnegative(self):
        for n in range(3, 200):
            for d in divisors(n):
                if d > 2:
                    assert pattern_excess(n, d) >= 0, (n, d)

    def test_bad_divisor(self):
        with pytest.raises(NotADivisorError):
            pattern_excess(24, 5)
        with pytest.raises(NotADivisorError):
            pattern_excess(24, 2)


class TestCountSolutions:
    def test_published_table(self):
        for n, expected in enumerate(A330878, start=1):
            assert count_solutions(n).formula_count == expected, n

    def test_large_value(self):
        assert count_solutions(1736).formula_count == 1050644

    def test_primes_attain_floor(self):
        for n in (7, 11, 13, 101, 997):
            assert count_solutions(n).formula_count == n // 2 + 1

    def test_lower_bound(self):
        for n in range(1, 400):
            assert count_solutions(n).formula_count >= n // 2 + 1

    def test_per_divisor_breakdown(self):
        report = count_solutions(24)
        assert report.per_divisor == {3: 0, 4: 0, 6: 0, 8: 1, 12: 0, 24: 0}
        assert report.formula_count == 24 // 2 + 1 + sum(report.per_divisor.values())

    def test_bad_n(self):
        with pytest.raises(DomainError):
            count_solutions(0)

    def test_json(self):
        data = count_solutions(24, brute=True).to_json()
        assert data["n"] == 24
        assert data["count"] == 14
        assert data["brute_count"] == 14
        assert data["per_divisor"]["8"] == 1


class TestBruteForce:
    def test_small_listings(self):
        assert brute_force_solutions(1) == ["0"]
        assert brute_force_solutions(3) == ["000", "010"]
        assert brute_force_solutions(4) == ["0000", "0100", "0101"]

    def test_all_zero_always_counts(self):
        for n in range(1, 9):
            assert "0" * n in brute_force_solutions(n)

    def test_members_have_params(self):
        for word in brute_force_solutions(7):
            assert has_params(word)
            assert word[0] == "0"
            assert "11" not in word

    def test_matches_formula_small(self):
        for n in range(1, 15):
            assert len(brute_force_solutions(n)) == count_solutions(n).formula_count

    def test_pruned_equals_generate_and_test(self):
        for n in range(1, 25):
            assert brute_force_solutions(n) == generate_and_test(n), n

    @pytest.mark.parametrize("caps", [(1, None), (2, 0), (3, 2), (None, 1), (0, 5)])
    def test_pruned_equals_generate_and_test_under_caps(self, caps):
        for n in range(1, 19):
            assert brute_force_solutions(n, *caps) == generate_and_test(n, *caps), n

    def test_pruning_bounds_the_leaves(self, monkeypatch):
        # Generate-and-test would check 5.7 M words at n = 33; the pruned
        # search reaches 1,863 words of full length.
        leaves = []
        original = sqword.enumeration.has_params
        monkeypatch.setattr(
            "sqword.enumeration.has_params", lambda w, *caps: leaves.append(w) or original(w, *caps)
        )
        assert len(brute_force_solutions(33)) == 19
        assert 19 <= len(leaves) <= 2000

    def test_no_solution_contains_11(self):
        # The search only builds 11-free words.
        for n in range(2, 15):
            for letters in itertools.product("01", repeat=n):
                word = "".join(letters)
                if "11" in word:
                    assert not has_params(word), word

    def test_candidates_are_filtered_product(self):
        # The head-by-tail enumerator must list exactly the 0-initial,
        # 11-free words, in lexicographic order.
        for n in range(1, 19):
            expected = [
                "0" + "".join(t)
                for t in itertools.product("01", repeat=n - 1)
                if "11" not in "0" + "".join(t)
            ]
            assert list(_candidate_words(n)) == expected, n

    def test_bad_n(self):
        with pytest.raises(DomainError):
            brute_force_solutions(0)

import functools
import hashlib
import itertools
import json
import math
import random
import sys

import pytest

import sqword.enumeration
from sqword.enumeration import (
    _doubled,
    _factorize,
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
from sqword.solutions import doubling_orbits, find_params, has_params
from sqword.squares import Params, _derive, _language_params, _levels, _tables, minimal_squares, parse
from test_squares import zero_runs

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


def parse_admits(word, params):
    """Whether the greedy square parse of *word* can begin the square of a
    solution for *params*: its roots spell the word's prefix of their
    length, and the rest is a prefix of a minimal square."""
    fact = parse(word, params)
    rest = word[fact.consumed:]
    return word.startswith(fact.root()) and any(s.startswith(rest) for s in minimal_squares(params))


def rederiving_dfs(n, parsed=True, leaves=None):
    """The DFS that desubstituted each prefix from scratch: the oracle for
    the state ``brute_force_solutions`` carries down the tree.  A child that
    ends in 1 also needs, unless *parsed* is false, a pair whose kinds word
    has fewer than two 1s (b is then not pinned) or that ``parse_admits``
    it.  A word of length n with two or more 1s is a leaf only if some
    admitted pair has a at least its tail zero run.  Its leaves go to
    ``has_params``, and to *leaves* when given; 0^n goes to ``has_params``
    alone, as the search lists it without a leaf."""
    bound = 2 * n
    found = []
    stack = ["0"]
    while stack:
        word = stack.pop()
        if len(word) == n:
            tail = n - 1 - word.rfind("1")
            if word.count("1") > 1 and all(p.a < tail for p in _language_params(word, bound, bound)):
                continue
            if leaves is not None and "1" in word:
                leaves.append(word)
            if has_params(word):
                found.append(word)
            continue
        for child in (word + "1", word + "0") if word[-1] == "0" else (word + "0",):
            checks_parse = parsed and child[-1] == "1"
            if child.count("1") < 2 or any(
                not checks_parse or _derive(child, p.a).count("1") < 2 or parse_admits(child, p)
                for p in _language_params(child, bound, bound)
            ):
                stack.append(child)
    return found


def bound_walk(kinds, bound):
    """The second level as a walk up to an explicit bound: the b <= bound
    that hold the kinds word."""
    return [b for b in _levels(kinds, 0, bound) if _derive(kinds, b) is not None]


def second_level(kinds):
    """The b up to the kinds word's length that hold it at the second level;
    none if no b does.  ``_derive`` caps b at that length, so every larger b
    answers as that one does."""
    return tuple(b for b in _levels(kinds, 0, len(kinds)) if _derive(kinds, b) is not None)


def order_walk(d: int) -> int:
    """The residue-walk oracle for ``order_of_two``: double until back at 1."""
    if d == 1:
        return 1
    e, x = 1, 2 % d
    while x != 1:
        x = 2 * x % d
        e += 1
    return e


def divisor_order(d: int) -> int:
    """The totient-down oracle for ``order_of_two`` on d itself, not on its
    prime powers: the order divides phi(d), so each prime factor is dropped
    for as long as 2^(e/p) is still 1 mod d."""
    e = euler_phi(d)
    for p in _factorize(e):
        while e % p == 0 and pow(2, e // p, d) == 1:
            e //= p
    return e


def divisor_orbit_count(length: int) -> int:
    """The oracle for ``orbit_count``: phi(d) / ord_2(d) summed over the
    divisors d of the odd part, each factored on its own."""
    odd = length
    while odd % 2 == 0:
        odd //= 2
    return sum(euler_phi(d) // divisor_order(d) for d in divisors(odd))


def divisor_count_report(n: int) -> tuple[int, dict[int, int]]:
    """The oracle for ``count_solutions``: the count and its per-divisor
    excess terms, each orbit count taken from ``divisor_orbit_count``."""
    per = {
        d: (2 ** (divisor_orbit_count(n // d) - 1) - 1) * (euler_phi(d) // 2 - divisor_count(d - 1) + 1)
        for d in divisors(n)
        if d > 2
    }
    return n // 2 + 1 + sum(per.values()), per


class TestArithmetic:
    @pytest.mark.parametrize(
        "fn, name", [(euler_phi, "n"), (divisor_count, "n"), (divisors, "n"), (orbit_count, "length")]
    )
    def test_zero_is_rejected(self, fn, name):
        with pytest.raises(DomainError, match=f"^{fn.__name__} needs {name} >= 1$"):
            fn(0)

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
        # 2^(p-1) = 1 mod p^2 for the Wieferich primes 1093 and 3511, so p
        # drops out of phi(p^k) in the order mod p^2 and p^3
        wieferich = (1093**2, 3511**2, 1093**3)
        for d in itertools.chain(range(1, 20000, 2), (1000003, 1999993), wieferich):
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

    def test_every_table_is_bounded(self):
        # a process that keeps counting must not keep growing
        tables = {
            name: value
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("sqword.")
            for name, value in vars(module).items()
            if hasattr(value, "cache_info")
        }
        assert "_tables" in tables
        assert all(table.cache_info().maxsize is not None for table in tables.values()), tables


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

    def test_walk_equals_divisor_oracle(self):
        # one walk over n's odd divisors gives what factoring each divisor
        # on its own gave, here and on a seeded sample near 10^6
        rng = random.Random(1)
        for n in itertools.chain(range(1, 3001), rng.sample(range(900000, 10**6 + 1), 60)):
            report = count_solutions(n)
            assert (report.formula_count, report.per_divisor) == divisor_count_report(n), n
        for length in range(1, 5000):
            assert orbit_count(length) == divisor_orbit_count(length), length

    def test_bad_n(self):
        with pytest.raises(DomainError):
            count_solutions(0)

    def test_json(self):
        data = count_solutions(24, brute=True).to_json()
        assert data["n"] == 24
        assert data["count"] == 14
        assert data["brute_count"] == 14
        assert data["per_divisor"]["8"] == 1


@pytest.fixture
def decided(monkeypatch):
    """Each leaf the DFS decides, in order: the word, its carried state and
    the decision."""
    seen = []
    original = sqword.enumeration._leaf_has_params

    def record(word, live):
        result = original(word, live)
        seen.append((word, live, result))
        return result

    monkeypatch.setattr("sqword.enumeration._leaf_has_params", record)
    return seen


@pytest.fixture
def leaves(monkeypatch):
    """The words the DFS decides at its leaves, in order.  ``rederiving_dfs``
    adds its own leaves when handed the list."""
    seen = []
    original = sqword.enumeration._leaf_has_params
    monkeypatch.setattr(
        "sqword.enumeration._leaf_has_params", lambda w, live: seen.append(w) or original(w, live)
    )
    return seen


class TestBruteForce:
    def test_small_listings(self):
        assert brute_force_solutions(1) == ["0"]
        assert brute_force_solutions(3) == ["000", "010"]
        assert brute_force_solutions(4) == ["0000", "0100", "0101"]

    def test_all_zero_always_counts(self):
        for n in range(1, 9):
            assert "0" * n in brute_force_solutions(n)

    def test_all_zero_is_one_long_block(self):
        # The search lists 0^n without a leaf: its square is n squares 00,
        # and its 2n zeros are one long block of a = 2n - 1, b = 0.
        for n in range(1, 61):
            assert Params(2 * n - 1, 0) in find_params("0" * n), n

    def test_every_pair_has_a_past_the_tail(self):
        # The padded leaf keeps only an a at least its tail zero run: w
        # starts with 0, so a tail of a + 1 zeros gives w w a junction run
        # of a + 2 or more, which no block of a has.
        for n in range(1, 31):
            for word in brute_force_solutions(n):
                tail = n - len(word.rstrip("0"))
                assert all(p.a >= tail for p in find_params(word)), word

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

    def test_pruning_bounds_the_leaves(self, leaves):
        # Generate-and-test would check 5.7 M words at n = 33; the language
        # alone leaves 1,580 words of full length with an a past their tail,
        # and the square parse 699.
        assert len(brute_force_solutions(33)) == 19
        assert len(leaves) == 699
        leaves.clear()
        assert len(rederiving_dfs(33, parsed=False, leaves=leaves)) == 19
        assert len(leaves) == 1580

    def test_carried_state_equals_rederiving(self, leaves):
        # The same leaves are decided in the same order, so the carried
        # state and the parse prune drop exactly what re-deriving and
        # re-parsing each prefix did.
        for n in range(1, 31):
            found = brute_force_solutions(n)
            carried = leaves[:]
            leaves.clear()
            assert found == rederiving_dfs(n, leaves=leaves), n
            assert carried == leaves, n
            leaves.clear()

    def test_parse_prune_keeps_every_solution(self, leaves):
        # The pruned leaves are a subsequence of the language-only ones and
        # hold every solution but 0^n, which needs no leaf: the parse
        # condition is necessary.
        for n in range(1, 31):
            found = brute_force_solutions(n)
            pruned = leaves[:]
            leaves.clear()
            solutions = rederiving_dfs(n, parsed=False, leaves=leaves)
            assert set(solutions) <= set(pruned) | {"0" * n} and solutions == found, n
            language = iter(leaves)
            assert all(word in language for word in pruned), n
            leaves.clear()

    def test_leaf_decision_equals_has_params(self, decided):
        # The decision read off the carried state is has_params at every
        # leaf, solution or not, of every kind: one 1, b still free and b
        # pinned.  0^n is listed without a leaf.
        for n in range(1, 31):
            brute_force_solutions(n)
        assert all(result == has_params(word) for word, _, result in decided)
        ones = {word.count("1") for word, _, _ in decided}
        assert {1, 2, 3} <= ones and 0 not in ones
        entries = [entry for _, live, _ in decided for entry in live]
        assert {parses is None for _, _, parses in entries} == {True, False}
        assert {result for _, _, result in decided} == {True, False}

    def test_junction_rule_equals_rederiving_the_square(self, decided):
        # The square's kinds word read off each live entry and the word's
        # tail run, at most a, is what _derive gives on w w, and a word with
        # one 1 holds only a = n - 2 or n - 1.
        for n in range(1, 27):
            brute_force_solutions(n)
        for word, live, _ in decided:
            head, tail = word.find("1"), len(word) - 1 - word.rfind("1")
            for a, kinds, _ in live:
                assert tail <= a, (word, a)
                assert _doubled(kinds, a, tail, head) == _derive(word + word, a), (word, a)
        for n in range(2, 41):
            for head in range(1, n):
                word = "0" * head + "1" + "0" * (n - 1 - head)
                held = {a for a in range(1, 2 * n + 1) if _derive(word + word, a) is not None}
                assert held <= {n - 2, n - 1}, word
                for a in held:
                    kinds = "1" if head == a + 1 else ""
                    assert _doubled(kinds, a, n - 1 - head, head) == _derive(word + word, a)
                # its leaf tries only a = n - 1: a = n - 2 solves it only for
                # head = 1, where a = n - 1 does too
                pairs = find_params(word)
                assert has_params(word) == (head == 1), word
                assert (Params(n - 1, 0) in pairs) == (head == 1), word
                assert head == 1 or all(p.a != n - 2 for p in pairs), word

    def test_carried_state_equals_reparsing(self, decided):
        # At each leaf, every live a carries what re-deriving and re-parsing
        # the word up to its last 1 gives: the kinds word and, once kinds
        # has two 1s, each b of the second level whose parse admits that
        # prefix, with the parse's stop.
        for n in range(1, 27):
            brute_force_solutions(n)
        pinned = 0
        for word, live, _ in decided:
            prefix = word[: word.rfind("1") + 1]
            for a, kinds, parses in live:
                assert kinds == _derive(prefix, a), (word, a)
                if kinds.count("1") < 2:
                    assert parses is None, (word, a)
                    continue
                pinned += 1
                expected = [
                    (parse(prefix, Params(a, b)).consumed, b)
                    for b in second_level(kinds)
                    if parse_admits(prefix, Params(a, b))
                ]
                assert [(q, b) for q, b, _ in parses] == expected, (word, a)
        assert pinned >= 743

    def test_failed_parse_stays_failed(self):
        # A pinned b that fails the parse condition is dropped for good: the
        # parse of a prefix is a prefix of the parse of any extension, so
        # the failure carries over to every longer word.
        pairs = [Params(a, b) for a in range(1, 5) for b in range(4)]
        for length in range(1, 15):
            for word in _candidate_words(length):
                for params in pairs:
                    if not parse_admits(word, params):
                        assert not parse_admits(word + "0", params), (word, params)
                        assert not parse_admits(word + "01", params), (word, params)

    def test_memo_equals_bound_keyed_walk(self):
        # _derive caps b at the kinds word's length, so every bound at or
        # past it asks the same question, and second_level answers it.
        for n in range(15):
            for letters in itertools.product("01", repeat=n):
                kinds = "".join(letters)
                held = second_level(kinds)
                for bound in (n, n + 1, 2 * n + 2):
                    walk = bound_walk(kinds, bound)
                    assert list(held) == [b for b in walk if b <= n], (kinds, bound)
                    assert all(_derive(kinds, b) == _derive(kinds, n) for b in walk if b > n)

    def test_memo_equals_the_zero_run_range(self):
        # The second level in closed form, read off the zero runs alone: b
        # is at least h - 1, t - 1 and R - 1 (the head, tail and greatest
        # inner run) and at most the least inner run r and the word's length.
        # The search reads it so: a kinds word with fewer than two 1s holds
        # some b, and one of the form 0^x 1 0^r 1 holds the b _levels gives.
        for n in range(13):
            for bits in range(1 << n):
                kinds = format(bits, f"0{n}b") if n else ""
                head, tail, inner = zero_runs(kinds)
                low = max(0, head - 1, tail - 1, max(inner, default=0) - 1)
                high = min(inner, default=n)
                held = second_level(kinds)
                assert held == tuple(range(low, min(high, n) + 1)), kinds
                if kinds.count("1") < 2:
                    assert held, kinds
                elif kinds.count("1") == 2 and kinds.endswith("1"):
                    assert list(held) == list(_levels(kinds, 0, len(kinds))), kinds

    def test_each_window_is_built_once(self):
        # One table per (a, b) serves the pinned parses and the leaves: the
        # searches for n = 1..60 build 461 windows, each once, and the bound
        # holds them all.  Their lists are pinned by hash.
        _tables.cache_clear()
        lists = [brute_force_solutions(n) for n in range(1, 61)]
        built = _tables.cache_info()
        assert built.misses == built.currsize < built.maxsize
        digest = hashlib.sha1(json.dumps(lists).encode()).hexdigest()
        assert digest == "ec8902be8c62c39998f174da9e09014315b05c7c"

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

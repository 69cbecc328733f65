import json
import math
import tracemalloc

import pytest

from sqword.errors import (
    ClassificationContradictionError,
    EmptyWordError,
    InvalidLetterError,
    NotDecomposableError,
    NotInPiError,
    TooShortError,
)
from sqword import cli, solutions, squares
from sqword.solutions import (
    Verdict,
    classify,
    decompose_blocks,
    doubling_orbits,
    find_params,
    has_params,
    is_pattern_word,
    is_solution,
    substitute_pattern,
)
from sqword.squares import Params, square_root
from sqword.standard import is_reversed_standard, natural_params, standard_from_directive
from sqword.words import exchange_first_two, is_primitive
from weights import prefix_sums

P10 = Params(1, 0)

LSS_WORD = "100100100101001001010010"


def no11_words(n, head="0"):
    """All length-n binary words starting with *head* and avoiding 11."""
    words = [head]
    for _ in range(n - 1):
        words = [w + "0" for w in words] + [w + "1" for w in words if w[-1] != "1"]
    return words


def union_find_orbits(n):
    """The union-find partition that ``doubling_orbits`` replaced."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        ri, rj = find(i), find(2 * i % n)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda g: g[0]))


class TestDoublingOrbits:
    def test_small(self):
        assert doubling_orbits(1) == ((0,),)
        assert doubling_orbits(2) == ((0, 1),)
        assert doubling_orbits(3) == ((0,), (1, 2))
        assert doubling_orbits(7) == ((0,), (1, 2, 4), (3, 5, 6))

    def test_partitions(self):
        for n in range(1, 40):
            orbits = doubling_orbits(n)
            flat = sorted(i for orbit in orbits for i in orbit)
            assert flat == list(range(n))

    def test_closed_under_doubling(self):
        for n in range(1, 40):
            lookup = {}
            for orbit in doubling_orbits(n):
                for i in orbit:
                    lookup[i] = orbit
            for i in range(n):
                assert lookup[2 * i % n] is lookup[i]

    def test_cycle_labels_equal_union_find(self):
        for n in range(1, 1025):
            assert doubling_orbits(n) == union_find_orbits(n), n


def orbit_pattern_word(pattern):
    """The orbit-partition test that ``is_pattern_word`` replaced."""
    return all(len({pattern[i] for i in orbit}) == 1 for orbit in doubling_orbits(len(pattern)))


class TestPatternWords:
    def test_edges_agree_with_orbits(self):
        for n in range(1, 15):
            for bits in range(1 << n):
                pattern = format(bits, f"0{n}b").translate(str.maketrans("01", "SL"))
                assert is_pattern_word(pattern) == orbit_pattern_word(pattern), pattern

    def test_examples(self):
        assert is_pattern_word("LSS")
        assert is_pattern_word("SLLSLSS")
        assert not is_pattern_word("SL")

    def test_trivial(self):
        assert is_pattern_word("S")
        assert is_pattern_word("L")

    def test_bad_input(self):
        with pytest.raises(EmptyWordError):
            is_pattern_word("")
        with pytest.raises(InvalidLetterError):
            is_pattern_word("SX")

    def test_primitive_patterns_have_odd_length(self):
        for n in range(1, 17):
            orbits = doubling_orbits(n)
            for bits in range(1 << len(orbits)):
                letters = [""] * n
                for k, orbit in enumerate(orbits):
                    for i in orbit:
                        letters[i] = "SL"[bits >> k & 1]
                pattern = "".join(letters)
                assert is_pattern_word(pattern)
                if is_primitive(pattern):
                    assert n % 2 == 1, pattern

    def test_constant_patterns_always_qualify(self):
        for n in (1, 2, 5, 8, 12):
            assert is_pattern_word("S" * n)
            assert is_pattern_word("L" * n)


class TestSubstitution:
    def test_flagship(self):
        assert substitute_pattern("LSS", "01010010") == LSS_WORD

    def test_identity_block(self):
        assert substitute_pattern("S", "01") == "01"
        assert substitute_pattern("SL", "10") == "1001"

    def test_too_short(self):
        # the exchange checks the block
        with pytest.raises(TooShortError, match="^exchange needs a word of length at least 2$"):
            substitute_pattern("S", "0")

    def test_injective_when_letters_differ(self):
        block = "0100"
        images = {substitute_pattern(p, block) for p in ("SS", "SL", "LS", "LL")}
        assert len(images) == 4

    def test_counts_scale(self):
        word = substitute_pattern("SLLSLSS", "01010010")
        assert len(word) == 7 * 8
        assert word.count("1") == 7 * 3


class TestIsSolution:
    def test_flagship(self):
        assert is_solution("01010010", P10)

    def test_single_zero(self):
        assert is_solution("0", P10)

    def test_failure(self):
        assert not is_solution("0010", P10)

    def test_empty(self):
        with pytest.raises(EmptyWordError):
            is_solution("", P10)

    @pytest.mark.parametrize("params", [Params(10**6, 0), Params(1, 10**6)])
    def test_huge_params_stay_small(self, params):
        # Only the roots that fit in the square are built; at full size these
        # tables would take about 12 MB.  Emptying the table cache keeps an
        # entry built by another test from hiding a full-size build.
        squares._tables.cache_clear()
        tracemalloc.start()
        try:
            found = is_solution("0101", params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == (params.a == 1)
        assert peak < 1 << 20

    def test_b_window_stays_small(self):
        # s5 already outgrows the square at b = n // (a + 1); at b capped at
        # n instead, these tables would take about 23 MB
        squares._tables.cache_clear()
        tracemalloc.start()
        try:
            found = is_solution("0" * 2000, Params(1000, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not found
        assert peak < 1 << 20

    def test_definition_agreement(self):
        # solution <=> the square has a root and the root is the word itself
        for word in no11_words(6):
            try:
                expected = square_root(word * 2, P10) == word
            except NotInPiError:
                expected = False
            assert is_solution(word, P10) == expected


def find_params_unpruned(word, a_max=None, b_max=None):
    """Independent oracle: scan the whole parameter box."""
    if a_max is None:
        a_max = 2 * len(word)
    if b_max is None:
        b_max = 2 * len(word)
    return {
        Params(a, b)
        for a in range(1, a_max + 1)
        for b in range(b_max + 1)
        if is_solution(word, Params(a, b))
    }


def find_params_walk(word, a_max=None, b_max=None):
    """``find_params`` before the b saturation: every pair the factor
    language admits, each b up to ``b_max``, is tried with is_solution."""
    a_max, b_max = solutions._bounds(word, a_max, b_max)
    square = word + word
    return {
        Params(a, b)
        for a in squares._levels(square, 1, a_max)
        if (kinds := squares._derive(square, a)) is not None
        for b in squares._levels(kinds, 0, b_max)
        if squares._derive(kinds, b) is not None and is_solution(word, Params(a, b))
    }


class TestFindParams:
    def test_flagship(self):
        assert P10 in find_params("01010010")

    def test_all_zero_pair(self):
        assert find_params("00") == {Params(a, b) for a in (3, 4) for b in range(5)}

    def test_eleven_blocks(self):
        assert find_params("0110") == set()

    def test_pruned_equals_full_scan(self):
        words = [format(bits, f"0{n}b") for n in range(1, 11) for bits in range(1 << n)]
        words += no11_words(11) + no11_words(12)
        for word in words:
            assert find_params(word) == find_params_unpruned(word), word

    def test_pruned_equals_full_scan_under_bounds(self):
        # a_max below the default and b_max above it, so that candidates
        # beyond the default box and cut off below it both show
        words = [format(bits, f"0{n}b") for n in range(1, 9) for bits in range(1 << n)]
        for word in words:
            n = len(word)
            for a_max, b_max in ((1, 3 * n), (n, 4 * n + 3)):
                assert find_params(word, a_max, b_max) == find_params_unpruned(
                    word, a_max, b_max
                ), (word, a_max, b_max)
                assert has_params(word, a_max, b_max) == bool(
                    find_params_unpruned(word, a_max, b_max)
                ), (word, a_max, b_max)

    @pytest.mark.parametrize("word", ["0" * 30, "0000010000000000"])
    def test_candidates_come_from_the_language(self, monkeypatch, word):
        # a scan of the whole box would make 3,660 and 1,056 calls here; the
        # language leaves two a and every b
        calls = []

        def counting(w, p):
            calls.append(p)
            return is_solution(w, p)

        monkeypatch.setattr("sqword.solutions.is_solution", counting)
        found = find_params(word)
        assert len(calls) <= 2 * (2 * len(word) + 1)
        assert found == find_params_unpruned(word)

    def test_long_zero_run(self):
        assert find_params("0" * 200) == {Params(a, b) for a in (399, 400) for b in range(401)}

    def test_pruned_equals_full_scan_with_eleven(self):
        for word in ("011", "0110", "011011", "0101101"):
            assert find_params(word) == find_params_unpruned(word) == set()

    def test_pruned_equals_full_scan_length_14_sample(self):
        words = [w for w in no11_words(14) if w.count("1") in (3, 4)]
        for word in words[::37]:
            assert find_params(word) == find_params_unpruned(word), word

    def test_default_bounds_decide(self):
        # the default 2n bounds decide solution-hood: doubling them adds nothing
        words = [w for n in range(1, 13) for h in "01" for w in no11_words(n, h)]
        assert len(words) == 984
        for word in words:
            wide = 4 * len(word)
            assert has_params(word) == bool(find_params(word, wide, wide)), word

    def test_clamped_has_params_equals_find_params(self):
        # bounds past 2|w|, where has_params used to clamp a_max, answer as
        # find_params does
        words = [format(bits, f"0{n}b") for n in range(1, 9) for bits in range(1 << n)]
        checks = 0
        for word in words:
            n = len(word)
            for bounds in (
                (None, None), (2 * n + 1, 2 * n + 1), (3 * n, 3 * n), (100, 100), (1, 100), (100, 1)
            ):
                assert has_params(word, *bounds) == bool(find_params(word, *bounds)), (word, bounds)
                checks += 1
        assert checks == 3060

    def test_has_params_searches_within_the_clamp(self, monkeypatch):
        # b_max = 10**5 used to walk every b up to it: each b walk stops at
        # its saturation point 2|w| // (a + 1), and a_max needs no clamp,
        # since the first pair of 0^d is a solution
        seen, tried = [], []
        language_params = solutions._language_params

        def recording(square, a_max, b_max):
            seen.append((a_max, b_max))
            for p in language_params(square, a_max, b_max):
                tried.append((len(square), p))
                yield p

        monkeypatch.setattr(solutions, "_language_params", recording)
        assert not has_params("00010", None, 10**5)
        assert has_params("0", 10**5, 10**5)
        assert seen == [(10, 10**5), (10**5, 10**5)]
        assert tried and all(p.b <= n // (p.a + 1) for n, p in tried)

    def test_pairs_past_twice_the_length_follow_a_solution(self):
        # why has_params needs no a_max clamp: only 0^d reaches an a past
        # 2|w|, and only after its first pair (2d - 1, 0), a solution
        words = [format(bits, f"0{n}b") for n in range(1, 13) for bits in range(1 << n)]
        reached = set()
        for word in words:
            n = len(word)
            for b_max in (-1, 0, 1, 5, 1000):
                pairs = list(squares._language_params(word + word, 4 * n, b_max))
                if any(p.a > 2 * n for p in pairs):
                    reached.add(word)
                    assert word == "0" * n and pairs[0] == Params(2 * n - 1, 0), (word, b_max)
                    assert is_solution(word, pairs[0])
        assert reached == {"0" * n for n in range(1, 13)}

    def test_negative_b_max_returns_at_once(self, monkeypatch):
        # no b to try means no pair, whatever a_max is: the a walk never starts
        def refuse(word, k):
            raise AssertionError("a pair search with b_max < 0 derived a word")

        monkeypatch.setattr(squares, "_derive", refuse)
        assert find_params("0", 10**6, -1) == set()
        assert not has_params("0", 10**6, -1)

    def test_b_bound_past_the_saturation_point_changes_nothing(self):
        # with fewer than two 1s no zero run pins b, so has_params walks each
        # b only up to its saturation point, however large b_max is
        words = ["0" * n for n in range(1, 13)]
        words += ["0" * i + "1" + "0" * (n - 1 - i) for n in range(1, 13) for i in range(n)]
        for word in words:
            for a in range(1, 2 * len(word) + 2):
                assert has_params(word, a, 10**5) == has_params(word, a, 2 * len(word)), (word, a)

    def test_find_params_lists_pairs_past_the_clamp(self):
        assert find_params("0", 3, 100) == {Params(a, b) for a in (1, 2, 3) for b in range(101)}

    def test_has_params_consistent(self):
        for word in no11_words(8):
            assert has_params(word) == bool(find_params(word))

    def test_exchange_closure(self):
        # the exchange of a primitive solution is again a solution, though
        # not necessarily for the same params: 010 solves at (1,1) but 100
        # does not.  Nonprimitive solutions can lose solution-hood entirely:
        # 0101 solves but 1001 squares to a word containing 11.
        for n in range(2, 11):
            for word in no11_words(n):
                if is_primitive(word) and has_params(word):
                    assert has_params(exchange_first_two(word)), word
        assert has_params("0101") and not has_params("1001")

    def test_exchange_closure_paramwise_for_long_blocks(self):
        # with a block longer than the sixth root, the same params survive
        # the exchange
        for n in range(2, 11):
            for word in no11_words(n):
                if "1" not in word:
                    continue
                params = find_params(word)
                if not params:
                    continue
                block, _ = decompose_blocks(word)
                swapped = exchange_first_two(word)
                for p in params:
                    if len(block) > (p.a + 2) + (p.b + 1) * (p.a + 1):
                        assert is_solution(swapped, p), (word, p)

    def test_narrow_tube(self):
        # a solution's own prefix sums stay between its letter weights
        for n in range(2, 13):
            for word in no11_words(n):
                if "1" not in word or not has_params(word):
                    continue
                sums = prefix_sums(word, word)
                assert -word.count("1") <= min(sums)
                assert max(sums) <= word.count("0")


WALK_BOUNDS = ((None, None), (3, 2), (1, 100), (100, 1), (5, 40), (40, 5))


def zero_run_pairs(n):
    # find_params(0^n): a is 2n - 1 or 2n, and every b up to 2n
    return {Params(a, b) for a in (2 * n - 1, 2 * n) for b in range(2 * n + 1)}


class TestSaturatedWalk:
    def test_short_words_equal_the_walk(self):
        words = [format(bits, f"0{n}b") for n in range(1, 12) for bits in range(1 << n)]
        for word in words:
            for bounds in WALK_BOUNDS:
                assert find_params(word, *bounds) == find_params_walk(word, *bounds), (word, bounds)

    @pytest.mark.parametrize("word", ["0" * 200, "01" * 100, "0" * 50 + "1" + "0" * 60])
    def test_long_words_equal_the_walk(self, word):
        for bounds in WALK_BOUNDS:
            assert find_params(word, *bounds) == find_params_walk(word, *bounds), bounds
        if "1" not in word:
            assert find_params_walk(word) == zero_run_pairs(len(word))

    @pytest.mark.parametrize("command", ["classify", "check"])
    def test_cli_tries_each_saturated_b_once(self, monkeypatch, capsys, command):
        # The walk tries all 8,002 pairs of 0^2000, one 4,000-letter parse
        # each; the saturated search tries b = 0 and 1 at a = 3999 and b = 0
        # at a = 4000, and classify adds its root 0.
        calls = []

        def counting(w, p):
            calls.append(p)
            return is_solution(w, p)

        monkeypatch.setattr("sqword.solutions.is_solution", counting)
        assert cli.main([command, "--word", "0" * 2000]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["params"] == [[p.a, p.b] for p in sorted(zero_run_pairs(2000))]
        assert len(calls) <= 8


class TestDecompose:
    def test_single_block(self):
        assert decompose_blocks("01010010") == ("01010010", "S")

    def test_flagship_pattern(self):
        assert decompose_blocks(LSS_WORD) == ("01010010", "LSS")

    def test_two_letter_blocks(self):
        assert decompose_blocks("0101") == ("01", "SS")
        assert decompose_blocks("1010") == ("01", "LL")

    def test_not_decomposable(self):
        with pytest.raises(NotDecomposableError):
            decompose_blocks("0000")
        with pytest.raises(NotDecomposableError):
            decompose_blocks("010011")
        with pytest.raises(EmptyWordError, match="^cannot decompose the empty word$"):
            decompose_blocks("")

    def test_substitute_roundtrip(self):
        block = "01010010"
        for pattern in ("S", "LSS", "SLLSLSS", "LL", "SLS"):
            word = substitute_pattern(pattern, block)
            recovered_block, recovered = decompose_blocks(word)
            assert recovered_block == block
            assert recovered == pattern


class TestClassify:
    def test_type_one(self):
        result = classify("01010010")
        assert result.verdict is Verdict.TYPE_I
        assert P10 in result.params

    def test_type_two(self):
        result = classify(LSS_WORD)
        assert result.verdict is Verdict.TYPE_II
        assert result.block == "01010010"
        assert result.pattern == "LSS"
        assert result.witness_params is not None

    def test_power(self):
        result = classify("0101")
        assert result.verdict is Verdict.POWER_OF_PRIMITIVE
        assert result.root == ("01", 2)

    def test_not_solution(self):
        assert classify("0110").verdict is Verdict.NOT_SOLUTION

    def test_json_shape(self):
        data = classify(LSS_WORD).to_json()
        assert data["verdict"] == "TypeII"
        assert data["S"] == "01010010"
        assert data["u"] == "LSS"
        assert [1, 0] in data["params"]
        assert data["root"] is None

    def test_no_contradictions_small(self):
        # the trichotomy holds on every brute-forced solution
        for n in range(1, 13):
            for word in no11_words(n):
                result = classify(word)  # must never raise
                if result.verdict is Verdict.NOT_SOLUTION:
                    assert not has_params(word)

    @pytest.mark.parametrize(
        "attr, fake, word, message",
        [
            ("has_params", lambda *args: False, "01010010" * 2,
             "its primitive root '01010010' is not"),
            ("decompose_blocks", None, LSS_WORD, "has no block decomposition"),
            ("is_reversed_standard", lambda word: False, "01010010",
             "type II witnesses for '01010010' violate"),
        ],
        ids=["power", "decomposition", "witnesses"],
    )
    def test_contradictions_raise(self, monkeypatch, attr, fake, word, message):
        # each case of the trichotomy refuses a solution it cannot place
        def undecomposable(word):
            raise NotDecomposableError("refused")

        monkeypatch.setattr(solutions, attr, fake or undecomposable)
        with pytest.raises(ClassificationContradictionError, match=message):
            classify(word)

    def test_type_one_iff_gcd_one(self):
        # among primitive solutions, standard reversals are exactly the
        # words whose length is coprime with their number of ones
        for n in range(1, 13):
            for word in no11_words(n):
                if not has_params(word) or not is_primitive(word):
                    continue
                gcd_one = math.gcd(len(word), word.count("1")) == 1
                assert is_reversed_standard(word) == gcd_one, word


class TestConstructionProperties:
    def test_reversed_standard_words_solve(self):
        # every reversed standard word with a two-sided directive is a
        # solution for its natural parameters
        from tests.test_standard import all_directives

        for directive in all_directives(60):
            if directive[0] < 2:
                continue
            word = standard_from_directive(directive)[::-1]
            params = natural_params(word)
            assert params is not None
            assert is_solution(word, params), (directive, word)

    def test_pattern_substitution_solves(self):
        # long reversed standard blocks turn pattern words into solutions
        from tests.test_standard import all_directives

        patterns = []
        for n in range(1, 10):
            orbits = doubling_orbits(n)
            for bits in range(1 << len(orbits)):
                letters = [""] * n
                for k, orbit in enumerate(orbits):
                    for i in orbit:
                        letters[i] = "SL"[bits >> k & 1]
                patterns.append("".join(letters))

        blocks = []
        for directive in all_directives(20):
            if directive[0] < 2:
                continue
            word = standard_from_directive(directive)[::-1]
            params = natural_params(word)
            if params is None:
                continue
            s6 = (params.a + 2) + (params.b + 1) * (params.a + 1)
            if len(word) > s6:
                blocks.append((word, params))
        assert blocks

        for block, params in blocks:
            swapped = exchange_first_two(block)
            # square roots of the four block pairs collapse to the first block
            for left in (block, swapped):
                for right in (block, swapped):
                    assert square_root(left + right, params) == left
            for pattern in patterns:
                image = substitute_pattern(pattern, block)
                assert is_solution(image, params), (block, pattern)
                if is_primitive(pattern):
                    assert is_primitive(image)

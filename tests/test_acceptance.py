"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every expected value here is exact; the only tolerances are the
stated runtime budgets.
"""

import math
import time

import pytest

from sqword.dynamics import (
    find_periodic_shift,
    fixed_point_stream,
    no_square_prefix_word,
    square_prefixes,
    two_periodic_word,
    verify_fixed_point,
)
from sqword.enumeration import brute_force_solutions, count_solutions, orbit_count
from sqword.solutions import (
    Verdict,
    classify,
    doubling_orbits,
    is_pattern_word,
    is_solution,
    substitute_pattern,
)
from sqword.squares import Params, minimal_square_roots, parse, square_root
from sqword.standard import is_reversed_standard, natural_params, standard_from_directive
from sqword.words import (
    are_conjugate,
    exchange_first_two,
    is_primitive,
    primitive_root,
)
from weights import prefix_sums

TABLE_1_TO_36 = [
    1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7,
    7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 14,
    13, 14, 14, 15, 15, 16, 16, 17, 19, 18, 18, 20,
]

ORBIT_COUNTS_1_TO_21 = [1, 1, 2, 1, 2, 2, 3, 1, 3, 2, 2, 2, 2, 3, 5, 1, 3, 3, 2, 2, 6]

FLAGSHIP = "01010010"
P10 = Params(1, 0)


def enumerate_no11(n):
    words = ["0"]
    for _ in range(n - 1):
        words = [w + "0" for w in words] + [w + "1" for w in words if w[-1] != "1"]
    return words


@pytest.fixture(scope="module")
def solutions_to_24():
    """Every brute-forced word of length <= 24 that has parameters."""
    found = {}
    for n in range(1, 25):
        found[n] = brute_force_solutions(n)
    return found


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    computed = [count_solutions(n).formula_count for n in range(1, 37)]
    elapsed = time.perf_counter() - start
    assert computed == TABLE_1_TO_36
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    # the table is non-monotone at n=33; attach the brute-force verdict
    brute33 = len(brute_force_solutions(33))
    formula33 = count_solutions(33).formula_count
    assert formula33 == TABLE_1_TO_36[32] == 19
    assert brute33 == formula33
    print(
        f"\nPASS criterion 1: counts for n=1..36 match the published table in "
        f"{elapsed:.3f}s; no divergence at n=33 (formula 19, table 19, "
        f"brute-force verdict 19: the dip 17,19,18 is genuine)"
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    for n in range(1, 31):
        brute = len(brute_force_solutions(n))
        formula = count_solutions(n).formula_count
        assert brute == formula, f"n={n}: brute {brute} != formula {formula}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"oracle sweep took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 2: brute-force count equals the formula for every "
        f"n <= 30 ({elapsed:.1f}s)"
    )


def test_oracle_equivalence_beyond_30():
    start = time.perf_counter()
    for n in range(31, 67):
        brute = len(brute_force_solutions(n))
        formula = count_solutions(n).formula_count
        assert brute == formula, f"n={n}: brute {brute} != formula {formula}"
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS: brute-force count equals the formula for every "
        f"31 <= n <= 66 ({elapsed:.1f}s)"
    )


def test_criterion_3_large_n_formula():
    start = time.perf_counter()
    value = count_solutions(1736).formula_count
    elapsed = time.perf_counter() - start
    assert value == 1050644
    assert elapsed < 1.0, f"count took {elapsed:.3f}s"
    print(f"\nPASS criterion 3: count_solutions(1736) == 1050644 ({elapsed:.3f}s)")


def test_criterion_4_orbit_counts():
    assert [orbit_count(l) for l in range(1, 22)] == ORBIT_COUNTS_1_TO_21
    for l in range(1, 2001):
        assert orbit_count(l) == len(doubling_orbits(l)), l
    print(
        "\nPASS criterion 4: orbit counts match the published prefix and the "
        "formula equals direct enumeration for every length <= 2000"
    )


def test_criterion_5_worked_example():
    square = FLAGSHIP + FLAGSHIP
    fact = parse(square, P10)
    assert fact.complete and fact.indices == (2, 1, 6)
    assert square_root(square, P10) == FLAGSHIP
    assert is_solution(FLAGSHIP, P10)
    assert classify(FLAGSHIP).verdict is Verdict.TYPE_I
    # scaled by the denominator len(FLAGSHIP) == 8
    assert prefix_sums(FLAGSHIP, FLAGSHIP) == (-3, 2, -1, 4, 1, -2, 3, 0)
    assert len(FLAGSHIP) == 8
    print(
        "\nPASS criterion 5: the worked example (01010010 at a=1, b=0) "
        "factors as squares 2,1,6, solves, classifies type I, and its "
        "prefix sums are (-3,2,-1,4,1,-2,3,0)/8"
    )


def test_criterion_6_pattern_substitution():
    image = substitute_pattern("LSS", FLAGSHIP)
    assert image == "100100100101001001010010"
    result = classify(image)
    assert result.verdict is Verdict.TYPE_II
    assert result.block == FLAGSHIP
    assert result.pattern == "LSS"
    print(
        "\nPASS criterion 6: substituting LSS over 01010010 gives "
        "100100100101001001010010, classified type II with the block and "
        "pattern recovered"
    )


def test_criterion_7_classification_properties(solutions_to_24):
    checked = 0
    for n in range(1, 25):
        solutions = set(solutions_to_24[n])
        for word in enumerate_no11(n):
            is_sol = word in solutions
            result = classify(word)  # never raises ClassificationContradictionError
            assert (result.verdict is not Verdict.NOT_SOLUTION) == is_sol
            if not is_sol:
                continue
            checked += 1
            if is_primitive(word):
                gcd_one = math.gcd(len(word), word.count("1")) == 1
                assert is_reversed_standard(word) == gcd_one, word
            if "1" in word:
                sums = prefix_sums(word, word)
                assert -word.count("1") <= min(sums) <= max(sums) <= word.count("0")
    assert checked >= 100
    print(
        f"\nPASS criterion 7: {checked} brute-forced solutions of length <= 24 "
        f"classify without contradiction; type I matches the coprimality "
        f"criterion on primitive solutions; the narrow-tube inequality holds"
    )


def all_directives(max_len):
    out = []

    def extend(directive):
        out.append(directive)
        d = 1
        while len(standard_from_directive(directive + (d,))) <= max_len:
            extend(directive + (d,))
            d += 1

    d1 = 1
    while d1 <= max_len and len(standard_from_directive((d1,))) <= max_len:
        extend((d1,))
        d1 += 1
    return out


def test_criterion_8_construction_properties():
    # reversed standard words solve for their natural parameters
    reversed_standard = []
    for directive in all_directives(60):
        if directive[0] < 2:
            continue
        word = standard_from_directive(directive)[::-1]
        params = natural_params(word)
        assert params is not None, directive
        assert is_solution(word, params), (directive, word)
        reversed_standard.append((word, params))
    assert len(reversed_standard) > 1000

    # block-pair square root identities for long blocks up to length 60
    long_blocks = 0
    seen = set()
    for word, params in reversed_standard:
        if word in seen:
            continue
        seen.add(word)
        sixth = minimal_square_roots(params)[5]
        if len(word) <= len(sixth):
            continue
        long_blocks += 1
        swapped = exchange_first_two(word)
        for left in (word, swapped):
            for right in (word, swapped):
                assert square_root(left + right, params) == left, (word, params)
    assert long_blocks > 400

    # primitive pattern words have odd length, exhaustively to length 16
    for n in range(1, 17):
        orbits = doubling_orbits(n)
        for bits in range(1 << len(orbits)):
            letters = [""] * n
            for k, orbit in enumerate(orbits):
                for i in orbit:
                    letters[i] = "SL"[bits >> k & 1]
            pattern = "".join(letters)
            assert is_pattern_word(pattern)
            if primitive_root(pattern)[1] == 1:
                assert n % 2 == 1, pattern
    print(
        f"\nPASS criterion 8: {len(reversed_standard)} reversed standard words "
        f"(length <= 60) solve at their natural parameters; the four block-pair "
        f"root identities hold for {long_blocks} long blocks; primitive pattern "
        f"words of length <= 16 all have odd length"
    )


def test_criterion_9_dynamics_suite():
    start = time.perf_counter()
    target = 10**4

    sl_stream = fixed_point_stream(FLAGSHIP, 1)
    assert verify_fixed_point(sl_stream, target)

    for a in (1, 2, 3):
        stream = no_square_prefix_word(a)
        assert verify_fixed_point(stream, target), a
        roots = minimal_square_roots(stream.params)
        window = 4 * len(roots[4] + roots[5] + roots[2] + roots[5])
        prefix = stream.prefix(window)[:window]
        assert square_prefixes(prefix) == [2 * len(roots[4])], a

    for a in (1, 2, 3):
        stream = two_periodic_word(a)
        assert not verify_fixed_point(stream, target, iterations=1), a
        assert verify_fixed_point(stream, target, iterations=2), a

    found = find_periodic_shift(fixed_point_stream(FLAGSHIP, 1), FLAGSHIP)
    assert found is not None
    offset, report = found
    assert offset <= len(FLAGSHIP) ** 2
    assert report.preperiod == 0
    assert are_conjugate(report.period_word, FLAGSHIP)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"dynamics suite took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 9: fixed points verified at 10^4 letters (sl and "
        f"nosquare a=1,2,3); exactly one square prefix each; two-periodic "
        f"words fail the 1-iterate and pass the 2-iterate check; a purely "
        f"periodic shift exists at offset {offset} with period conjugate to "
        f"the block ({elapsed:.1f}s)"
    )

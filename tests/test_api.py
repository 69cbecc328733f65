import sqword

# The public API, pinned: adding or removing a name is an API change, and
# CHANGES.md says why.
PUBLIC_NAMES = [
    "Classification",
    "CountReport",
    "DomainError",
    "Params",
    "PeriodReport",
    "SquareFactorization",
    "SquareStream",
    "Verdict",
    "__version__",
    "are_conjugate",
    "brute_force_solutions",
    "central_word",
    "classify",
    "count_solutions",
    "decompose_blocks",
    "detect_period",
    "directive_of_standard",
    "divisor_count",
    "divisors",
    "doubling_orbits",
    "euler_phi",
    "exchange_first_two",
    "fibonacci_word",
    "find_params",
    "find_periodic_shift",
    "fixed_point_solutions",
    "fixed_point_stream",
    "has_params",
    "in_language",
    "is_pattern_word",
    "is_primitive",
    "is_reversed_standard",
    "is_solution",
    "minimal_square_roots",
    "minimal_squares",
    "natural_params",
    "no_square_prefix_word",
    "orbit_count",
    "order_of_two",
    "parse",
    "pattern_excess",
    "primitive_root",
    "slope",
    "square_prefixes",
    "square_root",
    "standard_from_directive",
    "substitute_pattern",
    "two_periodic_word",
    "verify_fixed_point",
]


def test_public_names_are_pinned():
    assert sorted(sqword.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    for name in sqword.__all__:
        assert hasattr(sqword, name), name

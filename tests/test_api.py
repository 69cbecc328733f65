import dataclasses
import inspect

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


# Every public function, dataclass constructor and method, pinned by its
# parameters and defaults: a new option is an API change too.
SIGNATURES = {
    "Classification": "(verdict, params, bounds, block=None, pattern=None, witness_params=None, root=None)",
    "Classification.to_json": "(self)",
    "CountReport": "(n, formula_count, brute_count, per_divisor)",
    "CountReport.to_json": "(self)",
    "Params": "(a, b=0)",
    "PeriodReport": "(preperiod, period, period_word, conjugate_to=None)",
    "PeriodReport.to_json": "(self)",
    "SquareFactorization": "(indices, params, consumed, complete)",
    "SquareFactorization.root": "(self)",
    "SquareStream": "(params, block_factory, description)",
    "SquareStream.prefix": "(self, min_len)",
    "SquareStream.prefix_blocks": "(self, min_len)",
    "are_conjugate": "(u, v)",
    "brute_force_solutions": "(n)",
    "central_word": "(c, d)",
    "classify": "(word, a_max=None, b_max=None)",
    "count_solutions": "(n, brute=False)",
    "decompose_blocks": "(word)",
    "detect_period": "(word, max_period=None, reference=None)",
    "directive_of_standard": "(word)",
    "divisor_count": "(n)",
    "divisors": "(n)",
    "doubling_orbits": "(n)",
    "euler_phi": "(n)",
    "exchange_first_two": "(word)",
    "fibonacci_word": "(k)",
    "find_params": "(word, a_max=None, b_max=None)",
    "find_periodic_shift": "(stream, block)",
    "fixed_point_solutions": "(block, c=1)",
    "fixed_point_stream": "(block, c=1)",
    "has_params": "(word, a_max=None, b_max=None)",
    "in_language": "(word, params)",
    "is_pattern_word": "(pattern)",
    "is_primitive": "(word)",
    "is_reversed_standard": "(word)",
    "is_solution": "(word, params)",
    "minimal_square_roots": "(params)",
    "minimal_squares": "(params)",
    "natural_params": "(word)",
    "no_square_prefix_word": "(a=1)",
    "orbit_count": "(length)",
    "order_of_two": "(d)",
    "parse": "(word, params)",
    "pattern_excess": "(n, d)",
    "primitive_root": "(word)",
    "slope": "(word)",
    "square_prefixes": "(word)",
    "square_root": "(word, params, trim=False)",
    "standard_from_directive": "(directive)",
    "substitute_pattern": "(pattern, block)",
    "two_periodic_word": "(a=1)",
    "verify_fixed_point": "(stream, target_len, iterations=1)",
}


def bare_signature(fn):
    sig = inspect.signature(fn)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_public_signatures_are_pinned():
    found = {}
    for name in sqword.__all__:
        obj = getattr(sqword, name)
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found[name] = bare_signature(obj)
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    found[f"{name}.{attr}"] = bare_signature(member)
        elif callable(obj):
            found[name] = bare_signature(obj)
    assert found == SIGNATURES

"""Command-line interface.

Every command prints a JSON envelope {"command", "inputs", "result",
"version"} by default; ``--format csv`` and ``--format text`` print the same
plain lines instead: ``n,count`` rows for counting and a minimal
human-readable form elsewhere.  ``--format`` may come before or after the
command; when both are given the later one wins.  Exit codes: 0 success,
1 domain errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from typing import Iterable

from . import __version__
from .dynamics import (
    detect_period,
    fixed_point_stream,
    no_square_prefix_word,
    two_periodic_word,
)
from .enumeration import brute_force_solutions, count_solutions
from .errors import DomainError
from .solutions import _bounds, classify, doubling_orbits, find_params, has_params, is_solution
from .squares import Params, _s6_length, square_root
from .standard import (
    central_word,
    directive_of_standard,
    fibonacci_word,
    standard_from_directive,
)
from .words import slope

# Caps on request sizes, so that no input can exhaust memory or run for
# minutes: brute force keeps only O(n) prefixes on its stack but its time
# grows with n (n = 60 takes about 0.25 s through the CLI on a 2-core box),
# the formula factors n, its odd prime powers and their totients, and each
# divisor d and d - 1 by trial division (the widest range ending at 10^6
# takes about 1.5 s on that box), the word 0 is a solution for every (a, b)
# within explicit bounds, and `orbits --n 10^6` peaks at about 72 MB of RSS
# (71 MB with --format text, whose longest line lists 800,000 residues, joined
# a slice at a time).  Words read or built are capped too.  The `sl` stream's
# memory follows --length; fixed_point_stream bounds its --c.
_MAX_LENGTH = 10**7
_MAX_BRUTE_N = 60
_MAX_COUNT_N = 10**6
_MAX_RANGE_WIDTH = 10**4
_MAX_BOUND = 10**3
_MAX_ORBITS_N = 10**6


def _check_word_length(length: int) -> None:
    if length > _MAX_LENGTH:
        raise DomainError(f"words are capped at {_MAX_LENGTH} letters, got at least {length}")


def _read_word(args) -> str:
    if args.word is not None and args.word_file is not None:
        raise argparse.ArgumentTypeError("take --word or --word-file, not both")
    if args.word_file:
        text = ""
        try:
            with open(args.word_file, encoding="utf-8") as handle:
                # in pieces, so that a file past the cap is refused unread
                for piece in iter(lambda: handle.read(1 << 20), ""):
                    text = (text + piece).lstrip()
                    _check_word_length(len(text.rstrip()))
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read word file: {exc}") from exc
        return text.rstrip()
    if args.word is None:
        raise DomainError("a word is required (use --word or --word-file)")
    _check_word_length(len(args.word))
    return args.word


def _word_report(standard: str, directive: tuple[int, ...], reverse: bool) -> dict:
    ratio = slope(standard)
    return {
        "word": standard[::-1] if reverse else standard,
        "directive": list(directive),
        "central": standard[:-2],
        "slope": f"{ratio.numerator}/{ratio.denominator}",
    }


def _parse_directive(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--directive needs integer terms, got {text!r}"
        ) from None


def _check_standard_length(terms: Iterable[int]) -> None:
    # |s(1)| = d1 and |s(k)| = dk |s(k-1)| + |s(k-2)|, read term by term and
    # stopped past the cap, so that a long directive is never built; a term
    # below 1 is left for standard_from_directive to reject.
    prev, length = 0, 1
    for d in terms:
        if d < 1:
            return
        prev, length = length, d * length + prev
        _check_word_length(length)


def _cmd_gen(args) -> tuple[dict, list[str]]:
    if args.what == "standard":
        directive = _parse_directive(args.directive)
        _check_standard_length(directive)
        result = _word_report(standard_from_directive(directive), directive, args.reversed)
    elif args.what == "fibonacci":
        _check_standard_length(chain((2,), repeat(1, args.k - 1)))
        word = fibonacci_word(args.k)
        result = _word_report(word, directive_of_standard(word), args.reversed)
    else:  # central
        if args.d - 2 > _MAX_LENGTH:
            raise DomainError(f"--d is capped at {_MAX_LENGTH + 2}, got {args.d}")
        word = central_word(args.c, args.d)
        result = {"word": word, "c": args.c, "d": args.d, "length": len(word)}
    return result, [result["word"]]


def _cmd_sqrt(args) -> tuple[dict, list[str]]:
    word = _read_word(args)
    params = Params(args.a, args.b)
    root = square_root(word, params, trim=args.trim)
    result = {
        "word": word,
        "a": args.a,
        "b": args.b,
        "sqrt": root,
        "trimmed": len(word) - 2 * len(root) if args.trim else 0,
    }
    return result, [root]


def _check_bounds(args) -> None:
    # the parameter bounds of check and classify, and the caps of list
    for name in ("a_max", "b_max", "a_cap", "b_cap"):
        bound = getattr(args, name, None)
        if bound is not None and bound > _MAX_BOUND:
            flag = "--" + name.replace("_", "-")
            raise DomainError(f"{flag} is capped at {_MAX_BOUND}, got {bound}")


def _cmd_check(args) -> tuple[dict, list[str]]:
    if args.a is not None and (args.a_max is not None or args.b_max is not None):
        raise argparse.ArgumentTypeError("check takes --a or --a-max/--b-max, not both")
    if args.a is None and args.b:
        raise argparse.ArgumentTypeError("check takes --b only with --a")
    word = _read_word(args)
    if args.a is not None:
        params = Params(args.a, args.b)
        ok = is_solution(word, params)
        result = {"word": word, "a": args.a, "b": args.b, "solution": ok}
        return result, ["solution" if ok else "not a solution"]
    _check_bounds(args)
    bounds = list(_bounds(word, args.a_max, args.b_max))
    found = sorted(find_params(word, *bounds))
    result = {
        "word": word,
        "params": [[p.a, p.b] for p in found],
        "solution": bool(found),
        "bounds": bounds,
    }
    return result, ["solution" if found else "not a solution"]


def _cmd_classify(args) -> tuple[dict, list[str]]:
    word = _read_word(args)
    _check_bounds(args)
    verdict = classify(word, args.a_max, args.b_max)
    result = verdict.to_json()
    result["word"] = word
    return result, [verdict.verdict.value]


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--range needs LO..HI, got {text!r}") from None


def _check_count(n: int, brute: bool) -> None:
    if brute and n > _MAX_BRUTE_N:
        raise DomainError(f"brute force is capped at n = {_MAX_BRUTE_N}, got n = {n}")
    if n > _MAX_COUNT_N:
        raise DomainError(f"count is capped at n = {_MAX_COUNT_N}, got n = {n}")


def _cmd_count(args) -> tuple[object, list[str]]:
    # --n N is the range N..N, answered as one object instead of a list
    if args.range and args.n is not None:
        raise argparse.ArgumentTypeError("count needs --n or --range, not both")
    if args.range:
        lo, hi = _parse_range(args.range)
        if hi - lo + 1 > _MAX_RANGE_WIDTH:
            raise DomainError(f"--range is capped at {_MAX_RANGE_WIDTH} lengths, got {lo}..{hi}")
    elif args.n is not None:
        lo = hi = args.n
    else:
        raise argparse.ArgumentTypeError("count needs --n or --range")
    _check_count(hi, args.brute)
    reports = [count_solutions(n, brute=args.brute) for n in range(lo, hi + 1)]
    result = [r.to_json() for r in reports]
    return (result if args.range else result[0]), [f"{r.n},{r.formula_count}" for r in reports]


def _cmd_list(args) -> tuple[dict, list[str]]:
    _check_count(args.n, True)
    _check_bounds(args)
    found = [w for w in brute_force_solutions(args.n) if has_params(w, args.a_cap, args.b_cap)]
    result = {"n": args.n, "count": len(found), "solutions": found}
    return result, found


def _spaced(values: tuple[int, ...]) -> str:
    # " ".join(map(str, values)), 4,096 values at a time: join makes a list of
    # its whole argument, and a str per residue would take about 45 MB for
    # the 800,000 residues of one orbit at n = 10^6
    return " ".join(" ".join(map(str, values[i : i + 4096])) for i in range(0, len(values), 4096))


def _cmd_orbits(args) -> tuple[dict, Iterable[str]]:
    if args.n > _MAX_ORBITS_N:
        raise DomainError(f"--n is capped at {_MAX_ORBITS_N}, got {args.n}")
    orbits = doubling_orbits(args.n)
    result = {"n": args.n, "orbit_count": len(orbits), "orbits": orbits}
    # json.dumps writes the tuples as lists; the lines are built only if printed
    return result, map(_spaced, orbits)


def _cmd_fixedpoint(args) -> tuple[dict, list[str]]:
    if args.kind != "sl" and (args.word is not None or args.c != 1):
        raise argparse.ArgumentTypeError("fixedpoint takes --word and --c only with --kind sl")
    if args.length > _MAX_LENGTH:
        raise DomainError(f"--length is capped at {_MAX_LENGTH} letters, got {args.length}")
    if args.kind == "sl":
        if not args.word:
            raise DomainError("kind 'sl' needs --word with a reversed standard block")
        stream = fixed_point_stream(args.word, args.c)
        if args.a is not None and args.a != stream.params.a:
            raise DomainError(f"--a {args.a} conflicts with the block's natural value {stream.params.a}")
    else:
        if args.a is None:
            raise DomainError(f"kind {args.kind!r} needs --a")
        if 2 * _s6_length(Params(args.a)) > _MAX_LENGTH:
            raise DomainError(f"--a is capped at {(_MAX_LENGTH - 6) // 4}, got {args.a}")
        maker = no_square_prefix_word if args.kind == "nosquare" else two_periodic_word
        stream = maker(args.a)
    prefix, trace = stream.prefix_blocks(args.length)
    result = {
        "kind": args.kind,
        "a": stream.params.a,
        "b": stream.params.b,
        "c": args.c if args.kind == "sl" else None,
        "block_word": args.word,
        "description": stream.description,
        "length": len(prefix),
        "prefix": prefix,
        "blocks": trace,
    }
    return result, [prefix]


def _cmd_period(args) -> tuple[dict, list[str]]:
    word = _read_word(args)
    report = detect_period(word, args.max_period, args.reference)
    if report is None:
        return {"word": word, "period": None}, ["no period found"]
    result = report.to_json()
    result["word"] = word
    lines = [f"preperiod {report.preperiod} period {report.period} ({report.period_word})"]
    return result, lines


class _Parser(argparse.ArgumentParser):
    # argparse's wording of a bad choice differs between releases: 3.13.13
    # drops the quotes around the choices that 3.10 to 3.13.0 print.  The
    # CLI keeps the quoted wording on every interpreter; subparsers inherit
    # this class.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqword",
        description="Square-root solutions over minimal squares: generate, check, classify, count.",
    )
    formats = ("json", "csv", "text")
    parser.add_argument("--format", choices=formats, default="json")
    # a --format after the command overrides one before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
    worded = argparse.ArgumentParser(add_help=False, parents=[common])
    worded.add_argument("--word")
    worded.add_argument("--word-file")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate standard, fibonacci or central words")
    gensub = gen.add_subparsers(dest="what", required=True)
    g_std = gensub.add_parser("standard", parents=[common])
    g_std.add_argument("--directive", required=True, help="comma separated terms, e.g. 2,1,1,1")
    g_std.add_argument("--reversed", action="store_true", help="emit the reversal")
    g_fib = gensub.add_parser("fibonacci", parents=[common])
    g_fib.add_argument("--k", type=int, required=True)
    g_fib.add_argument("--reversed", action="store_true")
    g_cen = gensub.add_parser("central", parents=[common])
    g_cen.add_argument("--c", type=int, required=True)
    g_cen.add_argument("--d", type=int, required=True)

    sq = sub.add_parser("sqrt", parents=[worded], help="square root of a word")
    sq.add_argument("--a", type=int, required=True)
    sq.add_argument("--b", type=int, default=0)
    sq.add_argument("--trim", action="store_true", help="trim to complete squares first")

    chk = sub.add_parser("check", parents=[worded], help="is the word a solution?")
    chk.add_argument("--a", type=int)
    chk.add_argument("--b", type=int, default=0)
    chk.add_argument("--a-max", type=int)
    chk.add_argument("--b-max", type=int)

    cls = sub.add_parser("classify", parents=[worded], help="classify a word against the solution trichotomy")
    cls.add_argument("--a-max", type=int)
    cls.add_argument("--b-max", type=int)

    cnt = sub.add_parser("count", parents=[common], help="count solutions of a length (formula, optionally brute)")
    cnt.add_argument("--n", type=int)
    cnt.add_argument("--range", help="inclusive range, e.g. 1..36")
    cnt.add_argument("--brute", action="store_true")

    lst = sub.add_parser("list", parents=[common], help="list all solutions of a length")
    lst.add_argument("--n", type=int, required=True)
    lst.add_argument("--a-cap", type=int)
    lst.add_argument("--b-cap", type=int)

    orb = sub.add_parser("orbits", parents=[common], help="doubling-map orbit partition")
    orb.add_argument("--n", type=int, required=True)

    fix = sub.add_parser("fixedpoint", parents=[common], help="materialize a square-root dynamics stream")
    fix.add_argument("--kind", choices=("sl", "nosquare", "biperiodic"), required=True)
    fix.add_argument("--a", type=int)
    fix.add_argument("--c", type=int, default=1)
    fix.add_argument("--word", help="reversed standard block for kind 'sl'")
    fix.add_argument("--length", type=int, required=True)

    per = sub.add_parser("period", parents=[worded], help="detect eventual periodicity of a word")
    per.add_argument("--max-period", type=int)
    per.add_argument("--reference", help="word to compare the period against, up to rotation")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # looked up by name at call time, so that wrappers installed on the
        # module are the ones that run
        result, lines = globals()["_cmd_" + args.command](args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        inputs = {
            k: v for k, v in vars(args).items() if k not in ("command", "format") and v is not None
        }
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
        }
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

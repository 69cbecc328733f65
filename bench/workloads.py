"""The three benchmark workloads as seeded passes of checked operations.

A pass is a fixed list of operation slots; the seed only chooses the words
inside each slot (the runner chooses the order), so every pass of a
workload costs about the same and runs with different seeds stay
comparable.  Each operation calls
the package once, either in-process through ``sqword.cli.main`` (stdout
captured, JSON envelope parsed) or through a public library function, and
is checked against ``reference`` answers that do not come from the package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

# Stream prefixes are this many letters long, as in ROADMAP's
# verify_fixed_point row.
STREAM_LETTERS = 1_000_000
# The oracle brute-forces this window of lengths in every pass.
ORACLE_WINDOW = range(20, 27)


@dataclass
class Op:
    """One checked call into the package.

    ``call`` is the timed part and returns the raw output; ``check`` tells
    whether that output is right; ``wrong`` turns a right output into a
    plausible wrong one, for the checker self-test; ``work`` counts letters
    (stream) or queries and lengths (query, oracle).
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    wrong: Callable[[Any], Any]
    work: int = 1


class Runner:
    """Calls into one imported package; ``on_output`` sees CLI stdout sizes."""

    def __init__(self, sqword):
        self.sq = sqword
        self.on_output: Callable[[int], None] | None = None

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.sq.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if self.on_output is not None:
            self.on_output(len(text.encode()))
        return code, text


def _envelope(raw: tuple[int, str], command: str) -> dict:
    code, text = raw
    if code != 0:
        raise ValueError(f"exit code {code}")
    envelope = json.loads(text)
    if envelope["command"] != command:
        raise ValueError(f"envelope for {envelope['command']!r}")
    return envelope["result"]


def _edit_envelope(raw: tuple[int, str], edit: Callable[[dict], None]) -> tuple[int, str]:
    envelope = json.loads(raw[1])
    edit(envelope["result"])
    return raw[0], json.dumps(envelope)


# ---------------------------------------------------------------- oracle


def oracle_pass(run: Runner, rng, index: int) -> list[Op]:
    """`count --n N --brute` over the whole window."""
    return [_count_op(run, n) for n in ORACLE_WINDOW]


def _count_op(run: Runner, n: int) -> Op:
    def check(raw) -> bool:
        result = _envelope(raw, "count")
        published = ref.TABLE_1_TO_36[n - 1]
        return result["n"] == n and result["count"] == result["brute_count"] == published

    def wrong(raw):
        return _edit_envelope(raw, lambda r: r.update(brute_count=r["brute_count"] + 1))

    argv = ["count", "--n", str(n), "--brute"]
    return Op("count", lambda: run.cli(argv), check, wrong)


# ---------------------------------------------------------------- stream


def stream_pass(run: Runner, rng, index: int) -> list[Op]:
    """Fixed points at STREAM_LETTERS letters, through the CLI and through
    ``verify_fixed_point``.

    Every pass runs the `sl` fixed point over a seeded 84..91-letter block,
    for which the stream re-factors about 1.2 times the letters asked for,
    plus `nosquare` and `biperiodic`.  The value of a cycles through 1, 2, 3
    with the pass index, so every slot of the pass sees each value of a
    while the passes cost about the same.
    """
    a = 1 + index % 3
    block, params = ref.long_block(rng, a + 1, 84, 91)
    return [
        _fixedpoint_op(run, ["--kind", "sl", "--word", block], params, block),
        _verify_op(run, lambda: run.sq.fixed_point_stream(block), 1, True),
        _fixedpoint_op(run, ["--kind", "nosquare", "--a", str(a)], (a, 0), None),
        _verify_op(run, lambda: run.sq.no_square_prefix_word(a), 1, True),
        _fixedpoint_op(run, ["--kind", "biperiodic", "--a", str(a)], (a, 0), None),
        # the two-periodic word is moved by one square root, restored by two
        _verify_op(run, lambda: run.sq.two_periodic_word(a), 1, False),
        _verify_op(run, lambda: run.sq.two_periodic_word(a), 2, True),
    ]


def _fixedpoint_op(run: Runner, kind_args: list[str], params, block: str | None) -> Op:
    argv = ["fixedpoint", *kind_args, "--length", str(STREAM_LETTERS)]

    def check(raw) -> bool:
        result = _envelope(raw, "fixedpoint")
        prefix = result["prefix"]
        if (result["a"], result["b"]) != params or result["length"] != len(prefix):
            return False
        if len(prefix) < STREAM_LETTERS or ref.expand_blocks(result["blocks"], *params) != prefix:
            return False
        if block is not None:
            return prefix.startswith(ref.fixed_point_prefix(block, len(prefix)))
        if kind_args[1] == "nosquare":
            # the defining property: exactly one square prefix
            head = prefix[:4000]
            return sum(head[:k] == head[k : 2 * k] for k in range(1, 2001)) == 1
        return True

    def wrong(raw):
        def flip_last(result):
            p = result["prefix"]
            result["prefix"] = p[:-1] + ("1" if p[-1] == "0" else "0")

        return _edit_envelope(raw, flip_last)

    return Op("fixedpoint", lambda: run.cli(argv), check, wrong, STREAM_LETTERS)


def _verify_op(run: Runner, make_stream, iterations: int, expected: bool) -> Op:
    def call():
        return run.sq.verify_fixed_point(make_stream(), STREAM_LETTERS, iterations)

    # letters materialized plus letters verified
    return Op("verify", call, lambda got: got is expected, lambda got: not got, 2 * STREAM_LETTERS)


# ---------------------------------------------------------------- query

# Queries per pass by category.  Type I words come with a natural_params
# query each; one classify query in four goes through the CLI.
QUERY_MIX = {"type1": 20, "type2": 20, "power": 16, "nonsolution": 20, "short": 4}


def query_pass(run: Runner, rng, index: int) -> list[Op]:
    """Single-word requests over many distinct slopes and parameters."""
    ops: list[Op] = []
    classify_ops: list[Callable[[bool], Op]] = []
    for _ in range(QUERY_MIX["type1"]):
        word, params = ref.type_one(rng, 5, 320)
        classify_ops.append(lambda cli, w=word, p=params: _classify_op(run, w, cli, "TypeI", params=p))
        ops.append(_natural_params_op(run, word, params))
    images = []
    for _ in range(QUERY_MIX["type2"]):
        block, _params = ref.long_block(rng, rng.randint(2, 4), 5, 60)
        pattern = ref.pattern_word(rng, 10)
        image = ref.substitute(pattern, block)
        images.append(image)
        witnesses = ref.read_back(pattern, block)
        classify_ops.append(lambda cli, w=image, sw=witnesses: _classify_op(run, w, cli, "TypeII", blocks=sw))
    for i in range(QUERY_MIX["power"]):
        root = rng.choice(images) if i % 2 else ref.type_one(rng, 5, 130)[0]
        k = rng.choice((2, 3)) if len(root) <= 130 else 2
        classify_ops.append(lambda cli, r=root, k=k: _classify_op(run, r * k, cli, "PowerOfPrimitive", root=(r, k)))
    made = 0
    while made < QUERY_MIX["nonsolution"]:
        block, _params = ref.long_block(rng, rng.randint(2, 4), 5, 60)
        image = ref.substitute(ref.non_pattern_word(rng, 10), block)
        if ref.is_primitive(image):
            classify_ops.append(lambda cli, w=image: _classify_op(run, w, cli, "NotSolution"))
            made += 1
    for _ in range(QUERY_MIX["short"]):
        classify_ops.append(_short_word(run, rng))
    for i, make in enumerate(classify_ops):
        ops.append(make(i % 4 == 0))
    return ops


def _short_word(run: Runner, rng) -> Callable[[bool], Op]:
    """A word with fewer than two 1s, which classify answers by trying every
    (a, b) in its bounds.  0 1 0^j and 1 0^j are reversed standard (type I),
    0^d is a power of the solution 0, and 0^i 1 0^j with i >= 2 is primitive
    and neither reversed standard nor a block image, so not a solution."""
    d = rng.randint(8, 16)
    i = rng.randint(0, d)
    if i == d:
        return lambda cli: _classify_op(run, "0" * d, cli, "PowerOfPrimitive", root=("0", d))
    word = "0" * i + "1" + "0" * (d - 1 - i)
    verdict = "TypeI" if i <= 1 else "NotSolution"
    return lambda cli: _classify_op(run, word, cli, verdict)


def _classify_op(run: Runner, word: str, via_cli: bool, verdict: str, params=None, blocks=None, root=None) -> Op:
    def check(raw) -> bool:
        got = _classification(raw, via_cli)
        if got["verdict"] != verdict:
            return False
        if verdict == "NotSolution":
            return not got["params"]
        if params is not None and params not in got["params"]:
            return False
        if blocks is not None and (got["S"], got["u"]) != blocks:
            return False
        return root is None or got["root"] == root

    def wrong(raw):
        flipped = "NotSolution" if verdict != "NotSolution" else "TypeI"
        if via_cli:
            return _edit_envelope(raw, lambda r: r.update(verdict=flipped))
        return dataclasses.replace(raw, verdict=run.sq.Verdict(flipped))

    if via_cli:
        argv = ["classify", "--word", word]
        return Op("classify-cli", lambda: run.cli(argv), check, wrong)
    return Op("classify", lambda: run.sq.classify(word), check, wrong)


def _classification(raw, via_cli: bool) -> dict:
    if via_cli:
        result = _envelope(raw, "classify")
        return {
            "verdict": result["verdict"],
            "params": {tuple(p) for p in result["params"]},
            "S": result["S"],
            "u": result["u"],
            "root": tuple(result["root"]) if result["root"] else None,
        }
    return {
        "verdict": raw.verdict.value,
        "params": {(p.a, p.b) for p in raw.params},
        "S": raw.block,
        "u": raw.pattern,
        "root": raw.root,
    }


def _natural_params_op(run: Runner, word: str, params) -> Op:
    def check(got) -> bool:
        return got is not None and (got.a, got.b) == params

    def wrong(got):
        return dataclasses.replace(got, a=got.a + 1)

    return Op("natural_params", lambda: run.sq.natural_params(word), check, wrong)


WORKLOADS = {"oracle": oracle_pass, "stream": stream_pass, "query": query_pass}

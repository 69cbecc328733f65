"""Per-layer counters and spans for the traced benchmark run.

The tracer wraps public functions of the package where their callers look
them up: every module attribute (and the package attribute) bound to the
function is replaced while the tracer is installed, so calls between modules
and calls from the benchmark both pass through the wrapper.  Hot functions
(millions of calls on the oracle) only add to per-name call counts, total
time and self time; the outer ones also record a span with the id of the
span that caused it and of the benchmark operation it belongs to.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("words", "squares", "standard", "solutions", "enumeration", "dynamics", "cli")

# (module, attribute, trace name, record a span)
TARGETS = (
    ("words", "check_binary", "words.check_binary", False),
    ("squares", "scan_minimal_squares", "squares.scan", False),
    ("squares", "in_language", "squares.in_language", False),
    ("standard", "is_reversed_standard", "standard.is_reversed_standard", False),
    ("standard", "natural_params", "standard.natural_params", True),
    ("solutions", "is_solution", "solutions.is_solution", False),
    ("solutions", "has_params", "solutions.has_params", False),
    ("solutions", "find_params", "solutions.find_params", False),
    ("solutions", "classify", "solutions.classify", True),
    ("enumeration", "brute_force_solutions", "enumeration.brute", True),
    ("enumeration", "count_solutions", "enumeration.count", True),
    ("dynamics", "verify_fixed_point", "dynamics.verify", True),
    ("cli", "main", "cli.main", True),
)


class _Frame:
    __slots__ = ("name", "child", "span", "scanned")

    def __init__(self, name: str, span: int | None):
        self.name = name
        self.child = 0.0  # time covered by wrapped callees
        self.span = span
        self.scanned = 0  # letters the stream generator scanned under this frame


class Tracer:
    def __init__(self, sqword):
        self.sq = sqword
        self.modules = [sqword] + [sys.modules[f"sqword.{name}"] for name in LAYERS]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.pairs: set[tuple[int, int]] = set()
        self.spans: list[tuple] = []
        self.stack = [_Frame("benchmark", None)]
        self.op = 0
        self.origin = time.perf_counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> None:
        for module, attr, name, span in TARGETS:
            self._replace(getattr(self.sq, module).__dict__[attr], name, span)
        cli = self.sq.cli
        for attr, fn in list(vars(cli).items()):
            if attr.startswith("_cmd_"):
                self._replace(fn, "cli.command", True)
        stream = self.sq.dynamics.SquareStream
        original = stream.prefix_blocks
        self._undo.append((stream, "prefix_blocks", original))
        stream.prefix_blocks = self._wrap(original, "dynamics.prefix", True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, fn, name: str, span: bool) -> None:
        wrapper = self._wrap(fn, name, span)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, name: str, span: bool):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name, len(self.spans) if span else parent.span)
            if span:
                self.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent.child += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame.child
                if span:
                    self.spans[frame.span] = (
                        frame.span, parent.span, self.op, name,
                        round(start - self.origin, 6), round(elapsed, 6),
                    )
            if hook is not None:
                hook(frame, parent, args, result, elapsed)
            return result

        return wrapper

    def begin_op(self) -> None:
        self.op += 1

    # -- hooks: counters measured where the work happens

    def _on_squares_scan(self, frame, parent, args, result, elapsed):
        word, params = args[0], args[1]
        consumed = result[1]
        self.counts["scan.letters"] += consumed
        self.counts["scan.complete"] += consumed == len(word)
        self.pairs.add((params.a, params.b))
        if parent.name == "dynamics.prefix":
            parent.scanned += len(word)

    def _on_squares_in_language(self, frame, parent, args, result, elapsed):
        self.counts["in_language.letters"] += len(args[0])
        self.pairs.add((args[1].a, args[1].b))

    def _on_solutions_is_solution(self, frame, parent, args, result, elapsed):
        self.counts["is_solution.true"] += bool(result)
        if parent.name == "solutions.has_params":
            self.counts["is_solution.in_has_params"] += 1

    def _on_solutions_has_params(self, frame, parent, args, result, elapsed):
        self.counts["exhaustive"] += args[0].count("1") < 2
        if parent.name == "enumeration.brute":
            self.counts["candidates"] += 1
            self.counts["solutions"] += bool(result)

    def _on_solutions_find_params(self, frame, parent, args, result, elapsed):
        self.counts["exhaustive"] += args[0].count("1") < 2

    def _on_standard_natural_params(self, frame, parent, args, result, elapsed):
        self.durations["natural_params"].append(elapsed)

    def _on_dynamics_prefix(self, frame, parent, args, result, elapsed):
        self.counts["prefix.letters"] += len(result[0])
        if frame.scanned:
            self.counts["overshoot.scanned"] += frame.scanned
            self.counts["overshoot.requested"] += args[1]

    # -- results

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit); counts and seconds are per pass."""
        c, t = self.calls, self.total
        counts = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def per_letter_us(name, letters):
            return ratio(t[name] * 1e6, counts[letters])

        natural = sorted(self.durations["natural_params"])
        p99 = natural[math.ceil(0.99 * len(natural)) - 1] * 1e3 if natural else 0.0
        per_pass = {
            "enumeration.candidates": (counts["candidates"], "count"),
            "enumeration.solutions": (counts["solutions"], "count"),
            "enumeration.self_s": (self.self_time["enumeration.brute"], "s"),
            "enumeration.formula_s": (self.self_time["enumeration.count"], "s"),
            "solutions.has_params.calls": (c["solutions.has_params"], "count"),
            "solutions.has_params.s": (t["solutions.has_params"], "s"),
            "solutions.is_solution.calls": (c["solutions.is_solution"], "count"),
            "solutions.is_solution.s": (t["solutions.is_solution"], "s"),
            "solutions.classify.calls": (c["solutions.classify"], "count"),
            "solutions.classify.s": (t["solutions.classify"], "s"),
            "solutions.exhaustive_words": (counts["exhaustive"], "count"),
            "squares.scan.calls": (c["squares.scan"], "count"),
            "squares.scan.letters": (counts["scan.letters"], "letters"),
            "squares.in_language.calls": (c["squares.in_language"], "count"),
            "squares.in_language.letters": (counts["in_language.letters"], "letters"),
            "standard.natural_params.calls": (c["standard.natural_params"], "count"),
            "standard.natural_params.s": (t["standard.natural_params"], "s"),
            "standard.is_reversed_standard.calls": (c["standard.is_reversed_standard"], "count"),
            "standard.is_reversed_standard.s": (t["standard.is_reversed_standard"], "s"),
            "dynamics.prefix.letters": (counts["prefix.letters"], "letters"),
            "dynamics.prefix.s": (t["dynamics.prefix"], "s"),
            "dynamics.requested_letters": (counts["overshoot.requested"], "letters"),
            "dynamics.verify.calls": (c["dynamics.verify"], "count"),
            "dynamics.verify.s": (t["dynamics.verify"], "s"),
            "words.check_binary.calls": (c["words.check_binary"], "count"),
            "words.check_binary.s": (t["words.check_binary"], "s"),
            "cli.main.s": (t["cli.main"], "s"),
            "cli.emit_s": (t["cli.main"] - t["cli.command"], "s"),
            "cli.output_bytes": (counts["cli.output_bytes"], "bytes"),
        }
        out = {name: (value / passes, unit + "/pass") for name, (value, unit) in per_pass.items()}
        out.update({
            "enumeration.yield": (ratio(counts["solutions"], counts["candidates"]), "ratio"),
            "solutions.is_solution.true_ratio": (
                ratio(counts["is_solution.true"], c["solutions.is_solution"]), "ratio"
            ),
            "solutions.params_per_candidate": (
                ratio(counts["is_solution.in_has_params"], c["solutions.has_params"]), "ratio"
            ),
            "squares.scan.us_per_letter": (per_letter_us("squares.scan", "scan.letters"), "us/letter"),
            "squares.scan.complete_ratio": (ratio(counts["scan.complete"], c["squares.scan"]), "ratio"),
            "squares.in_language.us_per_letter": (
                per_letter_us("squares.in_language", "in_language.letters"), "us/letter"
            ),
            "squares.param_pairs": (len(self.pairs), "count"),
            "standard.natural_params.p99_ms": (p99, "ms"),
            "dynamics.scan_overshoot": (
                ratio(counts["overshoot.scanned"], counts["overshoot.requested"]), "ratio"
            ),
        })
        return out

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "op", "name", "start_s", "duration_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(dict(zip(fields, span))) + "\n")

"""Run one sqword benchmark workload and print its metrics.

    python3 bench/run.py --workload oracle|stream|query --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

The package is imported from ``src/`` next to this directory, in this
process, with SQWORD_THREADS removed from the environment so the serial
path is measured.  The run repeats seeded passes of the workload (see
``workloads.py``) as many times as fit in ``--seconds``, checks
every answer, and prints two JSON lines: a report (environment, sample
counts, failures) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median over fresh interpreters of importing ``sqword`` and
  ``sqword.cli`` and building the CLI parser;
* ``pass_s``: seconds spent in the package per pass, the sum over the
  pass's operation slots of each slot's median latency across passes (a
  stall hitting one operation does not move it);
* ``op_p50_ms``: the median over the slots of those slot medians;
* ``op_tail_ms``: tail latency of single operations (see TAIL_PERCENTILE);
* ``peak_rss_mb``: peak resident memory of this process.

The host these numbers come from is shared and its speed drifts, so every
time is reported at a reference host speed: the run times the calibration
kernel of ``calibration.py`` before an operation every half second and
before each set-up run, and multiplies every time by REFERENCE_S over the
median kernel time.  The report line keeps the raw times.

With ``--trace 1`` the same passes run untraced for a third of the time and
then again traced; the metrics are the per-layer ones of ``tracer.py``
(counts and seconds per pass) plus the tracing overhead, and the spans are
written to ``.bench_out/`` in the checkout.

``--selftest`` feeds the checker one deliberately wrong answer for every
kind of operation of every workload and exits 0 only if each is counted as
a failure while the right answers pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, kernel_seconds
from tracer import Tracer
from workloads import WORKLOADS, Runner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
# op_tail_ms: the query workload runs thousands of different operations, so
# its tail is the 99th percentile, with well over ten samples beyond it.  The
# oracle and stream workloads repeat a few fixed operations per pass, so no
# percentile has ten samples beyond it; their tail is the median across
# passes of the slowest slot (n = 26; a verify_fixed_point call).
TAIL_PERCENTILE = {"oracle": None, "stream": None, "query": 99}
# A calibration sample is taken before an operation when this long has
# passed since the last one.
KERNEL_EVERY_S = 0.5

os.environ.pop("SQWORD_THREADS", None)

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sqword, sqword.cli
sqword.cli.build_parser()
print(time.perf_counter() - start)
"""


def import_package():
    if not (SRC / "sqword" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sqword'}")
    sys.path.insert(0, str(SRC))
    import sqword
    import sqword.cli

    if Path(sqword.__file__).resolve().parent != SRC / "sqword":
        sys.exit(f"error: imported sqword from {sqword.__file__}, not {SRC}")
    return sqword


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, each after a calibration sample."""
    runs, kernel = [], []
    for _ in range(SETUP_RUNS):
        kernel.append(kernel_seconds())
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        runs.append(float(done.stdout))
    return runs, kernel


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqword").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "SQWORD_THREADS": None,
    }


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Measurement:
    """Latencies per pass slot, and failures, of a sequence of passes."""

    def __init__(self):
        self.slots: list[list[float]] = []  # slots[j]: latencies of slot j, one per pass
        self.passes = 0
        self.work = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.kernel: list[float] = []  # calibration kernel samples

    @property
    def latencies(self) -> list[float]:
        return sorted(t for slot in self.slots for t in slot)

    @property
    def busy(self) -> float:
        return sum(t for slot in self.slots for t in slot)



def run_op(op, fault: bool) -> tuple[float, bool]:
    start = time.perf_counter()
    try:
        raw = op.call()
    except Exception:  # a failing call is a counted miss, not a crash
        return time.perf_counter() - start, False
    elapsed = time.perf_counter() - start
    if fault:
        raw = op.wrong(raw)
    try:
        return elapsed, bool(op.check(raw))
    except Exception:  # malformed output is a miss too
        return elapsed, False


def run_passes(make_pass, runner, workload, seed, budget=None, count=None, tracer=None):
    """Run *count* passes, or while another pass at the mean pace so far
    fits in *budget* seconds (at least one), each in a seeded order."""
    m = Measurement()
    last = float("-inf")
    start = time.perf_counter()
    while count is None or m.passes < count:
        rng = random.Random(f"{workload}:{seed}:{m.passes}")
        ops = make_pass(runner, rng, m.passes)
        if not m.slots:
            m.slots = [[] for _ in ops]
        order = list(range(len(ops)))
        rng.shuffle(order)
        for j in order:
            if tracer is None and time.perf_counter() - last >= KERNEL_EVERY_S:
                m.kernel.append(kernel_seconds())
                last = time.perf_counter()
            if tracer is not None:
                tracer.begin_op()
            elapsed, ok = run_op(ops[j], fault=False)
            m.slots[j].append(elapsed)
            m.work += ops[j].work
            m.attempted += 1
            if not ok:
                m.failures.append(f"pass {m.passes} {ops[j].kind}")
        m.passes += 1
        if count is None and (time.perf_counter() - start) * (m.passes + 1) / m.passes > budget:
            break
    return m


def end_to_end(m: Measurement, setup: list[float], setup_kernel: list[float], tail_percentile: int | None):
    """End-to-end metrics at the reference host speed, and a report with the
    raw values."""
    slot_medians = [statistics.median(slot) for slot in m.slots]
    if tail_percentile is None:
        tail = max(slot_medians)
        tail_of = f"median over {m.passes} passes of the slowest slot"
    else:
        tail, beyond = percentile(m.latencies, tail_percentile)
        tail_of = f"p{tail_percentile} of {len(m.latencies)} operations, {beyond} beyond it"
    raw = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(slot_medians),
        "op_p50_ms": statistics.median(slot_medians) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    kernel = statistics.median(m.kernel + setup_kernel)
    metrics = {name: (value * REFERENCE_S / kernel, name.rpartition("_")[2]) for name, value in raw.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    details = {
        "tail": tail_of,
        "work_per_s": m.work / m.busy,
        "setup_runs_s": setup,
        "raw": raw,
        "kernel_s": kernel,
        "kernel_samples": len(m.kernel) + len(setup_kernel),
    }
    return metrics, details


def per_layer(untraced: Measurement, traced: Measurement, tracer) -> dict:
    passes = traced.passes
    metrics = tracer.metrics(passes)
    untraced_s, traced_s = untraced.busy, traced.busy
    metrics["trace.untraced_s"] = (untraced_s / passes, "s/pass")
    metrics["trace.traced_s"] = (traced_s / passes, "s/pass")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def selftest(sqword) -> int:
    runner = Runner(sqword)
    caught = True
    for workload, make_pass in WORKLOADS.items():
        ops = make_pass(runner, random.Random(f"{workload}:0:0"), 0)
        kinds = {}
        for op in ops:
            kinds.setdefault(op.kind, op)
        attempted = failed = 0
        for kind, op in sorted(kinds.items()):
            _, right_ok = run_op(op, fault=False)
            _, wrong_ok = run_op(op, fault=True)
            attempted += 2
            failed += (not right_ok) + (not wrong_ok)
            caught &= right_ok and not wrong_ok
            print(f"{workload:7s} {kind:15s} right answer passes: {right_ok}; wrong answer counted: {not wrong_ok}")
        print(f"{workload:7s} fail_ratio with one wrong answer per kind: {failed}/{attempted}")
    print("selftest", "passed" if caught else "FAILED")
    return 0 if caught else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("oracle", "stream", "query"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    sqword = import_package()
    if args.selftest:
        return selftest(sqword)
    if args.workload is None:
        parser.error("--workload is required")

    make_pass = WORKLOADS[args.workload]
    runner = Runner(sqword)
    report = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    if args.trace:
        untraced = run_passes(make_pass, runner, args.workload, args.seed, budget=args.seconds / 3)
        tracer = Tracer(sqword)
        runner.on_output = lambda n: tracer.counts.update({"cli.output_bytes": n})
        tracer.install()
        try:
            traced = run_passes(
                make_pass, runner, args.workload, args.seed,
                count=untraced.passes, tracer=tracer,
            )
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        report["spans"] = str(spans.relative_to(ROOT))
        runs = [untraced, traced]
    else:
        setup, setup_kernel = measure_setup()
        measured = run_passes(make_pass, runner, args.workload, args.seed, budget=args.seconds)
        metrics, details = end_to_end(measured, setup, setup_kernel, TAIL_PERCENTILE[args.workload])
        report.update(details)
        runs = [measured]
    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    report.update({
        "passes": [m.passes for m in runs],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

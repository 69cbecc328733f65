"""Run workloads over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --workloads oracle stream query --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median over the seeds, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median and, for end-to-end metrics, the bound from BENCHMARK.json; a spread
above a third of the bound is flagged.  ``--out`` also writes the runs and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["oracle", "stream", "query"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT).stdout.splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            runs.setdefault(workload, []).append({"seed": seed, "report": report, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} passes={report['passes']}", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            stats = summarize(values)
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = "  SPREAD > bound/3" if bound is not None and name != "setup_s" and stats["spread"] > bound / 3 else ""
            print(f"  {name:40s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.3f}" + (f"  bound {bound}" if bound is not None else "") + flag,
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

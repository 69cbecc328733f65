"""Re-measure the ROADMAP's seed-value table, row by row.

    python3 bench/roadmap_table.py

Each row is timed with ``time.perf_counter`` as the median of a few calls
(single calls for rows that take seconds) and printed as one JSON object.
Tier-1 wall time is not measured here; it is the pytest run itself.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.pop("SQWORD_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

import sqword as sq  # noqa: E402

FLAGSHIP = "01010010"


def timed(fn, *args, repeat: int = 1) -> float:
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def candidates(n: int) -> int:
    """Words of length n that start with 0 and avoid 11: Fibonacci(n + 1)."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return b


def slope_one_word(d: int) -> str:
    """01 + central(1/d): the reversed standard word of slope 1/d, on which
    the directive search of natural_params is slowest."""
    return "01" + sq.central_word(1, d)


def main() -> int:
    rows = {}
    for n in (20, 24, 28):
        rows[f"brute_force_solutions n={n} s"] = timed(sq.brute_force_solutions, n)
    rows["brute force per candidate us (n=24)"] = rows["brute_force_solutions n=24 s"] / candidates(24) * 1e6
    word = sq.fixed_point_stream(FLAGSHIP).prefix(10**6)
    params = sq.Params(1, 0)
    rows["scan_minimal_squares us/letter"] = (
        timed(sq.squares.scan_minimal_squares, word, params, repeat=3) / len(word) * 1e6
    )
    rows["in_language us/letter"] = timed(sq.in_language, word, params, repeat=3) / len(word) * 1e6
    for length in (10**4, 10**5, 10**6):
        rows[f"verify_fixed_point {length} s"] = timed(
            lambda: sq.verify_fixed_point(sq.fixed_point_stream(FLAGSHIP), length), repeat=3
        )
    for d in (1000, 2000, 3001):
        rows[f"natural_params 01+central(1/{d}) s"] = timed(sq.natural_params, slope_one_word(d))
    rows["count_solutions(1736) s"] = timed(sq.count_solutions, 1736, repeat=5)
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

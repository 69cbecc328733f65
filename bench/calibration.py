"""Host-speed calibration kernel.

The benchmark host is shared, and the speed of the same Python code on it
drifts by up to 2x within a minute.  A package-like task run between
operations tracks that drift: measured over ten-second windows on this
2-core host, the ratio of a stream or oracle operation to it moved by about
10% while the operation alone moved by 20% or more.  The kernel is a frozen copy of the seed's greedy square parse
and factor-language check: once over a fixed 10,000-letter fixed-point
prefix at (a, b) = (1, 0), like a stream operation, and once per short
candidate word and parameter pair, like the brute-force oracle.  It lives
here, not in the package, so that no change to the package can move it.
"""

from __future__ import annotations

import gc
import time

import reference as ref

# Kernel seconds at the reference host speed that reported times are scaled
# to (about its median on a 2-core host with Python 3.11).
REFERENCE_S = 0.015

_ROOTS = ref.roots(1, 0)
_WORD = ref.fixed_point_prefix("01010010", 60_000)[:10_000]
_TABLES = [tuple(r + r for r in ref.roots(a, b)) for a in (1, 2, 3) for b in (0, 1)]


def _short_words(n: int) -> list[str]:
    """Words of length n that start with 0 and avoid 11."""
    words = ["0"]
    for _ in range(n - 1):
        words = [w + "0" for w in words] + [w + "1" for w in words if w[-1] != "1"]
    return words


_SHORT = _short_words(15)


def _scan(word: str, squares: tuple[str, ...]) -> int:
    pos, n = 0, len(word)
    while pos < n:
        for square in squares:
            if word.startswith(square, pos):
                pos += len(square)
                break
        else:
            break
    return pos


def _in_language(word: str) -> bool:
    text = {0: _ROOTS[4], 1: _ROOTS[5]}
    starts = ((0, 0), (1, 0))
    states = {(bid, off) for bid in (0, 1) for off in range(len(text[bid]))}
    for ch in word:
        nxt = set()
        for bid, off in states:
            block = text[bid]
            if block[off] != ch:
                continue
            if off + 1 == len(block):
                nxt.update(starts)
            else:
                nxt.add((bid, off + 1))
        if not nxt:
            return False
        states = nxt
    return True


def kernel_seconds() -> float:
    """One timed run of the kernel, with the cyclic collector paused so the
    package's heap does not add collections to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if _scan(_WORD, _TABLES[0]) < len(_WORD) // 2 or not _in_language(_WORD):
            raise RuntimeError("calibration kernel lost its input")
        for word in _SHORT:
            for squares in _TABLES:
                _scan(word + word, squares)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()

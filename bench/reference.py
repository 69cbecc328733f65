"""Reference constructions that benchmark answers are checked against.

Nothing here imports the package under test.  Words are built from
directive sequences and pattern words as the paper defines them, and every
expected answer follows from the construction and the solution trichotomy:

* the reversal of a standard word with directive (d1, d2, ...), d1 >= 2, is a
  type I solution whose natural parameters are (d1 - 1, d2 - 1);
* substituting S -> B, L -> exchange(B) into a primitive pattern word with
  both letters, for a reversed standard block B longer than its sixth root,
  gives a type II solution with block and pattern recovered;
* a power of a primitive solution is a solution whose primitive root is it;
* a primitive word that is neither reversed standard nor such an image is
  not a solution.
"""

from __future__ import annotations

# Solution counts for n = 1..36, as published (note the dip at n = 33).
TABLE_1_TO_36 = (
    1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7,
    7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 14,
    13, 14, 14, 15, 15, 16, 16, 17, 19, 18, 18, 20,
)


def standard_word(directive: tuple[int, ...]) -> str:
    """s(1) = 0^(d1-1) 1, s(k) = s(k-1)^dk s(k-2), with s(0) = 0, s(-1) = 1."""
    prev2, prev = "1", "0"
    word = "0" * (directive[0] - 1) + "1"
    for d in directive[1:]:
        prev2, prev = prev, word
        word = word * d + prev2
    return word


def exchange(word: str) -> str:
    return word[1] + word[0] + word[2:]


def is_primitive(word: str) -> bool:
    return (word + word).find(word, 1) == len(word)


def roots(a: int, b: int) -> tuple[str, ...]:
    """The six minimal square roots for parameters (a, b)."""
    s5 = "1" + "0" * (a + 1) + ("1" + "0" * a) * b
    return ("0", "01" + "0" * (a - 1), "01" + "0" * a, "1" + "0" * a, s5, s5 + "1" + "0" * a)


def sixth_root_len(a: int, b: int) -> int:
    return (a + 2) + (b + 1) * (a + 1)


def expand_blocks(blocks: list[int], a: int, b: int) -> str:
    """The word spelled by a sequence of minimal-square indices (1..6)."""
    squares = [r + r for r in roots(a, b)]
    return "".join(squares[i - 1] for i in blocks)


def draw_directive(rng, d1: int, min_len: int, max_len: int):
    """A directive of at least two terms starting with *d1* whose standard
    word has a length in [min_len, max_len], near a length drawn uniformly
    from that range."""
    while True:
        target = rng.randint(min_len, max_len)
        directive = [d1, rng.randint(1, 4)]
        while len(standard_word(tuple(directive))) < target:
            directive.append(rng.randint(1, 4))
        if len(standard_word(tuple(directive))) <= max_len:
            return tuple(directive)


def type_one(rng, min_len: int, max_len: int) -> tuple[str, tuple[int, int]]:
    """A reversed standard word with d1 >= 2 and its natural parameters."""
    directive = draw_directive(rng, rng.randint(2, 5), min_len, max_len)
    return standard_word(directive)[::-1], (directive[0] - 1, directive[1] - 1)


def long_block(rng, d1: int, min_len: int, max_len: int) -> tuple[str, tuple[int, int]]:
    """A reversed standard block longer than the sixth root of its natural
    parameters, with a = d1 - 1."""
    while True:
        directive = draw_directive(rng, d1, min_len, max_len)
        word = standard_word(directive)[::-1]
        a, b = directive[0] - 1, directive[1] - 1
        if len(word) > sixth_root_len(a, b):
            return word, (a, b)


def doubling_orbits(m: int) -> list[list[int]]:
    """Weakly connected components of x -> 2x mod m."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(m):
        ri, rj = find(i), find(2 * i % m)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _is_pattern(word: str) -> bool:
    return all(len({word[i] for i in orbit}) == 1 for orbit in doubling_orbits(len(word)))


def pattern_word(rng, max_len: int) -> str:
    """A primitive {S, L}-word, constant on doubling orbits, using both letters."""
    while True:
        m = rng.randint(3, max_len)
        orbits = doubling_orbits(m)
        if len(orbits) < 2:
            continue
        letters = [""] * m
        for orbit in orbits:
            ch = rng.choice("SL")
            for i in orbit:
                letters[i] = ch
        word = "".join(letters)
        if "S" in word and "L" in word and is_primitive(word):
            return word


def non_pattern_word(rng, max_len: int) -> str:
    """A primitive {S, L}-word that is not constant on some doubling orbit."""
    while True:
        word = "".join(rng.choice("SL") for _ in range(rng.randint(3, max_len)))
        if not _is_pattern(word) and is_primitive(word):
            return word


def substitute(pattern: str, block: str) -> str:
    swapped = exchange(block)
    return "".join(block if ch == "S" else swapped for ch in pattern)


def read_back(pattern: str, block: str) -> tuple[str, str]:
    """The (S, u) witnesses a classifier must recover from substitute(pattern,
    block): S is the 0-initial one of block and its exchange."""
    if block.startswith("0"):
        return block, pattern
    return exchange(block), pattern.translate(str.maketrans("SL", "LS"))


def fixed_point_prefix(block: str, max_len: int) -> str:
    """The longest even-chain word Z0, Z2, ... (Z(n+1) = exchange(Zn) Zn^2)
    that is at most *max_len* long; every such word prefixes the fixed point."""
    word = block
    while True:
        longer = word
        for _ in range(2):
            longer = exchange(longer) + longer * 2
        if len(longer) > max_len:
            return word
        word = longer

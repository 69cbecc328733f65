"""Counting solutions of each length: closed formula and brute-force oracle.

The count of solutions of length n (up to the 0/1 swap and up to exchanging
the first two letters) is::

    floor(n/2) + 1 + sum over divisors d of n with 2 < d <= n of E(n, d)

where the excess term E counts the words built from nontrivial pattern
words over blocks of length d::

    E(n, d) = (2^(O(n/d) - 1) - 1) * (phi(d)/2 - tau(d - 1) + 1)

with O the number of doubling-map orbits, phi Euler's totient and tau the
number-of-divisors function.  The brute-force oracle searches the words
that start with 0 (one representative per symmetry class) and avoid 11 (no
solution contains 11) depth first, and keeps those admitting parameters.
The factor language is closed under factors and holds the square of every
solution, so the search drops each prefix that no parameter pair admits.
Each prefix carries its first desubstitution, an (a, kinds, t) triple per
live a: the kinds word its complete blocks commit and its trailing zero
count t, so a letter costs O(1) at the first level.  The second level, the
b that hold a kinds word, is a bounded memo keyed on the kinds word alone.
Once the kinds word has two 1s it pins b to at most two values, and a
prefix ending in 1 keeps a only if, for one of them, its greedy square
parse could still begin the square of a solution.  Both are exact: the
memo gives what a walk over every b up to 2n gives, and the parse
condition holds for every prefix of a solution.  The search reads only
the language, the square parse and ``has_params``, never the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotADivisorError, NotCoprimeError
from .solutions import has_params
from .squares import Params, _derive, _join_roots, _levels, _squares, scan_minimal_squares


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise DomainError("euler_phi needs n >= 1")
    result = n
    for p in _factorize(n):
        result = result // p * (p - 1)
    return result


def divisor_count(n: int) -> int:
    """Number of distinct divisors of n, including 1 and n."""
    if n < 1:
        raise DomainError("divisor_count needs n >= 1")
    result = 1
    for k in _factorize(n).values():
        result *= k + 1
    return result


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    if n < 1:
        raise DomainError("divisors needs n >= 1")
    out = [1]
    for p, k in _factorize(n).items():
        out = [d * p**e for d in out for e in range(k + 1)]
    return sorted(out)


def order_of_two(d: int) -> int:
    """Least e >= 1 with 2^e = 1 mod d, for odd d (1 for d = 1).

    The order divides phi(d), so starting from phi(d) it drops each prime
    factor p for as long as 2^(e/p) is still 1 mod d.
    """
    if d < 1 or d % 2 == 0:
        raise NotCoprimeError(f"order of 2 needs an odd modulus, got {d}")
    e = euler_phi(d)
    for p in _factorize(e):
        while e % p == 0 and pow(2, e // p, d) == 1:
            e //= p
    return e


# One widest `count --range` (10^4 lengths ending at 10^6) asks for 46,769
# lengths, 87,905 of them again: the table holds them, then stops growing.
@lru_cache(maxsize=1 << 16)
def orbit_count(length: int) -> int:
    """Number of orbits of x -> 2x mod length, by the divisor-sum formula.

    Powers of two dividing the modulus do not change the count, so only the
    odd part contributes: sum of phi(d) / ord_2(d) over its divisors d.
    """
    if length < 1:
        raise DomainError("orbit_count needs length >= 1")
    odd = length
    while odd % 2 == 0:
        odd //= 2
    return sum(euler_phi(d) // order_of_two(d) for d in divisors(odd))


def pattern_excess(n: int, d: int) -> int:
    """Solutions of length n contributed by nontrivial patterns over length-d blocks.

    Defined for divisors d of n with d > 2.  The first factor counts the
    nontrivial pattern words of length n/d starting with S; the second the
    reversed standard blocks of length d that are long enough.
    """
    if d <= 2 or d > n or n % d != 0:
        raise NotADivisorError(f"need a divisor d of {n} with 2 < d <= {n}, got {d}")
    patterns = 2 ** (orbit_count(n // d) - 1) - 1
    blocks = euler_phi(d) // 2 - divisor_count(d - 1) + 1
    return patterns * blocks


@dataclass(frozen=True)
class CountReport:
    """Solution count of one length, with the per-divisor excess breakdown."""

    n: int
    formula_count: int
    brute_count: int | None
    per_divisor: dict[int, int]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "count": self.formula_count,
            "brute_count": self.brute_count,
            "per_divisor": {str(d): h for d, h in sorted(self.per_divisor.items())},
        }


def count_solutions(n: int, brute: bool = False) -> CountReport:
    """Count solutions of length n by the closed formula.

    With ``brute`` the report also carries the brute-force oracle's count;
    the two must agree.
    """
    if n < 1:
        raise DomainError("count_solutions needs n >= 1")
    per = {d: pattern_excess(n, d) for d in divisors(n) if d > 2}
    formula = n // 2 + 1 + sum(per.values())
    brute_count = len(brute_force_solutions(n)) if brute else None
    return CountReport(n=n, formula_count=formula, brute_count=brute_count, per_divisor=per)


# The searches for n = 1..60 ask about 8,600 distinct kinds words, each
# along a few neighbouring branches, so a small table keeps most of the hits
# and bounds its memory.
@lru_cache(maxsize=2048)
def _second_level(kinds: str) -> tuple[int, ...]:
    # The b up to the kinds word's length that hold it at the second level;
    # none if no b does.  _derive caps b at that length, so every larger b
    # answers as that one does.
    return tuple(b for b in _levels(kinds, 0, len(kinds)) if _derive(kinds, b) is not None)


def _first_level(word: str) -> list[tuple[int, str, int]]:
    # The state of a word that ends in its second 1: each a that holds it,
    # with the kinds word it commits and no trailing zeros.  The zero run
    # between the two 1s pins a below the word's length.
    return [
        (a, kinds, 0)
        for a in _levels(word, 1, len(word))
        if (kinds := _derive(word, a)) is not None and _second_level(kinds)
    ]


def _append(live: list[tuple[int, str, int]], letter: str) -> list[tuple[int, str, int]]:
    # The state after appending *letter*.  A 0 grows the tail 1 0^t up to
    # 1 0^(a+1), whose kinds letter 1 is provisional until the next 1; a 1
    # commits the tail as 0 (t = a) or 1 (t = a + 1).
    grown = []
    for a, kinds, t in live:
        if letter == "0":
            if t < a or t == a and _second_level(kinds + "1"):
                grown.append((a, kinds, t + 1))
        elif t == a:
            if _second_level(kinds + "0"):
                grown.append((a, kinds + "0", 0))
        elif t == a + 1:
            grown.append((a, kinds + "1", 0))
    return grown


def _parses(word: str, a: int, kinds: str) -> bool:
    # Whether *word* can still begin the square of a solution for a and one
    # of the b that its kinds word pins (see brute_force_solutions).
    for b in _second_level(kinds):
        params = Params(a, b)
        indices, q = scan_minimal_squares(word, params)
        rest = word[q:]
        if word.startswith(_join_roots(indices, params, q)) and any(
            square.startswith(rest) for square in _squares(a, b)
        ):
            return True
    return False


def brute_force_solutions(n: int) -> list[str]:
    """All solutions of length n, one per symmetry class, lexicographically.

    A depth-first search over the words that start with 0 and avoid 11.  A
    solution for (a, b) has its square, and so each of its prefixes, in the
    factor language of (a, b); a prefix with two 1s that no pair with a and
    b at most 2n admits is dropped with all its extensions.  Those are the
    bounds ``has_params`` applies to each word of length n, and they decide
    solution-hood.

    Each prefix carries its first desubstitution: once it has two 1s, the
    live (a, kinds, t) triples, one per a that still holds it, with the
    kinds word its complete blocks commit and the length t of its trailing
    zero run.  Each letter updates them in O(1).  The second level reads a
    memo of the b that hold each kinds word: ``_derive`` caps b at the
    word's length, and every kinds word here, the provisional kinds + "1"
    included, has at most n/2 + 1 < 2n letters, so the memo is keyed on
    the kinds word alone.

    When a 1 is appended, each live a whose committed kinds word has two 1s
    (so b is one of at most two values) must also pass the square parse:
    for some such b, the greedy minimal-square parse of the prefix p stops
    at a q where its joined roots equal p[:q/2], and the rest p[q:] is a
    proper prefix of one of the six squares of (a, b).  Every solution w
    for (a, b) passes this at each of its prefixes p: w w parses into
    minimal squares whose roots spell w; no minimal square is a prefix of
    another, so the squares lying inside p are exactly p's own parse; the
    next square starts at q and has p[q:] as a prefix; and the roots so far
    spell w[:q/2] = p[:q/2].  So the prune drops no solution, and the
    leaves still go to ``has_params``.
    """
    if n < 1:
        raise DomainError("brute_force_solutions needs n >= 1")
    found = []
    stack = [("0", None)]
    while stack:
        word, live = stack.pop()
        if len(word) == n:
            if has_params(word):
                found.append(word)
            continue
        # push the 1-child first so that words come off the stack in order
        if word[-1] == "0":
            child = word + "1"
            if live is not None:
                grown = _append(live, "1")
            else:
                grown = _first_level(child) if "1" in word else None
            if grown:
                grown = [
                    (a, kinds, t)
                    for a, kinds, t in grown
                    if kinds.count("1") < 2 or _parses(child, a, kinds)
                ]
            if grown is None or grown:
                stack.append((child, grown))
        grown = None if live is None else _append(live, "0")
        if grown is None or grown:
            stack.append((word + "0", grown))
    return found

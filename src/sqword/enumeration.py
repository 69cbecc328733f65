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
It reads only the language and ``has_params``, never the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotADivisorError, NotCoprimeError
from .solutions import has_params
from .squares import _language_params


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


@lru_cache(maxsize=None)
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


def count_solutions(
    n: int,
    brute: bool = False,
    a_cap: int | None = None,
    b_cap: int | None = None,
) -> CountReport:
    """Count solutions of length n by the closed formula.

    With ``brute`` the report also carries the brute-force oracle's count;
    the two must agree.
    """
    if n < 1:
        raise DomainError("count_solutions needs n >= 1")
    per = {d: pattern_excess(n, d) for d in divisors(n) if d > 2}
    formula = n // 2 + 1 + sum(per.values())
    brute_count = len(brute_force_solutions(n, a_cap, b_cap)) if brute else None
    return CountReport(n=n, formula_count=formula, brute_count=brute_count, per_divisor=per)


def brute_force_solutions(
    n: int,
    a_cap: int | None = None,
    b_cap: int | None = None,
) -> list[str]:
    """All solutions of length n, one per symmetry class, lexicographically.

    A depth-first search over the words that start with 0 and avoid 11.  A
    solution for (a, b) has its square, and so each of its prefixes, in the
    factor language of (a, b); a prefix with two 1s that no pair within the
    caps admits is dropped with all its extensions.  Parameter caps default
    to twice the length (complete), the bounds ``has_params`` applies to
    each word of length n.
    """
    if n < 1:
        raise DomainError("brute_force_solutions needs n >= 1")
    a_max = 2 * n if a_cap is None else a_cap
    b_max = 2 * n if b_cap is None else b_cap
    found = []
    stack = ["0"]
    while stack:
        word = stack.pop()
        if len(word) == n:
            if has_params(word, a_cap, b_cap):
                found.append(word)
            continue
        # push the 1-child first so that words come off the stack in order
        for child in (word + "1", word + "0") if word[-1] == "0" else (word + "0",):
            if child.count("1") < 2 or next(_language_params(child, a_max, b_max), None) is not None:
                stack.append(child)
    return found

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
It steps from one 1 to the next.  Each word carries its first
desubstitution for every live a and, once b is pinned to at most two
values, each pinned b's greedy square parse, which resumes where it stopped
at every new 1.  A leaf is decided from that state: its square
desubstitutes by a junction rule, and its parse resumes from the carried
stop.  All of it is exact (see ``brute_force_solutions``).  The search
reads only the language and the square parse, never the formula; 0^n is a
solution outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import DomainError, NotADivisorError, NotCoprimeError
from .squares import _derive, _levels, _resume, _tables


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


def _odd_divisors(n: int) -> list[tuple[int, int, int]]:
    # (e, phi(e), ord_2(e)) for every odd divisor e of n, from one
    # factorization of n.  Both are multiplicative over coprime prime powers
    # (ord_2 as their lcm), so each prime power's order is found once.
    walk = [(1, 1, 1)]
    for p, k in _factorize(n).items():
        if p > 2:
            powers = [(p**j, p**j - p ** (j - 1), order_of_two(p**j)) for j in range(1, k + 1)]
            walk += [(e * q, f * phi, lcm(o, order)) for e, f, o in walk for q, phi, order in powers]
    return walk


def orbit_count(length: int) -> int:
    """Number of orbits of x -> 2x mod length, by the divisor-sum formula.

    Powers of two dividing the modulus do not change the count, so only the
    odd part contributes: sum of phi(d) / ord_2(d) over its divisors d.
    """
    if length < 1:
        raise DomainError("orbit_count needs length >= 1")
    return sum(phi // order for _, phi, order in _odd_divisors(length))


def _excess(orbits: int, d: int) -> int:
    # E(n, d) from the orbit count mod n/d, as pattern_excess defines it
    return (2 ** (orbits - 1) - 1) * (euler_phi(d) // 2 - divisor_count(d - 1) + 1)


def pattern_excess(n: int, d: int) -> int:
    """Solutions of length n contributed by nontrivial patterns over length-d blocks.

    Defined for divisors d of n with d > 2.  The first factor counts the
    nontrivial pattern words of length n/d starting with S; the second the
    reversed standard blocks of length d that are long enough.
    """
    if d <= 2 or d > n or n % d != 0:
        raise NotADivisorError(f"need a divisor d of {n} with 2 < d <= {n}, got {d}")
    return _excess(orbit_count(n // d), d)


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
    # the orbit count mod n/d sums over the odd divisors of n that divide n/d
    walk = _odd_divisors(n)
    per = {d: _excess(sum(f // o for e, f, o in walk if n // d % e == 0), d) for d in divisors(n) if d > 2}
    formula = n // 2 + 1 + sum(per.values())
    brute_count = len(brute_force_solutions(n)) if brute else None
    return CountReport(n=n, formula_count=formula, brute_count=brute_count, per_divisor=per)


def _offered(h: int, z: int) -> list[tuple]:
    # The entries (a, kinds, None) that a word 0^h 1 offers its child 0^z 1
    # for a in z - 1 and z: its head zeros fit in one block of each
    # a >= max(1, h - 1), and are a whole long block, the kinds word "1",
    # when h = a + 1.
    return [(a, "1" if h == a + 1 else "", None) for a in (z - 1, z) if a >= max(1, h - 1)]


def _committed(word: str, a: int, kinds: str, parses: list | None) -> tuple | None:
    # The entry (a, kinds, parses) once the 1 ending *word* has committed
    # the last letter of *kinds*, or None if a drops out.  parses is None
    # while kinds has fewer than two 1s: b = |kinds| holds such a word, as
    # its edge zero runs are at most b + 1 and it has no inner run.  After
    # that it lists (q, b, tables) for each pinned b that holds kinds and
    # whose roots spelled the word at each prefix ending in 1, q being where
    # its parse of word stops.  As b <= |kinds| <= n // (a + 1) and a <= n,
    # _tables(a, b) is the window of every parse of w or w w.  When the
    # second 1 arrives, kinds is 0^x 1 0^r 1 (x = 0 when led by an L), which
    # _derive holds for exactly the b that _levels gives it,
    # max(0, x - 1, r - 1) <= b <= r.  A pinned b held kinds before its last
    # letter, so _derive's rule at the one block that changed decides
    # whether it still does: a 1 ends a zero run of b or b + 1 letters, and
    # a 0 keeps the tail run within b + 1.  Only the roots are checked, not
    # the rest.
    if parses is None:
        if kinds.count("1") < 2:
            return a, kinds, None
        parses = [(0, b, _tables(a, b)) for b in _levels(kinds, 0, len(kinds))]
        low, high = 0, len(kinds)
    else:
        run = len(kinds) - 2 - kinds.rfind("1", 0, -1)
        low, high = (run - 1, run) if kinds[-1] == "1" else (run, len(kinds))
    kept = []
    for q, b, tables in parses:
        if low <= b <= high:
            q = _resume(word, q, tables)
            if q >= 0:
                kept.append((q, b, tables))
    return (a, kinds, kept) if kept else None


def _doubled(kinds: str, a: int, t: int, head: int) -> str | None:
    # _derive(w w, a) from the entry (a, kinds) of w, its tail zero run t <= a
    # and its head zero run: kinds, the letter of the junction block
    # 1 0^(t+head), and kinds without the head L it has when head = a + 1;
    # None if the junction is no block of a.
    run = t + head
    if run != a and run != a + 1:
        return None
    return kinds + ("0" if run == a else "1") + (kinds[1:] if head == a + 1 else kinds)


def _leaf_has_params(word: str, live) -> bool:
    """``has_params(word)`` for a leaf of the search, read off its entries.

    w w desubstitutes by each live a as ``_doubled`` says, with the head and
    tail zero runs read off the word, and its parse resumes at the stop
    carried for each pinned b.  The live a include the a of every solution
    pair of w, and a pinned b left out of the entry has failed its parse,
    so only those pairs are tried.  While kinds has fewer than two 1s, as
    in the entry of a word with one 1, every b is parsed from the start.
    """
    n = len(word)
    head, tail = word.find("1"), n - 1 - word.rfind("1")
    square = None
    for a, kinds, parses in live:
        doubled = _doubled(kinds, a, tail, head)
        if doubled is None:
            continue
        if parses is None:
            # a leaf tries b <= 2n // (a + 1), inside the window of w w too
            parses = [(0, b, _tables(a, b)) for b in _levels(doubled, 0, 2 * n // (a + 1))]
        for q, b, tables in parses:
            if _derive(doubled, b) is not None:
                square = square or word + word
                if _resume(square, q, tables) == 2 * n:
                    return True
    return False


def brute_force_solutions(n: int) -> list[str]:
    """All solutions of length n, one per symmetry class, lexicographically.

    A depth-first search over the words that start with 0 and avoid 11.  A
    solution for (a, b) has its square, and so each of its prefixes, in the
    factor language of (a, b); a prefix with two 1s that no pair with a and
    b at most 2n admits is dropped with all its extensions.  Those are the
    bounds ``has_params`` applies to each word of length n, and they decide
    solution-hood.  0^n comes first and needs no search: its square is n
    squares 00, and its 2n zeros are one long block of a = 2n - 1, b = 0.

    The search steps from one 1 to the next, starting from the words 0^z 1.
    Each word ending in its second or a later 1 carries the live
    (a, kinds, parses) entries, one per a that still holds it, in
    increasing a, where kinds is the word its complete blocks commit (led
    by an L when its head zeros are a whole long block).  Its subtree is the
    word padded with zeros to n letters, then each child word 0^z 1 for z
    from the largest down, which is lexicographic order.  The run of z zeros
    closes the block 1 0^z, so the child commits the letter 0 for a = z and
    1 for a = z - 1, and every other a drops out.  The padded word keeps
    each a at least its tail run t: every word starts with 0, so a tail of
    a + 1 zeros gives w w a junction run of at least a + 2, which no block
    of a has.  So the words ending in 1 are those a letter-by-letter search
    reaches, in the same order, and a word of length n is decided when some
    live a is at least its tail run.  A word 0^h 1 with one 1 carries none:
    ``_offered`` builds the entries it offers each child 0^z 1, for a in
    {z - 1, z}, which the child commits as above.  Its leaf tries only
    a = n - 1: the square has one inner zero run, of n - 1 letters, and
    a = n - 2 parses it only where a = n - 1 does too.

    The second level is read off the kinds word in closed form.  While it
    has fewer than two 1s it has no inner zero run, so b = |kinds| holds it
    (its edge zero runs are at most b + 1), and the entry carries no b.
    When its second 1 arrives, it is 0^x 1 0^r 1, which b holds exactly for
    max(0, x - 1, r - 1) <= b <= r, the range ``_levels`` gives: its first
    inner zero run pins b to at most two values.  After that b holds
    kinds + c exactly when it holds kinds and c = 1 closes a zero run of b
    or b + 1 letters, or c = 0 leaves the tail run at most b + 1:
    ``_derive``'s rule at the one block c changes.

    Each live a whose kinds word has two 1s must also pass the square parse
    at each appended 1: for some pinned b, the greedy minimal-square parse
    of the prefix p stops at a q where its joined roots equal p[:q/2].
    Every solution w for (a, b) passes this at each of its prefixes p: w w
    parses into minimal squares whose roots spell w; no minimal square is a
    prefix of another, so the squares lying inside p are exactly p's own
    parse, and their roots spell w[:q/2] = p[:q/2].  So the prune drops no
    solution.  The same fact makes a failure final: p's parse is a prefix of
    the parse of every extension, so a root that differs from the word
    still does.  So each a carries only the b that passed, with the stop q
    of the parse, and an appended 1 resumes the parse at q and checks only
    the new roots.  The prune does not ask whether the rest p[q:] begins a
    square.  When it begins none, no square is a prefix of any extension of
    it either, so that b's parse never gets past q, and the leaf, which
    resumes the parse to 2n, refuses it: the leaf decision is exact without
    that check.

    ``_leaf_has_params`` decides each leaf from its entries.  The live a
    include the a of every solution pair of the leaf, and a pinned b not
    carried has failed its parse, so these are all the pairs to try.  The
    leaf's square desubstitutes as kinds + J + kinds', where J is the
    letter of the junction block 1 0^(t+h) (h the head zero run) and kinds'
    drops the head L, which is what ``_derive`` reads off the square; its
    parse resumes at the carried q.
    """
    if n < 1:
        raise DomainError("brute_force_solutions needs n >= 1")
    found = ["0" * n]  # its square is n squares 00, one long block of a = 2n - 1, b = 0
    stack = [("0" * z + "1", None) for z in range(1, n)]
    while stack:
        word, live = stack.pop()
        tail = n - len(word)
        h = len(word) - 1  # the head run of a word with one 1, which carries no entries
        # the word padded with zeros comes first in its subtree; an a below
        # its tail run would close w w with a junction run of a + 2 or more.
        # A word 0^h 1 pads to w with w w = 0^h 1 0^(n-1) 1 0^t, whose one
        # inner run of n - 1 zeros leaves a = n - 2 or n - 1.  a = n - 2
        # parses it only when h = 1, as s3 s3, and a = n - 1 then parses it
        # too, as s2 s2, with the kinds word "0" that every b holds.  Its
        # entry's kinds word is "", as h <= n - 1 < a + 1.
        leaf = [entry for entry in live if tail <= entry[0]] if live else [(n - 1, "", None)]
        if leaf and _leaf_has_params(padded := word + "0" * tail, leaf):
            found.append(padded)
        # then each child word 0^z 1, the largest z first, so pushed last;
        # live runs over increasing a, and z commits a = z (S) or z - 1 (L)
        low = live[0][0] if live else max(1, h - 1)
        for z in range(low, min(live[-1][0] + 2 if live else tail, tail)):
            child = word + "0" * z + "1"
            grown = []
            for a, kinds, parses in live or _offered(h, z):
                if z - 1 <= a <= z:
                    entry = _committed(child, a, kinds + ("0" if z == a else "1"), parses)
                    if entry:
                        grown.append(entry)
            if grown:
                stack.append((child, grown))
    return found

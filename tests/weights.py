"""Letter weights of the weighted-frequency method, for the tests.

Under the zero-sum weights of a base word with c ones in d letters, '1'
weighs (d - c)/d and '0' weighs -c/d, so the base itself sums to zero.
Every sum here is scaled by d, the denominator, to stay an integer.
"""

from itertools import accumulate


def scaled_sum(word: str, base: str) -> int:
    """Letter sum of *word* under the weights of *base*, times len(base)."""
    return word.count("1") * len(base) - len(word) * base.count("1")


def prefix_sums(word: str, base: str) -> tuple[int, ...]:
    """Scaled letter sums of the nonempty prefixes of *word*, shortest first."""
    ones = base.count("1")
    weight = {"0": -ones, "1": len(base) - ones}
    return tuple(accumulate(weight[ch] for ch in word))

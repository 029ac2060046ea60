"""Exact counts of distinguished weights and their polynomial asymptotics.

The count of length-n distinguished weights within k iteration levels
satisfies

    count(n, k) = 1 + k + sum over partitions alpha of n, alpha != (n)
                  and != (1,...,1), of sum_{m=0}^{k-1} prod_i count(l_i, m),

where (l_1, ..., l_a) are the part multiplicities of alpha and
count(0, k) = count(1, k) = 1.  The product depends only on the multiset of
multiplicities >= 2, so the partitions of n are grouped by that multiset
once per n, and the sum runs over the groups, each term weighted by its
number of partitions.  Growth is Theta(k^floor(n/2)) with leading
coefficient a_{floor((n+1)/2)} / floor(n/2)!, where a_i are the telephone
numbers.  Everything is exact: unbounded ints and reduced fractions, no
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .core import PartitionMult, Rational

__all__ = [
    "CountTable",
    "partitions_mult",
    "count_distinguished",
    "telephone",
    "leading_coefficient",
]


def _part_lists(n: int, max_part: int):
    """Partitions of n with parts <= max_part, descending lexicographic."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _part_lists(n - first, first):
            yield (first, *rest)


@cache
def partitions_mult(n: int) -> tuple[PartitionMult, ...]:
    """All partitions of n as multiplicity vectors, in the deterministic
    order of descending lexicographic part lists."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return tuple(PartitionMult.from_parts(p) for p in _part_lists(n, n))


class CountTable:
    """Memoized evaluation of the count recursion.

    Holds one dict per quantity; not safe for concurrent mutation, so either
    confine a table to one thread or give each thread its own (results are
    identical either way, the functions are deterministic).
    """

    def __init__(self):
        self._counts: dict[tuple[int, int], int] = {}
        # Per sorted multiplicity multiset (entries >= 2), prefix sums of
        # prod_i count(l_i, m).
        self._msums: dict[tuple[int, ...], list[int]] = {}

    def count(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("n and k must be >= 0")
        if n <= 1:
            return 1
        key = (n, k)
        hit = self._counts.get(key)
        if hit is not None:
            return hit
        total = 1 + k
        for mults, size in _multiplicity_groups(n):
            total += size * self._msum(mults, k)
        self._counts[key] = total
        return total

    def _msum(self, mults: tuple[int, ...], k: int) -> int:
        """sum_{m=0}^{k-1} prod_i count(l_i, m), built incrementally."""
        sums = self._msums.setdefault(mults, [0])
        while len(sums) <= k:
            m = len(sums) - 1
            prod = 1
            for l in mults:
                prod *= self.count(l, m)
            sums.append(sums[-1] + prod)
        return sums[k]


@cache
def _multiplicity_groups(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The partitions of n other than (n) and (1, ..., 1), grouped by the
    sorted multiset of their part multiplicities >= 2 (counts for lengths 0
    and 1 are 1): ``(multiset, number of partitions)`` pairs, in order of
    first appearance."""
    full = (n,)  # multiplicity vector of (1, ..., 1)
    single = tuple([0] * (n - 1) + [1])  # multiplicity vector of (n)
    groups: dict[tuple[int, ...], int] = {}
    for alpha in partitions_mult(n):
        if alpha.mult == full or alpha.mult == single:
            continue
        mults = tuple(sorted(l for l in alpha.mult if l >= 2))
        groups[mults] = groups.get(mults, 0) + 1
    return tuple(groups.items())


_TABLE = CountTable()


def count_distinguished(n: int, k: int) -> int:
    """Exact number of length-n distinguished weights reachable within k
    iteration levels, via the memoized recursion."""
    return _TABLE.count(n, k)


def telephone(i: int) -> int:
    """a_0 = a_1 = 1, a_i = a_{i-1} + (i-1) a_{i-2} (involution counts)."""
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    a, b = 1, 1  # a_{j-1}, a_j
    for j in range(1, i + 1):
        a, b = b, b + (j - 1) * a
    return a if i == 0 else b


def leading_coefficient(n: int) -> Rational:
    """Leading coefficient of the k^floor(n/2) growth law, as an exact
    reduced fraction.

    Computed twice -- by the even/odd recursion from the base values
    (1, 1, 1, 2, 1) and by the closed form a_{floor((n+1)/2)} / floor(n/2)!
    -- and cross-checked; a mismatch would mean a regression and raises.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    b = [Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1)]
    for j in range(5, n + 1):
        if j % 2 == 0:
            b.append(2 * (b[j - 2] + b[j - 4]) / j)
        else:
            b.append(2 * (b[j - 2] + b[j - 3] + b[j - 4]) / (j - 1))
    recursive = b[n]
    closed = Fraction(telephone((n + 1) // 2), factorial(n // 2))
    if recursive != closed:
        raise RuntimeError(
            f"leading coefficient mismatch at n={n}: "
            f"recursion {recursive} vs closed form {closed}"
        )
    return closed

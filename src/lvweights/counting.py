"""Exact counts of distinguished weights and their polynomial asymptotics.

The count of length-n distinguished weights within k iteration levels
satisfies

    count(n, k) = 1 + k + sum over partitions alpha of n, alpha != (n)
                  and != (1,...,1), of sum_{m=0}^{k-1} prod_i count(l_i, m),

where (l_1, ..., l_a) are the part multiplicities of alpha and
count(0, k) = count(1, k) = 1.  The product depends only on the multiset of
multiplicities >= 2, so the sum runs over groups of partitions with one
multiset, each term weighted by its number of partitions.  The groups of
every length up to n come from one pass over part sizes and their
multiplicities, and a ``CountTable`` fills count(l, m) length by length,
so each product reads shorter rows already filled.

count(l, .) is a polynomial of degree <= floor(l/2), by induction on l: a
counted partition with parts s_i of multiplicities l_i has sum (s_i - 1)
l_i = l - sum l_i >= 1, so it is (2, 1, ..., 1) or has sum l_i <= l - 2.
Either way its term, and so the step count(l, m+1) - count(l, m), has
degree sum floor(l_i/2) <= floor(l/2) - 1, and summing steps over m < k
adds one.  So no row is filled past level floor(n/2).  Growth is
Theta(k^floor(n/2)) with leading coefficient a_{floor((n+1)/2)} /
floor(n/2)!, where a_i are the telephone numbers; its recursion runs on
integers and only the result is a fraction.  Everything is exact:
unbounded ints and reduced fractions, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

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

    Holds ``rows[l][m] = count(l, m)`` for every length l <= n asked so
    far.  A query (n, k) extends rows 2, ..., n in increasing order to
    level min(k, floor(n/2)), one level at a time: every multiplicity of a
    counted partition of l is below l, so each factor of a product term is
    a row already filled, read as a plain list entry.  Successive
    differences give the rows, count(l, m + 1) - count(l, m) = 1 + sum over
    groups of size * prod_i count(l_i, m).  Past that level the query sums
    the forward differences of row n at 0 times C(k, j), in integers.

    Not safe for concurrent mutation, so either confine a table to one
    thread or give each thread its own (results are identical either way,
    the functions are deterministic).
    """

    def __init__(self):
        self._rows: list[list[int]] = [[1], [1]]  # count(0 or 1, .) = 1

    def count(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("n and k must be >= 0")
        rows = self._rows
        while len(rows) <= n:
            rows.append([1])  # count(l, 0) = 1
        top = min(k, n // 2)
        for l in range(2, n + 1):
            row = rows[l]
            if len(row) > top:
                continue
            # Each group as its size and the rows of its multiplicities;
            # built only once some row needs filling.
            terms = [(size, [rows[m] for m in mults])
                     for mults, size in _multiplicity_groups(n)[l]]
            for m in range(len(row) - 1, top):
                step = 1
                for size, factors in terms:
                    for factor in factors:
                        size *= factor[m]
                    step += size
                row.append(row[-1] + step)
        if len(rows[n]) > k:
            return rows[n][k]
        diffs, total = rows[n][: top + 1], 0
        for j in range(top + 1):
            total += diffs[0] * comb(k, j)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return total


@cache
def _multiplicity_groups(
    n: int,
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """For each length l = 0, ..., n, the partitions of l other than (l) and
    (1, ..., 1), grouped by the sorted multiset of their part multiplicities
    >= 2 (counts for lengths 0 and 1 are 1): ``(multiset, number of
    partitions)`` pairs, none for l < 2.

    Walks part sizes 1, ..., n and the multiplicity of each, adding one
    size at a time to the groups of every length at once, so no partition
    is built on its own.  (l) falls in group () and (1, ..., 1) in group
    (l,), and both are then taken out.
    """
    # groups[l] maps multiset -> partitions of l with the sizes added so far.
    groups: list[dict[tuple[int, ...], int]] = [{(): 1}]
    groups += [{} for _ in range(n)]
    for size in range(1, n + 1):
        for l in range(n, size - 1, -1):  # descending: read sizes < size only
            into = groups[l]
            for mult in range(1, l // size + 1):
                for mults, num in groups[l - size * mult].items():
                    if mult >= 2:
                        mults = tuple(sorted((*mults, mult)))
                    into[mults] = into.get(mults, 0) + num
    out = [(), ()]
    for l in range(2, n + 1):
        groups[l][()] -= 1  # (l)
        groups[l][(l,)] -= 1  # (1, ..., 1)
        out.append(tuple((mults, num)
                         for mults, num in groups[l].items() if num))
    return tuple(out)


_TABLE = CountTable()
_MAX_COUNT_N = 64  # _multiplicity_groups: 0.4 s at 64 (Py 3.11), x3 per +10


def count_distinguished(n: int, k: int) -> int:
    """Exact number of length-n distinguished weights reachable within k
    iteration levels, via the memoized recursion; n is at most 64."""
    if n > _MAX_COUNT_N:  # before any group is built
        raise ValueError(f"count n = {n} is over the limit of {_MAX_COUNT_N}")
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

    Computed twice -- by the even/odd recursion and by the closed form
    a_{floor((n+1)/2)} / floor(n/2)! -- and cross-checked; a mismatch would
    mean a regression and raises.  The recursion for the coefficients b_j
    (base values 1, 1, 1, 2, 1; b_j = 2(b_{j-2} + b_{j-4}) / j for even j,
    2(b_{j-2} + b_{j-3} + b_{j-4}) / (j - 1) for odd j) runs on the integers
    B_j = b_j * floor(j/2)!, where it divides nothing: B = 1, 1, 1, 2, 2,
    then B_j = B_{j-2} + (t-1) B_{j-4} for j = 2t and B_j = B_{j-2} +
    B_{j-3} + (t-1) B_{j-4} for j = 2t + 1.  Only the result is reduced.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    b = [1, 1, 1, 2, 2]
    for j in range(5, n + 1):
        t = j // 2
        if j % 2 == 0:
            b.append(b[j - 2] + (t - 1) * b[j - 4])
        else:
            b.append(b[j - 2] + b[j - 3] + (t - 1) * b[j - 4])
    closed = telephone((n + 1) // 2)
    if b[n] != closed:
        raise RuntimeError(
            f"leading coefficient mismatch at n={n}: "
            f"recursion {b[n]} vs closed form {closed} "
            f"(both over {n // 2}!)"
        )
    return Fraction(b[n], factorial(n // 2))

"""Exact counts of distinguished weights and their polynomial asymptotics.

The count of length-n distinguished weights within k iteration levels
satisfies

    count(n, k) = 1 + k + sum over partitions alpha of n, alpha != (n)
                  and != (1,...,1), of sum_{m=0}^{k-1} prod_i count(l_i, m),

where (l_1, ..., l_a) are the part multiplicities of alpha and
count(0, k) = count(1, k) = 1.  Summed over every partition, one level
at a time, it is a series product.  With F_m(x) = sum_j count(j, m) x^j,
a partition with multiplicity l_s of each part s takes the term
count(l_s, m) x^(s l_s) from the factor F_m(x^s) (count(0, m) = 1 for
the parts it lacks), so

    sum over partitions alpha of l of prod_i count(l_i, m)
        = [x^l] prod_{s>=1} F_m(x^s).

For l >= 2, alpha = (l) gives count(1, m) = 1, the recursion's "1 +",
alpha = (1, ..., 1) gives count(l, m), and the rest is the recursion's
sum; for l <= 1 both sides are 1.  So count(l, m + 1) = [x^l] prod_{s=1}^{N} F_m(x^s) for every
l <= N, and a ``CountTable`` fills each level of every length <= N with
one truncated product.  At m = 0 every F_0 coefficient is 1, so level 1
holds the partition numbers.

count(l, .) is a polynomial of degree <= floor(l/2), by induction on l: a
counted partition with parts s_i of multiplicities l_i has sum (s_i - 1)
l_i = l - sum l_i >= 1, so it is (2, 1, ..., 1) or has sum l_i <= l - 2.
Either way its term, and so the step count(l, m+1) - count(l, m), has
degree sum floor(l_i/2) <= floor(l/2) - 1, and summing steps over m < k
adds one.  So no table is filled past level floor(N/2).  Growth is
Theta(k^floor(n/2)) with leading coefficient a_{floor((n+1)/2)} /
floor(n/2)!, where a_i are the telephone numbers; its recursion runs on
integers and only the result is a fraction.  Everything is exact:
unbounded ints and reduced fractions, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add

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

    Holds ``rows[l][m] = count(l, m)`` for every length l <= N, the
    longest length asked so far, all filled to one level.  A query (n, k)
    needs row n to level min(k, floor(n/2)): a longer query rebuilds the
    table from level 0 with N = n, a deeper one appends levels, each the
    coefficients of one product prod_{s=1}^{N} F_m(x^s) truncated past x^N
    (see the module docstring).  Past that level the query sums the
    forward differences of row n at 0 times C(k, j), in integers.

    Not safe for concurrent mutation, so either confine a table to one
    thread or give each thread its own (results are identical either way,
    the functions are deterministic).
    """

    def __init__(self):
        self._rows: list[list[int]] = [[1]]  # count(0, .) = 1

    def count(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("n and k must be >= 0")
        if len(self._rows) <= n:
            self._rows = [[1] for _ in range(n + 1)]  # count(l, 0) = 1
        rows = self._rows
        top, size = min(k, n // 2), len(rows)
        for m in range(len(rows[0]) - 1, top):
            f = [row[m] for row in rows]  # F_m; f[0] = f[1] = 1
            prod = f[:]  # times F_m(x^1)
            for s in range(2, size):  # times F_m(x^s), shift by shift
                term = prod[:]
                for j in range(1, (size - 1) // s + 1):
                    d, fj = s * j, f[j]
                    term[d:] = map(add, term[d:],
                                   [fj * c for c in prod[: size - d]])
                prod = term
            for row, c in zip(rows, prod):
                row.append(c)
        if len(rows[n]) > k:
            return rows[n][k]
        diffs, total = rows[n][: top + 1], 0
        for j in range(top + 1):
            total += diffs[0] * comb(k, j)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        return total


_TABLE = CountTable()
_MAX_COUNT_N = 64  # a cold count(64, 32): 0.03-0.05 s (Py 3.11, Xeon)


def count_distinguished(n: int, k: int) -> int:
    """Exact number of length-n distinguished weights reachable within k
    iteration levels, via the memoized recursion; n is at most 64."""
    if n > _MAX_COUNT_N:  # before the table grows
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

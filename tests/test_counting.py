from fractions import Fraction
from math import factorial

import pytest

from lvweights import (
    CountTable,
    PartitionMult,
    count_distinguished,
    leading_coefficient,
    partitions_mult,
    telephone,
)
from lvweights import counting
from lvweights.counting import _MAX_COUNT_N

# Closed polynomials for n = 1..6 that the recursion must reproduce.
POLYNOMIALS = {
    1: lambda k: 1,
    2: lambda k: k + 1,
    3: lambda k: 2 * k + 1,
    4: lambda k: k * k + 3 * k + 1,
    5: lambda k: 2 * k * k + 4 * k + 1,
    6: lambda k: (4 * k**3 + 27 * k**2 + 29 * k + 6) // 6,
}


def part_lists(n, max_part):
    """Differential oracle for ``partitions_mult``: the partitions of n with
    parts <= max_part as part lists, descending lexicographic, built
    recursively (the generator the iterative one replaced)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in part_lists(n - first, first):
            yield (first, *rest)


class TestPartitionsMult:
    def test_matches_the_recursive_order(self):
        for n in range(31):
            got = partitions_mult(n)
            assert [a.mult for a in got] == [
                PartitionMult.from_parts(p).mult for p in part_lists(n, n)], n
            # each wrapped unchecked, so each passes the checked constructor
            assert all(PartitionMult(a.mult) == a for a in got), n

    @pytest.mark.parametrize("n", [-1, True, 2.0], ids=repr)
    def test_refuses_a_bad_n(self, n):
        partitions_mult(1)
        partitions_mult(2)  # cached, and a cache hit must not skip the check
        with pytest.raises(ValueError, match="^n must be"):
            partitions_mult(n)

    def test_four(self):
        got = [p.parts for p in partitions_mult(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero(self):
        assert [p.parts for p in partitions_mult(0)] == [()]

    def test_six_has_eleven(self):
        assert len(partitions_mult(6)) == 11

    def test_all_distinct_and_sum(self):
        for n in range(9):
            ps = partitions_mult(n)
            assert len(set(ps)) == len(ps)
            assert all(p.n == n for p in ps)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partitions_mult(-1)


def per_partition_counts(max_n, max_k):
    """Differential oracle: the count recursion summed partition by
    partition and level by level, as a table ``c[n][k]`` for n <= max_n
    and k <= max_k.  It fills every level, so it also checks the
    ``CountTable``'s polynomial past level floor(n/2)."""
    c = [[1] * (max_k + 1), [1] * (max_k + 1)]
    for n in range(2, max_n + 1):
        row = [1 + k for k in range(max_k + 1)]
        for alpha in partitions_mult(n):
            if alpha.parts in ((n,), (1,) * n):
                continue
            msum = 0
            for k in range(1, max_k + 1):
                prod = 1  # prod_i count(l_i, k - 1)
                for l in alpha.mult:
                    prod *= c[l][k - 1]
                msum += prod
                row[k] += msum
        c.append(row)
    return c


def fraction_coefficients(n):
    """Differential oracle for ``leading_coefficient``'s closed form: the
    even/odd recursion on reduced fractions, from the base values 1, 1, 1,
    2, 1, as the list of its values for 0, ..., n.

    On the integers B_j = b_j * floor(j/2)! it divides nothing: B = 1, 1,
    1, 2, 2, then B_j = B_{j-2} + (t-1) B_{j-4} for j = 2t and B_j =
    B_{j-2} + B_{j-3} + (t-1) B_{j-4} for j = 2t + 1.
    """
    b = [Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1)]
    for j in range(5, n + 1):
        if j % 2 == 0:
            b.append(2 * (b[j - 2] + b[j - 4]) / j)
        else:
            b.append(2 * (b[j - 2] + b[j - 3] + b[j - 4]) / (j - 1))
    return b[: n + 1]


class TestCountDistinguished:
    def test_spot_values(self):
        assert count_distinguished(4, 2) == 11
        assert count_distinguished(6, 2) == 34
        assert count_distinguished(5, 3) == 31

    def test_zero_budget(self):
        for n in range(9):
            assert count_distinguished(n, 0) == 1

    def test_tiny_lengths(self):
        for k in range(5):
            assert count_distinguished(0, k) == 1
            assert count_distinguished(1, k) == 1

    def test_polynomials_exact(self):
        for n, poly in POLYNOMIALS.items():
            for k in [*range(26), 10**6, 10**40]:
                assert count_distinguished(n, k) == poly(k), (n, k)

    def test_six_division_is_exact(self):
        for k in range(26):
            assert (4 * k**3 + 27 * k**2 + 29 * k + 6) % 6 == 0

    def test_monotone_in_k(self):
        for n in range(2, 9):
            vals = [count_distinguished(n, k) for k in range(15)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_grouped_sum_matches_per_partition_sum(self):
        # Levels past floor(n/2) come from the polynomial; a table queried
        # in increasing order and one queried in decreasing order must both
        # give the recursion's values, as must the shared table.
        expected = per_partition_counts(24, 199)
        queries = [(n, k) for n in range(25) for k in range(200)]
        for order in (queries, queries[::-1]):
            table = CountTable()
            for n, k in order:
                assert table.count(n, k) == expected[n][k], (n, k)
                assert count_distinguished(n, k) == expected[n][k], (n, k)

    def test_product_matches_per_partition_sum_to_32(self):
        # Every length to 32 at every level to 20, so the tables of longer
        # lengths reach past floor(n/2) on their short rows; a fresh table
        # queried in increasing order rebuilds at each new length, one in
        # decreasing order builds once.
        expected = per_partition_counts(32, 20)
        queries = [(n, k) for n in range(33) for k in range(21)]
        for order in (queries, queries[::-1]):
            table = CountTable()
            for n, k in order:
                assert table.count(n, k) == expected[n][k], (n, k)

    def test_top_difference_is_leading_coefficient(self):
        # A check of the growth law independent of leading_coefficient's
        # closed form and of the recursion: the d-th difference of
        # count(n, 0..d), d = floor(n/2), is d! times the leading
        # coefficient.  Longest first, so the table is built once.
        for n in range(_MAX_COUNT_N, 1, -1):
            seq = [count_distinguished(n, k) for k in range(n // 2 + 1)]
            for _ in range(n // 2):
                seq = [b - a for a, b in zip(seq, seq[1:])]
            assert seq == [leading_coefficient(n) * factorial(n // 2)], n

    def test_rows_stop_at_half_length(self):
        table = CountTable()
        table.count(24, 10**6)
        assert max(len(row) for row in table._rows) == 24 // 2 + 1

    def test_length_limit(self):
        # count(n, 1) is the number of partitions of n; n = 65 is refused
        # before the shared table grows.
        assert _MAX_COUNT_N == 64
        assert count_distinguished(64, 1) == 1_741_630
        rows = counting._TABLE._rows
        before = [row[:] for row in rows]
        with pytest.raises(ValueError, match="n = 65 is over the limit of 64"):
            count_distinguished(65, 1)
        assert counting._TABLE._rows is rows and rows == before

    def test_query_order_does_not_matter(self):
        # Rows 2..10 grow past rows 11..24, then all rows grow again.
        shared = CountTable()
        for n, k in [(24, 5), (10, 40), (24, 100)]:
            assert shared.count(n, k) == CountTable().count(n, k), (n, k)
        # Every smaller query is answered from the filled rows.
        fresh = CountTable()
        for n in range(25):
            assert shared.count(n, 37) == fresh.count(n, 37), n
        for n, k in [(24, 5), (10, 40)]:
            assert shared.count(n, k) == per_partition_counts(n, k)[n][k]

    def test_filled_rows_are_left_untouched(self):
        # A query inside the filled table, no longer than its rows and no
        # deeper than its level or past floor(n/2), only reads the rows.
        queries = [(n, k) for n in range(31) for k in (0, 1, 7, 15, 10**6)]
        expected = [CountTable().count(n, k) for n, k in queries]
        table = CountTable()
        table.count(30, 15)  # every row to level 15 = floor(30/2)
        rows = table._rows
        before = [row[:] for row in rows]
        assert [table.count(n, k) for n, k in queries] == expected
        assert table._rows is rows and rows == before

    def test_fresh_table_matches_shared(self):
        table = CountTable()
        assert table.count(6, 10) == count_distinguished(6, 10)

    def test_degree_via_finite_differences(self):
        # For n <= 6 the count is a polynomial of degree floor(n/2): one
        # more difference of the sequence over k = 0..20 vanishes.
        for n in range(1, 7):
            seq = [count_distinguished(n, k) for k in range(21)]
            for _ in range(n // 2 + 1):
                seq = [b - a for a, b in zip(seq, seq[1:])]
            assert all(v == 0 for v in seq), n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_distinguished(-1, 0)
        with pytest.raises(ValueError):
            count_distinguished(2, -1)


class TestTelephone:
    def test_base(self):
        assert telephone(0) == 1
        assert telephone(1) == 1

    def test_small_values(self):
        # a_4 = a_3 + 3 a_2 = 4 + 6; a_6 = a_5 + 5 a_4 = 26 + 50.
        assert telephone(4) == 10
        assert telephone(6) == 76

    def test_prefix(self):
        assert [telephone(i) for i in range(7)] == [1, 1, 2, 4, 10, 26, 76]

    def test_recursion_holds(self):
        for i in range(2, 30):
            assert telephone(i) == telephone(i - 1) + (i - 1) * telephone(i - 2)


class TestLeadingCoefficient:
    def test_base_values(self):
        assert [leading_coefficient(n) for n in range(5)] == [
            Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(1)
        ]

    def test_even_case(self):
        assert leading_coefficient(6) == Fraction(2, 3)

    def test_odd_case(self):
        # a_4 / 3! = 10/6, reduced.
        assert leading_coefficient(7) == Fraction(5, 3)

    def test_matches_fraction_recursion(self):
        for n, expected in enumerate(fraction_coefficients(400)):
            assert leading_coefficient(n) == expected, n

    def test_matches_polynomial_leading_terms(self):
        # Leading coefficients of the exact polynomials for n = 2, 4, 5, 6.
        assert leading_coefficient(2) == 1
        assert leading_coefficient(4) == 1
        assert leading_coefficient(5) == 2
        assert leading_coefficient(6) == Fraction(4, 6)

import itertools
import math
import random
import re
import sys

import pytest

import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    PartitionMult,
    ScatterRecord,
    SearchBox,
    closed_family,
    count_distinguished,
    default_bound,
    distinguished_depth,
    enumerate_distinguished,
    generate_family_set,
    lv_p,
    partitions_mult,
    reverse_negate,
    rho_family,
    scatter_records,
    validate_weight,
    write_scatter_csv,
    write_scatter_svg,
)
from lvweights.lv_algorithm import _correct_columns, _phi_rows, maximal_clumps


class TestDefaultBound:
    def test_values(self):
        assert default_bound(4, 2, 5) == 18
        assert default_bound(2, 0, 5) == 0
        assert default_bound(3, 1, 7) == 2

    def test_matches_staircase_top(self):
        from lvweights import rho_family

        for n, k, p in [(4, 2, 5), (5, 3, 7), (8, 2, 11)]:
            w = rho_family(n, k, ModularContext(p))
            assert default_bound(n, k, p) == w[0]


class TestSearchBox:
    def test_rejects_small_prime(self):
        with pytest.raises(ValueError):
            SearchBox(5, 1, 10, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^n, k and bound must be >= 0$"):
            SearchBox(2, -1, 10, 5)

    @pytest.mark.parametrize("n,k,bound", [
        (4, True, 100), (4, 1, 1.5), (4, 2.0, 10), ("4", 1, 10),
        (4.0, 1, 10), (4, 1, None), (-1.0, 1, 10),
    ])
    def test_rejects_what_is_not_an_int(self, n, k, bound):
        with pytest.raises(ValueError, match="^n, k and bound must be integers$"):
            SearchBox(n, k, bound, 5)

    def test_rejects_a_float_prime(self):
        # A float p would give float weights such as (18.0, 6.0, -6.0, -18.0).
        with pytest.raises(ValueError, match="^p must be an int, got 5.0$"):
            SearchBox(4, 2, 100, 5.0)

    @pytest.mark.parametrize("p", [9, 15, 25])
    def test_rejects_composite_prime(self, p):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            SearchBox(4, 3, default_bound(4, 3, p), p)


class TestEnumerate:
    def test_n2(self):
        got = enumerate_distinguished(SearchBox(2, 2, 10, 5))
        assert got == [(6, -6), (1, -1), (0, 0)]

    def test_n3(self):
        got = enumerate_distinguished(SearchBox(3, 1, 10, 5))
        assert got == [(2, 0, -2), (1, 0, -1), (0, 0, 0)]

    def test_n4(self):
        got = enumerate_distinguished(SearchBox(4, 1, 20, 5))
        assert got == [
            (3, 1, -1, -3),
            (2, 0, 0, -2),
            (1, 1, -1, -1),
            (1, 0, 0, -1),
            (0, 0, 0, 0),
        ]

    def test_trivial_lengths(self):
        assert enumerate_distinguished(SearchBox(0, 2, 5, 5)) == [()]
        assert enumerate_distinguished(SearchBox(1, 2, 5, 5)) == [(0,)]

    def test_members_verified_distinguished(self):
        ctx = ModularContext(7)
        for w in enumerate_distinguished(SearchBox(4, 2, 50, 7)):
            d = distinguished_depth(w, ctx, 2)
            assert d is not None and d <= 2

    @pytest.mark.parametrize("n,k,p", [(2, 3, 7), (3, 2, 5), (4, 2, 5),
                                       (4, 2, 7), (5, 2, 7)])
    def test_agrees_with_recursion(self, n, k, p):
        box = SearchBox(n, k, default_bound(n, k, p), p)
        assert len(enumerate_distinguished(box)) == count_distinguished(n, k)

    def test_parallel_matches_sequential(self):
        box = SearchBox(4, 2, default_bound(4, 2, 7), 7)
        seq = enumerate_distinguished(box, jobs=1)
        par = enumerate_distinguished(box, jobs=2)
        assert seq == par


def brute_enumerate(n, k, bound, p):
    """Differential oracle: every anti-symmetric weight in the box, tested
    one by one with the public depth function."""
    ctx = ModularContext(p)
    mid = (0,) if n % 2 else ()
    found = []
    for coords in itertools.combinations_with_replacement(
        range(bound, -1, -1), n // 2
    ):
        w = coords + mid + tuple(-c for c in reversed(coords))
        if distinguished_depth(w, ctx, k) is not None:
            found.append(w)
    return sorted(found, reverse=True)


def _oracle_boxes():
    """Seeded small boxes, then fixed ones: p = n + 1, and odd n with
    distinguished weights whose last free coordinate is 0 or 1."""
    rng = random.Random(20250519)
    boxes = []
    while len(boxes) < 24:
        n = rng.randint(2, 8)
        k = rng.randint(0, 3)
        p = rng.choice([q for q in (3, 5, 7, 11, 13) if q > n])
        h = n // 2
        # The largest bound whose box holds at most 2000 points.
        fit = 0
        while math.comb(fit + 1 + h, h) <= 2000:
            fit += 1
        bound = min(default_bound(n, k, p), rng.randint(fit // 2, fit))
        if (n, k, bound, p) not in boxes:
            boxes.append((n, k, bound, p))
    boxes += [(2, 3, default_bound(2, 3, 3), 3), (4, 2, 18, 5),
              (6, 1, 5, 7), (3, 3, 60, 5), (5, 2, 10, 7), (7, 2, 8, 11)]
    return boxes


class TestSieveAgainstOracle:
    """The construction must find exactly what the brute scan of every
    anti-symmetric box point finds."""

    @pytest.mark.parametrize("n,k,bound,p", _oracle_boxes())
    def test_matches_brute_scan(self, n, k, bound, p):
        expected = brute_enumerate(n, k, bound, p)
        box = SearchBox(n, k, bound, p)
        assert enumerate_distinguished(box, jobs=1) == expected
        assert enumerate_distinguished(box, jobs=2) == expected

    @pytest.mark.parametrize("n,k,p", [
        (2, 3, 7), (2, 4, 5), (3, 3, 5), (3, 2, 11), (4, 2, 5), (4, 2, 7),
        (5, 1, 7), (5, 1, 13), (6, 1, 7), (7, 1, 11),
    ])
    def test_nothing_beyond_default_bound(self, n, k, p):
        # Completeness does not rest on the default bound: a box twice as
        # wide holds no further distinguished weight.
        bound = 2 * default_bound(n, k, p)
        assert math.comb(bound + n // 2, n // 2) <= 2000
        expected = brute_enumerate(n, k, bound, p)
        assert enumerate_distinguished(SearchBox(n, k, bound, p)) == expected
        assert len(expected) == count_distinguished(n, k)

    @pytest.mark.parametrize("n,k,bound,p", _oracle_boxes())
    def test_candidates_pass_first_division(self, n, k, bound, p):
        # One step of the construction: every nonzero weight divides, after
        # lv, into constructed weights of the shorter lengths, the deepest
        # of them exactly one level shallower.
        ctx = ModularContext(p)
        depths = enumeration._enumerate_depths(SearchBox(n, k, bound, p), 1)
        sets = {}
        for w, depth in depths.items():
            if not any(w):
                assert depth == 0
                continue
            children = []
            for c in lv_p(w, ctx).mu:
                if len(c) not in sets:
                    sets[len(c)] = enumeration._construct(len(c), k, p)
                children.append(sets[len(c)][c])
            assert depth == 1 + max(children), w

    def test_boxes_cover_small_middle_coordinates(self):
        # Odd lengths whose last free coordinate is 0 or 1 sit in the cells
        # whose clump straddles the middle zero.
        last = {
            w[len(w) // 2 - 1]
            for n, k, bound, p in _oracle_boxes() if n % 2 and k
            for w in brute_enumerate(n, k, bound, p)
        }
        assert {0, 1} <= last

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            enumerate_distinguished(SearchBox(2, 1, 5, 5), jobs=0)


class TestConstruction:
    @pytest.mark.parametrize("n,k,p", [(8, 6, 11), (14, 3, 17), (4, 20, 11)])
    def test_sizes_beyond_any_scan(self, forward_checked, n, k, p):
        with forward_checked() as checked:
            depths = enumeration._construct(n, k, p)
        assert set(depths) - {(0,) * n} <= set(checked)
        assert len(depths) == count_distinguished(n, k)
        assert max(w[0] for w in depths) == default_bound(n, k, p)
        assert max(depths.values()) == k

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_families_are_all_of_them(self, n, p):
        # The paper's explicit result for n <= 4, at every k <= 20: the
        # closed families hold every distinguished weight, at its depth.
        ctx = ModularContext(p)
        depths = enumeration._construct(n, 20, p)
        assert enumeration._family_depths(n, ctx, 20) == depths
        for k in range(21):
            assert generate_family_set(n, ctx, k) == sorted(
                (w for w, d in depths.items() if d <= k), reverse=True
            ), k

    @pytest.mark.parametrize("n,target", [
        (2, ((1, 0),)),  # a single column, but its sum is not 0
        (2, ((1, -1), (0,))),  # no weight of length 2 has this shape
        (4, ((1, 0), (-1,))),  # sum 0, but not fixed by reverse-negate
    ])
    def test_preimage_raises_without_an_antisymmetric_one(self, n, target):
        with pytest.raises(RuntimeError, match="anti-symmetric"):
            enumeration._preimage(target, n, 5)

    def test_each_weight_built_once(self, monkeypatch):
        built = []
        preimage = enumeration._preimage

        def record(target, n, p):
            built.append(preimage(target, n, p))
            return built[-1]

        monkeypatch.setattr(enumeration, "_preimage", record)
        assert len(enumeration._construct(6, 5, 7)) == count_distinguished(6, 5)
        assert len(built) == len(set(built))

    def test_level_two_preimages_at_length_20(self, forward_checked):
        # A seeded sample of the targets of D(20, 2) less D(20, 1): a shape
        # alpha != (20) and omega_i in D(l_i, 1), not all zero.
        rng = random.Random(20)
        shapes = [a.mult for a in partitions_mult(20) if len(a.mult) < 20]
        level_one = {l: [(0,) * l, *enumeration._neutral_elements(l)]
                     for l in range(21)}
        targets = set()
        while len(targets) < 200:
            omega = tuple(rng.choice(level_one[l]) for l in rng.choice(shapes))
            if any(map(any, omega)):
                targets.add(omega)
        with forward_checked() as checked:
            for omega in sorted(targets):
                enumeration._preimage(omega, 20, 23)
        assert len(set(checked)) == 200

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("wrong", [
        lambda hs: hs[:-1] + hs[:1],  # the first twice, the last lost
        lambda hs: hs[1:],
    ], ids=["duplicate", "lost"])
    def test_a_wrong_count_never_returns(self, monkeypatch, wrong, k):
        # The count is checked on every call, before the bound filters:
        # bound 0 keeps only the zero weight.
        neutral_elements = enumeration._neutral_elements
        monkeypatch.setattr(enumeration, "_neutral_elements",
                            lambda l: wrong(neutral_elements(l)))
        with pytest.raises(RuntimeError, match=r"but count\(n, k\) = "):
            enumerate_distinguished(SearchBox(6, k, 0, 7))

    def test_longest_k1_length_the_tests_enumerate(self):
        weights = enumerate_distinguished(SearchBox(24, 1, 23, 29))
        assert len(weights) == count_distinguished(24, 1) == 1575
        assert weights[0][0] == default_bound(24, 1, 29) == 23

    def test_lengths_below_two(self):
        assert enumeration._construct(0, 5, 7) == {(): 0}
        assert enumeration._construct(1, 5, 7) == {(0,): 0}
        assert enumeration._construct(1, 10**9, 7) == {(0,): 0}

    @pytest.mark.parametrize("order", [1, -1], ids=["as-built", "reversed"])
    def test_round_trip_in_any_cell_order(self, monkeypatch, order):
        # At p = 1 every weight is a target.  A cell accepts by its moves
        # alone, so the preimage does not depend on the order of the cells.
        cells = enumeration._cells
        monkeypatch.setattr(enumeration, "_cells", lambda n: {
            shape: entries[::order] for shape, entries in cells(n).items()})
        for n in range(2, 11):
            for x in itertools.combinations_with_replacement(range(5, -1, -1),
                                                             n // 2):
                w = enumeration._mirror(x, n)
                assert enumeration._preimage(enumeration._lv_mu(w), n, 1) == w

    @pytest.mark.parametrize("target,least,moves,proposal,preimage", [
        # Closes the gap between the clumps (3, 3) and (1,): the proposal
        # lies in another cell, where lv_p of it is not even integral.
        (((0, 0), (0, 0)), (3, 3, 1, -1, -3, -3), {None: 0, 0: -1, 1: 0},
         (2, 2, 1, -1, -2, -2), (3, 1, 1, -1, -1, -3)),
        # Moves the outer clumps past the inner ones: not a weight.
        (((0, 0), (1, -1)), (4, 2, 1, -1, -2, -4), {None: 0, 0: -1, 1: 3},
         (3, 5, 4, -4, -5, -3), (6, 5, 1, -1, -5, -6)),
    ])
    def test_moves_decide(self, monkeypatch, target, least, moves, proposal,
                          preimage):
        # A cell's moves can be exact and agree on every row, yet take its
        # candidate out of the cell.  Then they break d_0 >= d_1 >= 0, and
        # the cell, tried first, must not give the answer.
        p = 7
        cells = enumeration._cells(6)[(2, 2)]
        cell = next(c for c in cells if c[0] == least)
        _, equations = cell
        assert [base + coef * moves[c] for c, coef, base in equations] == [
            p * v for part in target for v in part
        ]
        assert move_clumps(least, moves) == proposal
        assert not moves[0] >= moves[1] >= 0
        assert proposal != preimage
        assert enumeration._lv_mu(preimage, 1, p) == target
        monkeypatch.setattr(enumeration, "_cells",
                            lambda n: {(2, 2): [cell, *cells]})
        assert enumeration._preimage(target, 6, p) == preimage


def neutral(parts):
    """h_lambda: the strings lambda_i - 1, lambda_i - 3, ..., 1 - lambda_i
    of the parts, merged into one weight."""
    return tuple(sorted(itertools.chain.from_iterable(
        range(v - 1, -v, -2) for v in parts), reverse=True))


def conjugate(parts):
    return tuple(sum(v > j for v in parts)
                 for j in range(max(parts, default=0)))


def partition_number(n):
    """p(n), counted by adding one part size at a time."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


class TestLevelOne:
    # D(n, 1) = {h_lambda : lambda |- n}, whatever p: lv(h_lambda) is the
    # zero omega of shape lambda'.  The size guard lets a k = 1 run reach
    # n = 36 (count(37, 1) is over the limit) and a run with k >= 2 reach
    # n = 20, so level 1 is checked at every length to 36, on every lambda
    # for n <= 24 and n = 36 and on a seeded sample in between.

    @pytest.mark.parametrize("n", range(37))
    def test_neutral_elements_map_to_zero_of_the_conjugate_shape(self, n):
        alphas = partitions_mult(n)
        # lambda = (1^n), last, gives zero, which level 1 leaves out.
        hs = [*enumeration._neutral_elements(n), (0,) * n]
        assert len(set(hs)) == len(hs) == len(alphas)
        checked = range(len(hs))
        if 24 < n < 36:
            checked = random.Random(n).sample(checked, 200)
        for i in checked:
            parts = alphas[i].parts
            assert hs[i] == neutral(parts), parts
            mu = enumeration._lv_mu(hs[i])
            assert not any(map(any, mu)), (parts, mu)
            assert PartitionMult(tuple(map(len, mu))).parts == conjugate(
                parts)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_cells_invert_zero_targets_to_the_closed_form(self, n):
        # Two inverses that share no code past ``_template``.
        for alpha in partitions_mult(n):
            if len(alpha.mult) < n:  # alpha != (n)
                target = tuple((0,) * m for m in alpha.mult)
                assert enumeration._preimage(target, n, 23) == neutral(
                    conjugate(alpha.parts)), alpha.parts

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12, 17, 19])
    def test_construct_does_not_depend_on_p(self, n):
        depths = enumeration._construct(n, 1, 23)
        assert enumeration._construct(n, 1, 29) == depths
        assert len(depths) == count_distinguished(n, 1)
        for p in (23, 29):
            ctx = ModularContext(p)
            assert {w: distinguished_depth(w, ctx, 1)
                    for w in depths} == depths

    def test_count_is_the_partition_number(self):
        assert [len(partitions_mult(n)) for n in range(20)] == [
            partition_number(n) for n in range(20)]
        for n in range(65):
            assert count_distinguished(n, 1) == partition_number(n), n


def move_clumps(least, moves):
    """``least`` with clump j of its ``maximal_clumps`` moved up by
    moves[j] and its mirror, clump K-1-j of K, down by as much; a middle
    clump, whose index is no key of ``moves``, stays put."""
    clumps = maximal_clumps(least)
    last = len(clumps) - 1
    return tuple(v + moves.get(j, 0) - moves.get(last - j, 0)
                 for j, clump in enumerate(clumps) for v in clump)


def raw_compile_cell(weight):
    """The cell of ``weight`` on a route of its own, the oracle of
    ``enumeration._compile_cell``: the whole weight's ``phi`` rows and
    column correction, each row owned by the maximal clump of its first
    entry, and the rows stably sorted by length, so rows of one length
    stay in ``phi`` order."""
    clumps = maximal_clumps(weight)
    owner_of = {}
    for j, clump in enumerate(clumps):
        m = len(clumps) - 1 - j
        owner = (j, 1) if j < m else (m, -1) if j > m else (None, 0)
        owner_of.update(dict.fromkeys(clump, owner))
    rows = _phi_rows(weight, 1)
    firsts = [row[0] for row in rows]
    rows = _correct_columns(rows)
    shape = [0] * max(map(len, rows))
    equations = []
    for first, row in sorted(zip(firsts, rows), key=lambda fr: len(fr[1])):
        shape[len(row) - 1] += 1
        c, sign = owner_of[first]
        equations.append((c, sign * len(row) or 1, sum(row)))
    return tuple(shape), (weight, tuple(equations))


class TestCellTable:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_the_raw_compile(self, n):
        # The least weights in the index's order: the bottom coordinate
        # outermost, then each gap up from it; the last gap varies fastest.
        table = {}
        bottoms = (0, 1) if n % 2 == 0 else (0, 1, 2)
        for low in itertools.product(bottoms, *[(0, 1, 2)] * (n // 2 - 1)):
            bottom_up = tuple(itertools.accumulate(low))
            weight = (bottom_up[::-1] + (0,) * (n % 2)
                      + tuple(-c for c in bottom_up))
            shape, cell = raw_compile_cell(weight)
            table.setdefault(shape, []).append(cell)
        assert list(enumeration._cells(n).items()) == list(table.items())

    @staticmethod
    def moved(least):
        """The moves d_j = m - j of the m clumps above the middle, which
        keep d_0 >= ... >= d_{m-1} >= 0, and the weight they give."""
        m = len(maximal_clumps(least)) // 2
        moves = {None: 0, **{j: m - j for j in range(m)}}
        return moves, move_clumps(least, moves)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_shapes_match_the_forward_map(self, n):
        # The index keys a cell by its least weight's shape.  Every weight
        # of the cell has it, with the row sums its equations give.
        for shape, cells in enumeration._cells(n).items():
            for least, equations in cells:
                moves, w = self.moved(least)
                mu = enumeration._lv_mu(w)
                assert tuple(map(len, mu)) == shape, w
                assert [v for part in mu for v in part] == [
                    base + coef * moves[c] for c, coef, base in equations], w

    @pytest.mark.parametrize("n", range(2, 13))
    def test_preimage_rebuilds_the_moved_weight(self, n):
        # ``_preimage`` rebuilds the weight from the least weight's gaps;
        # the moved weight comes from its maximal clumps.  Odd and even n,
        # with and without a middle clump.
        for cells in enumeration._cells(n).values():
            for least, _ in cells:
                _, w = self.moved(least)
                assert enumeration._preimage(
                    enumeration._lv_mu(w), n, 1) == w, least


class TestSizeGuards:
    """``enumerate`` refuses, before any work, a D(n, k) over its
    documented limit."""

    @pytest.mark.parametrize("n,k,p,match", [
        (37, 1, 41, "more than 20000 distinguished weights"),
        (21, 2, 23, "more than 20000 distinguished weights"),
        (8, 1000, 11, "more than 20000 distinguished weights"),
        (2, 10**9, 3, "more than 20000 distinguished weights"),
    ])
    def test_refuses_before_building(self, monkeypatch, n, k, p, match):
        def build(*args):
            raise AssertionError("work was done before the refusal")

        cells = enumeration._cells
        before = cells.cache_info().currsize
        monkeypatch.setattr(enumeration, "_cells", build)
        monkeypatch.setattr(enumeration, "_compile_cell", build)
        monkeypatch.setattr(enumeration, "_construct", build)
        with pytest.raises(ValueError, match=match):
            enumerate_distinguished(SearchBox(n, k, 0, p))
        assert cells.cache_info().currsize == before

    def test_limits_are_tight(self):
        # n = 36 is the longest length allowed at k = 1 and n = 20 at
        # k = 2; D(n, k) may hold exactly the limit.  The guard returns the
        # count the construction is checked against.
        limit = enumeration._MAX_WEIGHTS
        for n, k in [(36, 1), (20, 2), (2, 19_999)]:
            assert enumeration._check_size(n, k) == count_distinguished(n, k)
        assert count_distinguished(2, 19_999) == limit
        for n, k in [(37, 1), (21, 2), (2, 20_000)]:
            with pytest.raises(ValueError):
                enumeration._check_size(n, k)
        assert enumeration._check_size(40, 0) == 1
        assert enumeration._check_size(1, 10**9) == 1

    def test_the_cell_index_stays_within_length_20(self):
        # count(n, k) does not fall as k grows, so every length past 20 is
        # refused at each k >= 2, the only runs that build ``_cells``; past
        # 36 every k >= 1 is, and past 64 ``count_distinguished`` refuses.
        limit = enumeration._MAX_WEIGHTS
        for n in range(2, 65):
            assert (count_distinguished(n, 2) > limit) == (n > 20), n
            assert (count_distinguished(n, 1) > limit) == (n > 36), n
        assert sum(map(len, enumeration._cells(20).values())) == 39_366

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 7)])
    def test_entry_size_limit_is_tight(self, n, p):
        # The last k whose largest entry converts to text passes and the
        # next does not; without p (the library prints nothing) neither is
        # checked.
        top = 10 ** sys.get_int_max_str_digits()
        k = int(math.log(top, p))
        while default_bound(n, k, p) >= top:
            k -= 1
        while default_bound(n, k + 1, p) < top:
            k += 1
        str(default_bound(n, k, p))
        enumeration._check_size(n, k, p)
        with pytest.raises(ValueError, match="decimal digits"):
            enumeration._check_size(n, k + 1, p)
        enumeration._check_size(n, k + 1)

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 7), (4, 5)])
    def test_family_entry_limit_is_tight(self, n, p):
        # The largest family member of depth <= max_k, A (n = 2, 3) or F1
        # (n = 4) at m = max_k, is default_bound(n, max_k, p): it prints at
        # the last max_k the limit lets through, and the next is refused.
        top = 10 ** sys.get_int_max_str_digits()
        max_k = int(math.log(top, p))
        while default_bound(n, max_k, p) >= top:
            max_k -= 1
        while default_bound(n, max_k + 1, p) < top:
            max_k += 1
        family = "F1" if n == 4 else "A"
        w, _ = enumeration._family_weight(n, family, (max_k,), p)
        assert w[0] == default_bound(n, max_k, p)
        str(w[0])
        # At n = 4 the member limit refuses first; lift it past the
        # boundary so that the digit check decides.
        limit = max(enumeration._MAX_MEMBERS,
                    count_distinguished(n, max_k + 1))
        enumeration._check_size(n, max_k, p, limit, "family members")
        with pytest.raises(ValueError, match="decimal digits"):
            enumeration._check_size(n, max_k + 1, p, limit, "family members")

    def test_family_member_limit_is_tight(self):
        # n = 4 has k^2 + 3k + 1 members to depth k: 40,601 at k = 200, and
        # the limit falls between k = 222 and 223.  For n = 2 and 3 (at
        # most 2k + 1 members) the entry limit refuses first at every p.
        limit = enumeration._MAX_MEMBERS
        assert (count_distinguished(4, 222) <= limit
                < count_distinguished(4, 223))
        enumeration._check_size(4, 200, 5, limit, "family members")
        enumeration._check_size(4, 222, 5, limit, "family members")
        with pytest.raises(ValueError, match="more than 50000 family members"):
            enumeration._check_size(4, 223, 5, limit, "family members")
        for n, p in [(2, 3), (3, 5)]:
            with pytest.raises(ValueError, match="decimal digits"):
                enumeration._check_size(n, limit // n, p, limit,
                                        "family members")

    @pytest.mark.parametrize("n,k", [(14, 3), (8, 6), (4, 20), (4, 4),
                                     (14, 1)])
    def test_tested_cells_are_below_both_limits(self, n, k):
        enumeration._check_size(n, k)
        assert count_distinguished(n, k) < enumeration._MAX_WEIGHTS

    def test_depth_zero_builds_nothing(self):
        assert enumerate_distinguished(SearchBox(40, 0, 0, 41)) == [(0,) * 40]


class TestClosedFamily:
    def test_n4_first_family(self):
        ctx = ModularContext(5)
        w = closed_family(4, "F1", (1,), ctx)
        assert w == (3, 1, -1, -3)
        assert distinguished_depth(w, ctx, 5) == 1

    def test_n3_second_family(self):
        ctx = ModularContext(11)
        w = closed_family(3, "B", (0,), ctx)
        assert w == (1, 0, -1)
        assert distinguished_depth(w, ctx, 5) == 1

    def test_n2_zero(self):
        for p in (5, 11):
            assert closed_family(2, "A", (0,), ModularContext(p)) == (0, 0)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            closed_family(4, "F9", (1,), ModularContext(5))

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            closed_family(4, "F4", (0, 1), ModularContext(5))

    @pytest.mark.parametrize("n,family_id,params,p,message", [
        (5, "A", (1,), 7, "closed families exist only for n in {2, 3, 4}"),
        (1, "F9", (-1, 0, 0), 7,
         "closed families exist only for n in {2, 3, 4}"),
        (4, "F9", (1,), 5, "unknown family 'F9' for n=4"),
        (3, "F1", (-1, 0, 0), 5, "unknown family 'F1' for n=3"),
        (4, "F1", (1, 5), 5, "family F1 takes 1 parameter(s), got (1, 5)"),
        (4, "F3", [-1], 5, "family F3 takes 2 parameter(s), got (-1,)"),
        (2, "A", (-1,), 5, "family parameters must be >= 0, got (-1,)"),
        (4, "F4", (0, -1), 5, "family parameters must be >= 0, got (0, -1)"),
        (4, "F4", (0, 1), 5, "F4 requires m >= 1"),
        (4, "F4", (2, 0), 2, "non-integral closed-form value 5/2"),
        (2, "A", (-1.0,), 5, "family parameters must be >= 0, got (-1.0,)"),
        (4, "F3", (1.0, 2), 5,
         "family parameters must be integers, got (1.0, 2)"),
        (2, "A", (True,), 5,
         "family parameters must be integers, got (True,)"),
        (4, "F4", (0, 1.0), 5,
         "family parameters must be integers, got (0, 1.0)"),
        (2, "A", ("1",), 5, "family parameters must be integers, got ('1',)"),
        (4, "F3", (1, None), 5,
         "family parameters must be integers, got (1, None)"),
        (4, "F3", ("1", -1), 5,
         "family parameters must be >= 0, got ('1', -1)"),
    ])
    def test_refusal_messages_in_order(self, n, family_id, params, p,
                                       message):
        # The checks run in the order n, family id, arity, sign, int type,
        # F4's m >= 1, integrality; a case that breaks several gets the
        # first one's message.  p = 2 is the only prime where F4's halves
        # can be non-integral, and never with m = 0.
        with pytest.raises(ValueError) as exc:
            closed_family(n, family_id, params, ModularContext(p))
        assert str(exc.value) == message

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            closed_family(4, "F1", (1, 5), ModularContext(5))
        with pytest.raises(ValueError, match="parameter"):
            closed_family(4, "F3", (1,), ModularContext(5))

    def test_f4_parity_split(self):
        ctx = ModularContext(5)
        # Hand-evaluate the two parity branches at k = 0.
        assert closed_family(4, "F4", (2, 0), ctx) == (4, 3, -3, -4)
        assert closed_family(4, "F4", (1, 0), ctx) == (1, 1, -1, -1)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 9, 11, 13, 17, 101, 65537])
    def test_f4_matches_p_power_form(self, p):
        # Differential oracle: F4 as stated in powers of p over 2(p - 1).
        # Where that division is not exact (p = 2, 4 and 9, none a prime
        # ModularContext accepts), the member is refused.
        den = 2 * (p - 1)
        for m, k in itertools.product(range(1, 40), range(40)):
            if m % 2 == 0:
                x = p ** (m + k) + 2 * p ** (k + 1) + 3 * p**k - 6
                y = p ** (m + k) + p**k - 2
            else:
                x = p ** (m + k) + p ** (k + 1) + 4 * p**k - 6
                y = p ** (m + k) + p ** (k + 1) - 2
            if x % den or y % den:
                with pytest.raises(ValueError, match="non-integral"):
                    enumeration._family_weight(4, "F4", (m, k), p)
            else:
                x, y = x // den, y // den
                assert enumeration._family_weight(4, "F4", (m, k), p) == (
                    (x, y, -y, -x), m + k), (m, k)


class TestGenerateFamilySet:
    def test_n2(self):
        ctx = ModularContext(5)
        assert generate_family_set(2, ctx, 2) == [(6, -6), (1, -1), (0, 0)]

    def test_n3_zero_budget(self):
        assert generate_family_set(3, ModularContext(11), 0) == [(0, 0, 0)]

    def test_n4_large_budget_count(self):
        got = generate_family_set(4, ModularContext(5), 20)
        assert len(got) == 20**2 + 3 * 20 + 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_count_formula(self, n):
        ctx = ModularContext(7)
        for k in range(6):
            assert len(generate_family_set(n, ctx, k)) == count_distinguished(
                n, k
            ), (n, k)

    @pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (4, 3)])
    def test_matches_enumeration(self, n, k):
        # Family completeness: where the scan is feasible the two agree.
        p = 7
        fam = generate_family_set(n, ModularContext(p), k)
        box = SearchBox(n, k, default_bound(n, k, p), p)
        assert fam == enumerate_distinguished(box)

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_largest_member_is_the_default_bound(self, n, p):
        # What makes the families' entry limit exact.
        ctx = ModularContext(p)
        for max_k in range(9):
            largest = generate_family_set(n, ctx, max_k)[0][0]
            assert largest == default_bound(n, max_k, p), max_k

    def test_members_antisymmetric(self):
        for w in generate_family_set(4, ModularContext(5), 8):
            assert reverse_negate(w) == w

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_members_are_valid_weights(self, n, p):
        # _family_depths hands its members to the depth check and the CLI
        # unvalidated: each must be what validate_weight returns for it,
        # and anti-symmetric, which the trusted CSV records rely on.
        depths = enumeration._family_depths(n, ModularContext(p), 12)
        assert len(depths) == count_distinguished(n, 12)
        for w in depths:
            assert type(w) is tuple and validate_weight(w) == w, w
            assert reverse_negate(w) == w, w


class TestSharedDepthMemo:
    """One depth memo per call must give what a fresh check per member or
    per weight gives."""

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_set_matches_closed_family(self, n, p):
        ctx = ModularContext(p)
        members = {}  # every member with parameters <= 6, by stated family
        for family_id in enumeration.FAMILY_IDS[n]:
            arity = enumeration._FAMILY_ARITY[family_id]
            low = 1 if family_id == "F4" else 0  # F4 requires m >= 1
            for params in itertools.product(range(7), repeat=arity):
                if params[0] >= low:
                    members[family_id, params] = closed_family(
                        n, family_id, params, ctx
                    )
        for max_k in range(7):
            expected = {
                w for w in members.values()
                if distinguished_depth(w, ctx, max_k) is not None
            }
            assert generate_family_set(n, ctx, max_k) == sorted(
                expected, reverse=True
            ), (n, p, max_k)

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scatter_depths_do_not_depend_on_order(self, n, p):
        ctx = ModularContext(p)
        weights = generate_family_set(n, ctx, 6)
        # A fresh memo per weight.
        expected = {w: distinguished_depth(w, ctx, 6) for w in weights}
        shuffled = list(weights)
        random.Random(n * p).shuffle(shuffled)
        for order in (sorted(weights), sorted(weights, reverse=True), shuffled):
            records = scatter_records(order, ctx, cap=6)
            assert records == [
                ScatterRecord(w[: n // 2], expected[w]) for w in order
            ]

    @pytest.mark.parametrize(
        "bad", [(2, 1, -1, -2), rho_family(4, 7, ModularContext(5))]
    )
    def test_scatter_still_rejects_a_non_distinguished_weight(self, bad):
        # Neither a weight that never reaches zeros nor one deeper than the
        # cap passes, wherever it sits in the list.
        ctx = ModularContext(5)
        weights = generate_family_set(4, ctx, 6)
        assert distinguished_depth(bad, ctx, 6) is None
        for at in (0, len(weights) // 2, len(weights)):
            with pytest.raises(ValueError, match="not distinguished"):
                scatter_records(weights[:at] + [bad] + weights[at:], ctx, cap=6)

    def test_scatter_rejects_negative_cap(self):
        with pytest.raises(ValueError, match="cap"):
            scatter_records([(0, 0)], ModularContext(5), cap=-1)

    def test_scatter_checks_the_prime_against_the_length(self):
        with pytest.raises(ValueError, match="exceed"):
            scatter_records([(0, 0, 0, 0, 0)], ModularContext(5), cap=3)


class TestScatter:
    def test_single_family_member(self):
        ctx = ModularContext(5)
        recs = scatter_records([(3, 1, -1, -3)], ctx, cap=5)
        assert recs == [ScatterRecord((3, 1), 1)]

    def test_zero_weight(self):
        recs = scatter_records([(0, 0, 0, 0)], ModularContext(5), cap=5)
        assert recs == [ScatterRecord((0, 0), 0)]

    def test_scaled_staircase(self):
        recs = scatter_records([(18, 6, -6, -18)], ModularContext(5), cap=5)
        assert recs == [ScatterRecord((18, 6), 2)]

    def test_rejects_non_distinguished(self):
        with pytest.raises(ValueError, match="not distinguished"):
            scatter_records([(1, 0)], ModularContext(5), cap=5)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ScatterRecord((1, 2), 0)
        with pytest.raises(ValueError):
            ScatterRecord((2, -1), 0)

    @pytest.mark.parametrize("coords, depth, message", [
        ((1.5, 0.5), 1, "weight has non-integer entry 1.5"),
        ((3, True), 1, "weight has non-integer entry True"),
        ((3, 1), True, "depth must be an integer, got True"),
        ((3, 1), 1.0, "depth must be an integer, got 1.0"),
        # The order, end and sign checks come first.
        ((1, 2.0), 0, "not weakly decreasing at position 0: 1 < 2.0"),
        ((2, -1), 1.5, "coords must end >= 0: (2, -1)"),
        ((3, 1), -1.0, "depth must be >= 0, got -1.0"),
        ((1,), None, "depth must be an integer, got None"),
        ((3, 1), "1", "depth must be an integer, got '1'"),
    ])
    def test_record_refuses_what_is_not_an_int(self, coords, depth,
                                               message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScatterRecord(coords, depth)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScatterRecord(list(coords), depth)

    def test_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        recs = [ScatterRecord((0, 0), 0), ScatterRecord((3, 1), 1)]
        write_scatter_csv(recs, path)
        assert path.read_text() == "x1,x2,depth\n3,1,1\n0,0,0\n"

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_scatter_csv([], path, ncoords=2)
        assert path.read_text() == "x1,x2,depth\n"

    def test_csv_single_zero_row(self, tmp_path):
        path = tmp_path / "one.csv"
        write_scatter_csv([ScatterRecord((0, 0), 0)], path)
        assert path.read_text().splitlines()[1] == "0,0,0"

    def test_csv_without_coordinates(self, tmp_path):
        # n = 0 and 1 have no free coordinates: the row is the depth alone.
        path = tmp_path / "none.csv"
        write_scatter_csv([ScatterRecord((), 0)], path)
        assert path.read_bytes() == b"depth\n0\n"

    def test_svg_deterministic(self, tmp_path):
        ctx = ModularContext(5)
        recs = scatter_records(
            generate_family_set(4, ctx, 4), ctx, cap=4
        )
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_scatter_svg(recs, a, p=5)
        write_scatter_svg(recs, b, p=5)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("<svg")
        assert "log base 5" in text
        assert text.count("<circle") == len(recs)

import collections
import functools
import hashlib
import itertools
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    PartitionMult,
    SearchBox,
    closed_family,
    count_distinguished,
    default_bound,
    distinguished_depth,
    enumerate_distinguished,
    generate_family_set,
    lv,
    lv_p,
    partitions_mult,
    reverse_negate,
    rho_family,
    scatter_records,
    validate_weight,
    write_scatter_csv,
    write_scatter_svg,
)
from lvweights.lv_algorithm import _correct_columns, maximal_clumps, phi
from lvweights.modular_iteration import _bounded_depth, _geom


def family_member(n, family_id, params, p):
    """``enumeration._family_member`` with its sums read from ``_geom``."""
    return enumeration._family_member(n, family_id, params,
                                      functools.partial(_geom, p))


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


def top_slack(w):
    """How far lv(w)'s largest entry lies above w[0] - (len(w) - 1)."""
    return max(v for part in lv(w).mu for v in part) - w[0] + len(w) - 1


class TestTopEntryLemma:
    # ``default_bound``'s docstring rests on it: some entry of lv(w) is at
    # least w[0] - (n - 1) for an anti-symmetric w of length n.  The
    # exhaustive boxes also find weights where it is tight, so it holds
    # with no smaller slack.

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exhaustive_boxes(self, n):
        slacks = [top_slack(enumeration._mirror(x, n)) for x in
                  itertools.combinations_with_replacement(range(12, -1, -1),
                                                          n // 2)]
        assert min(slacks) == 0, n

    @given(st.sampled_from([3, 10**6]).flatmap(lambda top: st.lists(
        st.integers(0, top), min_size=1, max_size=11)), st.booleans())
    @settings(max_examples=500)
    def test_random_weights(self, coords, odd):
        # Clumpy free coordinates, each at most 3, and spread ones.
        n = 2 * len(coords) + odd
        w = enumeration._mirror(tuple(sorted(coords, reverse=True)), n)
        assert top_slack(w) >= 0


class TestSearchBox:
    def test_rejects_small_prime(self):
        with pytest.raises(ValueError):
            SearchBox(5, 1, 10, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            SearchBox(2, -1, 10, 5)

    # n, k and bound in signature order, each one's type before its sign.
    @pytest.mark.parametrize("n,k,bound,message", [
        pytest.param(4, True, 100, "k must be an int, got True",
                     id="4-True-100"),
        pytest.param(4, 1, 1.5, "bound must be an int, got 1.5", id="4-1-1.5"),
        pytest.param(4, 2.0, 10, "k must be an int, got 2.0", id="4-2.0-10"),
        pytest.param("4", 1, 10, "n must be an int, got '4'", id="4-1-10"),
        pytest.param(4.0, 1, 10, "n must be an int, got 4.0", id="4.0-1-10"),
        pytest.param(4, 1, None, "bound must be an int, got None",
                     id="4-1-None"),
        pytest.param(-1.0, 1, 10, "n must be an int, got -1.0",
                     id="-1.0-1-10"),
        pytest.param(-1, 1.5, 10, "n must be >= 0, got -1",
                     id="sign-of-n-before-type-of-k"),
    ])
    def test_rejects_what_is_not_an_int(self, n, k, bound, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


def _filtered(depths, bound):
    return {w: d for w, d in depths.items() if not w or w[0] <= bound}


def _oracle_boxes():
    """Seeded small boxes, then fixed ones: p = n + 1, odd n with
    distinguished weights whose last free coordinate is 0 or 1, and k = 1
    below the default bound, which builds D(n, 1) whole and then deletes
    the weights over the bound from its map."""
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
              (6, 1, 5, 7), (3, 3, 60, 5), (5, 2, 10, 7), (7, 2, 8, 11),
              (6, 1, 3, 7), (8, 1, 4, 13)]
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
        assert enumeration._enumerate_depths(box) == _filtered(
            enumeration._construct(n, k, p), bound)

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
        depths = enumeration._enumerate_depths(SearchBox(n, k, bound, p))
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

    @pytest.mark.parametrize("n,k,p", [(2, 4, 5), (3, 4, 5), (6, 3, 7),
                                       (9, 2, 11)])
    def test_length_n_minus_one_is_never_built(self, monkeypatch, n, k, p):
        # Length n reads no multiplicity n - 1 and shorter lengths read
        # only lengths up to their own; every other length from 2 is built.
        lengths = set()
        preimage, level_one = enumeration._preimage, enumeration._level_one

        def spy_preimage(*args):
            lengths.add(len(w := preimage(*args)))
            return w

        def spy_level_one(l):
            lengths.update(map(len, ws := level_one(l)))
            return ws

        monkeypatch.setattr(enumeration, "_preimage", spy_preimage)
        monkeypatch.setattr(enumeration, "_level_one", spy_level_one)
        assert len(enumeration._construct(n, k, p)) == count_distinguished(
            n, k)
        assert lengths == {*range(2, n - 1), n}

    def test_level_two_preimages_at_length_20(self, forward_checked):
        # A seeded sample of the targets of D(20, 2) less D(20, 1): a shape
        # alpha != (20) and omega_i in D(l_i, 1), not all zero.
        rng = random.Random(20)
        shapes = [a.mult for a in partitions_mult(20) if len(a.mult) < 20]
        level_one = {l: [neutral(a.parts) for a in partitions_mult(l)]
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
        lambda ts: ts[:-1] + ts[:1],  # the first twice, the last lost
        lambda ts: ts[1:],
    ], ids=["duplicate", "lost"])
    def test_a_wrong_count_never_returns(self, monkeypatch, wrong, k):
        # The count is checked on every call that prunes nothing, before
        # the bound filters: at k = 1 no level lies below k, so bound 0
        # prunes nothing and keeps only the zero weight.  At k = 3 a bound
        # below the default would prune, so the default is taken.  Level 1
        # is a closed form, so k = 1 mutates it; k = 3 mutates the targets
        # of the levels above it.
        name = "_level_one" if k == 1 else "_targets"
        build = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name,
                            lambda *args: wrong(list(build(*args))))
        bound = 0 if k == 1 else default_bound(6, k, 7)
        with pytest.raises(RuntimeError, match=r"but count\(n, k\) = "):
            enumerate_distinguished(SearchBox(6, k, bound, 7))

    @pytest.mark.parametrize("n,k,p,bound", [
        (4, 100, 5, 10), (4, 200, 5, 10), (14, 3, 17, 500), (6, 3, 7, 20)])
    def test_a_bound_prunes_the_construction(self, n, k, p, bound):
        # The pruned construction keeps every weight of the full one within
        # the bound, at its depth, and builds fewer: 4,932 of the 7,382 of
        # D(14, 3) at bound 500, and 10 of D(4, 200)'s 40,601 at bound 10.
        pruned = enumeration._construct(n, k, p, bound)
        full = enumeration._construct(n, k, p)
        assert _filtered(pruned, bound) == _filtered(full, bound)
        assert enumeration._enumerate_depths(SearchBox(n, k, bound, p)) == (
            _filtered(full, bound))
        assert len(pruned) < len(full)

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
        assert enumeration._lv_mu(preimage, p) == target
        monkeypatch.setattr(enumeration, "_cells",
                            lambda n: {(2, 2): [cell, *cells]})
        assert enumeration._preimage(target, 6, p) == preimage


def neutral(parts):
    """h_lambda: the strings lambda_i - 1, lambda_i - 3, ..., 1 - lambda_i
    of the parts, merged into one weight."""
    return tuple(sorted(itertools.chain.from_iterable(
        range(v - 1, -v, -2) for v in parts), reverse=True))


def neutral_of_zero_target(target):
    """h_lambda read off a zero target of shape alpha != (n): the strings
    of the column sizes lambda = alpha', counted from its longest rows."""
    sizes = itertools.accumulate(map(len, reversed(target)))
    return tuple(sorted((v - 1 - 2 * j for v in sizes for j in range(v)),
                        reverse=True))


def checked_shapes(n, total):
    """The indices of the shapes of length n that level 1 is checked on:
    all of them for n <= 24 and n = 36, and a seeded sample of 200 at the
    other lengths."""
    if n > 24 and n != 36:
        return random.Random(n).sample(range(total), 200)
    return range(total)


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
    # n = 41 (count(42, 1) is over the limit) and a run with k >= 2 reach
    # n = 20, so level 1 is checked at every length to 41, on every alpha
    # for n <= 24 and n = 36 and on a seeded sample of 200 at the others.

    @pytest.mark.parametrize("n", range(42))
    def test_neutral_elements_map_to_zero_of_the_conjugate_shape(self, n):
        # ``_level_one`` inverts the zero target of every shape alpha but
        # (n), whose inverse is the zero weight: h_lambda for lambda = alpha'.
        alphas = partitions_mult(n)
        targets = [tuple((0,) * m for m in alpha.mult) for alpha in alphas]
        hs = [(0,) * n, *enumeration._level_one(n)]
        assert len(hs) == len(alphas)
        assert len(set(hs)) == len(hs) and hs[0] == (0,) * n
        for i in checked_shapes(n, len(hs)):
            parts = alphas[i].parts
            assert hs[i] == neutral(conjugate(parts)), parts
            assert enumeration._lv_mu(hs[i]) == targets[i], parts

    @pytest.mark.parametrize("n", range(42))
    def test_closed_form_matches_the_zero_targets(self, n):
        # The differential oracle of ``_level_one``: h_lambda read off the
        # column sizes of each zero target that ``_targets`` gives at level
        # 1, in that order, after alpha = (n).
        zero = {l: [(0,) * l] for l in range(n + 1)}
        targets = [tuple((0,) * m for m in partitions_mult(n)[0].mult),
                   *enumeration._targets(n, dict.fromkeys(zero, []), zero,
                                         zero)]
        hs = [(0,) * n, *enumeration._level_one(n)]
        assert len(hs) == len(targets) == count_distinguished(n, 1)
        for i in checked_shapes(n, len(hs)):
            assert hs[i] == neutral_of_zero_target(targets[i]), targets[i]

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


class TestPerShape:
    # lv(w) = p * omega with omega_i in D(l_i, k - 1), where l_i is the
    # multiplicity of part i in the shape alpha of lv(w), so D(n, k) holds
    # N_alpha = prod_i count(l_i, k - 1) members of each shape alpha of n;
    # the zero weight is the one member of alpha = (n).  Grouping by the
    # forward map's shape does not read the cells' row equations.

    @pytest.mark.parametrize("n,k,p", [
        (5, 5, 7), (6, 3, 7), (8, 2, 11), (4, 60, 5),
        *[(n, 1, 23) for n in range(21)]])
    def test_members_per_shape(self, n, k, p):
        shapes = collections.Counter(
            tuple(map(len, enumeration._lv_mu(w)))
            for w in enumeration._construct(n, k, p))
        assert shapes == {alpha.mult: math.prod(
            count_distinguished(l, k - 1) for l in alpha.mult)
            for alpha in partitions_mult(n)}
        if k == 1:  # one member per shape
            assert set(shapes.values()) == {1}


def count_to(l, d):
    """count(l, d), and 0 for d < 0."""
    return count_distinguished(l, d) if d >= 0 else 0


def placeholder_lists(d, top):
    """Stand-ins for the weights of lengths 0..top that level d's targets
    draw from, sized by the count recursion: per length, index ranges for
    depth below d - 1 (older), depth d - 1 (last) and both (every).  The
    indices of length i start at i * 10**6, so an index tells its length."""
    older, last, every = {}, {}, {}
    for i in range(top + 1):
        start, a, b = 10**6 * i, count_to(i, d - 2), count_to(i, d - 1)
        older[i] = range(start, start + a)
        last[i] = range(start + a, start + b)
        every[i] = range(start, start + b)
    return older, last, every


class TestTargets:
    # The p-free half of the construction, with no p and no inversion.

    @pytest.mark.parametrize("d", range(1, 7))
    def test_count_matches_the_recursion(self, d):
        # Level d has count(l, d) - count(l, d - 1) targets of length l.
        top = 24 if d <= 2 else 16 if d <= 4 else 12
        lists = placeholder_lists(d, top)
        for l in range(top + 1):
            got = sum(1 for _ in enumeration._targets(l, *lists))
            assert got == count_to(l, d) - count_to(l, d - 1), (l, d)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_each_target_once_with_a_component_from_the_last_level(self, d):
        lists = placeholder_lists(d, 12)
        last = lists[1]
        for l in range(13):
            targets = list(enumeration._targets(l, *lists))
            assert len(set(targets)) == len(targets), (l, d)
            for omega in targets:
                mult = tuple(x // 10**6 for x in omega)  # the shape alpha
                assert PartitionMult(mult).n == l and len(mult) < l, omega
                assert any(x in last[m] for x, m in zip(omega, mult)), omega


def primes_in_class(n, mod, r, count):
    """The first ``count`` primes above n that are r mod ``mod``."""
    found, q = [], n + 1
    while len(found) < count:
        if q % mod == r and all(q % f for f in range(2, math.isqrt(q) + 1)):
            found.append(q)
        q += 1
    return found


class TestUniformInP:
    # ``_construct``'s order does not depend on p, so the i-th weight at one
    # prime pairs with the i-th at another.  Within a residue class of p
    # each coordinate, and the depth, is then a polynomial of degree <= k in
    # p: fitted at k + 1 primes, it must predict two more.  The periods are
    # 1 for n <= 5, 3 for n = 6, 7, 12 for n = 8, 9 and 60 for n = 10.
    # Counts do not depend on p, so they miss a p-dependent fault in
    # ``_compile_cell`` or ``_preimage``; this oracle, which shares no code
    # with the forward map, does not.

    @pytest.mark.parametrize("n,k,mod,r", [
        (4, 3, 1, 0), (5, 3, 1, 0), (6, 3, 3, 1), (6, 3, 3, 2), (7, 3, 3, 1),
        (7, 3, 3, 2), *[(n, 2, 12, r) for n in (8, 9) for r in (1, 5, 7, 11)],
        *[(10, 2, 60, r) for r in (1, 11, 29, 59)],
    ])
    def test_coordinates_are_polynomials_in_p(self, n, k, mod, r):
        primes = primes_in_class(n, mod, r, k + 3)
        rows = [[(*w, depth) for w, depth in enumeration._construct(
            n, k, q).items()] for q in primes]
        fit = primes[:k + 1]
        for x, actual in zip(primes[k + 1:], rows[k + 1:]):
            basis = [math.prod(Fraction(x - b, a - b) for b in fit if b != a)
                     for a in fit]
            for i, row in enumerate(actual):
                points = zip(*(rows[j][i] for j in range(k + 1)))
                assert tuple(sum(map(operator.mul, basis, ys))
                             for ys in points) == row, (x, i, row)


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
    rows = phi(weight, 1)
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
    """``enumerate`` and ``families`` refuse, before any work, a D(n, k)
    over one of the documented limits of ``_check_size``."""

    # Cases refused under the earlier 20,000-weight limit keep their ids.
    @pytest.mark.parametrize("n,k,p,match", [
        (42, 1, 43, "more than 50000 distinguished weights"),
        (18, 3, 19, "more than 50000 distinguished weights"),
        pytest.param(21, 2, 23, "more than 39366 index cells",
                     id="21-2-23-more than 20000 distinguished weights"),
        (22, 2, 23, "more than 39366 index cells"),
        pytest.param(8, 1000, 11, "more than 50000 distinguished weights",
                     id="8-1000-11-more than 20000 distinguished weights"),
        pytest.param(2, 10**9, 3, "more than 50000 distinguished weights",
                     id="2-1000000000-3-more than 20000 distinguished "
                        "weights"),
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
        # n = 41 is the longest length allowed at k = 1, n = 20 at k = 2
        # (by the cell limit) and n = 17 at k = 3, and k = 222 the deepest
        # at n = 4; D(n, k) may hold exactly the weight limit.  The guard
        # returns the count the construction is checked against.
        limit = enumeration._MAX_WEIGHTS
        for n, k in [(41, 1), (20, 2), (17, 3), (4, 222), (2, 49_999)]:
            assert enumeration._check_size(n, k) == count_distinguished(n, k)
        assert count_distinguished(2, 49_999) == limit
        for n, k in [(42, 1), (21, 2), (22, 2), (18, 3), (4, 223),
                     (2, 50_000)]:
            with pytest.raises(ValueError):
                enumeration._check_size(n, k)
        assert count_distinguished(21, 2) < limit
        assert enumeration._check_size(40, 0) == 1
        assert enumeration._check_size(1, 10**9) == 1

    def test_the_cell_index_stays_within_length_20(self, monkeypatch):
        # count(n, k) does not fall as k grows, so every length past 20 is
        # refused at each k >= 2, the only runs that build ``_cells``; past
        # 41 every k >= 1 is, and past 64 ``count_distinguished`` refuses.
        for n in range(2, 65):
            for k, longest in [(1, 41), (2, 20), (3, 17)]:
                try:
                    enumeration._check_size(n, k)
                except ValueError:
                    assert n > longest, (n, k)
                else:
                    assert n <= longest, (n, k)
        # The guard's closed form counts the cells ``_cells`` builds: a
        # limit of exactly that many passes, one fewer refuses.
        for n in [*range(2, 17), 20]:
            cells = sum(map(len, enumeration._cells(n).values()))
            monkeypatch.setattr(enumeration, "_MAX_CELLS", cells)
            enumeration._check_size(n, 2)
            monkeypatch.setattr(enumeration, "_MAX_CELLS", cells - 1)
            with pytest.raises(ValueError, match="index cells"):
                enumeration._check_size(n, 2)
        assert cells == 39_366

    @pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 7)])
    def test_entry_size_limit_is_tight(self, n, p):
        # The last k whose largest entry converts to text passes and the
        # next does not; without p (the library prints nothing) neither is
        # checked.  Each passes the text limit too: (3, 5088, 7) prints at
        # most 131 MB.
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
    def test_family_entry_limit_is_tight(self, monkeypatch, n, p):
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
        w, _ = family_member(n, family, (max_k,), p)
        assert w[0] == default_bound(n, max_k, p)
        str(w[0])
        # At n = 4 the weight and text limits refuse first; lift them so
        # that the digit check decides.
        monkeypatch.setattr(enumeration, "_MAX_WEIGHTS", math.inf)
        monkeypatch.setattr(enumeration, "_MAX_TEXT", math.inf)
        enumeration._check_size(n, max_k, p)
        with pytest.raises(ValueError, match="decimal digits"):
            enumeration._check_size(n, max_k + 1, p)

    def test_family_member_limit_is_tight(self):
        # n = 4 has k^2 + 3k + 1 members to depth k: 40,601 at k = 200, and
        # the weight limit, the same as ``enumerate``'s, falls between
        # k = 222 and 223.  For n = 2 and 3 (at most 2k + 1 members) the
        # entry limit refuses first at every p.
        limit = enumeration._MAX_WEIGHTS
        assert (count_distinguished(4, 222) <= limit
                < count_distinguished(4, 223))
        enumeration._check_size(4, 200, 5)
        enumeration._check_size(4, 222, 5)
        with pytest.raises(ValueError,
                           match="more than 50000 distinguished weights"):
            enumeration._check_size(4, 223, 5)
        for n, p in [(2, 3), (3, 5)]:
            with pytest.raises(ValueError, match="decimal digits"):
                enumeration._check_size(n, limit // n, p)

    @pytest.mark.parametrize("n,k,p", [(4, 222, 20000000000000000011),
                                       (4, 139, 20000000000000000011),
                                       (3, 5088, 7), (41, 1, 43),
                                       (20, 2, 23)])
    def test_text_limit_is_tight(self, monkeypatch, n, k, p):
        # The guard bounds the text by count(n, k) * n * (digits + 2),
        # counting digits from the largest entry's log10, so it refuses a
        # limit one byte below that figure and passes one with one more
        # digit per entry.  At 2^27 bytes it refuses the huge-prime runs,
        # 853 and 211 MB, and passes the others.
        size = count_distinguished(n, k) * n
        digits = len(str(default_bound(n, k, p)))
        monkeypatch.setattr(enumeration, "_MAX_TEXT", size * (digits + 2) - 1)
        with pytest.raises(ValueError, match="bytes of text at n = "):
            enumeration._check_size(n, k, p)
        monkeypatch.setattr(enumeration, "_MAX_TEXT", size * (digits + 3))
        enumeration._check_size(n, k, p)
        monkeypatch.undo()
        assert (size * (digits + 2) > 2**27) == (p > 10**19)
        if p > 10**19:
            with pytest.raises(ValueError, match="bytes of text"):
                enumeration._check_size(n, k, p)
        else:
            enumeration._check_size(n, k, p)

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
        pytest.param(2, "A", (-1,), 5, "family A parameter must be >= 0, got -1",
                     id="2-A-params6-5-family parameters must be >= 0, got (-1,)"),
        pytest.param(4, "F4", (0, -1), 5,
                     "family F4 parameter must be >= 0, got -1",
                     id="4-F4-params7-5-family parameters must be >= 0, "
                        "got (0, -1)"),
        (4, "F4", (0, 1), 5, "F4 requires m >= 1"),
        pytest.param(4, "F4", (2, 0), 2,
                     "prime 2 must exceed the sequence length 4",
                     id="4-F4-params9-2-non-integral closed-form value 5/2"),
        pytest.param(2, "A", (-1.0,), 5,
                     "family A parameter must be an int, got -1.0",
                     id="2-A-params10-5-family parameters must be >= 0, "
                        "got (-1.0,)"),
        pytest.param(4, "F3", (1.0, 2), 5,
                     "family F3 parameter must be an int, got 1.0",
                     id="4-F3-params11-5-family parameters must be integers, "
                        "got (1.0, 2)"),
        pytest.param(2, "A", (True,), 5,
                     "family A parameter must be an int, got True",
                     id="2-A-params12-5-family parameters must be integers, "
                        "got (True,)"),
        pytest.param(4, "F4", (0, 1.0), 5,
                     "family F4 parameter must be an int, got 1.0",
                     id="4-F4-params13-5-family parameters must be integers, "
                        "got (0, 1.0)"),
        pytest.param(2, "A", ("1",), 5,
                     "family A parameter must be an int, got '1'",
                     id="2-A-params14-5-family parameters must be integers, "
                        "got ('1',)"),
        pytest.param(4, "F3", (1, None), 5,
                     "family F3 parameter must be an int, got None",
                     id="4-F3-params15-5-family parameters must be integers, "
                        "got (1, None)"),
        pytest.param(4, "F3", ("1", -1), 5,
                     "family F3 parameter must be an int, got '1'",
                     id="4-F3-params16-5-family parameters must be >= 0, "
                        "got ('1', -1)"),
        (4, "F1", (10**6,), 3, "prime 3 must exceed the sequence length 4"),
    ])
    def test_refusal_messages_in_order(self, n, family_id, params, p,
                                       message):
        # The checks run in the order n, family id, arity, each parameter's
        # int type then sign, the prime against n, F4's m >= 1; a case that
        # breaks several gets the first one's message.  Ids of cases whose
        # message changed are fixed, as in test_core.  Only p = 2 makes F4's
        # halves non-integral, and the prime check refuses it first.
        with pytest.raises(ValueError) as exc:
            closed_family(n, family_id, params, ModularContext(p))
        assert str(exc.value) == message

    def test_a_small_prime_is_refused_before_a_member_is_built(
            self, monkeypatch):
        def build(*args):
            raise AssertionError(f"_family_member{args}")
        monkeypatch.setattr(enumeration, "_family_member", build)
        for family_id, params in (("F1", (10**6,)), ("F4", (2, 0))):
            with pytest.raises(ValueError, match="^prime 3 must exceed the "
                                                 "sequence length 4$"):
                closed_family(4, family_id, params, ModularContext(3))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            closed_family(4, "F1", (1, 5), ModularContext(5))
        with pytest.raises(ValueError, match="parameter"):
            closed_family(4, "F3", (1,), ModularContext(5))

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_a_and_f1_are_the_staircase(self, p):
        # Family A (n = 2, 3) and F1 (n = 4) are rho_family's staircase,
        # and both are the literal closed forms with c = (p^m - 1)/(p - 1).
        ctx = ModularContext(p)
        for m in range(31):
            c = (p**m - 1) // (p - 1)
            literal = {2: (c, -c), 3: (2 * c, 0, -2 * c),
                       4: (3 * c, c, -c, -3 * c)}
            for n, family_id in ((2, "A"), (3, "A"), (4, "F1")):
                w, depth = family_member(n, family_id, (m,), p)
                assert w == rho_family(n, m, ctx) == literal[n], (n, m)
                assert depth == m

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
                    family_member(4, "F4", (m, k), p)
            else:
                x, y = x // den, y // den
                assert family_member(4, "F4", (m, k), p) == (
                    (x, y, -y, -x), m + k), (m, k)


class TestFamilyMemberTable:
    """``_family_depths`` reads every member from one table of ``_geom``;
    ``closed_family`` writes each from ``_geom`` and confirms it alone."""

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_members_match_closed_family(self, n, p):
        ctx = ModularContext(p)
        for max_k in (0, 1, 2, 7, 30):
            depths = enumeration._family_depths(n, ctx, max_k)
            for family_id, params in enumeration._family_params(n, max_k):
                w, depth = family_member(n, family_id, params, p)
                assert closed_family(n, family_id, params, ctx) == w
                assert depths.pop(w) == depth, (family_id, params)
            assert not depths


class TestGenerateFamilySet:
    def test_n2(self):
        ctx = ModularContext(5)
        assert generate_family_set(2, ctx, 2) == [(6, -6), (1, -1), (0, 0)]

    def test_n3_zero_budget(self):
        assert generate_family_set(3, ModularContext(11), 0) == [(0, 0, 0)]

    def test_rejects_n_without_families(self):
        message = "closed families exist only for n in {2, 3, 4}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_family_set(5, ModularContext(7), 1)

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

    @pytest.mark.parametrize("p", [5, 7])
    def test_settled_from_the_memo_as_by_a_fresh_memo(self, p):
        # A sequence whose divided components the shared memo holds is
        # settled from them, with no stack entry: each answer must be the
        # one a fresh memo gives, whichever components were seen first,
        # with a component that fails, or that is settled at the cap.
        ctx = ModularContext(p)
        members = [w for n in (2, 3, 4)
                   for w in generate_family_set(n, ctx, 5)]
        others = [(w[0] + 1, *w[1:-1], w[-1] - 1) for w in members if any(w)]
        rng = random.Random(p)
        others += [tuple(sorted((rng.randint(-60, 60) for _ in range(4)),
                                reverse=True)) for _ in range(200)]
        weights, seen = members + others, set()
        for cap in (0, 1, 2, 3, 5, 7):
            fresh = [_bounded_depth(w, cap, p, {}) for w in weights]
            seen.update(fresh)
            shuffled = list(range(len(weights)))
            rng.shuffle(shuffled)
            for order in (range(len(weights)), reversed(range(len(weights))),
                          shuffled):
                memo: dict = {}
                for i in order:
                    assert _bounded_depth(weights[i], cap, p, memo) == fresh[i]
        assert seen == {None, 0, 1, 2, 3, 4, 5}

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
            rows = scatter_records(order, ctx, cap=6)
            assert rows == [(w[: n // 2], expected[w]) for w in order]

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


def scatter_writers(tmp_path):
    """Each public scatter writer, called as write(rows, path), and a path."""
    return [(write_scatter_csv, tmp_path / "pts.csv"),
            (functools.partial(write_scatter_svg, p=5), tmp_path / "pts.svg")]


class TestScatter:
    def test_single_family_member(self):
        ctx = ModularContext(5)
        rows = scatter_records([(3, 1, -1, -3)], ctx, cap=5)
        assert rows == [((3, 1), 1)]

    def test_zero_weight(self):
        rows = scatter_records([(0, 0, 0, 0)], ModularContext(5), cap=5)
        assert rows == [((0, 0), 0)]

    def test_scaled_staircase(self):
        rows = scatter_records([(18, 6, -6, -18)], ModularContext(5), cap=5)
        assert rows == [((18, 6), 2)]

    def test_rejects_non_distinguished(self):
        with pytest.raises(ValueError, match="not distinguished"):
            scatter_records([(1, 0)], ModularContext(5), cap=5)

    def test_record_validation(self, tmp_path):
        # Each writer refuses a row whose coordinates rise or end below
        # zero, and makes no file.
        for write, path in scatter_writers(tmp_path):
            for coords in ((1, 2), (2, -1)):
                with pytest.raises(ValueError):
                    write([((3, 1), 1), (coords, 0)], path)
                assert not path.exists()

    @pytest.mark.parametrize("coords, depth, message", [  # ids fixed
        ((1.5, 0.5), 1, "weight has non-integer entry 1.5"),
        ((3, True), 1, "weight has non-integer entry True"),
        pytest.param((3, 1), True, "depth must be an int, got True",
                     id="coords2-True-depth must be an integer, got True"),
        pytest.param((3, 1), 1.0, "depth must be an int, got 1.0",
                     id="coords3-1.0-depth must be an integer, got 1.0"),
        # The coordinates come first, and depth's type before its sign.
        ((1, 2.0), 0, "not weakly decreasing at position 0: 1 < 2.0"),
        ((2, -1), 1.5, "coords must end >= 0: (2, -1)"),
        pytest.param((3, 1), -1.0, "depth must be an int, got -1.0",
                     id="coords6--1.0-depth must be >= 0, got -1.0"),
        pytest.param((1,), None, "depth must be an int, got None",
                     id="coords7-None-depth must be an integer, got None"),
        pytest.param((3, 1), "1", "depth must be an int, got '1'",
                     id="coords8-1-depth must be an integer, got '1'"),
    ])
    def test_record_refuses_what_is_not_an_int(self, tmp_path, coords,
                                               depth, message):
        # Each writer checks every row before it opens its file.
        for write, path in scatter_writers(tmp_path):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                write([(coords, depth)], path)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                write([((3, 1), 1), (list(coords), depth)], path)
            assert not path.exists()

    def test_csv(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_scatter_csv([((0, 0), 0), ((3, 1), 1)], path)
        assert path.read_text() == "x1,x2,depth\n3,1,1\n0,0,0\n"

    def test_csv_keeps_the_order_of_equal_coordinates(self, tmp_path):
        # The sort by coordinates is stable.
        path = tmp_path / "pts.csv"
        write_scatter_csv([((1, 0), 2), ((3, 1), 1), ((1, 0), 1)], path)
        assert path.read_text() == "x1,x2,depth\n3,1,1\n1,0,2\n1,0,1\n"

    def test_csv_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_scatter_csv([], path, ncoords=2)
        assert path.read_text() == "x1,x2,depth\n"

    def test_csv_single_zero_row(self, tmp_path):
        path = tmp_path / "one.csv"
        write_scatter_csv([((0, 0), 0)], path)
        assert path.read_text().splitlines()[1] == "0,0,0"

    def test_csv_without_coordinates(self, tmp_path):
        # n = 0 and 1 have no free coordinates: the row is the depth alone.
        path = tmp_path / "none.csv"
        write_scatter_csv([((), 0)], path)
        assert path.read_bytes() == b"depth\n0\n"

    def test_csv_refuses_a_record_of_another_length(self, tmp_path):
        path = tmp_path / "mixed.csv"
        with pytest.raises(ValueError, match="^record has 1 coordinates, "
                                             "expected 2$"):
            write_scatter_csv([((3, 1), 1), ((0,), 0)], path)
        assert not path.exists()

    @pytest.mark.parametrize("coords, depth, what", [
        pytest.param((10 ** 5000, 1), 1, "the largest coordinate", id="x1"),
        pytest.param((3, 1), 10 ** 5000, "the largest depth", id="depth"),
    ])
    def test_csv_refuses_an_unprintable_integer_before_opening(
            self, tmp_path, coords, depth, what):
        # Checked after the sort, so a file is made only if it is whole.
        path = tmp_path / "huge.csv"
        with pytest.raises(ValueError, match=f"^{what} has more than "):
            write_scatter_csv([((2, 0), 0), (coords, depth)], path)
        assert not path.exists()

    def test_svg_deterministic(self, tmp_path):
        ctx = ModularContext(5)
        rows = scatter_records(
            generate_family_set(4, ctx, 4), ctx, cap=4
        )
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        write_scatter_svg(rows, a, p=5)
        write_scatter_svg(rows, b, p=5)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("<svg")
        assert "log base 5" in text
        assert text.count("<circle") == len(rows)

    @pytest.mark.parametrize("n,p,max_k,digest", [
        (4, 5, 4,
         "1815011fef3570d2ab537f99537032570e7d54e3a7897d11598690f60837e797"),
        (3, 7, 5,
         "ad5f12913430cfe0363e77b47cf1619ed22e48eddd22a8796c18de3b3379c36b"),
        (2, 3, 6,
         "6340b1ecf7f8d13bdc11ddc21e5f3d6839586ec351e4fd286d6b6693f538eff0"),
        (1, 2, 0,
         "a34a1bebf8bfe03c3f6f7c5449c2d6692799003c8f512f8ef34bc4a3cd7d9b1e"),
    ])
    def test_svg_bytes_are_pinned(self, tmp_path, n, p, max_k, digest):
        # The bytes of the SVG when it was joined whole before one write:
        # two coordinates, one (y drawn as zero), and none at n = 1.
        ctx = ModularContext(p)
        rows = ([((), 0)] if n == 1 else scatter_records(
            generate_family_set(n, ctx, max_k), ctx, max_k))
        path = tmp_path / "pts.svg"
        write_scatter_svg(rows, path, p)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, p, max_k", [(4, 5, 4), (3, 7, 5), (2, 3, 6)])
    def test_list_coords_write_the_bytes_of_tuple_coords(self, tmp_path, n,
                                                         p, max_k):
        ctx = ModularContext(p)
        rows = scatter_records(generate_family_set(n, ctx, max_k), ctx, max_k)
        listed = [(list(coords), depth) for coords, depth in rows]
        for write, path in scatter_writers(tmp_path):
            twin = path.with_name("listed" + path.suffix)
            write(rows, path)
            write(listed, twin)
            assert twin.read_bytes() == path.read_bytes()

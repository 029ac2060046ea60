"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
live).  The heavy enumeration grid runs once in a module fixture and is
shared by the criteria that consume it.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from lvweights import (
    ModularContext,
    OmegaElement,
    SearchBox,
    apply_E,
    apply_E_inverse,
    count_distinguished,
    default_bound,
    distinguished_depth,
    enumerate_distinguished,
    generate_family_set,
    iterate,
    kappa,
    leading_coefficient,
    lv,
    phi,
    phi_inverse,
    reverse_negate,
    reverse_negate_omega,
    rho_family,
    scatter_records,
    telephone,
    write_scatter_csv,
)
from lvweights.enumeration import _construct, _enumerate_depths
from lvweights.modular_iteration import STATUS_EXPANDED, STATUS_ZEROS
from lvweights.verify import random_clump_weight, random_weight

JOBS = os.cpu_count() or 1

GOLDEN_WEIGHT = (46, 46, 45, 1, -1, -45, -46, -46)
GOLDEN_PHI = ((46, 45, 46), (1,), (-1,), (-45, -46, -46))
GOLDEN_EINV = ((43, 44, 45), (0,), (0,), (-42, -45, -45))
GOLDEN_OMEGA = ((0, 0), (), (132, -132))

SUBCASES = [
    ((9, 9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 5, 5, 4, 4, 4, 3, 3),
     ((), (12,), (), (24,), (32,), (), (39,)),
     ((), (-12,), (), (-24,), (-32,), (), (-39,))),
    ((9, 8, 8, 8, 7, 7, 6, 6, 5, 4, 3, 3),
     ((6,), (), (18, 17), (), (33,)),
     ((-6,), (), (-17, -18), (), (-33,))),
    ((9, 9, 8, 8, 7, 6, 6, 5, 5, 4, 4, 4),
     ((), (), (19,), (27,), (29,)),
     ((), (), (-19,), (-27,), (-29,))),
    ((9, 9, 8, 8, 7, 7, 7, 6, 5, 5, 4, 4),
     ((), (), (20,), (25,), (34,)),
     ((), (), (-20,), (-25,), (-34,))),
]

POLYNOMIALS = {
    1: lambda k: 1,
    2: lambda k: k + 1,
    3: lambda k: 2 * k + 1,
    4: lambda k: k * k + 3 * k + 1,
    5: lambda k: 2 * k * k + 4 * k + 1,
    6: lambda k: (4 * k**3 + 27 * k**2 + 29 * k + 6) // 6,
}

# Agreement grid: all lengths up to 4 for three primes, lengths 5 and 6 for
# p = 7 at smaller budgets.
GRID = [(n, k, p) for p in (5, 7, 11) for n in range(5) for k in range(5)]
GRID += [(n, k, 7) for n in (5, 6) for k in range(4)]


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def grid_results(forward_checked):
    """(n, k, p) -> weights enumerated at the default bound, and the count
    the recursion gives; the consuming tests compare the two.  The forward
    map checks every preimage the construction accepts."""
    t0 = time.perf_counter()
    results = {}
    with forward_checked() as checked:
        for n, k, p in GRID:
            box = SearchBox(n, k, default_bound(n, k, p), p)
            weights = enumerate_distinguished(box, jobs=JOBS)
            results[(n, k, p)] = (weights, count_distinguished(n, k))
    assert checked
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_corpus():
    rng = random.Random(74110)
    return [random_weight(rng, max_n=8, lo=-50, hi=50) for _ in range(10_000)]


def test_criterion_01_golden_pipeline():
    with criterion(1, "golden pipeline with intermediate diagrams, < 1 ms"):
        x = phi(GOLDEN_WEIGHT, base=1)
        assert x == GOLDEN_PHI
        y = apply_E_inverse(x)
        assert y == GOLDEN_EINV
        assert kappa(y).mu == GOLDEN_OMEGA
        assert lv(GOLDEN_WEIGHT, base=1).mu == GOLDEN_OMEGA
        assert _best_time(lambda: lv(GOLDEN_WEIGHT, base=1)) < 1e-3


def test_criterion_02_golden_iteration():
    with criterion(2, "golden iteration: depth 3 and exact trace, < 1 ms"):
        ctx = ModularContext(11)
        assert distinguished_depth(GOLDEN_WEIGHT, ctx, 10) == 3
        t = iterate(GOLDEN_WEIGHT, ctx, cap=5)
        assert [c.seq for c in t.children] == [(0, 0), (), (12, -12)]
        node = t.children[2]
        assert node.status == STATUS_EXPANDED
        assert [c.seq for c in node.children] == [(1, -1)]
        node = node.children[0]
        assert [c.seq for c in node.children] == [(0, 0)]
        assert node.children[0].status == STATUS_ZEROS
        assert all(
            leaf.status == STATUS_ZEROS for leaf in t.leaves()
        )
        assert _best_time(
            lambda: distinguished_depth(GOLDEN_WEIGHT, ctx, 10)
        ) < 1e-3


def test_criterion_03_subcase_vectors():
    with criterion(3, "four multi-clump vectors and their mirror images"):
        for w, expected, mirrored in SUBCASES:
            assert lv(w).mu == expected
            assert lv(reverse_negate(w)).mu == mirrored
            assert reverse_negate_omega(OmegaElement(expected)).mu == mirrored


def test_criterion_04_counting_polynomials():
    with criterion(4, "count recursion matches closed polynomials, < 1 s"):
        t0 = time.perf_counter()
        for n, poly in POLYNOMIALS.items():
            for k in range(26):
                assert count_distinguished(n, k) == poly(k), (n, k)
        assert count_distinguished(4, 2) == 11
        assert count_distinguished(6, 2) == 34
        assert count_distinguished(5, 3) == 31
        assert time.perf_counter() - t0 < 1.0


def test_criterion_05_enumeration_recursion_agreement(grid_results):
    with criterion(5, "enumeration count = recursion count on the grid, < 2 min"):
        results, elapsed = grid_results
        for (n, k, p), (weights, expected) in results.items():
            assert len(weights) == expected, (n, k, p)
            assert weights == sorted(weights, reverse=True), (n, k, p)
        assert elapsed < 120.0, f"grid took {elapsed:.1f}s"


def test_criterion_06_antisymmetry(grid_results):
    with criterion(6, "every enumerated distinguished weight is R-fixed"):
        results, _ = grid_results
        checked = 0
        for (n, k, p), (weights, _) in results.items():
            for w in weights:
                assert reverse_negate(w) == w, (n, k, p, w)
                checked += 1
        assert checked > 0


@pytest.mark.parametrize("n, k, p, bound", [
    (6, 1, 7, 10), (5, 1, 7, 8), (3, 2, 5, 24)])
def test_full_boxes_find_exactly_the_construction(n, k, p, bound):
    # Criterion 6 reads built weights, anti-symmetric by construction, so it
    # cannot fail.  Here every weakly decreasing weight with entries in
    # [-bound, bound], twice the default bound, is iterated: the
    # distinguished ones are exactly D(n, k) with its depths, so each is
    # anti-symmetric and none is missed, and lv is injective on the box.
    assert bound == 2 * default_bound(n, k, p)
    ctx = ModularContext(p)
    found, images = {}, set()
    for size, w in enumerate(itertools.combinations_with_replacement(
            range(bound, -bound - 1, -1), n), 1):
        images.add(lv(w).mu)
        if (depth := distinguished_depth(w, ctx, k)) is not None:
            found[w] = depth
    assert len(images) == size
    assert found == _construct(n, k, p)


def test_a_bound_prunes_to_the_filtered_construction():
    # Each top of D(n, k) on the grid below the default bound, and one less,
    # taken as the bound: the pruned construction gives the weights of the
    # full one within it, with their depths.  At a bound equal to a weight's
    # top, a component of it can sit at the pruning threshold.
    bounds = 0
    for n, k, p in GRID:
        full = _construct(n, k, p)
        tops = {t for w in full if w for t in (w[0], w[0] - 1)}
        for bound in sorted(t for t in tops
                            if 0 <= t < default_bound(n, k, p)):
            expected = {w: d for w, d in full.items()
                        if not w or w[0] <= bound}
            assert _enumerate_depths(SearchBox(n, k, bound, p)) == expected, (
                n, k, p, bound)
            bounds += 1
    assert bounds > 500


def test_criterion_07_r_commutation(random_corpus):
    with criterion(7, "R-commutation on 10^4 random weights plus clumps"):
        for w in random_corpus:
            assert lv(reverse_negate(w)) == reverse_negate_omega(lv(w)), w
        rng = random.Random(74111)
        for _ in range(1000):
            w = random_clump_weight(rng, max_n=8)
            assert lv(reverse_negate(w), base=0) == reverse_negate_omega(
                lv(w, base=0)
            ), w


def test_criterion_08_round_trips(random_corpus):
    with criterion(8, "round trips and sum conservation on the corpus"):
        for w in random_corpus:
            for base in (0, 1):
                x = phi(w, base)
                assert phi_inverse(x) == w
                assert apply_E(apply_E_inverse(x)) == x
                assert lv(w, base).entry_sum == sum(w)


def test_criterion_09_figure_reproduction(tmp_path):
    with criterion(9, "scatter reproduction: 461 weights, interior boxes"):
        ctx5 = ModularContext(5)
        fam = generate_family_set(4, ctx5, 20)
        assert len(fam) == 461 == 20**2 + 3 * 20 + 1
        records = scatter_records(fam, ctx5, cap=20)  # forward verification
        csv_path = tmp_path / "scatter_n4_p5.csv"
        write_scatter_csv(records, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x1,x2,depth"
        assert len(lines) == 462

        # Interior boxes p^k1 <= x < p^(k1+1), p^k2 <= y < p^(k2+1) with
        # k1 > k2 + 2 hold exactly one weight.  Boxes with k1 > 18 need
        # depth > 20 members and are not covered at this budget.
        by_box = {}
        for w in fam:
            x, y = w[0], w[1]
            if x < 1 or y < 1:
                continue
            k1 = k2 = 0
            while 5 ** (k1 + 1) <= x:
                k1 += 1
            while 5 ** (k2 + 1) <= y:
                k2 += 1
            by_box[(k1, k2)] = by_box.get((k1, k2), 0) + 1
        for k2 in range(0, 16):
            for k1 in range(k2 + 3, 19):
                assert by_box.get((k1, k2), 0) == 1, (k1, k2)

        # The length-5 weights at p = 7 within 4 levels: the (3, 0) box
        # holds exactly 3 of them.
        ctx7 = ModularContext(7)
        bound = default_bound(5, 4, 7)
        found = enumerate_distinguished(SearchBox(5, 4, bound, 7), jobs=JOBS)
        assert len(found) == count_distinguished(5, 4)
        in_box = [
            w for w in found if 7**3 <= w[0] < 7**4 and 1 <= w[1] < 7
        ]
        assert len(in_box) == 3, in_box
        for w in in_box:
            assert distinguished_depth(w, ctx7, 4) is not None


def test_criterion_09_odd_length_scatter():
    with criterion(9, "odd-length scatter: 881 weights at n = 5, p = 7"):
        ctx7 = ModularContext(7)
        box = SearchBox(5, 20, default_bound(5, 20, 7), 7)
        found = enumerate_distinguished(box, jobs=JOBS)
        assert len(found) == 881 == count_distinguished(5, 20)
        records = scatter_records(found, ctx7, cap=20)  # forward verification
        assert len(records) == 881

        # Boxes 7^k1 <= x1 < 7^(k1+1), 7^k2 <= x2 < 7^(k2+1) with
        # k2 + 2 <= k1 <= 19 hold exactly three weights each.
        by_box = {}
        for w in found:
            x, y = w[0], w[1]
            if x < 1 or y < 1:
                continue
            k1 = k2 = 0
            while 7 ** (k1 + 1) <= x:
                k1 += 1
            while 7 ** (k2 + 1) <= y:
                k2 += 1
            by_box[(k1, k2)] = by_box.get((k1, k2), 0) + 1
        for k2 in range(0, 18):
            for k1 in range(k2 + 2, 20):
                assert by_box.get((k1, k2), 0) == 3, (k1, k2)


def test_criterion_10_asymptotics():
    with criterion(10, "telephone values, coefficient agreement, ratios, < 5 s"):
        t0 = time.perf_counter()
        assert [telephone(i) for i in range(7)] == [1, 1, 2, 4, 10, 26, 76]
        for n in range(60, 1, -1):  # d! times the count's top difference
            seq = [count_distinguished(n, k) for k in range(n // 2 + 1)]
            for _ in range(n // 2):
                seq = [b - a for a, b in zip(seq, seq[1:])]
            assert seq == [leading_coefficient(n) * factorial(n // 2)], n
        for n in (7, 8):
            b = leading_coefficient(n)
            h = n // 2
            r200 = Fraction(count_distinguished(n, 200)) / (b * 200**h)
            r400 = Fraction(count_distinguished(n, 400)) / (b * 400**h)
            assert Fraction(85, 100) <= r200 <= Fraction(115, 100), (n, r200)
            assert abs(r400 - 1) < abs(r200 - 1), n
        assert time.perf_counter() - t0 < 5.0


def test_criterion_11_staircase_family():
    with criterion(11, "scaled staircase reaches zeros in exactly m levels, < 10 s"):
        t0 = time.perf_counter()
        # Lengths 0 and 1 are degenerate (the staircase is all zeros), so
        # the depth claim starts at length 2.
        for p in (11, 13):
            ctx = ModularContext(p)
            for n in range(2, 9):
                for m in range(7):
                    w = rho_family(n, m, ctx)
                    assert distinguished_depth(w, ctx, m) == m, (n, m, p)
                    node = iterate(w, ctx, cap=m)
                    for _ in range(m):
                        assert node.status == STATUS_EXPANDED
                        assert len(node.children) == 1
                        node = node.children[0]
                    assert node.status == STATUS_ZEROS
                    assert node.seq == (0,) * n
        assert time.perf_counter() - t0 < 10.0

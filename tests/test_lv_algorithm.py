import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    OmegaElement,
    apply_E,
    apply_E_inverse,
    generate_family_set,
    kappa,
    lv,
    lv_p,
    maximal_clumps,
    phi,
    phi_inverse,
    reverse_negate,
    reverse_negate_omega,
)
from lvweights.core import diagram_column, dom

GOLDEN_WEIGHT = (46, 46, 45, 1, -1, -45, -46, -46)
GOLDEN_PHI = ((46, 45, 46), (1,), (-1,), (-45, -46, -46))
GOLDEN_EINV = ((43, 44, 45), (0,), (0,), (-42, -45, -45))
GOLDEN_OMEGA = ((0, 0), (), (132, -132))

weights = st.lists(st.integers(-50, 50), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def reference_lv(w, base):
    """``lv`` transcribed from its definition, sharing no kernel with the
    library past ``phi``: add 2t - (c - 1) to the t-th entry (from 0) of
    every column of size c, then let mu_i be ``dom`` of the row sums of the
    length-i rows."""
    x = phi(w, base)
    ncols = max((len(r) for r in x), default=0)
    sizes = [len(diagram_column(x, j)) for j in range(1, ncols + 1)]
    seen = [0] * ncols  # entries of each column met so far, top down
    sums = {}
    for row in x:
        total = 0
        for j, v in enumerate(row):
            total += v + 2 * seen[j] - (sizes[j] - 1)
            seen[j] += 1
        sums.setdefault(len(row), []).append(total)
    return tuple(dom(sums.get(i, ())) for i in range(1, ncols + 1))


def reference_lv_p(w, p):
    """``reference_lv`` divided by p by hand, or None."""
    mu = reference_lv(w, 1)
    if any(e % p for part in mu for e in part):
        return None
    return tuple(tuple(e // p for e in part) for part in mu)


def single_column(w):
    return all(a - b >= 2 for a, b in zip(w, w[1:]))


def clump_weights():
    # Single maximal clump: consecutive distinct values, multiplicities >= 1.
    return st.tuples(
        st.integers(-20, 20),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
    ).map(
        lambda tm: tuple(
            v
            for i, m in enumerate(tm[1])
            for v in [tm[0] - i] * m
        )
    )


class TestMaximalClumps:
    def test_golden(self):
        assert maximal_clumps(GOLDEN_WEIGHT) == (
            (46, 46, 45), (1,), (-1,), (-45, -46, -46)
        )

    def test_single(self):
        assert maximal_clumps((5, 4, 3)) == ((5, 4, 3),)

    def test_empty(self):
        assert maximal_clumps(()) == ()

    @given(weights)
    def test_partition_properties(self, w):
        clumps = maximal_clumps(w)
        flat = tuple(v for c in clumps for v in c)
        assert flat == w
        for c in clumps:
            vals = sorted(set(c))
            assert vals == list(range(vals[0], vals[-1] + 1))
        for a, b in zip(clumps, clumps[1:]):
            assert a[-1] - b[0] >= 2


class TestPhi:
    def test_golden(self):
        assert phi(GOLDEN_WEIGHT, base=1) == GOLDEN_PHI

    def test_all_zeros_single_row(self):
        for n in (1, 2, 5):
            assert phi((0,) * n, base=1) == ((0,) * n,)

    def test_hand_traced_repeats(self):
        # Hand-trace of the construction: columns pick 1,0,1,0 alternately.
        assert phi((1, 1, 0, 0), base=1) == ((1, 0, 1, 0),)

    def test_base_zero_parity_flip(self):
        # Column 0 is even, so the even-selection rule picks 0 first.
        assert phi((1, 0), base=0) == ((0, 1),)
        assert phi((1, 0), base=1) == ((1, 0),)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            phi((1, 0), base=2)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            phi((0, 1))

    @given(weights, st.sampled_from([0, 1]))
    def test_round_trip_and_column_gaps(self, w, base):
        x = phi(w, base)
        assert phi_inverse(x) == w
        ncols = max((len(r) for r in x), default=0)
        for j in range(1, ncols + 1):
            col = diagram_column(x, j)
            for a, b in zip(col, col[1:]):
                assert a - b >= 2


class TestPhiInverse:
    def test_golden(self):
        assert phi_inverse(GOLDEN_PHI) == GOLDEN_WEIGHT

    def test_empty(self):
        assert phi_inverse(()) == ()

    def test_hand_traced(self):
        assert phi_inverse(((1, 0, 1, 0),)) == (1, 1, 0, 0)


class TestApplyE:
    def test_tie_break(self):
        # Equal values: the lower row ranks first, so the top entry moves up.
        assert apply_E(((0,), (0,))) == ((1,), (-1,))

    def test_singleton_fixed(self):
        for c in (-7, 0, 3):
            assert apply_E(((c,),)) == ((c,),)

    def test_reverses_golden_correction(self):
        assert apply_E(GOLDEN_EINV) == GOLDEN_PHI

    def test_first_column_values(self):
        assert diagram_column(apply_E(GOLDEN_EINV), 1) == (46, 1, -1, -45)


class TestApplyEInverse:
    def test_golden(self):
        assert apply_E_inverse(GOLDEN_PHI) == GOLDEN_EINV

    def test_singleton_fixed(self):
        for c in (-7, 0, 3):
            assert apply_E_inverse(((c,),)) == ((c,),)

    def test_two_rows(self):
        assert apply_E_inverse(((3,), (1,))) == ((2,), (2,))

    @pytest.mark.parametrize("gap", [1, 0, -1])
    @pytest.mark.parametrize("column", [1, 2])
    def test_rejects_small_gap_naming_column(self, gap, column):
        # The check sees corrected entries; the message must quote the
        # entries as given.
        if column == 1:
            x, a = ((5,), (5 - gap,)), 5
        else:
            x, a = ((5, 3), (1, 3 - gap)), 3
        message = f"column {column} gap below 2: {a} then {a - gap}"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_E_inverse(x)

    @given(weights, st.sampled_from([0, 1]))
    def test_round_trips_on_phi_images(self, w, base):
        x = phi(w, base)
        assert apply_E(apply_E_inverse(x)) == x
        assert apply_E_inverse(apply_E(x)) == x


class TestKappa:
    def test_golden(self):
        assert kappa(GOLDEN_EINV).mu == GOLDEN_OMEGA

    def test_single_row(self):
        assert kappa(((0, 0, 0),)).mu == ((), (), (0,))

    def test_mixed_lengths(self):
        assert kappa(((2, 2), (5,), (1, 0))).mu == ((5,), (4, 1))
        assert kappa(((1, 0), (5,), (2, 2))).mu == ((5,), (4, 1))

    def test_empty(self):
        assert kappa(()).mu == ()


class TestLv:
    def test_golden(self):
        assert lv(GOLDEN_WEIGHT, base=1).mu == GOLDEN_OMEGA

    def test_all_zeros(self):
        for n in (1, 3, 6):
            assert lv((0,) * n).mu == ((),) * (n - 1) + ((0,),)

    def test_small_staircase(self):
        assert lv((1, 0, -1)).mu == ((0,), (0,))

    @pytest.mark.parametrize(
        "w, expected",
        [
            ((9, 9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 5, 5, 4, 4, 4, 3, 3),
             ((), (12,), (), (24,), (32,), (), (39,))),
            ((9, 8, 8, 8, 7, 7, 6, 6, 5, 4, 3, 3),
             ((6,), (), (18, 17), (), (33,))),
            ((9, 9, 8, 8, 7, 6, 6, 5, 5, 4, 4, 4),
             ((), (), (19,), (27,), (29,))),
            ((9, 9, 8, 8, 7, 7, 7, 6, 5, 5, 4, 4),
             ((), (), (20,), (25,), (34,))),
        ],
    )
    def test_multiclump_cases(self, w, expected):
        assert lv(w).mu == expected
        assert lv(reverse_negate(w)).mu == reverse_negate_omega(
            OmegaElement(expected)
        ).mu

    @given(weights, st.sampled_from([0, 1]))
    def test_matches_staged_composition(self, w, base):
        # Guards the fused single-column fast path inside lv.
        assert lv(w, base) == kappa(apply_E_inverse(phi(w, base)))

    @given(st.one_of(weights, clump_weights()), st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_matches_reference(self, w, base):
        assert lv(w, base).mu == reference_lv(w, base)

    @given(weights, st.sampled_from([0, 1]))
    def test_output_validity_and_sums(self, w, base):
        o = lv(w, base)
        assert o.n == len(w)
        assert o.entry_sum == sum(w)

    @given(weights)
    @settings(max_examples=300)
    def test_reverse_negate_commutation(self, w):
        assert lv(reverse_negate(w)) == reverse_negate_omega(lv(w))

    @given(clump_weights())
    @settings(max_examples=300)
    def test_base0_commutation_on_clumps(self, w):
        assert lv(reverse_negate(w), base=0) == reverse_negate_omega(
            lv(w, base=0)
        )

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("base", [0, 1])
    def test_injective_on_small_box(self, n, base):
        # The map is a bijection, so distinct weights must map to distinct
        # outputs; an exhaustive small box is a sharp independent check on
        # the placement and correction rules.
        import itertools

        seen = {}
        for w in itertools.combinations_with_replacement(range(4, -5, -1), n):
            mu = lv(w, base).mu
            assert mu not in seen, (w, seen[mu])
            seen[mu] = w


class TestLvPAgainstReference:
    """``lv_p`` against ``reference_lv`` divided by hand, on both paths of
    the map and with both outcomes."""

    @pytest.mark.parametrize("n,bound,p", [(4, 60, 5), (5, 40, 7),
                                           (6, 30, 7), (7, 16, 11)])
    def test_integral_on_sieved_candidates(self, n, bound, p):
        # The sieve yields exactly the box points whose first division by
        # p is integral.
        ctx = ModularContext(p)
        sieved = [
            w for least in enumeration._cell_minima(n, bound)
            if (cell := enumeration._compile_cell(least, n, p)) is not None
            for w in enumeration._cell_weights(*cell, p, bound)
        ]
        assert {single_column(w) for w in sieved} == {True, False}
        for w in sieved:
            expected = reference_lv_p(w, p)
            assert expected is not None, w
            assert lv_p(w, ctx).mu == expected, w

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7])
    def test_integral_on_family_members(self, n, p):
        ctx = ModularContext(p)
        members = generate_family_set(n, ctx, 4)
        assert {single_column(w) for w in members} == {True, False}
        for w in members:
            expected = reference_lv_p(w, p)
            assert expected is not None, w
            assert lv_p(w, ctx).mu == expected, w

    @given(weights, st.sampled_from([11, 13]))
    @settings(max_examples=300)
    def test_random_weights(self, w, p):
        got = lv_p(w, ModularContext(p))
        assert (None if got is None else got.mu) == reference_lv_p(w, p)

    def test_none_on_both_paths(self):
        # (5, 2, -1) is one column and (3, 3, 1) is not; neither divides.
        ctx = ModularContext(11)
        for w in [(5, 2, -1), (3, 3, 1)]:
            assert lv_p(w, ctx) is None and reference_lv_p(w, 11) is None


def _sorted_column_diagrams():
    # Diagrams whose columns strictly decrease with gaps >= 2: the stated
    # domain of the column correction, built column-first.
    def build(spec):
        lengths, tops, steps = spec
        rows = [[0] * ln for ln in lengths]
        ncols = max(lengths, default=0)
        for j in range(ncols):
            idx = [i for i, ln in enumerate(lengths) if ln > j]
            v = tops[j % len(tops)]
            for t, i in enumerate(idx):
                rows[i][j] = v
                v -= 2 + steps[(j + t) % len(steps)]
        return tuple(tuple(r) for r in rows)

    return st.tuples(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
    ).map(build)


class TestCorrectionOnGeneralDiagrams:
    @given(_sorted_column_diagrams())
    def test_round_trip(self, x):
        assert apply_E(apply_E_inverse(x)) == x

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvweights import (
    ModularContext,
    OmegaElement,
    SearchBox,
    apply_E,
    apply_E_inverse,
    enumerate_distinguished,
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
from lvweights import lv_algorithm
from lvweights.core import dom
from lvweights.lv_algorithm import (
    PlacementError,
    _correct_columns,
    _lv_mu,
    _phi_rows,
    _template,
)


def diagram_column(x, j):
    """Entries of 1-based column ``j`` of the diagram ``x``, top to
    bottom."""
    return tuple(row[j - 1] for row in x if len(row) >= j)


GOLDEN_WEIGHT = (46, 46, 45, 1, -1, -45, -46, -46)
GOLDEN_PHI = ((46, 45, 46), (1,), (-1,), (-45, -46, -46))
GOLDEN_EINV = ((43, 44, 45), (0,), (0,), (-42, -45, -45))
GOLDEN_OMEGA = ((0, 0), (), (132, -132))

weights = st.lists(st.integers(-50, 50), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def reference_phi(w, base):
    """``phi`` transcribed from its definition, sharing no code with the
    library.  Column r, counted from ``base``, takes every other distinct
    value of each maximal clump of the values not yet placed: from the
    second when r and the clump's count of distinct values are both even,
    from the first otherwise.  The first column starts one row per value;
    later each value z, largest first, goes to the end of the topmost row
    that ends in column r - 1 with z or z + (-1)^r."""
    left = sorted(w, reverse=True)
    rows = []
    r = base
    while left:
        clumps = []
        for v in sorted(set(left), reverse=True):
            if clumps and clumps[-1][-1] == v + 1:
                clumps[-1].append(v)
            else:
                clumps.append([v])
        column = []
        for c in clumps:
            column += c[1 if r % 2 == 0 and len(c) % 2 == 0 else 0::2]
        for z in column:
            left.remove(z)
            if r == base:
                rows.append([z])
                continue
            for row in rows:
                if len(row) == r - base and row[-1] in (z, z + (-1) ** r):
                    row.append(z)
                    break
            else:
                raise AssertionError(f"no open row for {z} in column {r}")
        r += 1
    return tuple(map(tuple, rows))


def reference_apply_E(x):
    """``apply_E`` transcribed from its docstring, sharing no code with the
    library: rank each column's entries by (value, -row) and add
    2m - (c - 1) to the entry of rank m in a column of size c."""
    rows = [list(row) for row in x]
    for j in range(max(map(len, rows), default=0)):
        ranked = sorted((row[j], -i, i) for i, row in enumerate(rows)
                        if len(row) > j)
        for m, (_, _, i) in enumerate(ranked):
            rows[i][j] += 2 * m - (len(ranked) - 1)
    return tuple(map(tuple, rows))


def reference_lv(w, base):
    """``lv`` transcribed from its definition on ``reference_phi``, sharing
    no code with the library: add 2t - (c - 1) to the t-th entry (from 0)
    of every column of size c, then let mu_i be ``dom`` of the row sums of
    the length-i rows."""
    x = reference_phi(w, base)
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


def reference_lv_p(w, p, base=1):
    """``reference_lv`` divided by p by hand, or None."""
    mu = reference_lv(w, base)
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


def multi_clump_weights():
    # Up to 16 entries in maximal clumps (consecutive distinct values,
    # multiplicities 1-3), neighbouring clumps 2 to 4 apart, the whole
    # weight shifted by a small offset or one as large as 17**40.
    def build(spec):
        clumps, v = spec
        w = []
        for mults, gap in clumps:
            for m in mults:
                w += [v] * m
                v -= 1
            v -= gap - 1
        return tuple(w[:16])

    return st.tuples(
        st.lists(st.tuples(st.lists(st.integers(1, 3), min_size=1,
                                    max_size=5),
                           st.integers(2, 4)),
                 min_size=1, max_size=6),
        st.one_of(st.integers(-20, 20), st.integers(-17**40, 17**40)),
    ).map(build)


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
        assert reference_phi(GOLDEN_WEIGHT, 1) == GOLDEN_PHI

    @given(st.one_of(weights, clump_weights(), multi_clump_weights()),
           st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_matches_reference(self, w, base):
        assert phi(w, base) == reference_phi(w, base)

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

    @given(st.one_of(weights, clump_weights(), multi_clump_weights()),
           st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_round_trips_on_phi_images(self, w, base):
        x = phi(w, base)
        corrected = apply_E_inverse(x)
        assert apply_E(corrected) == reference_apply_E(corrected) == x
        assert apply_E_inverse(apply_E(x)) == x


# Ragged diagrams of small entries: ties, columns out of order and empty rows.
ragged_diagrams = st.lists(
    st.lists(st.integers(-4, 4), max_size=4).map(tuple), max_size=6
).map(tuple)


class TestApplyEAgainstReference:
    """``apply_E`` shares its kernel with ``apply_E_inverse`` and sorts only
    a column out of order; ``reference_apply_E`` always sorts."""

    @pytest.mark.parametrize("x", [
        ((0,), (0,), (0,)),          # a tie in every place
        ((1,), (3,), (2,)),          # out of order
        ((), (2, 1), (), (5, 0)),    # empty rows, first column out of order
        ((4, 4), (4, 5), (-1,)),     # ties, second column out of order
        ((0,), (2,), (0,)),          # out of order, with a tie
    ])
    def test_cases(self, x):
        assert apply_E(x) == reference_apply_E(x)

    @given(ragged_diagrams)
    @settings(max_examples=400)
    def test_random_ragged_diagrams(self, x):
        assert apply_E(x) == reference_apply_E(x)


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

    @given(st.one_of(weights, clump_weights()), st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_phi_rows_of_one_length_come_sorted(self, w, base):
        # The enumeration's inverse pairs rows with sorted entries on this.
        rows = _correct_columns(_phi_rows(w, base))
        for length in {len(row) for row in rows}:
            sums = [sum(row) for row in rows if len(row) == length]
            assert sums == sorted(sums, reverse=True), (w, base)


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


def assert_trusted(o, expected):
    """``o`` skipped validation in the library: the validating constructor
    must accept it as it is, and it must equal the reference."""
    assert OmegaElement(o.mu) == o
    assert o.mu == expected


def reversed_negated(mu):
    return tuple(tuple(-v for v in reversed(m)) for m in mu)


class TestTrustedResults:
    """Differential oracle for every ``OmegaElement`` the library builds
    without validation: ``lv``, ``lv_p``, ``kappa`` and
    ``reverse_negate_omega``.  ``TestLvPAgainstReference`` applies it to
    integral divisions, which random weights rarely give."""

    @given(st.one_of(weights, clump_weights(), multi_clump_weights()),
           st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_forward_map(self, w, base):
        expected = reference_lv(w, base)
        assert_trusted(lv(w, base), expected)
        assert_trusted(kappa(apply_E_inverse(phi(w, base))), expected)
        assert_trusted(reverse_negate_omega(lv(w, base)),
                       reversed_negated(expected))

    @given(st.one_of(weights, clump_weights(), multi_clump_weights()),
           st.sampled_from([17, 19]))
    @settings(max_examples=300)
    def test_lv_p(self, w, p):
        got = lv_p(w, ModularContext(p))
        expected = reference_lv_p(w, p)
        if expected is None:
            assert got is None
        else:
            assert_trusted(got, expected)
            assert_trusted(reverse_negate_omega(got),
                           reversed_negated(expected))

    def test_catches_an_unsorted_bucket(self, monkeypatch):
        # The oracle's own check: a kernel that emits one bucket out of
        # order must fail it, through lv and through lv_p.
        from lvweights import modular_iteration

        real = lv_algorithm._lv_mu

        def one_bucket_reversed(*args):
            mu = real(*args)
            k = next(i for i, m in enumerate(mu) if len(set(m)) > 1)
            return mu[:k] + (mu[k][::-1],) + mu[k + 1:]

        monkeypatch.setattr(lv_algorithm, "_lv_mu", one_bucket_reversed)
        monkeypatch.setattr(modular_iteration, "_lv_mu", one_bucket_reversed)
        with pytest.raises(ValueError, match="mu_3 is not weakly decreasing"):
            assert_trusted(lv(GOLDEN_WEIGHT), GOLDEN_OMEGA)
        w = (53, 0, -53)  # lv is (51, 0, -51)
        with pytest.raises(ValueError, match="mu_1 is not weakly decreasing"):
            assert_trusted(lv_p(w, ModularContext(17)),
                           reference_lv_p(w, 17))


class TestLvPAgainstReference:
    """``lv_p`` against ``reference_lv`` divided by hand, on both paths of
    the map and with both outcomes."""

    @pytest.mark.parametrize("n,bound,p", [(4, 60, 5), (5, 40, 7),
                                           (6, 30, 7), (7, 16, 11)])
    def test_integral_on_sieved_candidates(self, n, bound, p):
        # Every nonzero distinguished weight divides by p after lv.
        ctx = ModularContext(p)
        found = [w for w in enumerate_distinguished(SearchBox(n, 3, bound, p))
                 if any(w)]
        assert {single_column(w) for w in found} == {True, False}
        for w in found:
            expected = reference_lv_p(w, p)
            assert expected is not None, w
            assert_trusted(lv_p(w, ctx), expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7])
    def test_integral_on_family_members(self, n, p):
        ctx = ModularContext(p)
        members = generate_family_set(n, ctx, 4)
        assert {single_column(w) for w in members} == {True, False}
        for w in members:
            expected = reference_lv_p(w, p)
            assert expected is not None, w
            assert_trusted(lv_p(w, ctx), expected)

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


class TestTemplatedKernel:
    """``phi`` and ``_lv_mu`` read per-clump templates; these check the
    facts that make that exact, on weights of several clumps."""

    @given(multi_clump_weights(), st.sampled_from([0, 1]),
           st.sampled_from([1, 17]))
    @settings(max_examples=300)
    def test_lv_mu_matches_reference(self, w, base, p):
        assert _lv_mu(w, base, p) == reference_lv_p(w, p, base)

    @given(multi_clump_weights(), st.sampled_from([0, 1]),
           st.integers(-17**40, 17**40))
    def test_phi_is_shift_invariant(self, w, base, t):
        shifted = tuple(v + t for v in w)
        assert phi(shifted, base) == tuple(
            tuple(v + t for v in row) for row in phi(w, base)
        )

    @given(multi_clump_weights(), st.sampled_from([0, 1]))
    def test_cold_cache_equals_warm(self, w, base):
        def outputs():
            return phi(w, base), _lv_mu(w, base), _lv_mu(w, base, 17)

        _template.cache_clear()
        cold = outputs()
        misses = _template.cache_info().misses
        assert outputs() == cold
        assert _template.cache_info().misses == misses


class TestTemplateErrors:
    """A kernel error raised while compiling a template reaches every
    caller, and nothing of the failed template is kept."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _template.cache_clear()
        yield
        _template.cache_clear()

    def test_placement_error(self, monkeypatch):
        # Taking the smallest value first leaves -1 nothing to follow in
        # the canonical clump (0, -1, -2).
        monkeypatch.setattr(lv_algorithm, "_select_column",
                            lambda remaining, r: [remaining[-1]])
        for _ in range(2):
            for call in (phi, lv):
                with pytest.raises(PlacementError):
                    call((9, 8, 7))

    def test_column_gap(self, monkeypatch):
        # Taking every distinct value puts 0 over -1 in the first column.
        monkeypatch.setattr(lv_algorithm, "_select_column",
                            lambda remaining, r: sorted(set(remaining),
                                                        reverse=True))
        for _ in range(2):
            with pytest.raises(ValueError,
                               match=re.escape("column 1 gap below 2")):
                lv((9, 8))

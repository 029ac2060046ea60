import copy
import itertools
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

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
from lvweights.core import _BuiltDiagram, dom, validate_diagram
from lvweights.lv_algorithm import (
    _BASE_FREE_CLUMP,
    PlacementError,
    _correct_columns,
    _lv_mu,
    _select_column,
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


def multiplicity_vectors(n):
    """Every vector of positive multiplicities summing to ``n``: the
    2^(n-1) compositions of ``n``, one per set of cuts in 1..n-1."""
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            ends = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


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

    @pytest.mark.parametrize("n", [*range(1, 13), "random"])
    def test_every_canonical_clump_matches_reference(self, n):
        # The clump with distinct values 0, -1, -2, ... and multiplicities
        # mults, for all 4,095 vectors of 1 to 12 entries, and for 3,000
        # seeded vectors of up to 25 entries from 1 to 9; both bases.
        if n == "random":
            rng = random.Random(1)
            vectors = [[rng.randint(1, 9) for _ in range(rng.randint(1, 25))]
                       for _ in range(3000)]
        else:
            vectors = list(multiplicity_vectors(n))
            assert len(vectors) == 2 ** (n - 1)
        for mults in vectors:
            w = tuple(-i for i, m in enumerate(mults) for _ in range(m))
            for base in (0, 1):
                assert phi(w, base) == reference_phi(w, base), (mults, base)

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
        # A bool or float would reach the templates as a column index.
        for base in (2, True, 0.0, 1.0):
            for call in (phi, lv):
                with pytest.raises(ValueError, match="^column base must be "
                                   f"0 or 1, got {base}$"):
                    call((1, 0), base=base)

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
    """``apply_E`` shares its kernel with ``apply_E_inverse`` and sorts
    each column stably by value; ``reference_apply_E`` ranks (value, -row)
    pairs."""

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
        rows = _correct_columns(phi(w, base))
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

    def test_a_long_run_of_equal_entries_costs_linear_time(self):
        # Placing a clump of k entries costs O(k): k equal entries, k
        # distinct values, or both.  At O(k^2) each run takes over 10 s.
        src = str(Path(lv_algorithm.__file__).resolve().parents[1])
        # The output digest as the earlier search over all rows gave it.
        digest = ("19644f0c501d6b9e5f74026979ac183e"
                  "e6b2a9bcd1587e519c2003146bebdcb6")
        for check in (
                "lv((0,) * 20000).mu == ((),) * 19999 + ((0,),)",
                "all(lv(tuple(range(60000, 0, -1)), base).mu"
                " == ((), (60001,) * 30000) for base in (0, 1))",
                "sha256(omega_to_json(lv((*range(16000, 0, -1), *(0,) * 16000))"
                f").encode()).hexdigest() == {digest!r}"):
            code = (f"import sys; sys.path.insert(0, {src!r}); "
                    "from hashlib import sha256; "
                    "from lvweights import lv; "
                    "from lvweights.core import omega_to_json; "
                    f"assert {check}")
            subprocess.run([sys.executable, "-c", code], check=True,
                           timeout=10)

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
        with pytest.raises(ValueError, match="mu_3: not weakly decreasing"):
            assert_trusted(lv(GOLDEN_WEIGHT), GOLDEN_OMEGA)
        w = (53, 0, -53)  # lv is (51, 0, -51)
        with pytest.raises(ValueError, match="mu_1: not weakly decreasing"):
            assert_trusted(lv_p(w, ModularContext(17)),
                           reference_lv_p(w, 17))


def outcome(f, x):
    """``f(x)``, or the type and text of the ``ValueError`` it raises."""
    try:
        return f(x)
    except ValueError as exc:
        return ValueError, str(exc)


STAGES = (apply_E_inverse, apply_E, kappa, phi_inverse)


class TestBuiltDiagrams:
    """Differential oracle for the diagrams that ``phi`` and the column
    correction build and ``validate_diagram`` passes unchecked: every stage
    that takes a diagram gives the same result, or the same error, on a
    plain tuple copy and on a list-of-lists copy, which it checks in
    full."""

    @given(st.one_of(weights, clump_weights(), multi_clump_weights()),
           st.sampled_from([0, 1]))
    @settings(max_examples=300)
    def test_same_result_as_plain_input(self, w, base):
        x = phi(w, base)
        for built in (x, apply_E_inverse(x), apply_E(x)):
            assert type(built) is _BuiltDiagram
            assert validate_diagram(built) is built
            plain = tuple(map(tuple, built))
            lists = [list(row) for row in built]
            for f in STAGES:
                got = outcome(f, built)
                assert outcome(f, plain) == got
                assert outcome(f, lists) == got

    @pytest.mark.parametrize("rows, message", [
        (((1, 1.5),), "row 1 has non-integer entry 1.5"),
        (((2,), (1, True)), "row 2 has non-integer entry True"),
        (((0,), (), (False,)), "row 3 has non-integer entry False"),
        (((3,), (None,)), "row 2 has non-integer entry None"),
    ])
    @pytest.mark.parametrize("f", STAGES)
    def test_malformed_entries_keep_their_message(self, f, rows, message):
        for x in (rows, [list(row) for row in rows]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                f(x)

    def test_a_slice_or_sum_is_checked_again(self):
        x = phi(GOLDEN_WEIGHT)
        for derived in (x + ((1.5,),), x[:2], x[1:] * 2, ((1.5,),) + x):
            assert type(derived) is tuple
        n = len(x) + 1
        for f in STAGES:
            with pytest.raises(ValueError, match=(
                    f"^row {n} has non-integer entry 1.5$")):
                f(x + ((1.5,),))
        with pytest.raises(ValueError, match="^column 1 gap below 2"):
            apply_E_inverse(x[:1] + x[:1])

    def test_reads_as_a_plain_tuple(self):
        x = phi(GOLDEN_WEIGHT)
        plain = tuple(map(tuple, x))
        assert x == plain and plain == x and isinstance(x, tuple)
        assert hash(x) == hash(plain) and repr(x) == repr(plain)

    def test_a_copy_or_pickle_is_a_plain_tuple(self):
        x = apply_E_inverse(phi(GOLDEN_WEIGHT))
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert y == x == GOLDEN_EINV and type(y) is tuple

    @given(ragged_diagrams)
    def test_user_input_is_never_marked(self, x):
        class Rows(tuple):
            pass

        for rows in (x, list(x), [list(row) for row in x], Rows(x)):
            assert type(validate_diagram(rows)) is tuple


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
        # One kernel for both bases: the reference at either.
        assert _lv_mu(w, p) == reference_lv_p(w, p, base)

    @given(multi_clump_weights(), st.sampled_from([0, 1]),
           st.integers(-17**40, 17**40))
    def test_phi_is_shift_invariant(self, w, base, t):
        shifted = tuple(v + t for v in w)
        assert phi(shifted, base) == tuple(
            tuple(v + t for v in row) for row in phi(w, base)
        )

    @given(multi_clump_weights())
    def test_base_0_reads_the_templates_of_the_mirror(self, w):
        # phi(w, 0) is phi(R w, 1) with its rows reversed and negated, and
        # it compiles no template of its own.
        mirror = phi(reverse_negate(w), 1)
        misses = _template.cache_info().misses
        assert phi(w, 0) == tuple(tuple(-v for v in row)
                                  for row in reversed(mirror))
        assert _template.cache_info().misses == misses

    @given(multi_clump_weights(), st.sampled_from([0, 1]))
    def test_cold_cache_equals_warm(self, w, base):
        def outputs():
            return phi(w, base), lv(w, base), _lv_mu(w), _lv_mu(w, 17)

        _template.cache_clear()
        cold = outputs()
        misses = _template.cache_info().misses
        assert outputs() == cold
        assert _template.cache_info().misses == misses


def staged_lv_p(w, base, p):
    """The staged map ``kappa(apply_E_inverse(phi(w, base)))`` divided by
    p by hand, or None."""
    mu = kappa(apply_E_inverse(phi(w, base))).mu
    if any(e % p for part in mu for e in part):
        return None
    return tuple(tuple(e // p for e in part) for part in mu)


def mirror_asymmetric_vectors(sizes, compile_template):
    """The multiplicity vectors m of each size in ``sizes`` whose template
    and that of m[::-1] break the mirror symmetry: equal column sizes, and
    each (row length L, corrected row sum S) of the one matching an
    (L, -S - L*(len(m) - 1)) of the other.  By the mirror that is the base-0
    template of m against its base-1 one, read as ``_lv_mu`` reads a clump
    besides its top; and the number of vectors compared.  Each vector is
    compiled once, with its reverse."""
    def read(mults, mirrored):
        rows, sums, cols = compile_template(mults)
        shift = len(mults) - 1
        return cols, sorted((len(row), -s - len(row) * shift if mirrored
                             else s) for row, s in zip(rows, sums))

    found, checked = [], 0
    for size in sizes:
        for mults in multiplicity_vectors(size):
            if mults > mults[::-1]:
                continue  # compared with its reverse
            pair = sorted({mults, mults[::-1]})
            checked += len(pair)
            if read(mults, False) != read(mults[::-1], True):
                found += pair
    return found, checked


def one_clump(mults, top=0):
    """The clump with top ``top`` and multiplicities ``mults``."""
    return tuple(top - i for i, m in enumerate(mults) for _ in range(m))


class TestBaseIndependence:
    """``lv`` is one map for both column bases: exact on every weight whose
    maximal clumps have at most ``_BASE_FREE_CLUMP`` entries, by the
    exhaustive template check below, while lv(w, 0) of a weight with a
    longer clump is R lv(R w, 1), the mirror of base 1 (R = reverse-negate),
    which gives the staged base-0 map on every weight."""

    def test_templates_agree_on_every_checked_clump(self):
        # Compiled past the cache, which 2^16 templates would only flush.
        found, checked = mirror_asymmetric_vectors(
            range(1, _BASE_FREE_CLUMP + 1), _template.__wrapped__)
        assert found == []
        assert checked == 2 ** _BASE_FREE_CLUMP - 1  # every vector

    def test_a_changed_base_0_template_is_found(self):
        # Swapping the sums of the rows of lengths 3 and 1 of the template
        # of (1, 2, 1), its own reverse and so its own base-0 template by
        # the mirror, keeps its column sizes and the multiset of its sums;
        # the check names that vector alone.
        compile_template = _template.__wrapped__

        def changed(mults):
            rows, sums, cols = compile_template(mults)
            return rows, sums[::-1] if mults == (1, 2, 1) else sums, cols

        assert [len(row) for row in changed((1, 2, 1))[0]] == [3, 1]
        assert mirror_asymmetric_vectors(range(1, 6), changed) == (
            [(1, 2, 1)], 31)

    @pytest.mark.parametrize("size", range(_BASE_FREE_CLUMP + 1, 41))
    def test_a_longer_clump_takes_the_staged_map_at_base_0(
            self, monkeypatch, size):
        # The staged base-0 map, as the reference gives it, from the fused
        # map of R w alone.  Equal entries, distinct values and seeded
        # multiplicities, alone and between two short clumps.
        rng = random.Random(size)
        cuts = sorted(rng.sample(range(1, size), rng.randrange(1, size)))
        clumps = [(7,) * size, one_clump((1,) * size, 50),
                  one_clump(tuple(b - a for a, b in zip(
                      (0, *cuts), (*cuts, size))), -3)]
        weights = clumps + [(90, 89, *c, -60, -60) for c in clumps]
        staged = [reference_lv(w, 0) for w in weights]
        calls = []

        def fused_map(*args):
            calls.append(args)
            return real(*args)

        real = lv_algorithm._lv_mu
        monkeypatch.setattr(lv_algorithm, "_lv_mu", fused_map)
        assert [lv(w, 0).mu for w in weights] == staged
        assert calls == [(reverse_negate(w),) for w in weights]
        # Observed, not relied on: both bases still agree here.
        assert [lv(w, 1).mu for w in weights] == staged

    def test_checked_clumps_take_the_fused_map_at_base_0(self, monkeypatch):
        # The longest checked clump, alone and twice over, and 36 entries
        # in clumps of at most 16.
        most = _BASE_FREE_CLUMP
        weights = [(0,) * most, one_clump((1,) * most, 40) + (0,) * most,
                   tuple(range(100, 0, -5)) + one_clump((2,) * (most // 2))]
        expected = [kappa(apply_E_inverse(phi(w, 0))) for w in weights]
        calls = []

        def fused_map(*args):
            calls.append(args)
            return real(*args)

        real = lv_algorithm._lv_mu
        monkeypatch.setattr(lv_algorithm, "_lv_mu", fused_map)
        assert [lv(w, 0) for w in weights] == expected
        assert calls == [(w,) for w in weights]


def bench_forward_weights(seed, count):
    """The seeded clumpy weights of the bench's ``forward`` workload."""
    import importlib.util
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:  # its dataclass looks the module up while it is built
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.forward_weights(seed, count, 16)


def spread_weights():
    # Every gap >= 2 except, when the flag is set, a last gap of 1.
    def build(spec):
        top, gaps, last_one = spec
        w = [top]
        for g in gaps:
            w.append(w[-1] - g)
        if last_one and w:
            w.append(w[-1] - 1)
        return tuple(w)

    return st.tuples(st.integers(-40, 40),
                     st.lists(st.integers(2, 7), max_size=7), st.booleans()
                     ).map(build)


class TestSingleColumnKernel:
    """``_lv_mu``'s one-pass single-column path, and the general path's
    sum test, against the staged map divided by hand."""

    CASES = [
        (), (0,), (7,), (-3,),  # empty and one-entry weights
        (4, 2, 0, -2, -4), (6, 4, 2), (-1, -3, -5),  # every gap exactly 2
        (9, 5, 2, 1), (3, 0, -1), (8, 6, 4, 3),  # a single 1 at the end
        (-2, -5, -9), (5, 2, -1), (12, 5, -2), (7, 2, -3),  # negatives
        (2, 0, 0, -2),  # not divisible at the top, integral in general
        (13, 8, 3, 2), (23, 6, -11), (40, 17, -6, -29),
    ]

    @pytest.mark.parametrize("p", [1, 5, 17])
    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("w", CASES)
    def test_cases_match_the_staged_map(self, w, base, p):
        assert _lv_mu(w, p) == staged_lv_p(w, base, p)

    def test_cases_cover_both_outcomes_on_both_paths(self):
        outcomes = {(single_column(w), staged_lv_p(w, 1, p) is None)
                    for w in self.CASES for p in (5, 17)}
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}
        # p divides some entries but not all: the first, or a later one.
        assert staged_lv_p((12, 5, -2), 1, 5) == ((2, 1, 0),)
        assert staged_lv_p((7, 2, -3), 1, 5) is None  # 5 but not 2
        assert staged_lv_p((23, 6, -11), 1, 17) is None  # 17 and 6, not -9

    @given(spread_weights(), st.sampled_from([0, 1]),
           st.sampled_from([1, 5, 17]))
    @settings(max_examples=300)
    def test_spread_weights_match_the_staged_map(self, w, base, p):
        assert _lv_mu(w, p) == staged_lv_p(w, base, p)

    def test_sum_test_on_the_forward_weights(self, monkeypatch):
        # Against the full computation (the map divided by hand); then
        # every weight of the general path whose sum 17 does not divide
        # gives None without reading a template.
        weights = bench_forward_weights(1, 600)
        general = [w for w in weights if not single_column(w)]
        failing = [w for w in general if sum(w) % 17]
        assert len(failing) > len(general) // 2
        for w in weights:
            assert _lv_mu(w, 17) == staged_lv_p(w, 1, 17), w

        def plan(*args):
            raise AssertionError("the sum test let a weight through")

        monkeypatch.setattr(lv_algorithm, "_clump_plan", plan)
        assert all(_lv_mu(w, 17) is None for w in failing)

    @given(multi_clump_weights(), st.sampled_from([2, 5, 17]))
    @settings(max_examples=300)
    def test_sum_test_matches_the_full_map(self, w, p):
        # The undivided map, divided by hand, takes no shortcut.
        full = _lv_mu(w)
        if any(e % p for part in full for e in part):
            assert _lv_mu(w, p) is None
        else:
            assert sum(w) % p == 0
            assert _lv_mu(w, p) == tuple(
                tuple(e // p for e in part) for part in full)


class TestSelectColumn:
    """What ``_phi_rows`` rests on: each column takes an increasing set of
    live indices at least 2 apart, and half or more of every clump, so
    placement always moves on.  The selector is called directly, so that a
    broken one fails here instead of looping in ``_phi_rows``."""

    def test_every_live_set_of_twelve_indices(self):
        for size in range(1, 13):
            for live in itertools.combinations(range(12), size):
                runs = [[i for _, i in run] for _, run in itertools.groupby(
                    enumerate(live), lambda t: t[1] - t[0])]
                for r in range(4):
                    out = _select_column(list(live), r)
                    assert set(out) <= set(live), (live, r)
                    assert all(b - a >= 2 for a, b in zip(out, out[1:])), \
                        (live, r, out)
                    for run in runs:
                        taken = [i for i in out if run[0] <= i <= run[-1]]
                        assert len(taken) == (len(run) + 1) // 2, \
                            (live, r, out)


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
                            lambda live, r: [live[-1]])
        message = (r"^no eligible row for value -1 in column 2; "
                   r"rows=\[\[-2\]\], remaining=\[0, -1\]$")
        for _ in range(2):
            for call in (phi, lv):
                with pytest.raises(PlacementError, match=message):
                    call((9, 8, 7))

    def test_column_gap(self, monkeypatch):
        # Taking every distinct value puts 0 over -1 in the first column.
        monkeypatch.setattr(lv_algorithm, "_select_column",
                            lambda live, r: list(live))
        for _ in range(2):
            with pytest.raises(ValueError,
                               match=re.escape("column 1 gap below 2")):
                lv((9, 8))

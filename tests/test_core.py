import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvweights import (
    OmegaElement,
    PartitionMult,
    dom,
    format_weight,
    kappa,
    omega_from_json,
    omega_from_pair,
    omega_to_json,
    omega_to_pair,
    parse_weight,
    reverse_negate,
    reverse_negate_omega,
    validate_diagram,
    validate_weight,
)

weights = st.lists(st.integers(-50, 50), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestDom:
    def test_sorts(self):
        assert dom((1, 3, 2)) == (3, 2, 1)

    def test_empty(self):
        assert dom(()) == ()

    def test_ties(self):
        assert dom((0, 0, 5, -5)) == (5, 0, 0, -5)

    @given(st.lists(st.integers(-100, 100), max_size=10))
    def test_idempotent_and_multiset_preserving(self, xs):
        d = dom(xs)
        assert dom(d) == d
        assert sorted(d) == sorted(xs)


class TestReverseNegate:
    def test_fixed_point(self):
        assert reverse_negate((3, 1, -1, -3)) == (3, 1, -1, -3)

    def test_pair(self):
        assert reverse_negate((1, 0)) == (0, -1)

    def test_empty(self):
        assert reverse_negate(()) == ()

    @given(weights)
    def test_involution(self, w):
        assert reverse_negate(reverse_negate(w)) == w

    @given(weights)
    def test_output_weakly_decreasing(self, w):
        assert validate_weight(reverse_negate(w)) == reverse_negate(w)


class TestReverseNegateOmega:
    def test_fixed_point(self):
        o = OmegaElement(((0, 0), (), (132, -132)))
        assert reverse_negate_omega(o) == o

    def test_two_components(self):
        o = OmegaElement(((5,), (4, 1)))
        assert reverse_negate_omega(o).mu == ((-5,), (-1, -4))

    def test_empty_first(self):
        o = OmegaElement(((), (1,)))
        assert reverse_negate_omega(o).mu == ((), (-1,))

    def test_involution(self):
        o = OmegaElement(((9, 2), (3,), (), (1, 1)))
        assert reverse_negate_omega(reverse_negate_omega(o)) == o


class TestOmegaElement:
    def test_n(self):
        assert OmegaElement(((0, 0), (), (132, -132))).n == 8

    def test_empty_is_valid(self):
        assert OmegaElement(()).n == 0

    def test_rejects_empty_last(self):
        with pytest.raises(ValueError):
            OmegaElement(((1,), ()))

    def test_rejects_increasing_component(self):
        with pytest.raises(ValueError):
            OmegaElement(((1, 2),))

    @pytest.mark.parametrize("mu, message", [
        (((1,), ()), "last component mu_s must be nonempty"),
        (((3, 1), [1, 2, 2]), "mu_2 is not weakly decreasing: (1, 2, 2)"),
        (((0, 1), (2, 3)), "mu_1 is not weakly decreasing: (0, 1)"),
        (((1.5,),), "mu_1 has non-integer entry 1.5"),
        (((2, 1), (True,)), "mu_2 has non-integer entry True"),
        # Order is checked first.
        (((1, 2.0), (0.5,)), "mu_1 is not weakly decreasing: (1, 2.0)"),
    ])
    def test_error_messages(self, mu, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OmegaElement(mu)

    def test_unchecked_wrapper_equals_validated(self):
        # The validating constructor still turns lists into tuples; the
        # unchecked one is only for tuples the library has built.
        assert OmegaElement([[2, 1], [0]]).mu == ((2, 1), (0,))
        assert OmegaElement._of(((2, 1), (0,))) == OmegaElement(((2, 1), (0,)))


class TestValidateWeight:
    @pytest.mark.parametrize("w, message", [
        ((1, 2, 0, -1), "not weakly decreasing at position 0: 1 < 2"),
        ((5, 3, 4, 1), "not weakly decreasing at position 1: 3 < 4"),
        ((3, 2, 1, 5), "not weakly decreasing at position 2: 1 < 5"),
        ((0, 1, 0, 1), "not weakly decreasing at position 0: 0 < 1"),
        ((2, 2, 1, 9, 0, 8), "not weakly decreasing at position 2: 1 < 9"),
    ])
    def test_error_names_the_first_break(self, w, message):
        for given_as in (w, list(w), iter(w), (v for v in w)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                validate_weight(given_as)

    @pytest.mark.parametrize("w, message", [
        ((2, 1.0), "weight has non-integer entry 1.0"),
        ((1.0,), "weight has non-integer entry 1.0"),
        ((True,), "weight has non-integer entry True"),
        ((3, 3, 0, False), "weight has non-integer entry False"),
        ((4.5, 1, -1), "weight has non-integer entry 4.5"),
        # Order is checked first, over the whole weight.
        ((3, 1.0, 2), "not weakly decreasing at position 1: 1.0 < 2"),
        ((2.0, 1, 3), "not weakly decreasing at position 1: 1 < 3"),
    ])
    def test_rejects_entries_that_are_not_ints(self, w, message):
        for given_as in (w, list(w), iter(w)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                validate_weight(given_as)

    @pytest.mark.parametrize("w", [(), (0,), (3, 3, 1, -2), (7, -7)])
    def test_accepts_lists_and_generators(self, w):
        pulled = []

        def entries():
            for v in w:
                pulled.append(v)
                yield v

        gen = entries()
        assert validate_weight(list(w)) == w
        assert validate_weight(gen) == w
        assert pulled == list(w)  # each entry read exactly once
        assert next(gen, None) is None


class TestValidateDiagram:
    def test_rows_become_tuples(self):
        assert validate_diagram([[3, 1], (2,), []]) == ((3, 1), (2,), ())

    @pytest.mark.parametrize("rows, message", [
        (((1, 1.5),), "row 1 has non-integer entry 1.5"),
        (((2,), (1, True)), "row 2 has non-integer entry True"),
        (((0,), (), (False,)), "row 3 has non-integer entry False"),
    ])
    def test_rejects_entries_that_are_not_ints(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_diagram(rows)

    def test_staged_map_refuses_a_bool(self):
        # True once passed as 1: kappa(((1, True),)) gave mu_2 = (2,).
        with pytest.raises(ValueError, match="non-integer entry True"):
            kappa(((1, True),))


class TestPartitionMult:
    def test_parts(self):
        assert PartitionMult((2, 0, 2)).parts == (3, 3, 1, 1)
        assert PartitionMult((2, 0, 2)).n == 8

    def test_from_parts_round_trip(self):
        p = PartitionMult.from_parts((3, 3, 1, 1))
        assert p.mult == (2, 0, 2)
        assert PartitionMult.from_parts(p.parts) == p

    def test_empty(self):
        assert PartitionMult(()).n == 0
        assert PartitionMult(()).parts == ()

    def test_rejects_trailing_zero(self):
        with pytest.raises(ValueError):
            PartitionMult((1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PartitionMult((-1, 1))

    @pytest.mark.parametrize("mult, message", [
        ((1.5,), "non-integer multiplicity in (1.5,)"),
        ((True,), "non-integer multiplicity in (True,)"),
        ((2, 0.0, 1), "non-integer multiplicity in (2, 0.0, 1)"),
        # The existing checks come first.
        ((-1.0, 1), "negative multiplicity in (-1.0, 1)"),
        ((1, 0.0), "largest recorded part must actually occur"),
    ])
    def test_rejects_multiplicities_that_are_not_ints(self, mult, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartitionMult(mult)


class TestOmegaPair:
    def test_grouping(self):
        # Hand-apply the grouping rule: part-3 entries {132, -132} fill
        # component 3, part-1 entries {0, 0} fill component 1.
        alpha = PartitionMult((2, 0, 2))
        o = omega_from_pair(alpha, (132, -132, 0, 0))
        assert o.mu == ((0, 0), (), (132, -132))

    def test_single_part(self):
        o = omega_from_pair(PartitionMult((1,)), (7,))
        assert o.mu == ((7,),)

    def test_two_distinct_parts(self):
        # Part-2 entry 4 goes to component 2, part-1 entry 5 to component 1.
        o = omega_from_pair(PartitionMult((1, 1)), (4, 5))
        assert o.mu == ((5,), (4,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            omega_from_pair(PartitionMult((1, 1)), (4,))

    def test_dominance_violation(self):
        with pytest.raises(ValueError, match="dominance"):
            omega_from_pair(PartitionMult((2,)), (1, 2))

    def test_round_trip(self):
        alpha = PartitionMult((2, 0, 2))
        nu = (132, -132, 0, 0)
        assert omega_to_pair(omega_from_pair(alpha, nu)) == (alpha, nu)

    def test_to_pair_concatenates_largest_first(self):
        o = OmegaElement(((0, 0), (), (132, -132)))
        alpha, nu = omega_to_pair(o)
        assert alpha.parts == (3, 3, 1, 1)
        assert nu == (132, -132, 0, 0)

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(-9, 9)), max_size=6
        )
    )
    def test_round_trip_random(self, pairs):
        # Build a valid (alpha, nu) pair: sort by part descending, then by
        # value descending within equal parts (dominance).
        pairs.sort(key=lambda t: (-t[0], -t[1]))
        if not pairs:
            alpha = PartitionMult(())
            nu = ()
        else:
            alpha = PartitionMult.from_parts([p for p, _ in pairs])
            nu = tuple(v for _, v in pairs)
        assert omega_to_pair(omega_from_pair(alpha, nu)) == (alpha, nu)


class TestTextForms:
    def test_format(self):
        assert format_weight((46, 46, 45, 1, -1, -45, -46, -46)) == (
            "46,46,45,1,-1,-45,-46,-46"
        )
        assert format_weight(()) == ""

    def test_parse(self):
        assert parse_weight("46,46,45,1,-1,-45,-46,-46") == (
            46, 46, 45, 1, -1, -45, -46, -46
        )
        assert parse_weight("") == ()

    def test_parse_rejects_unsorted(self):
        with pytest.raises(ValueError):
            parse_weight("1,2")

    def test_parse_sort_flag(self):
        assert parse_weight("1,2", sort=True) == (2, 1)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_weight("1,x")

    @given(weights)
    def test_round_trip(self, w):
        assert parse_weight(format_weight(w)) == w


class TestOmegaJson:
    def test_canonical_string(self):
        o = OmegaElement(((0, 0), (), (132, -132)))
        assert omega_to_json(o) == '{"mu":[[0,0],[],[132,-132]]}'

    def test_round_trip(self):
        o = OmegaElement(((5,), (4, 1)))
        assert omega_from_json(omega_to_json(o)) == o

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            omega_from_json("[1,2]")

    @pytest.mark.parametrize("text, message", [
        ('{"mu":[[1.5]]}', "mu_1 has non-integer entry 1.5"),
        ('{"mu":[[true]]}', "mu_1 has non-integer entry True"),
        ('{"mu":[[2],[1,0.0]]}', "mu_2 has non-integer entry 0.0"),
    ])
    def test_rejects_entries_that_are_not_ints(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            omega_from_json(text)

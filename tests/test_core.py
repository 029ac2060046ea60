import copy
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvweights import (
    IterationTrace,
    ModularContext,
    OmegaElement,
    PartitionMult,
    SearchBox,
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
    trace_to_json,
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

    @given(st.lists(st.integers(-10**30, 10**30), max_size=8))
    def test_negates_each_entry_in_reverse(self, xs):
        # Any sequence, sorted or not, as a list or a tuple.
        expected = tuple(-v for v in reversed(xs))
        assert reverse_negate(xs) == reverse_negate(tuple(xs)) == expected


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

    @given(st.lists(weights, max_size=5).filter(lambda mu: not mu or mu[-1]))
    def test_negates_each_component_in_reverse(self, mu):
        o = reverse_negate_omega(OmegaElement(tuple(mu)))
        assert o == OmegaElement(tuple(tuple(-v for v in reversed(m))
                                       for m in mu))
        assert type(o.mu) is tuple and all(type(m) is tuple for m in o.mu)


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

    # Each component goes through validate_weight, whose message follows
    # "mu_i: ".  A case's id names what is wrong with its input; ids are
    # fixed so that a change of message text does not rename a case.
    @pytest.mark.parametrize("mu, message", [
        (((1,), ()), "last component mu_s must be nonempty"),
        pytest.param(((3, 1), [1, 2, 2]),
                     "mu_2: not weakly decreasing at position 0: 1 < 2",
                     id="mu1-mu_2 is not weakly decreasing: (1, 2, 2)"),
        pytest.param(((0, 1), (2, 3)),
                     "mu_1: not weakly decreasing at position 0: 0 < 1",
                     id="mu2-mu_1 is not weakly decreasing: (0, 1)"),
        pytest.param(((1.5,),), "mu_1: weight has non-integer entry 1.5",
                     id="mu3-mu_1 has non-integer entry 1.5"),
        pytest.param(((2, 1), (True,)),
                     "mu_2: weight has non-integer entry True",
                     id="mu4-mu_2 has non-integer entry True"),
        # Order is checked first.
        pytest.param(((1, 2.0), (0.5,)),
                     "mu_1: not weakly decreasing at position 0: 1 < 2.0",
                     id="mu5-mu_1 is not weakly decreasing: (1, 2.0)"),
        pytest.param(((1, "a"),), "mu_1: weight has non-integer entry 'a'",
                     id="mu6-mu_1 has non-integer entry 'a'"),
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
        ((3, None), "weight has non-integer entry None"),
        ((1, "a"), "weight has non-integer entry 'a'"),
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

    # Each multiplicity in order, its type before its sign, then the last
    # one's l_a >= 1.  Ids are fixed, as in TestOmegaElement.
    @pytest.mark.parametrize("mult, message", [
        pytest.param((1.5,), "multiplicity must be an int, got 1.5",
                     id="mult0-non-integer multiplicity in (1.5,)"),
        pytest.param((True,), "multiplicity must be an int, got True",
                     id="mult1-non-integer multiplicity in (True,)"),
        pytest.param((2, 0.0, 1), "multiplicity must be an int, got 0.0",
                     id="mult2-non-integer multiplicity in (2, 0.0, 1)"),
        pytest.param((-1.0, 1), "multiplicity must be an int, got -1.0",
                     id="mult3-negative multiplicity in (-1.0, 1)"),
        pytest.param((1, 0.0), "multiplicity must be an int, got 0.0",
                     id="mult4-largest recorded part must actually occur"),
        pytest.param((None,), "multiplicity must be an int, got None",
                     id="mult5-non-integer multiplicity in (None,)"),
        pytest.param(("a",), "multiplicity must be an int, got 'a'",
                     id="mult6-non-integer multiplicity in ('a',)"),
    ])
    def test_rejects_multiplicities_that_are_not_ints(self, mult, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartitionMult(mult)


_LEAF = IterationTrace((0,), "zeros", 1)

# Each value type with the values of its fields, in field order.
VALUES = [
    (OmegaElement, (((3, 1), (2,)),)),
    (PartitionMult, ((2, 0, 1),)),
    (ModularContext, (5,)),
    (IterationTrace, ((2, -2), "expanded", 0, (_LEAF, _LEAF))),
    (SearchBox, (4, 2, 10, 5)),
]


@pytest.mark.parametrize("cls, fields", VALUES,
                         ids=[cls.__name__ for cls, _ in VALUES])
class TestValueTypes:
    def test_fields_are_the_match_args(self, cls, fields):
        v = cls(*fields)
        assert tuple(getattr(v, name) for name in cls.__match_args__) == fields

    def test_equal_only_within_a_class(self, cls, fields):
        v = cls(*fields)
        assert v == cls(*fields) and not v != cls(*fields)
        assert v != fields and fields != v
        assert v.__eq__(fields) is NotImplemented
        other_cls, other_fields = VALUES[VALUES.index((cls, fields)) - 1]
        assert v != other_cls(*other_fields)

    def test_hash(self, cls, fields):
        v = cls(*fields)
        if cls is IterationTrace:
            assert hash(v) == hash(trace_to_json(v))
        else:
            assert hash(v) == hash(fields)

    def test_repr(self, cls, fields):
        named = ", ".join(f"{name}={value!r}"
                          for name, value in zip(cls.__match_args__, fields))
        assert repr(cls(*fields)) == f"{cls.__name__}({named})"

    def test_fields_cannot_be_set_or_deleted(self, cls, fields):
        v = cls(*fields)
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0)
            with pytest.raises(AttributeError):
                delattr(v, name)
        assert tuple(getattr(v, name) for name in cls.__match_args__) == fields

    def test_copy_and_pickle(self, cls, fields):
        v = cls(*fields)
        for twin in (copy.copy(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert type(twin) is cls and twin == v


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
        # Equal parts carry weakly decreasing entries: OmegaElement's rule.
        message = "mu_1: not weakly decreasing at position 0: 1 < 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            omega_from_pair(PartitionMult((2,)), (1, 2))

    @pytest.mark.parametrize("nu, message", [
        ((None, 1), "mu_1: weight has non-integer entry None"),
        (("a", 1), "mu_1: weight has non-integer entry 'a'"),
    ])
    def test_entries_that_do_not_compare(self, nu, message):
        # They once raised TypeError from the dominance comparison.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            omega_from_pair(PartitionMult((2,)), nu)

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

    @pytest.mark.parametrize("text", [
        "2, 1", "+2,1", "1_0,1", " 2,1", "2,1\n", "1,,2", ",",
        "\u0661,\u0660",  # Arabic-Indic 1,0: decimal to int(), not ASCII
        None, b"2,1",
    ])
    def test_parse_reads_only_the_grammar(self, text):
        # int() once read each entry of the stripped text, so all but
        # "1,,2" and "," parsed, and a text that is no str raised
        # AttributeError.
        message = f"cannot parse weight from {text!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_weight(text)

    def test_parse_reads_negative_zero(self):
        assert parse_weight("-0,-0") == (0, 0)

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
        # The last three once raised TypeError: mu is not a list of lists.
        for text in ["[1,2]", '{"mu":[1]}', '{"mu":null}', '{"mu":5}']:
            with pytest.raises(ValueError):
                omega_from_json(text)

    @pytest.mark.parametrize("text, message", [  # ids fixed
        pytest.param('{"mu":[[1.5]]}', "mu_1: weight has non-integer entry 1.5",
                     id='{"mu":[[1.5]]}-mu_1 has non-integer entry 1.5'),
        pytest.param('{"mu":[[true]]}',
                     "mu_1: weight has non-integer entry True",
                     id='{"mu":[[true]]}-mu_1 has non-integer entry True'),
        pytest.param('{"mu":[[2],[1,0.0]]}',
                     "mu_2: weight has non-integer entry 0.0",
                     id='{"mu":[[2],[1,0.0]]}-mu_2 has non-integer entry 0.0'),
    ])
    def test_rejects_entries_that_are_not_ints(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            omega_from_json(text)

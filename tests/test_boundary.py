"""The package boundary: every integer argument goes through one check,
``core._int_arg``, and every public name is listed once, in its module's
``__all__``."""

import os
import re

import pytest

import lvweights
from lvweights import (
    CountTable,
    ModularContext,
    OmegaElement,
    PartitionMult,
    SearchBox,
    closed_family,
    core,
    count_distinguished,
    counting,
    default_bound,
    distinguished_depth,
    enumerate_distinguished,
    enumeration,
    generate_family_set,
    iterate,
    leading_coefficient,
    lv_algorithm,
    modular_iteration,
    omega_from_pair,
    partitions_mult,
    rho_family,
    scatter_records,
    telephone,
    write_scatter_csv,
    write_scatter_svg,
)

CTX = ModularContext(7)

# (entry point, the argument's name in messages, its least value, a call
# that passes the value as that argument and valid values for the others)
ENTRY_POINTS = [
    ("SearchBox.n", "n", 0, lambda v: SearchBox(v, 1, 10, 5)),
    ("SearchBox.k", "k", 0, lambda v: SearchBox(4, v, 10, 5)),
    ("SearchBox.bound", "bound", 0, lambda v: SearchBox(4, 1, v, 5)),
    ("SearchBox.p", "p", None, lambda v: SearchBox(4, 1, 10, v)),
    ("ModularContext", "p", None, ModularContext),
    # A scatter row's depth, checked by each writer; the label is the name
    # the check had as a record field, kept as the test id.
    ("ScatterRecord.depth", "depth", 0,
     lambda v: write_scatter_csv([((3, 1), v)], os.devnull)),
    ("closed_family", "family A parameter", 0,
     lambda v: closed_family(2, "A", (v,), CTX)),
    ("iterate", "cap", 0, lambda v: iterate((2, 0, -2), CTX, v)),
    ("distinguished_depth", "cap", 0,
     lambda v: distinguished_depth((2, 0, -2), CTX, v)),
    ("scatter_records", "cap", 0,
     lambda v: scatter_records([(2, 0, -2)], CTX, v)),
    ("generate_family_set", "max_k", 0,
     lambda v: generate_family_set(2, CTX, v)),
    ("rho_family.n", "n", 0, lambda v: rho_family(v, 1, CTX)),
    ("rho_family.m", "m", 0, lambda v: rho_family(3, v, CTX)),
    ("default_bound.n", "n", 0, lambda v: default_bound(v, 1, 5)),
    ("default_bound.k", "k", 0, lambda v: default_bound(4, v, 5)),
    ("default_bound.p", "p", 2, lambda v: default_bound(4, 1, v)),
    ("closed_family.n", "n", 0, lambda v: closed_family(v, "A", (1,), CTX)),
    ("generate_family_set.n", "n", 0,
     lambda v: generate_family_set(v, CTX, 2)),
    ("partitions_mult", "n", 0, partitions_mult),
    ("CountTable.count.n", "n", 0, lambda v: CountTable().count(v, 1)),
    ("CountTable.count.k", "k", 0, lambda v: CountTable().count(1, v)),
    ("count_distinguished.n", "n", 0, lambda v: count_distinguished(v, 1)),
    ("count_distinguished.k", "k", 0, lambda v: count_distinguished(4, v)),
    ("telephone", "i", 0, telephone),
    ("leading_coefficient", "n", 0, leading_coefficient),
    ("PartitionMult", "multiplicity", 0, lambda v: PartitionMult((2, v))),
    ("PartitionMult.from_parts", "part", 1,
     lambda v: PartitionMult.from_parts((2, v))),
    ("enumerate_distinguished", "jobs", 1,
     lambda v: enumerate_distinguished(SearchBox(2, 1, 5, 5), jobs=v)),
    ("write_scatter_svg.p", "p", 2,
     lambda v: write_scatter_svg([], os.devnull, v)),
]

BAD_VALUES = [True, 1.0, "1", None, -1]


@pytest.mark.parametrize("name, low, call", [
    pytest.param(name, low, call, id=label)
    for label, name, low, call in ENTRY_POINTS
])
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_every_entry_point_refuses_a_bad_integer(name, low, call, value):
    # A ValueError naming the argument, never a TypeError; the prime has
    # no lower bound of its own, so a negative one is refused as not prime.
    if type(value) is not int:
        message = f"{name} must be an int, got {value!r}"
    elif low is None:
        message = f"{name} must be prime, got {value}"
    else:
        message = f"{name} must be >= {low}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


class TestRegressions:
    def test_iterate_refuses_a_float_cap(self):
        # It once ignored the cap 1.5 and walked all 40 levels.
        w = rho_family(3, 40, CTX)
        with pytest.raises(ValueError, match="^cap must be an int"):
            iterate(w, CTX, 1.5)
        with pytest.raises(ValueError, match="^cap must be an int"):
            distinguished_depth(w, CTX, 1.5)

    def test_rho_family_refuses_a_float_depth(self):
        # It once returned the floats (4.0, 0.0, -4.0).
        with pytest.raises(ValueError, match="^m must be an int, got 1.5$"):
            rho_family(3, 1.5, CTX)

    def test_default_bound_refuses_a_negative_depth(self):
        # It once returned -1.0.
        with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
            default_bound(4, -1, 5)

    @pytest.mark.parametrize("p, message", [
        (1, "p must be >= 2, got 1"), (2.0, "p must be an int, got 2.0"),
        (True, "p must be an int, got True"),
    ])
    def test_default_bound_refuses_a_bad_prime(self, p, message):
        # p = 1 once raised ZeroDivisionError, and p = 2.0 returned 9.0.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_bound(4, 2, p)

    def test_families_refuse_a_float_length(self):
        # A float equal to a key of FAMILY_IDS once built the families:
        # [(6, -6), (1, -1), (0, 0)] and (2, 0, -2).
        with pytest.raises(ValueError, match="^n must be an int, got 2.0$"):
            generate_family_set(2.0, ModularContext(5), 2)
        with pytest.raises(ValueError, match="^n must be an int, got 3.0$"):
            closed_family(3.0, "A", (1,), ModularContext(5))

    @pytest.mark.parametrize("ncoords, message", [
        (1.5, "ncoords must be an int, got 1.5"),
        (True, "ncoords must be an int, got True"),
        ("1", "ncoords must be an int, got '1'"),
        (-1, "ncoords must be >= 0, got -1"),
        (None, "ncoords is required for an empty record list"),
    ])
    def test_scatter_csv_refuses_a_bad_ncoords(self, tmp_path, ncoords,
                                               message):
        # 1.5 once raised TypeError from range, and -1 with no records
        # wrote a file of the header "depth" alone.  None asks for the
        # records' own length, which an empty list does not have.
        path = tmp_path / "pts.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_scatter_csv([], path, ncoords=ncoords)
        assert not path.exists()

    @pytest.mark.parametrize("p, message", [
        (1, "p must be >= 2, got 1"), (0, "p must be >= 2, got 0"),
        (2.5, "p must be an int, got 2.5"),
    ])
    def test_scatter_svg_refuses_a_bad_prime(self, tmp_path, p, message):
        # 1 once raised ZeroDivisionError, 0 "math domain error", and 2.5
        # wrote a file.
        path = tmp_path / "pts.svg"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_scatter_svg([((3, 1), 1)], path, p)
        assert not path.exists()

    @pytest.mark.parametrize("call, message", [
        (lambda: OmegaElement(5), "mu must hold weights, got 5"),
        (lambda: OmegaElement([1]), "mu must hold weights, got [1]"),
        (lambda: omega_from_pair(PartitionMult((2,)), 5),
         "nu must hold ints, got 5"),
    ], ids=["OmegaElement(5)", "OmegaElement([1])", "omega_from_pair-nu-5"])
    def test_a_non_iterable_omega_is_refused(self, call, message):
        # Each once raised TypeError: 'int' object is not iterable.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_count_refuses_a_bool(self):
        with pytest.raises(ValueError, match="^n must be an int, got True$"):
            count_distinguished(True, 1)

    def test_from_parts_refuses_a_float_part(self):
        # It once raised a TypeError from indexing with 2.0.
        with pytest.raises(ValueError, match="^part must be an int, got 2.0$"):
            PartitionMult.from_parts([2.0])


MODULES = (core, counting, enumeration, lv_algorithm, modular_iteration)

# The 48 names and __version__ that the package exported when __init__.py
# listed them itself; the joined lists must keep every one but the retired.
NAMES_BEFORE = [
    "Diagram", "OmegaElement", "PartitionMult", "Rational", "Weight", "dom",
    "format_weight", "omega_from_json", "omega_from_pair", "omega_to_json",
    "omega_to_pair", "parse_weight", "reverse_negate", "reverse_negate_omega",
    "validate_diagram", "validate_weight", "CountTable",
    "count_distinguished", "leading_coefficient", "partitions_mult",
    "telephone", "ScatterRecord", "SearchBox", "closed_family",
    "default_bound", "enumerate_distinguished", "generate_family_set",
    "scatter_records", "write_scatter_csv", "write_scatter_svg",
    "PlacementError", "apply_E", "apply_E_inverse", "kappa", "lv",
    "maximal_clumps", "phi", "phi_inverse", "IterationTrace",
    "ModularContext", "RefinementChain", "distinguished_depth", "iterate",
    "lv_p", "refinement_chain", "rho_family", "trace_from_json",
    "trace_to_json", "__version__",
]
# Retired on purpose: scatter rows and refinement chains are plain tuples.
NAMES_RETIRED = {"ScatterRecord", "RefinementChain"}


class TestPublicNames:
    def test_the_modules_lists_joined(self):
        joined = [name for module in MODULES for name in module.__all__]
        assert lvweights.__all__ == joined + ["__version__"]

    def test_each_name_once_and_resolved(self):
        assert len(set(lvweights.__all__)) == len(lvweights.__all__)
        for module in MODULES:
            for name in module.__all__:
                assert getattr(lvweights, name) is getattr(module, name)
        assert isinstance(lvweights.__version__, str)

    def test_no_name_is_lost(self):
        assert len(NAMES_BEFORE) == 49
        assert NAMES_RETIRED <= set(NAMES_BEFORE)
        assert set(NAMES_BEFORE) - NAMES_RETIRED <= set(lvweights.__all__)
        for name in NAMES_RETIRED:  # gone from every list and module
            assert not hasattr(lvweights, name)
            assert not any(hasattr(module, name) for module in MODULES)

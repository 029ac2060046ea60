"""``verify``'s checks against references that evaluate every identity, run
with one fault injected at a time.

``round_trip_failures`` checks the identities of a diagram once per
distinct diagram, where the reference checks them for each column base;
the commutation checks build their reverse-negates with ``map``, where
the references negate entry by entry; the ``verify`` command's
``suite_failures`` draws each weight once for the commutation check and
the round trips and maps it once for both, where the references draw and
map it for each.  Each fault below breaks the map on some of the samples,
so equal lists under it show that the shortcuts hide no counterexample.
"""

import random
from functools import partial

import pytest

from lvweights import OmegaElement, cli, format_weight, verify

SAMPLES = 400

real = {name: getattr(verify, name) for name in
        ("phi", "apply_E", "kappa", "lv")}


def _single_column(w) -> bool:
    return all(a - b >= 2 for a, b in zip(w, w[1:]))


def _bump_top(x):
    """The diagram with its first entry, the largest of column 1, one
    higher: the column keeps its gaps, so the correction still applies."""
    return ((x[0][0] + 1, *x[0][1:]), *x[1:]) if x else x


def phi_off_on_several_columns(bad, w, base=1):
    x = real["phi"](w, base)
    return x if base != bad or _single_column(w) else _bump_top(x)


def phi_off_on_one_column(bad, w, base=1):
    x = real["phi"](w, base)
    return x if base != bad or not _single_column(w) else _bump_top(x)


def apply_E_off_by_one_in_column_2(x):
    return tuple(row[:1] + (row[1] + 1,) + row[2:] if len(row) > 1 else row
                 for row in real["apply_E"](x))


def kappa_drops_the_last_row(x):
    return real["kappa"](x[:-1])


def lv_off_on_one_column(bad, w, base=1):
    # Wrong only where phi(w, 0) = phi(w, 1), the diagrams checked once.
    if base != bad or len(w) < 2 or not _single_column(w):
        return real["lv"](w, base)
    return real["lv"](w[:-1] + (w[-1] - 1,), base)


def lv_off_where_the_top_is_positive(w, base=1):
    # Breaks the commutation checks too: w and its reverse-negate differ.
    if len(w) < 2 or w[0] <= 0:
        return real["lv"](w, base)
    return real["lv"](w[:-1] + (w[-1] - 1,), base)


# (name, fault, id); a fault at one base is injected at base 0 and at 1.
FAULTS = [
    *(("phi", partial(fault, bad), f"{fault.__name__}_at_base_{bad}")
      for fault in (phi_off_on_several_columns, phi_off_on_one_column)
      for bad in (0, 1)),
    ("apply_E", apply_E_off_by_one_in_column_2, "apply_E_off_by_one"),
    ("kappa", kappa_drops_the_last_row, "kappa_drops_the_last_row"),
    *(("lv", partial(lv_off_on_one_column, bad),
       f"lv_off_on_one_column_at_base_{bad}") for bad in (0, 1)),
    ("lv", lv_off_where_the_top_is_positive,
     "lv_off_where_the_top_is_positive"),
]
CASES = [pytest.param(name, fault, id=id_) for name, fault, id_ in FAULTS]


def _samples(seed, draw=verify.random_weight, samples=SAMPLES):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(samples)]


def reference_round_trips(w) -> bool:
    """Every identity, evaluated for each base, through the names the
    module under test reads, so that it sees the same fault."""
    held = []
    for base in (0, 1):
        x = verify.phi(w, base)
        corrected = verify.apply_E_inverse(x)
        staged = verify.kappa(corrected)
        held += [verify.phi_inverse(x) == w,
                 verify.apply_E(corrected) == x,
                 verify.apply_E_inverse(verify.apply_E(x)) == x,
                 verify.lv(w, base) == staged,
                 staged.entry_sum == sum(w)]
    return all(held)


def _negated(seq):
    return tuple(-v for v in reversed(seq))


def _commutes(w, base) -> bool:
    omega = verify.lv(w, base=base)
    return verify.lv(_negated(w), base=base) == OmegaElement(
        tuple(_negated(m) for m in omega.mu))


def reference_failures(seed, clumps=SAMPLES):
    """The three checks' lists, in ``verify``'s order and sampling, with
    ``clumps`` samples for the single-clump check."""
    return (
        [w for w in _samples(seed) if not _commutes(w, 1)],
        [w for w in _samples(seed, verify.random_clump_weight, clumps)
         if not _commutes(w, 0)],
        [w for w in _samples(seed) if not reference_round_trips(w)],
    )


def failures(seed):
    return (verify.r_commutation_failures(SAMPLES, seed),
            verify.clump_commutation_failures(SAMPLES, seed),
            verify.round_trip_failures(SAMPLES, seed))


CHECKS = ("reverse-negate commutation", "single-clump commutation (base 0)",
          "round trips and sum conservation")


def command_failures(seed, capsys):
    """``suite_failures``'s lists, after checking that the ``verify``
    command reports them: "ok" on stdout for an empty list, else on stderr
    the count and the first five counterexamples, and exit code 2 when
    any list is not empty."""
    found = verify.suite_failures(SAMPLES, seed)
    out, err = [], []
    for name, bad in zip(CHECKS, found):
        if bad:
            err += [f"{name}: FAIL ({len(bad)} counterexamples)",
                    *(f"  {format_weight(w)}" for w in bad[:5])]
        else:
            out.append(f"{name}: ok")
    code = cli.run(["verify", "--samples", str(SAMPLES), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert (code, captured.out.splitlines(), captured.err.splitlines()) == (
        2 if any(found) else 0, out, err)
    return found


@pytest.mark.parametrize("seed", [0, 3])
def test_no_fault_no_failure(seed, capsys):
    assert failures(seed) == reference_failures(seed) == ([], [], [])
    assert command_failures(seed, capsys) == ([], [], [])


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name, fault", CASES)
def test_every_fault_is_found_as_by_the_reference(monkeypatch, capsys, seed,
                                                  name, fault):
    monkeypatch.setattr(verify, name, fault)
    found = failures(seed)
    assert found == reference_failures(seed)
    assert found[2], "the round trips miss the fault"
    assert command_failures(seed, capsys) == reference_failures(
        seed, SAMPLES // 10)


def test_each_distinct_diagram_is_checked_once(monkeypatch):
    calls = []
    phi_inverse = verify.phi_inverse
    monkeypatch.setattr(verify, "phi_inverse",
                        lambda x: calls.append(x) or phi_inverse(x))
    ws = _samples(3)
    assert verify.round_trip_failures(SAMPLES, 3) == []
    distinct = [len({verify.phi(w, 0), verify.phi(w, 1)}) for w in ws]
    assert len(calls) == sum(distinct)
    assert 0 < distinct.count(2) < SAMPLES  # both cases are sampled

"""Seeded randomized checks of the map's structural identities.

Reused by the ``verify`` CLI subcommand and by the test suite.  Each check
returns a list of counterexamples (empty means the property held on every
sample); sampling is driven by a caller-supplied seed so runs are
reproducible byte for byte.  ``suite_failures`` runs the command's three
checks: the commutation check and the round trips take one draw of the N
samples, each weight drawn once and lv(w) computed once for both, and
the single-clump check draws its own max(N // 10, 1) clumps.  As
lv(R w, 0) = R lv(w, 1), R the reverse-negate map, the single-clump check
shows that lv does not depend on the column base, on clumps of at most 8
entries, and the base-0 round trip checks that the base-1 map commutes
with R.
"""

from __future__ import annotations

from functools import partial

from .core import dom, reverse_negate, reverse_negate_omega
from .lv_algorithm import apply_E, apply_E_inverse, kappa, lv, phi, phi_inverse

__all__ = [
    "random_weight",
    "random_clump_weight",
    "r_commutation_failures",
    "clump_commutation_failures",
    "round_trip_failures",
    "suite_failures",
]


def random_weight(rng, max_n: int = 8, lo: int = -50, hi: int = 50):
    """Up to ``max_n`` entries in [lo, hi]; ``rng`` is a ``random.Random``."""
    n = rng.randint(0, max_n)
    return dom(rng.randint(lo, hi) for _ in range(n))


def random_clump_weight(rng, max_n: int = 8, lo: int = -20, hi: int = 20):
    """A weight forming a single maximal clump: consecutive distinct values,
    each with multiplicity >= 1."""
    n = rng.randint(1, max_n)
    width = rng.randint(1, n)
    top = rng.randint(lo, hi)
    mults = [1] * width
    for _ in range(n - width):
        mults[rng.randrange(width)] += 1
    return tuple(top - i for i, m in enumerate(mults) for _ in range(m))


def _failures(samples: int, seed: int, draw, base: int, *holds):
    """For each predicate in ``holds``, the weights among ``samples`` drawn
    by ``draw`` from ``random.Random(seed)`` for which it is false.  Each
    predicate takes w and lv(w, base), so every weight is drawn once and
    mapped once for all of them; the weights are drawn one at a time."""
    import random
    rng, bad = random.Random(seed), [[] for _ in holds]
    for _ in range(samples):
        w = draw(rng)
        a = lv(w, base)
        for found, held in zip(bad, holds):
            if not held(w, a):
                found.append(w)
    return bad


def _commutes(w, a, base: int = 1) -> bool:
    """lv(R w, base) = R a, where a = lv(w, base)."""
    return lv(reverse_negate(w), base) == reverse_negate_omega(a)


def r_commutation_failures(samples: int, seed: int):
    """Weights where the forward map fails to commute with reverse-negate."""
    return _failures(samples, seed, random_weight, 1, _commutes)[0]


def clump_commutation_failures(samples: int, seed: int):
    """Single-clump weights where the 0-indexed variant fails to commute
    with reverse-negate: as lv(R w, 0) = R lv(w, 1), the clumps, of at most
    8 entries, on which ``lv`` depends on the column base."""
    return _failures(samples, seed, random_clump_weight, 0,
                     partial(_commutes, base=0))[0]


def round_trip_failures(samples: int, seed: int):
    """Weights violating any of: sort-of-diagram returns the weight, the
    column correction round-trips on diagram images, the composed map equals
    its staged form for both column bases, or entry sums are conserved."""
    return _failures(samples, seed, random_weight, 1, _round_trips)[0]


def suite_failures(samples: int, seed: int):
    """The lists of ``r_commutation_failures(samples, seed)``,
    ``clump_commutation_failures(max(samples // 10, 1), seed)`` and
    ``round_trip_failures(samples, seed)``, the ``verify`` command's
    checks: the first and the last share one draw of the samples and
    lv(w) of each."""
    commuting, round_trips = _failures(samples, seed, random_weight, 1,
                                       _commutes, _round_trips)
    return (commuting, clump_commutation_failures(max(samples // 10, 1), seed),
            round_trips)


def _round_trips(w, a) -> bool:
    """Every identity of ``round_trip_failures`` for both column bases,
    where a = lv(w, 1).  Those of the diagram x = phi(w, base) alone are
    pure in x, so they are checked once per distinct x; ``lv(w, base)`` is
    checked against x's staged form.  Every check runs, so one that raises
    still raises."""
    held, seen = [], None
    for base in (0, 1):
        x = phi(w, base)
        if x != seen:
            seen, corrected = x, apply_E_inverse(x)
            staged = kappa(corrected)
            held += [phi_inverse(x) == w, apply_E(corrected) == x,
                     apply_E_inverse(apply_E(x)) == x,
                     staged.entry_sum == sum(w)]
        held.append((a if base else lv(w, 0)) == staged)
    return all(held)

"""Seeded randomized checks of the map's structural identities.

Reused by the ``verify`` CLI subcommand and by the test suite.  Each check
returns a list of counterexamples (empty means the property held on every
sample); sampling is driven by a caller-supplied seed so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import random

from .core import dom, reverse_negate, reverse_negate_omega
from .lv_algorithm import apply_E, apply_E_inverse, kappa, lv, phi, phi_inverse

__all__ = [
    "random_weight",
    "random_clump_weight",
    "r_commutation_failures",
    "clump_commutation_failures",
    "round_trip_failures",
]


def random_weight(rng: random.Random, max_n: int = 8, lo: int = -50, hi: int = 50):
    n = rng.randint(0, max_n)
    return dom(rng.randint(lo, hi) for _ in range(n))


def random_clump_weight(
    rng: random.Random, max_n: int = 8, lo: int = -20, hi: int = 20
):
    """A weight forming a single maximal clump: consecutive distinct values,
    each with multiplicity >= 1."""
    n = rng.randint(1, max_n)
    width = rng.randint(1, n)
    top = rng.randint(lo, hi)
    mults = [1] * width
    for _ in range(n - width):
        mults[rng.randrange(width)] += 1
    out = []
    for i, m in enumerate(mults):
        out.extend([top - i] * m)
    return tuple(out)


def r_commutation_failures(samples: int, seed: int):
    """Weights where the forward map fails to commute with reverse-negate."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        w = random_weight(rng)
        if lv(reverse_negate(w)) != reverse_negate_omega(lv(w)):
            bad.append(w)
    return bad


def clump_commutation_failures(samples: int, seed: int):
    """Single-clump weights where the 0-indexed variant fails to commute
    with reverse-negate."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        w = random_clump_weight(rng)
        if lv(reverse_negate(w), base=0) != reverse_negate_omega(lv(w, base=0)):
            bad.append(w)
    return bad


def round_trip_failures(samples: int, seed: int):
    """Weights violating any of: sort-of-diagram returns the weight, the
    column correction round-trips on diagram images, the composed map equals
    its staged form for both column bases, or entry sums are conserved."""
    rng = random.Random(seed)
    bad = []
    for _ in range(samples):
        w = random_weight(rng)
        ok = True
        for base in (0, 1):
            x = phi(w, base)
            corrected = apply_E_inverse(x)
            if phi_inverse(x) != w:
                ok = False
            if apply_E(corrected) != x:
                ok = False
            if apply_E_inverse(apply_E(x)) != x:
                ok = False
            staged = kappa(corrected)
            if lv(w, base) != staged:
                ok = False
            if staged.entry_sum != sum(w):
                ok = False
        if not ok:
            bad.append(w)
    return bad

"""The forward Lusztig-Vogan map for GL_n and its building blocks.

The map factors into three stages:

  * ``phi``      -- builds a weighted diagram column by column, selecting
                    alternating members of each maximal clump;
  * ``apply_E_inverse`` -- adds the zero-sum progression
                    (-(c-1), -(c-3), ..., c-1) down every column;
  * ``kappa``    -- groups rows by length and records sorted row sums.

``lv = kappa . apply_E_inverse . phi``.  The variant with columns indexed
from 0 (``base=0``), used by the single-clump commutation argument, is a
mirror: phi(w, 0) is phi(R w, 1), R = ``reverse_negate``, with its rows in
reverse order and every entry negated.  Negation swaps which alternates an
even run gives up and turns z + (-1)^r into z - (-1)^r, as the parity flip
does, and reverses the rows, which open only in the first column.  A
column read bottom up and negated has its correction reversed and negated,
and ``kappa`` sorts, so lv(w, 0) = R lv(R w, 1) for every weight.

``_phi_rows`` is the only placement code and ``_correct_columns`` the only
column correction.  ``phi`` of a weight is the ``phi`` of each of its
maximal clumps, shifted; ``_template`` compiles a clump shape once, with
both kernels, into its rows, its corrected row sums and its column sizes,
and keeps it in a bounded cache keyed by the clump's multiplicities.
Placement finds each value's row by lookup, so a clump costs time linear
in its length, whether its entries are equal or distinct.  ``phi`` reads
the rows of the templates.  ``_lv_mu`` is the fused map divided by p: a
single-column diagram is a staircase shift, and any other weight takes one
pass over its clumps' templates, which adds the cross-clump part of the
column correction to the row sums.  It is behind ``lv``, ``lv_p``, the
depth search and the enumeration's inverse, which compiles its cells from
it; ``apply_E_inverse`` and ``kappa`` take any diagram.

``apply_E``, the entrywise inverse correction, runs the same kernel on
each column sorted by value; with ``phi_inverse`` it supports round-trip
testing.  All functions are pure and operate on immutable values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .core import (Diagram, OmegaElement, Weight, _BuiltDiagram, dom,
                   reverse_negate, reverse_negate_omega, validate_diagram,
                   validate_weight)

__all__ = [
    "PlacementError",
    "maximal_clumps",
    "phi",
    "phi_inverse",
    "apply_E",
    "apply_E_inverse",
    "kappa",
    "lv",
]

class PlacementError(RuntimeError):
    """No eligible row exists for a column entry during ``phi``.

    This cannot happen for valid weakly decreasing input; it is raised
    rather than silently patched, because it means the construction's
    validity assumption was violated.  Its message is the whole diagnostic:
    the value, its column, the rows so far and the values still to place.
    """


def maximal_clumps(w) -> tuple[Weight, ...]:
    """Split a weight into the minimal number of contiguous blocks whose
    distinct values are consecutive integers.

    Adjacent blocks are separated by a value gap of at least 2, which is
    what makes the splitting unique and minimal.
    """
    w = validate_weight(w)
    cuts = [i for i in range(1, len(w)) if w[i - 1] - w[i] > 1]
    return tuple(w[a:b] for a, b in zip([0, *cuts], [*cuts, len(w)]) if w)


def _select_column(live: list[int], r: int) -> list[int]:
    """Indices i whose value -i enters column ``r``, in increasing order,
    among ``live``, the increasing indices of values still to place: every
    other index of each maximal clump, a run of consecutive live indices.

    For a clump with distinct values (b_1, b_2, ...) the selection starts
    at b_2 when both the column number ``r`` and the count of distinct
    values are even, and at b_1 otherwise.
    """
    out: list[int] = []
    a, n = 0, len(live)
    for b in range(1, n + 1):
        if b == n or live[b] != live[b - 1] + 1:  # live[a:b] is a clump
            out += live[a + (r % 2 == 0 and (b - a) % 2 == 0):b:2]
            a = b
    return out


def _phi_rows(mults) -> tuple[list[list[int]], list[int]]:
    """The rows and column sizes of ``phi`` of the canonical clump with
    multiplicities ``mults``: the value -i occurs ``mults[i]`` times.

    Column r's value z ends the one row that ends in column r - 1 with z
    or z + (-1)^r: a column's values are at least 2 apart, so ``ends``,
    the last column's rows by last entry, holds at most one such row, and
    no two values of column r want the same one.
    """
    left = list(mults)
    live = [i for i, m in enumerate(left) if m]
    rows: list[list[int]] = []
    cols: list[int] = []
    ends: dict[int, list[int]] = {}
    while live:
        r = 1 + len(cols)
        z = _select_column(live, r)
        last, ends, sign = ends, {}, (-1) ** r
        for i in z:
            if not cols:  # the first column starts one row per value
                rows.append(row := [])
            elif (row := last.get(-i) or last.get(sign - i)) is None:
                raise PlacementError(
                    f"no eligible row for value {-i} in column {r}; "
                    f"rows={rows}, remaining="
                    f"{[-j for j, m in enumerate(left) for _ in range(m)]}")
            row.append(-i)
            ends[-i] = row
        for i in z:
            left[i] -= 1
        live = [i for i in live if left[i]]  # each column takes half or more
        cols.append(len(z))
    return rows, cols


# Templates kept, at about 1 kB each.  6,000 clumpy weights with n <= 16
# need 570 for ``lv`` and 258 more for ``phi`` at base 0, which reads the
# reversed vectors; clumps of up to 16 entries have 2^16 - 1.
_MAX_TEMPLATES = 1 << 13
_BASE_FREE_CLUMP = 16  # the longest clump checked; see ``_lv_mu``


@lru_cache(maxsize=_MAX_TEMPLATES)
def _template(mults: tuple[int, ...]):
    """``phi`` of the canonical clump -- distinct values 0, -1, -2, ...
    with multiplicities ``mults`` -- as ``(rows, sums, cols)``: its rows;
    each row's sum after the column correction of the clump alone; and its
    column sizes.

    ``phi`` of a weight is each maximal clump's rows shifted by the clump's
    top, in clump order.  Selection reads only column parity and counts of
    distinct values, and placement compares differences, so a shift moves
    the rows with the clump; and two maximal clumps differ by at least 2,
    while removing selected values only splits clumps, so no column joins
    values of two clumps and no row takes values from two.  A
    ``PlacementError`` or a gap below 2 is raised here, once per template,
    on the canonical values; gaps across a clump boundary are at least 2.
    """
    rows, cols = _phi_rows(mults)
    rows = tuple(map(tuple, rows))
    return rows, tuple(map(sum, _correct_columns(rows))), tuple(cols)


def _clump_plan(w: Weight) -> list:
    """(template, top) of each maximal clump of ``w``, in order."""
    if not w:
        return []
    plan = []
    top = prev = w[0]
    mults = [1]
    for v in w[1:]:
        gap = prev - v
        if gap == 0:
            mults[-1] += 1
        elif gap == 1:
            mults.append(1)
        else:
            plan.append((_template(tuple(mults)), top))
            top, mults = v, [1]
        prev = v
    plan.append((_template(tuple(mults)), top))
    return plan


def phi(w, base: int = 1) -> Diagram:
    """Column-by-column diagram construction.

    ``base`` selects the index of the first column (1 by default, 0 for the
    parity-shifted variant, base 1's mirror).  Each selected value z is
    appended to the topmost open row whose previous entry is z or
    z + (-1)^r, where r is the externally visible column number.
    """
    if type(base) is not int or base not in (0, 1):
        raise ValueError(f"column base must be 0 or 1, got {base}")
    w = validate_weight(w)
    s = 2 * base - 1  # base 0: base 1's plan of R w, reversed and negated
    plan = _clump_plan(w if base else reverse_negate(w))[::s]
    return _BuiltDiagram([tuple([s * (v + top) for v in row])
                          for (rows, _, _), top in plan for row in rows[::s]])


def phi_inverse(x: Diagram) -> Weight:
    """Sort all diagram entries weakly decreasing."""
    return dom(chain.from_iterable(validate_diagram(x)))


def apply_E(x: Diagram) -> Diagram:
    """Entrywise column correction: add 2*m - (c-1) to each entry, where c
    is the column size and m counts column entries lexicographically before
    it as a (value, -row) pair.

    Equal pairs cannot occur since row indices differ, so the ranking is a
    strict total order.
    """
    return _correct_columns(validate_diagram(x), -1)


def apply_E_inverse(x: Diagram) -> Diagram:
    """Add the zero-sum progression (-(c-1), -(c-3), ..., c-1) down each
    column.

    Requires every column to be strictly decreasing top to bottom with
    consecutive differences >= 2 (always true for ``phi`` images); violations
    are rejected naming the offending column.
    """
    return _correct_columns(validate_diagram(x))


def _correct_columns(x: Diagram, sign: int = 1) -> Diagram:
    """``apply_E_inverse``, or ``apply_E`` when ``sign`` is -1, unvalidated:
    the t-th of a column's c entries, by value from the largest and ties top
    row first, gains sign * (2t - (c-1)).  ``apply_E`` sorts each column;
    ``apply_E_inverse`` needs each entry at least 2 below the one above it
    and raises, quoting the entries as given; a sorted column needs no
    test."""
    rows = list(map(list, x))
    col, j = rows, 0
    while col := [row for row in col if len(row) > j]:
        shift = sign * (1 - len(col))
        if sign < 0:  # a stable sort: ties keep the top row first
            for row in sorted(col, key=itemgetter(j), reverse=True):
                row[j] += shift
                shift -= 2
        else:
            above = col[0][j] + 2
            for row in col:
                v = row[j]
                if above - v < 2:
                    raise ValueError(
                        f"column {j + 1} gap below 2: {above} then {v}")
                row[j] = v + shift
                above = v
                shift += 2
        j += 1
    return _BuiltDiagram(map(tuple, rows))


def kappa(x: Diagram) -> OmegaElement:
    """Group rows by length: mu_i is the sorted row sums of length-i rows."""
    x = validate_diagram(x)
    width = max(map(len, x), default=0)
    buckets: list[list[int]] = [[] for _ in range(width)]
    for row in filter(None, x):  # an empty row goes in no bucket
        buckets[len(row) - 1].append(sum(row))
    return OmegaElement._of(tuple(map(dom, buckets)))


def lv(w, base: int = 1) -> OmegaElement:
    """The forward map: kappa . apply_E_inverse . phi.

    Preserves the total entry sum: the column correction is zero-sum per
    column, the diagram permutes entries, and the final stage only sums.
    Base 0 mirrors base 1 past the checked clump size (see ``_lv_mu``).
    """
    if type(base) is not int or base not in (0, 1):
        raise ValueError(f"column base must be 0 or 1, got {base}")
    w = validate_weight(w)
    if base == 0 and len(w) > _BASE_FREE_CLUMP and max(
            map(len, maximal_clumps(w))) > _BASE_FREE_CLUMP:
        return reverse_negate_omega(lv(reverse_negate(w)))
    return OmegaElement._of(_lv_mu(w))


def _lv_mu(entries: Weight, p: int = 1) -> tuple[Weight, ...] | None:
    """Components of ``lv`` divided by p, without validation or wrapping;
    None when some entry is not divisible by p.

    Fast path: when all consecutive gaps are >= 2 every clump is a
    singleton, the diagram is a single column, and the whole map collapses
    to subtracting the staircase (n-1, n-3, ..., 1-n).  One pass, for
    every p, tests each gap, subtracts, and divides only when p != 1; a
    remainder leaves the general path to decide.

    General path: ``lv`` keeps the total, so None unless p divides it.  The
    diagram is the clumps' templates shifted by their tops (see
    ``_template``), and a row of length L gets the correction
    sum_{j<L} (2*above_j - (c_j - 1)), where c_j counts column j's entries
    and above_j those above the row.  Split above_j and c_j into the row's
    own clump, which the template's sum already corrects, and the clumps
    above and below it: a clump's rows then all get the prefix sums of one
    column vector, sum_{j<L} (2*A_j + C_j - c_j) with A_j the entries of
    earlier clumps in column j and C_j the clump's own, plus L times the
    clump's top.

    Rows of one length come in descending order of sum, so no sort is
    needed: rows fill columns from the first, and the correction leaves
    every column non-increasing down the rows (or raises), so the upper of
    two rows of one length is entrywise at least the lower.

    It plans with base 1 for both bases.  Of a clump it reads the top, the
    column sizes and the (row length, corrected sum) multiset; base 0 reads
    m as base 1 reads m[::-1], (L, S) as (L, -S - L*(len(m) - 1)), and the
    tests find them equal on every shape of up to ``_BASE_FREE_CLUMP`` entries.
    """
    n = len(entries)
    if n == 0:
        return ()
    top, prev, out = n - 1, entries[0] + 2, []
    for v in entries:
        if prev - v < 2:
            break
        q = v - top
        if p != 1:
            q, r = divmod(q, p)
            if r:
                break
        out.append(q)
        top, prev = top - 2, v
    else:
        return (tuple(out),)
    if p != 1 and sum(entries) % p:
        return None
    plan = _clump_plan(entries)
    total = [0] * n  # column sizes; the columns past the last stay 0
    for (_, _, cols), _ in plan:
        for j, c in enumerate(cols):
            total[j] += c
    above = [0] * n
    buckets: list[list[int]] = [[] for _ in range(n - total.count(0))]
    for (rows, sums, cols), top in plan:
        lift = [0]  # lift[L]: what a length-L row adds to its template sum
        s = 0
        for j, c in enumerate(cols):
            s += top + 2 * above[j] + c - total[j]
            above[j] += c
            lift.append(s)
        for row, own in zip(rows, sums):
            q = own + lift[len(row)]
            if p != 1:
                q, r = divmod(q, p)
                if r:
                    return None
            buckets[len(row) - 1].append(q)
    return tuple(map(tuple, buckets))

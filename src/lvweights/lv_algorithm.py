"""The forward Lusztig-Vogan map for GL_n and its building blocks.

The map factors into three stages:

  * ``phi``      -- builds a weighted diagram column by column, selecting
                    alternating members of each maximal clump;
  * ``apply_E_inverse`` -- adds the zero-sum progression
                    (-(c-1), -(c-3), ..., c-1) down every column;
  * ``kappa``    -- groups rows by length and records sorted row sums.

``lv = kappa . apply_E_inverse . phi``.  The variant with columns indexed
from 0 (``base=0``) flips the parity used by the selection and placement
rules and is needed for the single-clump commutation argument; everything
else is shared.

``_phi_rows`` is the only placement code and ``_correct_columns`` the
only column correction.  ``phi`` of a weight is the ``phi`` of each of its
maximal clumps, shifted; ``_template`` compiles a clump shape once, with
both kernels, into its rows, its corrected row sums and its column sizes,
and keeps it in a bounded cache keyed by the clump's multiplicities and
the column base.  ``phi`` reads the rows of the templates.  ``_lv_mu`` is
the fused map divided by p: a single-column diagram is a staircase shift,
and any other weight takes one pass over its clumps' templates, which adds
the cross-clump part of the column correction to the row sums.  It is
behind ``lv``, ``lv_p``, the depth search and the enumeration's inverse,
which compiles its cells from it; ``apply_E_inverse`` and ``kappa`` take
any diagram.

``apply_E``, the entrywise inverse correction, runs the same kernel and
sorts only a column out of order; with ``phi_inverse`` it supports
round-trip testing.  All functions are pure and operate on immutable values.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .core import (
    Diagram,
    OmegaElement,
    Weight,
    dom,
    validate_diagram,
    validate_weight,
)

__all__ = [
    "Clump",
    "PlacementError",
    "maximal_clumps",
    "phi",
    "phi_inverse",
    "apply_E",
    "apply_E_inverse",
    "kappa",
    "lv",
]

# A maximal clump: a contiguous block of a weight whose distinct values are
# consecutive integers.
Clump = tuple[int, ...]


class PlacementError(RuntimeError):
    """No eligible row exists for a column entry during ``phi``.

    This cannot happen for valid weakly decreasing input; it is raised with
    a full diagnostic dump rather than silently patched, because it means
    the construction's validity assumption was violated.
    """

    def __init__(self, value: int, column: int, rows, remaining):
        self.value = value
        self.column = column
        self.rows = [list(r) for r in rows]
        self.remaining = list(remaining)
        super().__init__(
            f"no eligible row for value {value} in column {column}; "
            f"rows={self.rows}, remaining={self.remaining}"
        )


def maximal_clumps(w) -> tuple[Clump, ...]:
    """Split a weight into the minimal number of contiguous blocks whose
    distinct values are consecutive integers.

    Adjacent blocks are separated by a value gap of at least 2, which is
    what makes the splitting unique and minimal.
    """
    w = validate_weight(w)
    clumps: list[Clump] = []
    i, n = 0, len(w)
    while i < n:
        j = i + 1
        while j < n and w[j - 1] - w[j] <= 1:
            j += 1
        clumps.append(w[i:j])
        i = j
    return tuple(clumps)


def _select_column(remaining: list[int], r: int) -> list[int]:
    """Values entering column ``r``: per clump, every other distinct value.

    For a clump with distinct values (b_1, b_2, ...) the selection starts
    at b_2 when both the column number ``r`` and the count of distinct
    values are even, and at b_1 otherwise.  One copy of each selected value
    is returned, in decreasing order.
    """
    out: list[int] = []
    i, n = 0, len(remaining)
    r_even = r % 2 == 0
    while i < n:
        distinct = [remaining[i]]
        j = i + 1
        while j < n:
            gap = distinct[-1] - remaining[j]
            if gap > 1:
                break
            if gap == 1:
                distinct.append(remaining[j])
            j += 1
        start = 1 if (r_even and len(distinct) % 2 == 0) else 0
        out.extend(distinct[start::2])
        i = j
    return out


def _phi_rows(w, base: int) -> list[list[int]]:
    remaining = list(w)
    rows: list[list[int]] = []
    r = base
    while remaining:
        z = _select_column(remaining, r)
        if not rows:
            # First column: one new row per value, decreasing top to bottom.
            rows = [[v] for v in z]
        else:
            need = r - base  # a row is open iff its last entry sits in column r-1
            sign = 1 if r % 2 == 0 else -1
            for v in z:
                for row in rows:
                    if len(row) == need and (row[-1] == v or row[-1] == v + sign):
                        row.append(v)
                        break
                else:
                    raise PlacementError(v, r, rows, remaining)
        for v in z:
            remaining.remove(v)
        r += 1
    return rows


# Templates kept, at about 1 kB each.  6,000 clumpy weights with n <= 16
# need 1,122 under both bases; clumps of up to 16 entries have 2^16 - 1.
_MAX_TEMPLATES = 1 << 13


@lru_cache(maxsize=_MAX_TEMPLATES)
def _template(mults: tuple[int, ...], base: int):
    """``phi`` of the canonical clump -- distinct values 0, -1, -2, ...
    with multiplicities ``mults`` -- as ``(rows, sums, cols)``: its rows;
    each row's sum after the column correction of the clump alone; and its
    column sizes.

    ``phi`` of a weight is each maximal clump's rows shifted by the clump's
    top, in clump order.  Selection reads only column parity and counts of
    distinct values, and placement compares differences, so a shift moves
    the rows with the clump; and two maximal clumps differ by at least 2,
    while removing selected values only splits clumps, so no column joins
    values of two clumps and no row takes values from two.  Every clump
    starts at column ``base``.  A ``PlacementError`` or a gap below 2 is
    raised here, once per template, on the canonical values; gaps across a
    clump boundary are at least 2.
    """
    rows = tuple(map(tuple, _phi_rows(
        [-i for i, m in enumerate(mults) for _ in range(m)], base)))
    width = max(map(len, rows))
    return (rows, tuple(map(sum, _correct_columns(rows))),
            tuple(sum(len(row) > j for row in rows) for j in range(width)))


def _clump_plan(w: Weight, base: int) -> list:
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
            plan.append((_template(tuple(mults), base), top))
            top, mults = v, [1]
        prev = v
    plan.append((_template(tuple(mults), base), top))
    return plan


def phi(w, base: int = 1) -> Diagram:
    """Column-by-column diagram construction.

    ``base`` selects the index of the first column (1 by default, 0 for the
    parity-shifted variant).  Each selected value z is appended to the
    topmost open row whose previous entry is z or z + (-1)^r, where r is
    the externally visible column number.
    """
    if base not in (0, 1):
        raise ValueError(f"column base must be 0 or 1, got {base}")
    w = validate_weight(w)
    return tuple(tuple(v + top for v in row)
                 for (rows, _, _), top in _clump_plan(w, base) for row in rows)


def phi_inverse(x: Diagram) -> Weight:
    """Sort all diagram entries weakly decreasing."""
    x = validate_diagram(x)
    return dom(v for row in x for v in row)


def apply_E(x: Diagram) -> Diagram:
    """Entrywise column correction: add 2*m - (c-1) to each entry, where c
    is the column size and m counts column entries lexicographically before
    it as a (value, -row) pair.

    Equal pairs cannot occur since row indices differ, so the ranking is a
    strict total order.  A column already weakly decreasing is not sorted.
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
    row first, gains sign * (2t - (c-1)).  ``apply_E`` sorts a column only
    if it is out of order; ``apply_E_inverse`` needs each entry at least 2
    below the one above it and raises, quoting the entries as given."""
    rows = [list(r) for r in x]
    fall, step = 1 + sign, 2 * sign
    col, j = rows, 0
    while col := [row for row in col if len(row) > j]:
        order, shift = col, sign * (1 - len(col))
        if sign < 0 and any(a[j] < b[j] for a, b in zip(col, col[1:])):
            order = sorted(col, key=itemgetter(j), reverse=True)
        above = order[0][j] + fall
        for row in order:
            v = row[j]
            if above - v < fall:
                raise ValueError(
                    f"column {j + 1} gap below 2: {above} then {v}")
            row[j] = v + shift
            above = v
            shift += step
        j += 1
    return tuple(map(tuple, rows))


def kappa(x: Diagram) -> OmegaElement:
    """Group rows by length: mu_i is the sorted row sums of length-i rows."""
    rows = [r for r in validate_diagram(x) if r]
    width = max(map(len, rows), default=0)
    buckets: list[list[int]] = [[] for _ in range(width)]
    for row in rows:
        buckets[len(row) - 1].append(sum(row))
    return OmegaElement._of(tuple(map(dom, buckets)))


def lv(w, base: int = 1) -> OmegaElement:
    """The forward map: kappa . apply_E_inverse . phi.

    Preserves the total entry sum: the column correction is zero-sum per
    column, the diagram permutes entries, and the final stage only sums.
    """
    if base not in (0, 1):
        raise ValueError(f"column base must be 0 or 1, got {base}")
    w = validate_weight(w)
    return OmegaElement._of(_lv_mu(w, base))


def _lv_mu(entries: Weight, base: int = 1,
           p: int = 1) -> tuple[Weight, ...] | None:
    """Components of ``lv`` divided by p, without validation or wrapping;
    None when some entry is not divisible by p.

    Fast path: when all consecutive gaps are >= 2 every clump is a
    singleton, the diagram is a single column, and the whole map collapses
    to subtracting the staircase (n-1, n-3, ..., 1-n).  This case dominates
    weights with widely spread entries; it is independent of ``base``
    because a one-element clump is selected under either parity.

    General path: the diagram is the clumps' templates shifted by their
    tops (see ``_template``), and a row of length L gets the correction
    sum_{j<L} (2*above_j - (c_j - 1)), where c_j counts column j's entries
    and above_j those above the row.  Split above_j and c_j into the
    row's own clump, which the template's sum already corrects, and the
    clumps above and below it: a clump's rows then all get the prefix sums
    of one column vector, sum_{j<L} (2*A_j + C_j - c_j) with A_j the
    entries of earlier clumps in column j and C_j the clump's own, plus L
    times the clump's top.

    Rows of one length come in descending order of sum, so no sort is
    needed: rows fill columns from the first, and the correction leaves
    every column non-increasing down the rows (or raises), so the upper of
    two rows of one length is entrywise at least the lower.
    """
    n = len(entries)
    if n == 0:
        return ()
    prev = entries[0]
    for v in entries[1:]:
        if prev - v < 2:
            break
        prev = v
    else:
        top, out = n - 1, []
        for v in entries:
            q = v - top
            if p != 1:
                q, r = divmod(q, p)
                if r:
                    return None
            out.append(q)
            top -= 2
        return (tuple(out),)
    plan = _clump_plan(entries, base)
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

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

Each stage has one kernel on mutable rows, ``_phi_rows``,
``_correct_columns`` and ``_row_sums``, which ``phi``, ``apply_E_inverse``
and ``kappa`` call after validating.  ``_lv_mu`` chains the three (a
single-column diagram is a staircase shift) and divides by p; it is behind
``lv``, ``lv_p``, the depth search and the enumeration's root test, whose
sieve compile calls ``_phi_rows`` and ``_correct_columns`` itself.

``apply_E`` is the entrywise inverse of the column correction and, together
with ``phi_inverse``, supports round-trip testing.  All functions are pure
and operate on immutable values.
"""

from __future__ import annotations

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


def _remove_once(values: list[int], selected: list[int]) -> list[int]:
    """Remove one copy of each selected value; both lists weakly decreasing."""
    out: list[int] = []
    k = 0
    for v in values:
        if k < len(selected) and v == selected[k]:
            k += 1
        else:
            out.append(v)
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
        remaining = _remove_once(remaining, z)
        r += 1
    return rows


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
    return tuple(tuple(row) for row in _phi_rows(w, base))


def phi_inverse(x: Diagram) -> Weight:
    """Sort all diagram entries weakly decreasing."""
    x = validate_diagram(x)
    return dom(v for row in x for v in row)


def apply_E(x: Diagram) -> Diagram:
    """Entrywise column correction: add 2*m - (c-1) to each entry, where c
    is the column size and m counts column entries lexicographically before
    it as a (value, -row) pair.

    Equal pairs cannot occur since row indices differ, so the ranking is a
    strict total order.
    """
    x = validate_diagram(x)
    rows = [list(r) for r in x]
    ncols = max((len(r) for r in rows), default=0)
    for j in range(ncols):
        col = [(rows[i][j], -i, i) for i in range(len(rows)) if len(rows[i]) > j]
        c = len(col)
        for m, (_, _, i) in enumerate(sorted(col)):
            rows[i][j] += 2 * m - (c - 1)
    return tuple(tuple(r) for r in rows)


def apply_E_inverse(x: Diagram) -> Diagram:
    """Add the zero-sum progression (-(c-1), -(c-3), ..., c-1) down each
    column.

    Requires every column to be strictly decreasing top to bottom with
    consecutive differences >= 2 (always true for ``phi`` images); violations
    are rejected naming the offending column.
    """
    rows = [list(r) for r in validate_diagram(x)]
    _correct_columns(rows)
    return tuple(tuple(r) for r in rows)


def _correct_columns(rows: list[list[int]]) -> None:
    """``apply_E_inverse`` in place.  A gap below 2 leaves a corrected
    entry smaller than the one under it, so the check runs in the
    correction pass; the error quotes the entries as given."""
    col, j = rows, 0
    while col := [row for row in col if len(row) > j]:
        shift = 1 - len(col)
        above = col[0][j] + shift
        for row in col:
            v = row[j] + shift
            if v > above:
                raise ValueError(
                    f"column {j + 1} gap below 2: "
                    f"{above - shift + 2} then {v - shift}"
                )
            row[j] = above = v
            shift += 2
        j += 1


def kappa(x: Diagram) -> OmegaElement:
    """Group rows by length: mu_i is the sorted row sums of length-i rows."""
    return OmegaElement(_row_sums([r for r in validate_diagram(x) if r]))


def _row_sums(rows, p: int = 1) -> tuple[Weight, ...] | None:
    """``kappa`` of nonempty rows with every row sum divided by p, or None
    when some row sum is not divisible by p."""
    s = max(map(len, rows), default=0)
    buckets: list[list[int]] = [[] for _ in range(s)]
    for row in rows:
        q, r = divmod(sum(row), p)
        if r:
            return None
        buckets[len(row) - 1].append(q)
    return tuple(tuple(sorted(b, reverse=True)) for b in buckets)


def lv(w, base: int = 1) -> OmegaElement:
    """The forward map: kappa . apply_E_inverse . phi.

    Preserves the total entry sum: the column correction is zero-sum per
    column, the diagram permutes entries, and the final stage only sums.
    """
    if base not in (0, 1):
        raise ValueError(f"column base must be 0 or 1, got {base}")
    w = validate_weight(w)
    return OmegaElement(_lv_mu(w, base))


def _lv_mu(entries: Weight, base: int = 1,
           p: int = 1) -> tuple[Weight, ...] | None:
    """Components of ``lv`` divided by p, without validation or wrapping;
    None when some entry is not divisible by p.

    Fast path: when all consecutive gaps are >= 2 every clump is a
    singleton, the diagram is a single column, and the whole map collapses
    to subtracting the staircase (n-1, n-3, ..., 1-n).  This case dominates
    large enumeration scans; it is independent of ``base`` because a
    one-element clump is selected under either parity.
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
        top = n - 1
        out = []
        for v in entries:
            q, r = divmod(v - top, p)
            if r:
                return None
            out.append(q)
            top -= 2
        return (tuple(out),)
    rows = _phi_rows(entries, base)
    _correct_columns(rows)
    return _row_sums(rows, p)

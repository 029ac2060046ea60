"""Distinguished weights by construction, and closed-form families.

Distinguished weights are anti-symmetric (entry i equals minus entry
n+1-i) and ``lv`` is injective, so they are built, not searched for.
D(n, 0) is the zero weight alone, the only anti-symmetric weight whose
diagram is one row.  Any other w of depth <= k has a row-length shape
alpha != (n), and lv(w) = p * omega, where omega_i has length l_i, the
multiplicity of part i in alpha, and depth <= k - 1.  So D(n, k) holds the
zero weight and lv^-1(p * omega) for every alpha != (n) and omega_i in
D(l_i, k - 1).  The count recursion says each such preimage exists, so
|D(n, k)| = ``count_distinguished(n, k)`` holds by construction; a target
without an anti-symmetric preimage raises instead of being dropped, and
``enumerate_distinguished`` checks the count on every call.  No search
bound is involved: it then keeps the weights whose largest entry is within
its bound.  Level 1 is in closed form, with no p: D(n, 1) = {h_lambda :
lambda |- n} (``_neutral_elements``).

The inverse takes two steps.  First, a cell proposes a candidate.  The
free coordinates x_1 >= ... >= x_h >= 0 (h = floor(n/2)) split into cells
by gap pattern: each gap between consecutive free coordinates, and the
middle gap, is capped to 0, 1 or >= 2.  Within one cell the maximal clumps
are fixed (``phi`` can split a clump but never merge two); each row stays
in one clump (``phi`` appends v only to a row ending in v or v +- 1); and
rows are created only in column 1, so the row order and the shape are
fixed.  So each row sum is affine in its clump's move, and pairing rows
with the target's entries by position in ``_lv_mu``'s order, which every
weight of the cell keeps, pins every move.  Second, the moves decide.
A least weight's neighbouring clumps are 2 apart and a clump moves as a
whole, so with the m clumps above the middle moving by d_0, ..., d_{m-1}
and d_m = 0, the gaps between clumps are 2 + d_j - d_{j+1} (2 + 2d_{m-1}
across an even middle).  So the candidate keeps its cell's capped gap
pattern exactly when d_0 >= ... >= d_{m-1} >= 0, and then lv maps it to
p * target (``_compile_cell``).  The true preimage lies in its own cell,
which proposes it, so the order in which cells are tried does not matter.

``_cells`` compiles every cell of a length once, for every p, into its
least weight and row equations, and indexes it by the shape the forward map
gives its least weight, so a cell's shape has one source; ``_preimage``
tries the cells of the target's shape.

Input is checked at the entry points: the ``SearchBox`` constructor (n, k
and bound of type ``int`` and >= 0), ``closed_family``, the ``ScatterRecord``
constructor, ``scatter_records`` and ``write_scatter_csv``'s coordinate count.
The family members ``_family_params`` lists and the CLI's records
(``ScatterRecord._of``) are built valid and skip the checks; every member's
depth is still confirmed by iteration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product
from numbers import Real
from operator import attrgetter

from .core import Weight, dom, validate_weight
from .counting import count_distinguished, partitions_mult
from .lv_algorithm import _clump_plan, _lv_mu
from .modular_iteration import (ModularContext, _bounded_depth,
                                distinguished_depth)

__all__ = [
    "SearchBox",
    "ScatterRecord",
    "default_bound",
    "enumerate_distinguished",
    "closed_family",
    "generate_family_set",
    "scatter_records",
    "write_scatter_csv",
    "write_scatter_svg",
]


def default_bound(n: int, k: int, p: int) -> int:
    """(n-1)(p^k - 1)/(p - 1): the largest entry of the scaled staircase,
    the default bound of ``enumerate``.  The tests check that it is the
    largest entry of D(n, k) on every case they construct."""
    if n <= 1:
        return 0
    return (n - 1) * (p**k - 1) // (p - 1)


@dataclass(frozen=True, slots=True)
class SearchBox:
    """Enumeration parameters: weight length n, depth budget k, the
    largest absolute entry kept, and the prime."""

    n: int
    k: int
    bound: int
    p: int

    def __post_init__(self):
        if not {int}.issuperset(map(type, (self.n, self.k, self.bound))):
            raise ValueError("n, k and bound must be integers")
        if self.n < 0 or self.k < 0 or self.bound < 0:
            raise ValueError("n, k and bound must be >= 0")
        ModularContext(self.p).check_length(self.n)


@dataclass(frozen=True, slots=True)
class ScatterRecord:
    """Leading floor(n/2) coordinates of a distinguished weight plus its
    minimal iteration depth."""

    coords: tuple[int, ...]
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "coords", validate_weight(self.coords))
        if self.coords and self.coords[-1] < 0:
            raise ValueError(f"coords must end >= 0: {self.coords}")
        if isinstance(self.depth, Real) and self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if type(self.depth) is not int:  # bools and floats too
            raise ValueError(f"depth must be an integer, got {self.depth!r}")

    @classmethod
    def _of(cls, coords: tuple[int, ...], depth: int) -> "ScatterRecord":
        """Wrap a record the library built as valid, without checking."""
        rec = object.__new__(cls)
        object.__setattr__(rec, "coords", coords)
        object.__setattr__(rec, "depth", depth)
        return rec


def _mirror(coords: tuple[int, ...], n: int) -> Weight:
    """Anti-symmetric weight from its free coordinates."""
    mid = (0,) if n % 2 else ()
    return coords + mid + tuple(-c for c in reversed(coords))


def _compile_cell(least: Weight):
    """The row-length shape of the anti-symmetric least weight ``least``
    and its cell ``(least, equations)``: for each row, in ``_lv_mu``'s
    order, ``(c, coef, base)``, where the row sum is base + coef * d_c.
    Clump j of ``_clump_plan`` moves up by d_j and its mirror -1-j down by
    d_j, so a row of length L has coef L or -L; a row of the middle clump
    (the middle zero, or the clump that straddles zero) has c = None and
    coef 1.  A weight of the cell has the same clump templates in the same
    order, so its rows keep their positions and each row sum moves by
    len(row) times its clump's move."""
    plan = _clump_plan(least, 1)
    mu = _lv_mu(least)
    owned = [[] for _ in mu]  # the (clump, sign) of each row, by length
    for j, ((rows, _, _), _) in enumerate(plan):
        m = len(plan) - 1 - j
        owner = (j, 1) if j < m else (m, -1) if j > m else (None, 0)
        for row in rows:
            owned[len(row) - 1].append(owner)
    equations = tuple((c, sign * length or 1, s)
                      for length, part in enumerate(mu, 1)
                      for (c, sign), s in zip(owned[length - 1], part))
    return tuple(map(len, mu)), (least, equations)


@cache
def _cells(n: int) -> dict[tuple[int, ...], list]:
    """Every cell of anti-symmetric weights of length n >= 2, compiled
    (``_compile_cell``, independent of p) and keyed by the row-length shape
    the forward map gives its least weight.  A least weight has every gap
    in {0, 1, 2}, and its bottom coordinate x_h is 0 or 1 for even n
    (middle gap 2*x_h) and 0, 1 or 2 for odd n; the bottom coordinate
    varies slowest and the top gap fastest.  Only levels >= 2 use the
    index, and the weight limit of ``_check_size`` keeps those runs to
    n <= 20: 39,366 cells, compiled in about 2 s."""
    cells: dict[tuple[int, ...], list] = {}
    bottoms = (0, 1, 2) if n % 2 else (0, 1)
    for gaps in product(bottoms, *[(0, 1, 2)] * (n // 2 - 1)):  # bottom up
        shape, cell = _compile_cell(_mirror(tuple(accumulate(gaps))[::-1], n))
        cells.setdefault(shape, []).append(cell)
    return cells


def _preimage(target: tuple[Weight, ...], n: int, p: int) -> Weight:
    """The w of length n with lv(w) = p * target, tried on the anti-symmetric
    cells; raises RuntimeError when none gives it.

    Each cell of the target's shape pairs its rows with the target's
    entries by position in ``_lv_mu``'s order; each row pins its clump's
    move.  Moves that are exact, agree and keep the candidate in its cell,
    d_0 >= ... >= d_{m-1} >= 0 (see the module docstring), give the preimage:
    each free coordinate moves by its clump's d_j, where the clump index
    rises at every gap > 1 and the middle clump, index m, stays put.
    """
    sums = [p * v for part in target for v in part]
    cells = _cells(n).get(tuple(map(len, target)), ())
    for least, equations in cells:
        moves: dict[int | None, int] = {None: 0}
        for (c, coef, base), s in zip(equations, sums):
            d, r = divmod(s - base, coef)
            if r or moves.setdefault(c, d) != d:
                break
        else:
            if all(moves[j] >= moves.get(j + 1, 0)  # d_m = 0
                   for j in range(len(moves) - 1)):  # keys None, 0..m-1
                rises = (a - b > 1 for a, b in zip(least, least[1:n // 2]))
                return _mirror(tuple([v + moves.get(j, 0) for v, j in zip(
                    least, accumulate(rises, initial=0))]), n)
    raise RuntimeError(
        f"no anti-symmetric weight of length {n} maps to {p} * {target}"
    )


def _neutral_elements(l: int) -> list[Weight]:
    """The weights of length l and depth 1, at every p: h_lambda for each
    partition lambda != (1^l) of l, the entries lambda_i - 1 - 2j (0 <= j <
    lambda_i) sorted.  h_lambda is the neutral element of an sl_2-triple of
    Jordan type lambda, and lv maps it to the zero omega of shape lambda'."""
    return [dom(v - 1 - 2 * j for v in alpha.parts for j in range(v))
            for alpha in partitions_mult(l) if len(alpha.mult) > 1]


def _construct(n: int, k: int, p: int) -> dict[Weight, int]:
    """D(n, k), every distinguished weight of length n and depth <= k,
    mapped to its depth.

    Level 1 is in closed form (``_neutral_elements``).  Level d >= 2 adds
    lv^-1(p * omega) for every shape alpha != (l) and every omega with
    omega_i in D(l_i, d - 1) and some omega_j of depth d - 1, taking j as
    the first: omega_i is shallower before j, as deep after.
    """
    depths = {(0,) * n: 0}
    if k < 1 or n < 2:  # the zero weight alone
        return depths
    # For each length: its weights of depth below d - 1, and of depth d - 1.
    older = {l: [(0,) * l] for l in range(n + 1)}
    last = {l: _neutral_elements(l) for l in (range(n + 1) if k > 1 else (n,))}
    depths.update(dict.fromkeys(last[n], 1))
    for d in range(2, k + 1):
        new = {
            l: [
                _preimage(omega, l, p)
                for alpha in partitions_mult(l) if len(alpha.mult) < l
                for j, m in enumerate(alpha.mult)
                for omega in product(
                    *(older[i] for i in alpha.mult[:j]), last[m],
                    *(older[i] + last[i] for i in alpha.mult[j + 1:]),
                )
            ]
            for l in (range(n + 1) if d < k else (n,))
        }
        for l, weights in new.items():
            older[l] += last[l]
            last[l] = weights
        depths.update(dict.fromkeys(new[n], d))
    return depths


def enumerate_distinguished(box: SearchBox, jobs: int = 1) -> list[Weight]:
    """Every distinguished weight of length n and depth <= k whose entries
    lie in [-bound, bound], sorted lexicographically descending.

    ``jobs`` must be >= 1 and does not change the result: the construction
    runs in the calling process.
    """
    return sorted(_enumerate_depths(box, jobs), reverse=True)


# The limits of ``_check_size``, in the README: D(n, k) and, for ``families``,
# which builds all of D(n, max_k), its members; the other check is the
# interpreter's digit limit.  count(n, k) does not fall as k grows, and
# count(37, 1) = 21,637 and count(21, 2) = 21,077, so every run allowed has
# n <= 36 at k = 1 and n <= 20 at k >= 2; (14, 3) has 7,382 weights.  n = 4
# has 40,601 members to max_k = 200, 50,399 to 223.
_MAX_WEIGHTS = 20_000
_MAX_MEMBERS = 50_000


def _check_size(n: int, k: int, p: int | None = None,
                limit: int = _MAX_WEIGHTS,
                what: str = "distinguished weights") -> int:
    """Refuse, before any work, a run that builds D(n, k): when count(n,
    k) is over ``limit``, or, given p, as the CLI that prints the weights
    does, when ``default_bound(n, k, p)``, the largest entry of D(n, k),
    has more decimal digits than the interpreter converts to text.  Return
    count(n, k), which the construction must match.  k = 0 and n < 2 build
    nothing and have one weight.  The bound is at least p^(k-1), so only a
    bound near the limit is computed.
    """
    if k < 1 or n < 2:
        return 1
    count = count_distinguished(n, k)
    if count > limit:
        raise ValueError(f"more than {limit} {what} at n = {n}, k = {k}")
    # Python before 3.10.7 has no limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if p is not None and digits and (
            (k - 1) * math.log10(p) > digits + 1
            or default_bound(n, k, p) >= 10**digits):
        raise ValueError(f"entries of D(n = {n}, k = {k}) at p = {p} have "
                         f"more than {digits} decimal digits, the limit for "
                         f"integer string conversion")
    return count


def _enumerate_depths(box: SearchBox, jobs: int) -> dict[Weight, int]:
    """``enumerate_distinguished``'s weights mapped to their depths, which
    are those ``scatter_records`` gives at cap k.  Raises RuntimeError,
    before the bound filters anything, unless the construction gives
    count(n, k) distinct weights."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    count = _check_size(box.n, box.k)
    depths = _construct(box.n, box.k, box.p)
    if len(depths) != count:
        raise RuntimeError(f"D(n = {box.n}, k = {box.k}) at p = {box.p} has "
                           f"{len(depths)} weights, but count(n, k) = {count}")
    return {w: d for w, d in depths.items() if not w or w[0] <= box.bound}


# Closed-form families for n <= 4 ---------------------------------------------

FAMILY_IDS = {2: ("A",), 3: ("A", "B"), 4: ("F1", "F2", "F3", "F4")}
_FAMILY_ARITY = {"A": 1, "B": 1, "F1": 1, "F2": 1, "F3": 2, "F4": 2}


@cache
def _geom(p: int, m: int) -> int:
    """1 + p + ... + p^(m-1) = (p^m - 1)/(p - 1)."""
    return (p**m - 1) // (p - 1)


def _exact_div(num: int, den: int) -> int:
    d, r = divmod(num, den)
    if r:
        raise ValueError(f"non-integral closed-form value {num}/{den}")
    return d


def _family_weight(n: int, family_id: str, params: tuple[int, ...], p: int):
    """Weight and stated iteration depth of a member with checked params."""
    if n == 2:
        (m,) = params
        c = _geom(p, m)
        return (c, -c), m
    if n == 3:
        (m,) = params
        if family_id == "A":
            c = 2 * _geom(p, m)
            return (c, 0, -c), m
        x = _geom(p, m + 1) + _geom(p, m)
        return (x, 0, -x), m + 1
    m = params[0]
    if family_id == "F1":
        c = _geom(p, m)
        return (3 * c, c, -c, -3 * c), m
    if family_id == "F2":
        x = _geom(p, m + 1) + 2 * _geom(p, m)
        y = _geom(p, m)
        return (x, y, -y, -x), m + 1
    k = params[1]
    if family_id == "F3":
        x = _geom(p, m + k + 1) + _geom(p, k + 1) + _geom(p, k)
        y = _geom(p, k)
        return (x, y, -y, -x), m + k + 1
    # F4: requires m >= 1; the closed form, in powers of p over 2(p - 1),
    # splits on the parity of m; p^j = (p - 1) _geom(p, j) + 1 leaves halves.
    if m < 1:
        raise ValueError("F4 requires m >= 1")
    top, g1, g0 = _geom(p, m + k), _geom(p, k + 1), _geom(p, k)
    if m % 2 == 0:
        x, y = top + 2 * g1 + 3 * g0, top + g0
    else:
        x, y = top + g1 + 4 * g0, top + g1
    x, y = _exact_div(x, 2), _exact_div(y, 2)
    return (x, y, -y, -x), m + k


def closed_family(
    n: int, family_id: str, params, ctx: ModularContext
) -> Weight:
    """One member of a closed-form family, forward-verified.

    The member's distinguished depth is recomputed by iteration and must
    equal the stated count for its parameters; parameters that fail are
    rejected rather than guessed around.
    """
    if n not in FAMILY_IDS:
        raise ValueError(f"closed families exist only for n in {{2, 3, 4}}")
    params = tuple(params)
    if family_id not in FAMILY_IDS[n]:
        raise ValueError(f"unknown family {family_id!r} for n={n}")
    arity = _FAMILY_ARITY[family_id]
    if len(params) != arity:
        raise ValueError(f"family {family_id} takes {arity} parameter(s), "
                         f"got {params}")
    if any(isinstance(x, Real) and x < 0 for x in params):
        raise ValueError(f"family parameters must be >= 0, got {params}")
    if not {int}.issuperset(map(type, params)):  # bools and floats too
        raise ValueError(f"family parameters must be integers, got {params}")
    w, depth = _family_weight(n, family_id, params, ctx.p)
    _check_family_depth(
        family_id, params, depth, distinguished_depth(w, ctx, cap=depth)
    )
    return w


def _check_family_depth(family_id, params, depth, actual) -> None:
    if actual != depth:
        raise ValueError(
            f"family {family_id} params {params}: expected depth "
            f"{depth}, iteration gives {actual}"
        )


def _family_params(n: int, max_k: int):
    """(family id, params) of every member for n in {2, 3, 4} whose stated
    depth is <= max_k: A and F1 have depth m, B and F2 depth m + 1."""
    for m in range(max_k + 1):
        yield FAMILY_IDS[n][0], (m,)
    if n > 2:
        for m in range(max_k):
            yield FAMILY_IDS[n][1], (m,)
    if n == 4:
        for total in range(1, max_k + 1):  # depth m + k + 1 = total
            for k in range(total):
                yield "F3", (total - 1 - k, k)
        for total in range(1, max_k + 1):  # depth m + k = total, m >= 1
            for m in range(1, total + 1):
                yield "F4", (m, total - m)


def _family_depths(
    n: int, ctx: ModularContext, max_k: int
) -> dict[Weight, int]:
    """Every family member whose stated depth is <= max_k, mapped to that
    depth once iteration has confirmed it.

    Each member is forward-verified as in ``closed_family``, but against one
    depth memo for the whole call at cap ``max_k``: a stated depth d <= max_k
    is confirmed at cap max_k exactly when it is at cap d, and every member
    divides down to smaller members, so each chain is walked once.  The
    confirmed depth is therefore the one ``scatter_records`` gives at cap
    ``max_k``.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    if n not in FAMILY_IDS:
        raise ValueError(f"closed families exist only for n in {{2, 3, 4}}")
    ctx.check_length(n)
    memo: dict = {}
    depths: dict[Weight, int] = {}
    for family_id, params in _family_params(n, max_k):
        w, depth = _family_weight(n, family_id, params, ctx.p)
        _check_family_depth(family_id, params, depth,
                            _bounded_depth(w, max_k, ctx.p, memo))
        depths[w] = depth
    return depths


def generate_family_set(n: int, ctx: ModularContext, max_k: int) -> list[Weight]:
    """Every family member whose stated depth is <= max_k, deduplicated,
    forward-verified and sorted descending."""
    return sorted(_family_depths(n, ctx, max_k), reverse=True)


# Scatter export ---------------------------------------------------------------

def scatter_records(
    weights, ctx: ModularContext, cap: int
) -> list[ScatterRecord]:
    """One record per weight: its leading floor(n/2) coordinates and its
    minimal depth.  Raises if some weight is not distinguished within cap.

    All weights share one depth memo (one cap, one p), so a chain that
    several weights divide down to is walked once.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    memo: dict = {}
    records = []
    for w in weights:
        w = validate_weight(w)
        ctx.check_length(len(w))
        depth = _bounded_depth(w, cap, ctx.p, memo)
        if depth is None:
            raise ValueError(
                f"weight {w} is not distinguished within cap {cap}"
            )
        records.append(ScatterRecord(w[: len(w) // 2], depth))
    return records


def write_scatter_csv(records, path, ncoords: int | None = None) -> None:
    """Canonical CSV: header x1,...,xh,depth; rows sorted descending by
    coordinates; decimal integers."""
    records = list(records)
    if ncoords is None:
        if not records:
            raise ValueError("ncoords is required for an empty record list")
        ncoords = len(records[0].coords)
    header = ",".join([f"x{i + 1}" for i in range(ncoords)] + ["depth"])
    lines = [header]
    for rec in sorted(records, key=attrgetter("coords"), reverse=True):
        if len(rec.coords) != ncoords:
            raise ValueError(
                f"record has {len(rec.coords)} coordinates, expected {ncoords}"
            )
        lines.append(",".join(map(str, (*rec.coords, rec.depth))))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_scatter_svg(records, path, p: int, size: int = 640) -> None:
    """Scatter plot of the first two coordinates with both axes log-scaled
    base p.  Zero has no logarithm, so it is drawn in a dedicated origin
    band one slot left of/below p^0.  Presentation plumbing only; the CSV
    is the canonical artifact.
    """
    records = list(records)
    margin = 48.0
    span = size - 2 * margin

    def logp(v: int) -> float:
        return math.log(v, p) if v >= 1 else -1.0

    xs = [logp(r.coords[0]) if r.coords else -1.0 for r in records]
    ys = [logp(r.coords[1]) if len(r.coords) > 1 else -1.0 for r in records]
    top = max(xs + ys + [1.0])
    scale = span / (top + 1.0)

    def pos(v: float) -> float:
        return (v + 1.0) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f"<!-- log base {p} axes; the band at the origin holds zero values, "
        "whose logarithm is undefined -->",
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{size - margin}" stroke="black"/>',
    ]
    e = 0
    while e <= top:
        t = pos(float(e))
        x = margin + t
        y = size - margin - t
        parts.append(
            f'<line x1="{x:.2f}" y1="{size - margin}" x2="{x:.2f}" '
            f'y2="{size - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{size - margin + 18}" font-size="10" '
            f'text-anchor="middle">{p}^{e}</text>'
        )
        parts.append(
            f'<line x1="{margin - 5}" y1="{y:.2f}" x2="{margin}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 3:.2f}" font-size="10" '
            f'text-anchor="end">{p}^{e}</text>'
        )
        e += 1
    for rx, ry in zip(xs, ys):
        cx = margin + pos(rx)
        cy = size - margin - pos(ry)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="steelblue"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")

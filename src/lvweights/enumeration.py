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
without an anti-symmetric preimage raises instead of being dropped.  The
test ``test_full_boxes_find_exactly_the_construction`` checks anti-symmetry
and injectivity on full boxes, ``_enumerate_depths`` the count on every
call that prunes nothing, and ``TestTopEntryLemma`` the lemma behind
``default_bound``.  No search bound is involved: the weights within the
bound are then kept, and a bound below the default prunes the components
that no weight within it uses (``_construct``).
Which omega a level inverts does not depend on p (``_targets``); level 1
is a closed form, h_lambda for every lambda |- n (``_level_one``).

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

Input is checked at the entry points, by ``core``'s kernels, in signature
order and each argument's type before its sign: ``default_bound``, the
``SearchBox`` constructor (n, k and bound, ``int`` and >= 0, then the
prime), ``enumerate_distinguished``'s ``jobs`` (>= 1), ``closed_family``
(the prime before a member), ``scatter_records``, ``write_scatter_csv``
(each row by ``_scatter_row``, then the coordinate count) and
``write_scatter_svg`` (the prime, then each row).  The family members and
the CLI's CSV rows are built valid and skip the checks; every member's
depth is still confirmed by iteration, and their number by the count.
"""

from __future__ import annotations

import math
from functools import cache, partial
from itertools import accumulate, chain, islice, product
from operator import itemgetter

from .core import Weight, _int_arg, _printable, _Value, validate_weight
from .counting import count_distinguished, partitions_mult
from .lv_algorithm import _clump_plan, _lv_mu
from .modular_iteration import (ModularContext, _bounded_depth, _geom, _rho,
                                distinguished_depth)

__all__ = [
    "SearchBox",
    "default_bound",
    "enumerate_distinguished",
    "closed_family",
    "generate_family_set",
    "scatter_records",
    "write_scatter_csv",
    "write_scatter_svg",
]


def default_bound(n: int, k: int, p: int) -> int:
    """(n-1)(p^k - 1)/(p - 1), the top entry of ``rho_family(n, k)`` (0 for
    n <= 1): the default bound of ``enumerate``.  It is the largest entry
    of D(n, k), by induction on the depth d, as lv(w) = p * omega with
    omega_i in D(l_i, d - 1), if some entry of lv(w) is at least
    w[0] - (n - 1) for every anti-symmetric w of length n: a lemma the
    tests observe, and find tight, but not a proven one."""
    _int_arg("n", n)
    _int_arg("k", k)
    _int_arg("p", p, 2)
    return (n - 1) * _geom(p, k) if n > 1 else 0


class SearchBox(_Value):
    """Enumeration parameters: weight length n, depth budget k, the
    largest absolute entry kept, and the prime."""

    __slots__ = ("n", "k", "bound", "p")

    def __init__(self, n: int, k: int, bound: int, p: int):
        for name, v in zip(self.__slots__, (n, k, bound)):
            object.__setattr__(self, name, _int_arg(name, v))
        ModularContext(p).check_length(n)
        object.__setattr__(self, "p", p)


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
    plan = _clump_plan(least)
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
    index, and the cell limit of ``_check_size`` keeps those runs to
    n <= 20: 39,366 cells, compiled in 1.52 s (Python 3.11, 2-core Xeon)."""
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


def _targets(l: int, older: dict, last: dict, every: dict):
    """The omega of length l one level deeper, whatever the lists hold: for
    each shape alpha != (l), with m_i = ``alpha.mult[i]``, every omega with
    omega_i drawn from the weights of length m_i, some of them from the last
    level.  Taking j as the first such i, omega_i comes from ``older`` (depth
    below the last) before j, ``last`` at j and ``every`` (``older`` then
    ``last``) after; once ``older[m_j]`` is empty no later j can be first."""
    for alpha in partitions_mult(l)[1:]:  # all but (l), the first
        for j, m in enumerate(alpha.mult):
            yield from product(*(older[i] for i in alpha.mult[:j]), last[m],
                               *(every[i] for i in alpha.mult[j + 1:]))
            if not older[m]:
                break


def _level_one(l: int) -> list[Weight]:
    """D(l, 1) less the zero weight, at every p, in ``_targets``' order: for
    each shape alpha != (l), lv^-1 of its zero target, the neutral element
    h_lambda of lambda = alpha' (alpha's multiplicities summed from the top),
    whose entries are lambda_i - 1 - 2j for 0 <= j < lambda_i."""
    return [tuple(sorted(chain.from_iterable(
        range(v - 1, -v, -2) for v in accumulate(reversed(alpha.mult))),
        reverse=True)) for alpha in partitions_mult(l)[1:]]


def _construct(n: int, k: int, p: int, bound: int | None = None
               ) -> dict[Weight, int]:
    """D(n, k), every distinguished weight of length n and depth <= k,
    mapped to its depth: level 1 is ``_level_one``, and each deeper level d
    inverts by ``_preimage`` the targets of weights of depth below d
    (``_targets``).  The order does not depend on p.  No shape alpha != (l)
    has a multiplicity l - 1, so n - 1 is not built.

    Given ``bound`` B >= 0, the result holds every weight of D(n, k) whose
    top is at most B, and some above it, as a weight of length l below
    level k is kept as a component only when its top is at most
    (n // l) * B / p.  Proof: if lv(w) = p * omega, every entry of omega_i
    is at most i * w[0] / p.  The column correction adds 2t - (c - 1) to
    the t-th of a column's c entries, and ``phi``'s columns fall by at
    least 2 per entry, so no corrected entry is above the column's top,
    at most w[0]; a row of length i then sums to at most i * w[0], and
    that sum is p times an entry of omega_i.  A component omega_i of
    length l has l parts i in a partition of n, so i <= n // l, and its
    own components of length l' have tops at most
    (l // l') * (n // l) * B / p^2 <= (n // l') * B / p: every weight
    below a w with w[0] <= B, at any depth, is kept.
    """
    depths = {(0,) * n: 0}
    if n < 2:  # the zero weight alone
        return depths
    lengths = (*range(n - 1), n)
    older = {l: [] for l in lengths}  # per length: depth below d - 1
    last = {l: [(0,) * l] for l in lengths}  # and depth d - 1
    for d in range(1, k + 1):
        every = {l: older[l] + last[l] for l in last}
        last = {l: _level_one(l) if d == 1 else [_preimage(omega, l, p)
                for omega in _targets(l, older, last, every)]
                for l in (lengths if d < k else (n,))}
        older = every
        depths.update(dict.fromkeys(last[n], d))
        if bound is not None:
            last = {l: [w for w in ws if p * w[0] <= n // l * bound]
                    for l, ws in last.items()}
    return depths


def enumerate_distinguished(box: SearchBox, jobs: int = 1) -> list[Weight]:
    """Every distinguished weight of length n and depth <= k whose entries
    lie in [-bound, bound], sorted lexicographically descending.

    ``jobs`` must be an int >= 1 and does not change the result: the
    construction runs in the calling process.
    """
    _int_arg("jobs", jobs, 1)
    return sorted(_enumerate_depths(box), reverse=True)


# The limits of ``_check_size``, in the README.  count(n, k) does not fall as
# k grows, so they allow n <= 41 at k = 1 (count(42, 1) = 53,174), n <= 17 at
# k = 3 and k <= 222 at n = 4.  The index of length n has 2 * 3^(h-1) cells
# for even n and 3^h for odd n (h = n // 2): n = 20's 39,366 stop k = 2 there.
_MAX_WEIGHTS = 50_000
_MAX_CELLS = 39_366
_MAX_TEXT = 2**27


def _check_size(n: int, k: int, p: int | None = None) -> int:
    """Refuse, before any work, a run that builds D(n, k): when count(n, k)
    is over ``_MAX_WEIGHTS``, when k >= 2 and the cell index of length n is
    over ``_MAX_CELLS``, or, given p, as the CLI that prints the weights
    does, when ``default_bound(n, k, p)``, the largest entry, has more
    decimal digits d than the interpreter converts to text or the text of
    count(n, k) weights, n * (d + 2) bytes each at most, is over
    ``_MAX_TEXT`` bytes.  Return count(n, k), which the construction must
    match; k = 0 and n < 2 build nothing and have one weight.  The bound
    is at least p^(k-1), so only a bound near the digit limit is computed.
    """
    if k < 1 or n < 2:
        return 1
    count, at = count_distinguished(n, k), f" at n = {n}, k = {k}"
    if count > _MAX_WEIGHTS:
        raise ValueError(f"more than {_MAX_WEIGHTS} distinguished weights{at}")
    if k > 1 and (3 if n % 2 else 2) * 3 ** (n // 2 - 1) > _MAX_CELLS:
        raise ValueError(f"more than {_MAX_CELLS} index cells{at}")
    if p is not None:
        top = f"the largest entry of D(n = {n}, k = {k}) at p = {p}"
        _printable(None, top, (k - 1) * math.log10(p))
        digits = math.log10(_printable(default_bound(n, k, p), top)) + 1
        if count * n * (digits + 2) > _MAX_TEXT:
            raise ValueError(f"more than {_MAX_TEXT} bytes of text{at}, "
                             f"p = {p}")
    return count


def _enumerate_depths(box: SearchBox) -> dict[Weight, int]:
    """``enumerate_distinguished``'s weights mapped to their depths, which
    are those ``scatter_records`` gives at cap k.  A bound below
    ``default_bound`` at k >= 2 prunes the construction (``_construct``);
    every other run builds D(n, k) and raises RuntimeError, before the
    bound filters anything, unless it gives count(n, k) distinct weights.
    The weights above the bound are then deleted from ``_construct``'s map,
    which is returned, so no weight is held twice."""
    count = _check_size(box.n, box.k)
    prune = box.k > 1 and box.bound < default_bound(box.n, box.k, box.p)
    depths = _construct(box.n, box.k, box.p, box.bound if prune else None)
    if not prune and len(depths) != count:
        raise RuntimeError(f"D(n = {box.n}, k = {box.k}) at p = {box.p} has "
                           f"{len(depths)} weights, but count(n, k) = {count}")
    for w in [w for w in depths if w and w[0] > box.bound]:
        del depths[w]
    return depths


# Closed-form families for n <= 4 ---------------------------------------------

FAMILY_IDS = {2: ("A",), 3: ("A", "B"), 4: ("F1", "F2", "F3", "F4")}
_FAMILY_ARITY = {"A": 1, "B": 1, "F1": 1, "F2": 1, "F3": 2, "F4": 2}


def _family_ids(n: int) -> tuple[str, ...]:
    if _int_arg("n", n) not in FAMILY_IDS:
        raise ValueError("closed families exist only for n in {2, 3, 4}")
    return FAMILY_IDS[n]


def _family_member(n: int, family_id: str, params: tuple[int, ...], g):
    """Weight and stated iteration depth of a member with checked params,
    from g(j) = ``_geom(p, j)`` for j up to that depth.  A (n = 2, 3) and
    F1 (n = 4) are ``rho_family``'s staircase of depth m, scaled by g(m)."""
    m = params[0]
    if family_id in ("A", "F1"):
        return _rho(n, g(m)), m
    if family_id == "B":
        x = g(m + 1) + g(m)
        return (x, 0, -x), m + 1
    if family_id == "F2":
        y = g(m)
        x = g(m + 1) + 2 * y
        return (x, y, -y, -x), m + 1
    k = params[1]
    if family_id == "F3":
        y = g(k)
        x = g(m + k + 1) + g(k + 1) + y
        return (x, y, -y, -x), m + k + 1
    # F4: requires m >= 1; the closed form, in powers of p over 2(p - 1),
    # splits on the parity of m; p^j = (p - 1) _geom(p, j) + 1 leaves halves.
    if m < 1:
        raise ValueError("F4 requires m >= 1")
    top, g1, g0 = g(m + k), g(k + 1), g(k)
    if m % 2 == 0:
        x, y = top + 2 * g1 + 3 * g0, top + g0
    else:
        x, y = top + g1 + 4 * g0, top + g1
    if x & 1 or y & 1:
        raise ValueError("non-integral closed-form value "
                         f"{x if x & 1 else y}/2")
    x, y = x >> 1, y >> 1
    return (x, y, -y, -x), m + k


def closed_family(
    n: int, family_id: str, params, ctx: ModularContext
) -> Weight:
    """One member of a closed-form family, forward-verified.

    The member's distinguished depth is recomputed by iteration and must
    equal the stated count for its parameters; parameters that fail are
    rejected rather than guessed around.
    """
    if family_id not in _family_ids(n):
        raise ValueError(f"unknown family {family_id!r} for n={n}")
    params = tuple(params)
    arity = _FAMILY_ARITY[family_id]
    if len(params) != arity:
        raise ValueError(f"family {family_id} takes {arity} parameter(s), "
                         f"got {params}")
    for x in params:
        _int_arg(f"family {family_id} parameter", x)
    ctx.check_length(n)
    w, depth = _family_member(n, family_id, params, partial(_geom, ctx.p))
    _check_family_depth(family_id, params, depth,
                        distinguished_depth(w, ctx, cap=depth))
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
    if n == 4:  # depth m + k + 1 = total for F3, m + k = total for F4
        for total in range(1, max_k + 1):
            for k in range(total):
                yield "F3", (total - 1 - k, k)
                yield "F4", (total - k, k)


def _family_depths(
    n: int, ctx: ModularContext, max_k: int
) -> dict[Weight, int]:
    """Every family member whose stated depth is <= max_k, mapped to that
    depth once iteration has confirmed it.

    Members come from ``closed_family``'s kernel and one table of the sums
    ``_geom(p, j)``, and are forward-verified against one depth memo at cap
    ``max_k``: a stated depth d <= max_k is confirmed at cap max_k exactly
    when it is at cap d, and every member divides down to smaller members,
    met first, so it settles from the memo.  The confirmed depth is the
    one ``scatter_records`` gives at cap ``max_k``.  Raises RuntimeError
    unless the members are count(n, max_k) distinct weights, all of D(n,
    max_k), as ``_enumerate_depths`` does for the construction.
    """
    _family_ids(n)
    ctx.check_length(n)
    g = list(accumulate(range(_int_arg("max_k", max_k)),  # g[j] = _geom(p, j)
                        lambda s, _: s * ctx.p + 1, initial=0)).__getitem__
    memo: dict = {}
    depths: dict[Weight, int] = {}
    for family_id, params in _family_params(n, max_k):
        w, depth = _family_member(n, family_id, params, g)
        _check_family_depth(family_id, params, depth,
                            _bounded_depth(w, max_k, ctx.p, memo))
        depths[w] = depth
    count = count_distinguished(n, max_k)
    if len(depths) != count:
        raise RuntimeError(f"the families of n = {n}, max_k = {max_k} at "
                           f"p = {ctx.p} give {len(depths)} weights, but "
                           f"count(n, max_k) = {count}")
    return depths


def generate_family_set(n: int, ctx: ModularContext, max_k: int) -> list[Weight]:
    """Every family member whose stated depth is <= max_k, deduplicated,
    forward-verified and sorted descending."""
    return sorted(_family_depths(n, ctx, max_k), reverse=True)


# Scatter export ---------------------------------------------------------------

def _scatter_row(coords, depth) -> tuple[Weight, int]:
    """A scatter row checked, coords as a tuple: coords a weight ending
    >= 0, then depth an int >= 0."""
    coords = validate_weight(coords)
    if coords and coords[-1] < 0:
        raise ValueError(f"coords must end >= 0: {coords}")
    return coords, _int_arg("depth", depth)


def scatter_records(
    weights, ctx: ModularContext, cap: int
) -> list[tuple[Weight, int]]:
    """One row ``(coords, depth)`` per weight: its leading floor(n/2)
    coordinates and its minimal depth.  Raises if some weight is not
    distinguished within cap, or if its row fails ``_scatter_row``, whose
    "ends >= 0" checks the anti-symmetry theorem on user input.

    All weights share one depth memo (one cap, one p), so a chain that
    several weights divide down to is walked once.
    """
    _int_arg("cap", cap)  # before the weights, read one at a time
    memo: dict = {}
    rows = []
    for w in weights:
        w = validate_weight(w)
        ctx.check_length(len(w))
        depth = _bounded_depth(w, cap, ctx.p, memo)
        if depth is None:
            raise ValueError(
                f"weight {w} is not distinguished within cap {cap}"
            )
        rows.append(_scatter_row(w[: len(w) // 2], depth))
    return rows


def write_scatter_csv(rows, path, ncoords: int | None = None) -> None:
    """Canonical CSV of ``(coords, depth)`` rows: header x1,...,xh,depth;
    rows sorted descending by coordinates (stably); decimal integers; every
    row checked (``_scatter_row``) before writing."""
    rows = [_scatter_row(coords, depth) for coords, depth in rows]
    if ncoords is None:
        if not rows:
            raise ValueError("ncoords is required for an empty record list")
        ncoords = len(rows[0][0])
    _int_arg("ncoords", ncoords)
    rows.sort(key=itemgetter(0), reverse=True)
    for coords, _ in rows:
        if len(coords) != ncoords:
            raise ValueError(f"record has {len(coords)} coordinates, "
                             f"expected {ncoords}")
    if rows:  # entries are >= 0 and the largest comes first
        _printable(max(rows[0][0], default=0), "the largest coordinate")
        _printable(max(map(itemgetter(1), rows)), "the largest depth")
    _write_csv(path, ncoords, rows)


_CHUNK = 1 << 16  # characters per write, about: no text is held whole


def _write_lines(fh, lines) -> None:
    """Write an iterator of lines, each ending in "\\n", about ``_CHUNK``
    characters at a time: a write takes as many lines as the budget holds
    copies of its first line, and at least one.  Callers pass lines of
    weights sorted by top, the widest entry, or SVG circles of nearly one
    length, so the first line of a chunk is about its longest, and no
    other line is measured."""
    lines = iter(lines)
    for first in lines:
        more = islice(lines, max(_CHUNK // len(first) - 1, 0))
        fh.write("".join([first, *more]))


def _write_csv(path, ncoords: int, rows) -> None:
    """The scatter CSV of an iterator of unchecked (coords, depth) rows of
    ``ncoords`` coordinates, in its order: one line of integers per row."""
    row = ",".join(["%d"] * ncoords + ["%d\n"])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(ncoords)] + ["depth\n"]))
        _write_lines(fh, (row % (*coords, depth) for coords, depth in rows))


def write_scatter_svg(rows, path, p: int) -> None:
    """Scatter plot of the first two coordinates of ``(coords, depth)``
    rows, 640 px square, both axes log-scaled base p (an int >= 2).  Zero
    has no logarithm, so it is drawn in an origin band one slot left
    of/below p^0; a missing coordinate is drawn as zero.  One pass over
    ``rows`` checks each (``_scatter_row``) and holds the points' logarithms
    as doubles, 16 bytes a row, before the file is opened; the axes go out
    first, then the circles (``_write_lines``); the CSV is canonical."""
    _int_arg("p", p, 2)
    size, margin = 640, 48.0
    span = size - 2 * margin

    def logp(v: int) -> float:
        return math.log(v, p) if v >= 1 else -1.0

    from array import array  # loaded by this path alone
    logs = array("d", (logp(v) for c, d in rows  # x and y of each row
                       for v in (_scatter_row(c, d)[0][:2] + (0, 0))[:2]))
    top = max(1.0, max(logs, default=1.0))
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
    for e in range(math.floor(top) + 1):  # a tick at each power p^e
        x, y = margin + pos(e), size - margin - pos(e)
        parts += [
            f'<line x1="{x:.2f}" y1="{size - margin}" x2="{x:.2f}" '
            f'y2="{size - margin + 5}" stroke="black"/>',
            f'<text x="{x:.2f}" y="{size - margin + 18}" font-size="10" '
            f'text-anchor="middle">{p}^{e}</text>',
            f'<line x1="{margin - 5}" y1="{y:.2f}" x2="{margin}" '
            f'y2="{y:.2f}" stroke="black"/>',
            f'<text x="{margin - 8}" y="{y + 3:.2f}" font-size="10" '
            f'text-anchor="end">{p}^{e}</text>']
    xy = iter(logs)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
        _write_lines(fh, (f'<circle cx="{margin + pos(rx):.2f}" '
                          f'cy="{size - margin - pos(ry):.2f}" r="2" '
                          'fill="steelblue"/>\n' for rx, ry in zip(xy, xy)))
        fh.write("</svg>\n")

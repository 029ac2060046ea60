"""Exhaustive enumeration of distinguished weights and closed-form families.

Every distinguished weight is anti-symmetric (entry i equals minus entry
n+1-i), so the search space is the lattice of weakly decreasing nonnegative
free coordinates x_1 >= ... >= x_h >= 0 with h = floor(n/2); the mirror
half and the middle zero (odd n) are forced.  No proven entry bound exists,
so the default bound is the largest entry of the scaled-staircase family.
That bound is the one unproven assumption of the enumeration; the test
suite checks it against the count recursion on its grid.

Candidates come from a congruence sieve, not a scan of the whole box.  The
box splits into cells by gap pattern: each gap between consecutive free
coordinates is capped to 0, 1 or >= 2, and so is the middle gap (2*x_h for
even n, x_h against the middle zero for odd n).  Within one cell:

* The maximal clumps are fixed.  ``phi`` removes selected values column by
  column; that can split a clump but never merge two, because distinct
  clumps stay >= 2 apart.
* ``phi`` appends a value v only to a row ending in v or v +- 1, so every
  row stays inside one clump.
* Rows are created only in column 1, so the row order and the column
  sizes, and with them the column correction, depend only on the cell.
* So every row sum is +-len(row) * t_c + const, where t_c is the top of
  the row's clump (the sign is - in the mirrored half).
* len(row) <= n < p is invertible mod p, so each row pins t_c mod p.  If
  two rows of one clump disagree, or a mirrored clump disagrees with its
  original, no weight of the cell passes the first division by p.
* The clump that straddles zero has no free top: its row sums are concrete
  and must be divisible by p.

Each cell is compiled once per call by running ``phi`` and the column
correction on its least weight.  Only clump tops of the right residue are
then generated (step p, clumps >= 2 apart, leading coordinate <= bound),
and every candidate still goes through the full depth test.  The sieve
skips only weights whose first division by p is not integral, so the
result is exactly that of a scan of the whole box.

With ``jobs`` > 1, each worker process takes an interleaved slice of every
cell's candidates; one cell can hold most of them, so whole cells would not
balance.  Workers are independent and side-effect free, and the merged
result is sorted, so output is identical for any degree of parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice

from .core import Weight, validate_weight
from .lv_algorithm import _lv_mu, apply_E_inverse, phi
from .modular_iteration import ModularContext, _bounded_depth, distinguished_depth

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
    used as the default search bound."""
    if n <= 0:
        return 0
    return (n - 1) * (p**k - 1) // (p - 1)


@dataclass(frozen=True, slots=True)
class SearchBox:
    """Search parameters: weight length n, iteration budget k, maximal
    absolute entry, and the prime."""

    n: int
    k: int
    bound: int
    p: int

    def __post_init__(self):
        if self.n < 0 or self.k < 0 or self.bound < 0:
            raise ValueError("n, k and bound must be >= 0")
        if self.p <= self.n:
            raise ValueError(
                f"prime {self.p} must exceed the weight length {self.n}"
            )


@dataclass(frozen=True, slots=True)
class ScatterRecord:
    """Leading floor(n/2) coordinates of a distinguished weight plus its
    minimal iteration depth."""

    coords: tuple[int, ...]
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        for a, b in zip(self.coords, self.coords[1:]):
            if a < b:
                raise ValueError(f"coords not weakly decreasing: {self.coords}")
        if self.coords and self.coords[-1] < 0:
            raise ValueError(f"coords must end >= 0: {self.coords}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")


def _mirror(coords: tuple[int, ...], n: int) -> Weight:
    """Anti-symmetric weight from its free coordinates."""
    mid = (0,) if n % 2 else ()
    return coords + mid + tuple(-c for c in reversed(coords))


def _root_distinguished(w: Weight, k: int, p: int, memo: dict) -> bool:
    """Depth-within-k test for a candidate, without memoizing the candidate
    itself (roots never repeat; their post-division children do)."""
    if not any(w):
        return True
    if k == 0 or len(w) == 1:
        return False
    n = len(w)
    prev = w[0]
    for v in w[1:]:
        if prev - v < 2:
            break
        prev = v
    else:
        # Single-column case: subtract the staircase, then divide.
        top = n - 1
        child = []
        for i, v in enumerate(w):
            d, r = divmod(v - top + 2 * i, p)
            if r:
                return False
            child.append(d)
        cd = _bounded_depth(tuple(child), k, p, memo)
        return cd is not None and cd < k
    for part in _lv_mu(w):
        child = []
        for e in part:
            d, r = divmod(e, p)
            if r:
                return False
            child.append(d)
        cd = _bounded_depth(tuple(child), k, p, memo)
        if cd is None or cd >= k:
            return False
    return True


def _cell_minima(n: int, bound: int):
    """Free coordinates of the least weight of every gap-pattern cell whose
    least weight fits in the box.

    A cell is fixed by its capped gaps, each of 0, 1 or >= 2, so its least
    weight has every gap in {0, 1, 2}.  The least bottom coordinate is 0 or
    1 for even n (middle gap 2*x_h capped to 0 or >= 2) and 0, 1 or 2 for
    odd n (middle gap x_h against the middle zero).
    """
    h = n // 2
    bottoms = (0, 1) if n % 2 == 0 else (0, 1, 2)

    def up(coords: tuple[int, ...]):
        if len(coords) == h:
            yield coords
            return
        for g in (0, 1, 2):
            top = coords[0] + g
            if top > bound:
                return
            yield from up((top,) + coords)

    for b in bottoms:
        if b <= bound:
            yield from up((b,))


def _compile_cell(least: tuple[int, ...], n: int, p: int):
    """The congruence system of one cell, or None when the cell holds no
    weight whose first division by p is integral.

    Returns ``(clumps, center)``: ``center`` is the concrete middle of every
    weight of the cell (the clump that straddles zero and its mirror, or
    the middle zero), and each free clump, top to bottom, is
    ``(residue, offsets, lowest)``: the residue its top must have mod p,
    the offsets of its coordinates below that top, and the top's value in
    the cell's least weight (its smallest possible value).
    """
    # Free clumps split at gaps of 2; the bottom run belongs to the clump
    # that straddles zero when the middle gap is below 2.
    runs = [[least[0]]]
    for a, b in zip(least, least[1:]):
        if a - b >= 2:
            runs.append([])
        runs[-1].append(b)
    middle_gap = 2 * least[-1] if n % 2 == 0 else least[-1]
    tail = tuple(runs.pop()) if middle_gap < 2 else ()
    clump_of = {}
    for c, run in enumerate(runs):
        for v in run:
            clump_of[v] = (c, 1)
            clump_of[-v] = (c, -1)
    residues: list[int | None] = [None] * len(runs)
    x = phi(_mirror(least, n))
    for row, corrected in zip(x, apply_E_inverse(x)):
        s = sum(corrected)
        if row[0] not in clump_of:
            # A row of the straddling clump (or the middle zero): concrete.
            if s % p:
                return None
            continue
        # Moving the clump top by d moves this row sum by sign*len(row)*d,
        # and len(row) <= n < p is invertible mod p.
        c, sign = clump_of[row[0]]
        r = (runs[c][0] - s * pow(sign * len(row), -1, p)) % p
        if residues[c] is None:
            residues[c] = r
        elif residues[c] != r:
            return None
    clumps = tuple(
        (r, tuple(run[0] - v for v in run), run[0])
        for r, run in zip(residues, runs)
    )
    return clumps, _mirror(tail, n)


def _cell_weights(clumps, center: Weight, p: int, hi: int,
                  skip: int = 0, stride: int = 1):
    """The weights of a compiled cell with leading coordinate <= hi, built
    from the center outwards.

    Every clump top runs down its residue class mod p.  Only every
    ``stride``-th top of the outermost clump is taken, from the ``skip``-th
    on, so that ``stride`` callers with distinct ``skip`` share a cell.
    """
    if not clumps:
        if skip == 0:
            yield center
        return
    (r, offsets, lowest), inner = clumps[0], clumps[1:]
    t = hi - (hi - r) % p - skip * p
    while t >= lowest:
        head = tuple(t - o for o in offsets)
        tail = tuple(-v for v in reversed(head))
        if inner:
            # The next clump's top sits at least 2 below this clump's bottom.
            for w in _cell_weights(inner, center, p, t - offsets[-1] - 2):
                yield head + w + tail
        else:
            yield head + center + tail
        t -= stride * p


def _scan_slice(args) -> list[Weight]:
    """Distinguished weights among one of ``step`` interleaved slices of
    the sieved candidates."""
    cells, k, p, bound, start, step = args
    memo: dict = {}
    found = []
    for i, (clumps, center) in enumerate(cells):
        # Rotating the slice per cell spreads cells with one top evenly.
        skip = (start - i) % step
        for w in _cell_weights(clumps, center, p, bound, skip, step):
            if _root_distinguished(w, k, p, memo):
                found.append(w)
    return found


# Below this many sieved candidates a worker pool costs more than it saves.
_POOL_MIN_CANDIDATES = 2_000


def enumerate_distinguished(box: SearchBox, jobs: int = 1) -> list[Weight]:
    """All anti-symmetric weights with entries in [-bound, bound] whose
    distinguished depth is <= k, sorted lexicographically descending.

    ``jobs`` > 1 splits the candidates across up to that many processes
    (never more than the CPU count); the result is identical for any jobs
    value.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    n, k, p, bound = box.n, box.k, box.p, box.bound
    if n < 2:
        # Lengths 0 and 1 admit a single candidate each.
        return [_mirror((), n)]
    cells = [
        cell for least in _cell_minima(n, bound)
        if (cell := _compile_cell(least, n, p)) is not None
    ]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        sieved = (w for cell in cells for w in _cell_weights(*cell, p, bound))
        seen = sum(1 for _ in islice(sieved, _POOL_MIN_CANDIDATES))
        if seen < _POOL_MIN_CANDIDATES:
            workers = 1
    if workers == 1:
        found = _scan_slice((cells, k, p, bound, 0, 1))
    else:
        tasks = [(cells, k, p, bound, i, workers) for i in range(workers)]
        found = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_slice, tasks):
                found.extend(part)
    found.sort(reverse=True)
    return found


# Closed-form families for n <= 4 ---------------------------------------------

FAMILY_IDS = {2: ("A",), 3: ("A", "B"), 4: ("F1", "F2", "F3", "F4")}
_FAMILY_ARITY = {"A": 1, "B": 1, "F1": 1, "F2": 1, "F3": 2, "F4": 2}


def _geom(p: int, m: int) -> int:
    """1 + p + ... + p^(m-1) = (p^m - 1)/(p - 1)."""
    return (p**m - 1) // (p - 1)


def _exact_div(num: int, den: int) -> int:
    d, r = divmod(num, den)
    if r:
        raise ValueError(f"non-integral closed-form value {num}/{den}")
    return d


def _family_weight(n: int, family_id: str, params: tuple[int, ...], p: int):
    """Weight and stated iteration depth for one family member."""
    if family_id not in FAMILY_IDS.get(n, ()):
        raise ValueError(f"unknown family {family_id!r} for n={n}")
    if len(params) != _FAMILY_ARITY[family_id]:
        raise ValueError(
            f"family {family_id} takes {_FAMILY_ARITY[family_id]} "
            f"parameter(s), got {params}"
        )
    if any(x < 0 for x in params):
        raise ValueError(f"family parameters must be >= 0, got {params}")
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
    # F4: requires m >= 1; the closed form splits on the parity of m.
    if m < 1:
        raise ValueError("F4 requires m >= 1")
    den = 2 * (p - 1)
    if m % 2 == 0:
        x = _exact_div(p ** (m + k) + 2 * p ** (k + 1) + 3 * p**k - 6, den)
        y = _exact_div(p ** (m + k) + p**k - 2, den)
    else:
        x = _exact_div(p ** (m + k) + p ** (k + 1) + 4 * p**k - 6, den)
        y = _exact_div(p ** (m + k) + p ** (k + 1) - 2, den)
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
    depth is <= max_k."""
    if n == 2:
        for m in range(max_k + 1):
            yield "A", (m,)
    elif n == 3:
        for m in range(max_k + 1):
            yield "A", (m,)
        for m in range(max_k):
            yield "B", (m,)
    else:
        for m in range(max_k + 1):
            yield "F1", (m,)
        for m in range(max_k):
            yield "F2", (m,)
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
        _check_family_depth(
            family_id, params, depth,
            _bounded_depth(validate_weight(w), max_k, ctx.p, memo),
        )
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
    for rec in sorted(records, key=lambda r: r.coords, reverse=True):
        if len(rec.coords) != ncoords:
            raise ValueError(
                f"record has {len(rec.coords)} coordinates, expected {ncoords}"
            )
        lines.append(",".join(str(v) for v in (*rec.coords, rec.depth)))
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

"""Iteration of the forward map with division by a fixed prime.

``lv_p`` applies the forward map and divides every output entry by p; when
some entry is not divisible the result is undefined, which is a meaningful
outcome (returned as ``None``), not an error.  Iterating ``lv_p`` on every
component until only zeros, stuck singletons, or non-integral divisions
remain yields a finite tree; weights whose tree ends in all zeros are the
*distinguished* ones, and the minimal number of iteration levels needed is
their depth.

A mandatory ``cap`` bounds every iteration entry point so termination never
depends on number-theoretic luck.  Traces are immutable once built and the
expansion of distinct children is independent, so callers may parallelize
over weights freely.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field

from .core import OmegaElement, PartitionMult, Weight, validate_weight
from .lv_algorithm import _lv_mu

__all__ = [
    "ModularContext",
    "IterationTrace",
    "RefinementChain",
    "STATUS_ZEROS",
    "STATUS_NONINTEGRAL",
    "STATUS_TERMINAL_SHORT",
    "STATUS_EXPANDED",
    "STATUS_EXHAUSTED",
    "lv_p",
    "iterate",
    "distinguished_depth",
    "refinement_chain",
    "rho_family",
    "trace_to_json",
    "trace_from_json",
]

STATUS_ZEROS = "zeros"
STATUS_NONINTEGRAL = "nonintegral"
STATUS_TERMINAL_SHORT = "terminal_short"
STATUS_EXPANDED = "expanded"
STATUS_EXHAUSTED = "exhausted"


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first 12 prime bases (2 to 37).

    Exact below 318,665,857,834,031,151,167,461 (about 3.19e23): the least
    composite that passes all 12 bases is that number itself, which this
    function wrongly accepts.  Above the bound a composite may pass.
    """
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class ModularContext:
    """A fixed prime p; each processed weight must satisfy p > len(weight)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    def check_length(self, n: int) -> None:
        if self.p <= n:
            raise ValueError(
                f"prime {self.p} must exceed the sequence length {n}"
            )


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """One node of the iteration tree.

    ``depth`` counts expansions consumed from the root to this node.
    ``children`` is nonempty exactly when status is "expanded": one child
    per component of the divided output, empty components included as
    empty-leaf children.
    """

    seq: Weight
    status: str
    depth: int
    children: tuple["IterationTrace", ...] = field(default=())

    def leaves(self):
        if self.status != STATUS_EXPANDED:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


@dataclass(frozen=True, slots=True)
class RefinementChain:
    """Per-level partition lists read off a fully distinguished trace.

    Level t+1 refines level t: each nonzero multiplicity l_i of a level-t
    partition is partitioned by exactly one level-(t+1) entry, in order.
    """

    levels: tuple[tuple[PartitionMult, ...], ...]


def _divided(mu: tuple[Weight, ...], p: int) -> tuple[Weight, ...] | None:
    """Entrywise quotient by p, or None if some entry is not divisible."""
    out = []
    for part in mu:
        q = []
        for e in part:
            d, r = divmod(e, p)
            if r:
                return None
            q.append(d)
        out.append(tuple(q))
    return tuple(out)


def lv_p(w, ctx: ModularContext) -> OmegaElement | None:
    """Forward map followed by entrywise division by p.

    Returns None when some output entry is not divisible by p; that signals
    the boundary of the distinguished set rather than a failure.
    """
    w = validate_weight(w)
    ctx.check_length(len(w))
    divided = _divided(_lv_mu(w), ctx.p)
    return None if divided is None else OmegaElement(divided)


def iterate(w, ctx: ModularContext, cap: int) -> IterationTrace:
    """Expand every non-terminal node up to ``cap`` levels.

    Leaves are all-zero sequences (including empty ones), nonzero
    singletons, and nodes whose division is non-integral.  A node that
    could still expand when the budget runs out is marked "exhausted"
    without computing its next step.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    w = validate_weight(w)
    ctx.check_length(len(w))
    return _build(w, cap, ctx.p)


def _build(seq: Weight, cap: int, p: int) -> IterationTrace:
    """The trace of ``seq`` down to ``cap`` levels, built on an explicit
    stack so a deep chain does not hit the interpreter's recursion limit."""
    # Expanded nodes whose children are not all built yet: (seq, depth,
    # the children still to build, the children built so far).
    stack: list[tuple[Weight, int, Iterator[Weight], list]] = []
    depth = 0
    while True:
        node = None
        if not any(seq):
            node = IterationTrace(seq, STATUS_ZEROS, depth)
        elif len(seq) == 1:
            node = IterationTrace(seq, STATUS_TERMINAL_SHORT, depth)
        elif depth == cap:
            node = IterationTrace(seq, STATUS_EXHAUSTED, depth)
        else:
            divided = _divided(_lv_mu(seq), p)
            if divided is None:
                node = IterationTrace(seq, STATUS_NONINTEGRAL, depth)
            else:
                stack.append((seq, depth, iter(divided), []))
        # Hand the finished node to its parent, closing every parent whose
        # last child it was, until some parent has a child left to build.
        while True:
            if node is not None:
                if not stack:
                    return node
                stack[-1][3].append(node)
            parent, pdepth, rest, built = stack[-1]
            seq = next(rest, None)
            if seq is not None:
                depth = pdepth + 1
                break
            stack.pop()
            node = IterationTrace(
                parent, STATUS_EXPANDED, pdepth, tuple(built)
            )


_MISS = object()


def _bounded_depth(seq: Weight, cap: int, p: int, memo: dict) -> int | None:
    """Minimal iterations taking ``seq`` to all zeros, or None when that does
    not happen within ``cap`` levels (non-integral division, a stuck nonzero
    singleton, or a longer chain).

    Every sequence is evaluated against the same ``cap`` and ``p``, so memo
    entries are exact whenever they are <= cap.  A sequence on the stack is
    memoized as a provisional None, which breaks cycles (a cycle never
    reaches all zeros).  The search keeps its own stack, so a deep chain
    does not hit the interpreter's recursion limit.
    """
    v = memo.get(seq, _MISS)
    if v is not _MISS:
        return v
    # The sequence being expanded, its remaining lv components and its
    # deepest child so far; expanded ancestors wait on the stack.  Children
    # are divided and settled in order, and the first one that fails
    # settles its parent as None.
    node = parts = None
    worst = 0
    stack = []
    while True:
        if seq is not None:  # open seq: settle it at once or expand it
            if not any(seq):
                v = memo[seq] = 0
            elif len(seq) == 1 or cap <= 0:
                v = memo[seq] = None
            else:
                if node is not None:
                    stack.append((node, parts, worst))
                memo[seq] = None
                node, parts, worst = seq, iter(_lv_mu(seq)), 0
                v = _MISS
            seq = None
            if node is None:
                return v
        if v is not _MISS:  # fold in the depth of the child just settled
            if v is None or v >= cap:
                v = None
            else:
                if v > worst:
                    worst = v
                v = _MISS
        if v is _MISS:
            for part in parts:
                child = []
                for e in part:
                    d, r = divmod(e, p)
                    if r:
                        break
                    child.append(d)
                else:
                    child = tuple(child)
                    cd = memo.get(child, _MISS)
                    if cd is _MISS:
                        seq = child
                        break
                    if cd is not None and cd < cap:
                        if cd > worst:
                            worst = cd
                        continue
                v = None
                break
            else:
                v = worst + 1
            if seq is not None:
                continue  # open the unsettled child first
        memo[node] = v
        if not stack:
            return v
        node, parts, worst = stack.pop()


def distinguished_depth(w, ctx: ModularContext, cap: int) -> int | None:
    """Minimal k <= cap such that iteration reaches all zeros everywhere,
    or None if no such k exists within the cap."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    w = validate_weight(w)
    ctx.check_length(len(w))
    return _bounded_depth(w, cap, ctx.p, {})


def refinement_chain(trace: IterationTrace) -> RefinementChain:
    """Read the per-level partitions off a fully distinguished trace.

    An expanded node contributes the multiplicity vector of its divided
    output (l_i = length of component i).  An all-zero node of length l
    contributes l parts of size 1 and keeps contributing at every later
    level, so each level refines the previous one; empty nodes contribute
    nothing.  The chain ends at the first level produced entirely by
    all-zero nodes.
    """
    for leaf in trace.leaves():
        if leaf.status != STATUS_ZEROS:
            raise ValueError(
                f"trace not distinguished: leaf {leaf.seq} has status "
                f"{leaf.status}"
            )
    levels: list[tuple[PartitionMult, ...]] = []
    frontier: list[IterationTrace] = [trace]
    while True:
        contributions: list[PartitionMult] = []
        nxt: list[IterationTrace] = []
        any_expanded = False
        for node in frontier:
            if node.status == STATUS_ZEROS:
                if node.seq:
                    contributions.append(PartitionMult((len(node.seq),)))
                    nxt.append(node)
            else:
                any_expanded = True
                contributions.append(
                    PartitionMult(tuple(len(c.seq) for c in node.children))
                )
                nxt.extend(node.children)
        if contributions:
            levels.append(tuple(contributions))
        if not any_expanded:
            return RefinementChain(tuple(levels))
        frontier = nxt


def rho_family(n: int, m: int, ctx: ModularContext) -> Weight:
    """The staircase (n-1, n-3, ..., 1-n) scaled by (p^m - 1)/(p - 1).

    Iterating division-by-p on the result peels one scale factor per level,
    so its distinguished depth is exactly m.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    scale = (ctx.p**m - 1) // (ctx.p - 1)
    return tuple((n - 1 - 2 * i) * scale for i in range(n))


# JSON trace form ------------------------------------------------------------

def trace_to_json(t: IterationTrace) -> str:
    """Compact JSON: {"seq":[...],"status":"...","children":[...]};
    children present only on expanded nodes.

    Written on an explicit stack, because ``json.dumps`` recurses once per
    level and fails on a deep trace; the bytes are those of ``json.dumps``
    with separators (",", ":") on the nested dicts.
    """
    out: list[str] = []
    todo: list = [t]  # nodes to write and literal text, next item last
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        seq = json.dumps(list(item.seq), separators=(",", ":"))
        out.append(f'{{"seq":{seq},"status":{json.dumps(item.status)}')
        if item.status != STATUS_EXPANDED:
            out.append("}")
            continue
        out.append(',"children":[')
        todo.append("]}")
        for i in range(len(item.children) - 1, -1, -1):
            todo.append(item.children[i])
            if i:
                todo.append(",")
    return "".join(out)


def _trace_from_dict(d: dict, depth: int) -> IterationTrace:
    children = tuple(
        _trace_from_dict(c, depth + 1) for c in d.get("children", ())
    )
    return IterationTrace(tuple(d["seq"]), d["status"], depth, children)


def trace_from_json(text: str) -> IterationTrace:
    """Inverse of ``trace_to_json``.  Reads with ``json.loads``, which
    recurses once per level, so a trace nested deeper than the
    interpreter's recursion limit raises ``RecursionError``."""
    return _trace_from_dict(json.loads(text), 0)

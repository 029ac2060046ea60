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
        if type(self.p) is not int:  # bools, floats and strings too
            raise ValueError(f"p must be an int, got {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    def check_length(self, n: int) -> None:
        if self.p <= n:
            raise ValueError(
                f"prime {self.p} must exceed the sequence length {n}"
            )


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class IterationTrace:
    """One node of the iteration tree.

    ``depth`` counts expansions consumed from the root to this node.
    ``children`` is nonempty exactly when status is "expanded": one child
    per component of the divided output, empty components included as
    empty-leaf children.

    ``==`` and ``hash`` do not recurse, and ``repr`` writes children below
    8 levels as "...", so a trace of any depth can be used as a value.
    """

    seq: Weight
    status: str
    depth: int
    children: tuple["IterationTrace", ...] = field(default=())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if (a.seq, a.status, a.depth, len(a.children)) != (
                        b.seq, b.status, b.depth, len(b.children)):
                    return False
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # Equal traces write the same JSON.
        return hash(trace_to_json(self))

    def __repr__(self, levels: int = 8) -> str:
        inner = [c.__repr__(levels - 1) if levels else "..."
                 for c in self.children]
        return (f"IterationTrace(seq={self.seq!r}, status={self.status!r}, "
                f"depth={self.depth!r}, children=({', '.join(inner)}"
                f"{',' * (len(inner) == 1)}))")

    def leaves(self):
        """The unexpanded nodes, left to right, read on an explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.status != STATUS_EXPANDED:
                yield node
            else:
                stack.extend(reversed(node.children))


@dataclass(frozen=True, slots=True)
class RefinementChain:
    """Per-level partition lists read off a fully distinguished trace.

    Level t+1 refines level t: each nonzero multiplicity l_i of a level-t
    partition is partitioned by exactly one level-(t+1) entry, in order.
    """

    levels: tuple[tuple[PartitionMult, ...], ...]


def lv_p(w, ctx: ModularContext) -> OmegaElement | None:
    """Forward map followed by entrywise division by p.

    Returns None when some output entry is not divisible by p; that signals
    the boundary of the distinguished set rather than a failure.
    """
    w = validate_weight(w)
    ctx.check_length(len(w))
    divided = _lv_mu(w, 1, ctx.p)
    return None if divided is None else OmegaElement._of(divided)


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
    # Expanded nodes whose children are not all built yet, above a holder
    # for the root: (seq, the children still to build, the children built).
    stack: list[tuple[Weight, Iterator[Weight], list]] = [((), iter(()), [])]
    while True:
        depth = len(stack) - 1
        divided = None
        if not any(seq):
            status = STATUS_ZEROS
        elif len(seq) == 1:
            status = STATUS_TERMINAL_SHORT
        elif depth == cap:
            status = STATUS_EXHAUSTED
        elif (divided := _lv_mu(seq, 1, p)) is None:
            status = STATUS_NONINTEGRAL
        if divided is None:
            stack[-1][2].append(IterationTrace(seq, status, depth))
        else:
            stack.append((seq, iter(divided), []))
        # Close every node whose last child is built, until some node has a
        # child left to build or the root is done.
        while (seq := next(stack[-1][1], None)) is None:
            if len(stack) == 1:
                return stack[0][2][0]
            parent, _, built = stack.pop()
            stack[-1][2].append(IterationTrace(
                parent, STATUS_EXPANDED, len(stack) - 1, tuple(built)
            ))


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
    # Expanded sequences not yet settled, innermost last: [seq, its
    # remaining divided lv components, its deepest child so far].
    stack: list[list] = []
    while True:
        if not any(seq):  # settle seq at once or expand it
            v = memo[seq] = 0
        elif (len(seq) == 1 or cap <= 0
              or (mu := _lv_mu(seq, 1, p)) is None):
            v = memo[seq] = None
        else:
            memo[seq] = None
            stack.append([seq, iter(mu), 0])
            v = 0
        # Fold v into the innermost expanded sequence and read on through
        # its settled children; settle it once a child fails or none is
        # left, and stop at an unsettled child.
        while stack:
            node = stack[-1]
            if v is None or v >= cap:
                v = None
            else:
                if v > node[2]:
                    node[2] = v
                seq = next(node[1], None)
                if seq is not None:
                    v = memo.get(seq, _MISS)
                    if v is _MISS:
                        break
                    continue
                v = node[2] + 1
            memo[node[0]] = v
            stack.pop()
        else:
            return v


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
    all-zero nodes.  A leaf that is not all zeros raises ValueError.
    """
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
            elif node.status != STATUS_EXPANDED:
                raise ValueError(
                    f"trace not distinguished: leaf {node.seq} has status "
                    f"{node.status}"
                )
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


_decode = json.JSONDecoder().raw_decode


def _expect(text: str, i: int, token: str) -> int:
    """The offset just past ``token``, which must start at offset i."""
    if not text.startswith(token, i):
        raise ValueError(f"trace: expected {token!r} at offset {i}")
    return i + len(token)


def trace_from_json(text: str) -> IterationTrace:
    """Inverse of ``trace_to_json``: reads exactly the compact form it
    writes, and raises ``ValueError`` on any other text.

    Read on an explicit stack, so a trace of any depth is read; only each
    ``seq`` and ``status`` value goes through the JSON decoder.
    """
    # Expanded nodes still open, above a holder for the finished root.
    stack: list[tuple] = [((), "", [])]
    i = 0
    while True:
        seq, i = _decode(text, _expect(text, i, '{"seq":'))
        status, i = _decode(text, _expect(text, i, ',"status":'))
        if not (isinstance(seq, list) and isinstance(status, str)
                and all(type(v) is int for v in seq)):
            raise ValueError(f"trace: bad seq or status before offset {i}")
        if text.startswith(',"children":[', i):
            i += 13
            stack.append((tuple(seq), status, []))
            if not text.startswith("]", i):
                continue
        else:
            i = _expect(text, i, "}")
            leaf = IterationTrace(tuple(seq), status, len(stack) - 1)
            stack[-1][2].append(leaf)
        # Close every node whose child list ends here, until a sibling
        # follows or the root is done.
        while len(stack) > 1 and not text.startswith(",", i):
            i = _expect(text, i, "]}")
            seq, status, children = stack.pop()
            stack[-1][2].append(
                IterationTrace(seq, status, len(stack) - 1, tuple(children))
            )
        if len(stack) == 1:
            if i != len(text):
                raise ValueError(f"trace: extra text at offset {i}")
            return stack[0][2][0]
        i = _expect(text, i, ",")

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
over weights freely.  ``trace_to_json`` writes a trace as compact JSON and
``trace_from_json`` is its exact inverse: it reads a text only when writing
the result gives that text back.
"""

from __future__ import annotations

from .core import (_WEIGHT, OmegaElement, PartitionMult, Weight, _int_arg,
                   _Value, validate_weight)
from .lv_algorithm import _lv_mu

__all__ = [
    "ModularContext",
    "IterationTrace",
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


class ModularContext(_Value):
    """A fixed prime p; each processed weight must satisfy p > len(weight)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(_int_arg("p", p, None)):  # p < 2 is not prime
            raise ValueError(f"p must be prime, got {p}")
        object.__setattr__(self, "p", p)

    def check_length(self, n: int) -> None:
        if self.p <= n:
            raise ValueError(
                f"prime {self.p} must exceed the sequence length {n}"
            )


class IterationTrace(_Value):
    """One node of the iteration tree.

    ``depth`` counts expansions consumed from the root to this node.
    ``children`` is nonempty exactly when status is "expanded": one child
    per component of the divided output, empty components included as
    empty-leaf children.

    ``==`` and ``hash`` do not recurse, and ``repr`` writes children below
    8 levels as "...", so a trace of any depth can be used as a value.
    """

    __slots__ = ("seq", "status", "depth", "children")

    def __init__(self, seq: Weight, status: str, depth: int,
                 children: tuple[IterationTrace, ...] = ()):
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "children", children)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # The walks align: equal child counts so far give them one shape.
        return all((a.seq, a.status, a.depth, len(a.children)) ==
                   (b.seq, b.status, b.depth, len(b.children))
                   for a, b in zip(self._preorder(), other._preorder()))

    def __hash__(self):
        # Equal traces write the same JSON.
        return hash(trace_to_json(self))

    def __repr__(self, levels: int = 8) -> str:
        inner = [c.__repr__(levels - 1) if levels else "..."
                 for c in self.children]
        return (f"IterationTrace(seq={self.seq!r}, status={self.status!r}, "
                f"depth={self.depth!r}, children=({', '.join(inner)}"
                f"{',' * (len(inner) == 1)}))")

    def _preorder(self):
        """Every node, each before its children, left to right, read on an
        explicit stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        """The unexpanded nodes, left to right."""
        return (node for node in self._preorder()
                if node.status != STATUS_EXPANDED)


def lv_p(w, ctx: ModularContext) -> OmegaElement | None:
    """Forward map followed by entrywise division by p.

    Returns None when some output entry is not divisible by p; that signals
    the boundary of the distinguished set rather than a failure.
    """
    w = validate_weight(w)
    ctx.check_length(len(w))
    divided = _lv_mu(w, ctx.p)
    return None if divided is None else OmegaElement._of(divided)


def iterate(w, ctx: ModularContext, cap: int) -> IterationTrace:
    """Expand every non-terminal node up to ``cap`` levels.

    Leaves are all-zero sequences (including empty ones), nonzero
    singletons, and nodes whose division is non-integral.  A node that
    could still expand when the budget runs out is marked "exhausted"
    without computing its next step.
    """
    w = validate_weight(w)
    ctx.check_length(len(w))
    return _build(w, _int_arg("cap", cap), ctx.p)


def _build(seq: Weight, cap: int, p: int) -> IterationTrace:
    """The trace of ``seq`` down to ``cap`` levels, built on an explicit
    stack so a deep chain does not hit the interpreter's recursion limit."""
    # Expanded nodes whose children are not all built yet, above a holder
    # for the root: (seq, the children still to build, the children built).
    stack = [((), iter(()), [])]
    while True:
        depth = len(stack) - 1
        divided = None
        if not any(seq):
            status = STATUS_ZEROS
        elif len(seq) == 1:
            status = STATUS_TERMINAL_SHORT
        elif depth == cap:
            status = STATUS_EXHAUSTED
        elif (divided := _lv_mu(seq, p)) is None:
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
    entries are exact whenever they are <= cap.  A sequence whose divided
    components the memo all settles below cap is settled at once.  Any
    other goes on the search's own stack, so that no chain meets the
    recursion limit, as a provisional None, which breaks cycles.
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
              or (mu := _lv_mu(seq, p)) is None):
            v = memo[seq] = None
        else:
            v = 0  # the deepest component read: below cap, so a push folds it
            for c in mu:
                u = memo.get(c, _MISS)
                if u is _MISS or u is None or u >= cap:
                    memo[seq] = None
                    stack.append([seq, iter(mu), 0])
                    break
                if u > v:
                    v = u
            else:
                v = memo[seq] = v + 1
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
    w = validate_weight(w)
    ctx.check_length(len(w))
    return _bounded_depth(w, _int_arg("cap", cap), ctx.p, {})


def refinement_chain(trace: IterationTrace) -> tuple:
    """The per-level partitions read off a fully distinguished trace, one
    tuple of ``PartitionMult`` per level.  Level t+1 refines level t: each
    nonzero multiplicity l_i of a level-t partition is partitioned by
    exactly one level-(t+1) entry, in order.

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
                contributions.append(
                    PartitionMult(tuple(len(c.seq) for c in node.children))
                )
                nxt.extend(node.children)
        if contributions:
            levels.append(tuple(contributions))
        if all(node.status == STATUS_ZEROS for node in frontier):
            return tuple(levels)
        frontier = nxt


def _geom(p: int, m: int) -> int:
    """1 + p + ... + p^(m-1) = (p^m - 1)/(p - 1)."""
    return (p**m - 1) // (p - 1)


def _rho(n: int, scale: int) -> Weight:
    """The staircase (n-1, n-3, ..., 1-n) times ``scale``."""
    return tuple([v * scale for v in range(n - 1, -n, -2)])


def rho_family(n: int, m: int, ctx: ModularContext) -> Weight:
    """The staircase (n-1, n-3, ..., 1-n) scaled by (p^m - 1)/(p - 1).

    Iterating division-by-p on the result peels one scale factor per level,
    so its distinguished depth is exactly m.
    """
    return _rho(_int_arg("n", n), _geom(ctx.p, _int_arg("m", m)))


# JSON trace form ------------------------------------------------------------

def trace_to_json(t: IterationTrace) -> str:
    """Compact JSON: {"seq":[...],"status":"...","children":[...]};
    children present only on expanded nodes.

    Written on an explicit stack, because ``json.dumps`` recurses once per
    level and fails on a deep trace; the bytes are those of ``json.dumps``
    with separators (",", ":") on the nested dicts.
    """
    import json
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


# The opening of a node, closed at once on a leaf, or the close of a child
# list: the tokens ``trace_to_json`` writes between its commas.  Compiled
# on first use, not at import.
_TOKEN = (r'\{"seq":\[(' + _WEIGHT + r')?\],"status":'
         r'("(?:[^"\\]|\\.)*")(?:(\})|,"children":\[)|\]\}')


def trace_from_json(text: str) -> IterationTrace:
    """Inverse of ``trace_to_json``: the trace that writes ``text``, or
    ``ValueError`` when no trace writes it.

    The tree is built on an explicit stack, so a trace of any depth is read.
    """
    import json
    import re
    # Nodes still open, above a holder for the finished root.
    stack: list[tuple] = [((), "", [])]
    for entries, status, leaf in re.findall(_TOKEN, text):
        if status:
            seq = tuple(map(int, entries.split(","))) if entries else ()
            stack.append((seq, json.loads(status), []))
            if not leaf:
                continue
        if len(stack) == 1:  # a close with no node open
            break
        seq, status, children = stack.pop()
        stack[-1][2].append(
            IterationTrace(seq, status, len(stack) - 1, tuple(children)))
    roots = stack[0][2]
    if roots and trace_to_json(roots[0]) == text:
        return roots[0]
    raise ValueError("trace: not the compact JSON that trace_to_json writes")

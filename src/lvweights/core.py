"""Core domain types for weight combinatorics.

A *weight* is a weakly decreasing tuple of integers.  A *weighted diagram*
is a ragged grid of integers addressed by row and column.  An *omega
element* is a tuple (mu_1, ..., mu_s) of weights with mu_s nonempty; it
encodes the pair (partition, dominant sequence) that the forward bijection
produces.  Partitions are stored as multiplicity vectors because the count
recursion consumes them in that shape.

Everything here is an immutable value and every function is pure, so values
can be shared freely between threads and processes.  All arithmetic is on
Python ints: entries grow like p^k under repeated un-division, far past any
fixed machine width.

Input is checked at the boundary: ``validate_weight``, ``parse_weight``,
``validate_diagram``, ``omega_from_pair``, ``omega_from_json`` and the
``OmegaElement`` and ``PartitionMult`` constructors reject malformed values,
and the other modules' public functions pass their input through them.  An
``OmegaElement`` that ``lv``, ``lv_p``, ``kappa`` or ``reverse_negate_omega``
builds holds by construction and skips re-validation (``OmegaElement._of``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import lt

__all__ = [
    "Weight",
    "Diagram",
    "Rational",
    "OmegaElement",
    "PartitionMult",
    "dom",
    "reverse_negate",
    "reverse_negate_omega",
    "validate_weight",
    "validate_diagram",
    "omega_from_pair",
    "omega_to_pair",
    "parse_weight",
    "format_weight",
    "omega_to_json",
    "omega_from_json",
]

Weight = tuple[int, ...]
Diagram = tuple[tuple[int, ...], ...]

# Reduced fraction of unbounded integers; denominator always positive.
Rational = Fraction


def dom(seq) -> Weight:
    """The multiset of ``seq`` sorted weakly decreasing."""
    return tuple(sorted(seq, reverse=True))


def validate_weight(seq) -> Weight:
    """Return ``seq`` as a weight tuple, rejecting non-weakly-decreasing
    input, then entries that are not ``int`` (bools and floats among them)."""
    w = tuple(seq)
    above = w[0] if w else 0
    for v in w:  # one pass for both checks; the first break is found below
        if above < v or type(v) is not int:
            break
        above = v
    else:
        return w
    for i in range(len(w) - 1):
        if w[i] < w[i + 1]:
            raise ValueError(
                f"not weakly decreasing at position {i}: {w[i]} < {w[i + 1]}")
    bad = next(v for v in w if type(v) is not int)
    raise ValueError(f"weight has non-integer entry {bad!r}")


def reverse_negate(w) -> Weight:
    """Negate and reverse: (w_1, ..., w_n) -> (-w_n, ..., -w_1).

    An involution on weights; the image of a weakly decreasing sequence is
    again weakly decreasing.
    """
    return tuple(-v for v in reversed(w))


def validate_diagram(rows) -> Diagram:
    """Return ``rows`` as a diagram (tuple of integer row tuples).

    Row lengths may differ and rows are not required to be monotone; only
    the row/column grid structure matters.  Column j is the j-th entry of
    every row of length >= j.
    """
    out = []
    for row in rows:  # len(out) numbers the row, cheaper than enumerate
        r = tuple(row)
        for v in r:
            if type(v) is not int:  # bools and floats too
                raise ValueError(
                    f"row {len(out) + 1} has non-integer entry {v!r}")
        out.append(r)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class OmegaElement:
    """Tuple (mu_1, ..., mu_s) of weakly decreasing integer sequences.

    Invariants: each mu_i is weakly decreasing, and mu_s is nonempty when
    s >= 1.  The implied total is n = sum(i * len(mu_i)).  The empty tuple
    is the unique element for n = 0.
    """

    mu: tuple[Weight, ...]

    def __post_init__(self):
        mu = tuple(tuple(m) for m in self.mu)
        object.__setattr__(self, "mu", mu)
        if mu and not mu[-1]:
            raise ValueError("last component mu_s must be nonempty")
        for i, m in enumerate(mu):
            if any(map(lt, m, m[1:])):
                raise ValueError(f"mu_{i + 1} is not weakly decreasing: {m}")
            if not {int}.issuperset(map(type, m)):  # bools and floats too
                bad = next(v for v in m if type(v) is not int)
                raise ValueError(f"mu_{i + 1} has non-integer entry {bad!r}")

    @classmethod
    def _of(cls, mu: tuple[Weight, ...]) -> "OmegaElement":
        """Wrap ``mu``, built by the library as valid, without checking."""
        o = object.__new__(cls)
        object.__setattr__(o, "mu", mu)
        return o

    @property
    def n(self) -> int:
        return sum((i + 1) * len(m) for i, m in enumerate(self.mu))

    @property
    def entry_sum(self) -> int:
        return sum(sum(m) for m in self.mu)


def reverse_negate_omega(o: OmegaElement) -> OmegaElement:
    """Apply reverse_negate to each component, preserving s and all lengths."""
    return OmegaElement._of(tuple(reverse_negate(m) for m in o.mu))


@dataclass(frozen=True, slots=True)
class PartitionMult:
    """A partition of n stored as multiplicities (l_1, ..., l_a).

    l_i is the multiplicity of part i; l_a >= 1 unless the partition is
    empty (n = 0).
    """

    mult: tuple[int, ...]

    def __post_init__(self):
        mult = tuple(self.mult)
        object.__setattr__(self, "mult", mult)
        if any(m < 0 for m in mult):
            raise ValueError(f"negative multiplicity in {mult}")
        if mult and mult[-1] < 1:
            raise ValueError("largest recorded part must actually occur")
        if not {int}.issuperset(map(type, mult)):  # bools and floats too
            raise ValueError(f"non-integer multiplicity in {mult}")

    @property
    def n(self) -> int:
        return sum((i + 1) * m for i, m in enumerate(self.mult))

    @property
    def parts(self) -> tuple[int, ...]:
        """Parts in weakly decreasing order, e.g. mult (2,0,2) -> (3,3,1,1)."""
        out = []
        for i in range(len(self.mult) - 1, -1, -1):
            out.extend([i + 1] * self.mult[i])
        return tuple(out)

    @classmethod
    def from_parts(cls, parts) -> "PartitionMult":
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        a = max(parts, default=0)
        mult = [0] * a
        for p in parts:
            mult[p - 1] += 1
        return cls(tuple(mult))


def omega_from_pair(alpha: PartitionMult, nu) -> OmegaElement:
    """Group a dominant sequence ``nu`` by the part sizes of ``alpha``.

    ``nu`` lists one integer per part of ``alpha`` taken in weakly
    decreasing part order; entries attached to equal parts must be weakly
    decreasing (dominance).  Entry j goes into mu_{parts[j]}.
    """
    parts = alpha.parts
    nu = tuple(nu)
    if len(nu) != len(parts):
        raise ValueError(
            f"length mismatch: {len(parts)} parts but {len(nu)} entries"
        )
    for i in range(len(parts) - 1):
        if parts[i] == parts[i + 1] and nu[i] < nu[i + 1]:
            raise ValueError(
                f"dominance violation at position {i}: part {parts[i]} "
                f"carries {nu[i]} < {nu[i + 1]}"
            )
    s = parts[0] if parts else 0
    groups: list[list[int]] = [[] for _ in range(s)]
    for p, v in zip(parts, nu):
        groups[p - 1].append(v)
    return OmegaElement(tuple(dom(g) for g in groups))


def omega_to_pair(o: OmegaElement) -> tuple[PartitionMult, tuple[int, ...]]:
    """Inverse of omega_from_pair: multiplicity vector plus the concatenation
    of dom(mu_s), ..., dom(mu_1)."""
    mult = tuple(len(m) for m in o.mu)
    nu = tuple(v for m in reversed(o.mu) for v in m)  # each m is sorted
    return PartitionMult(mult), nu


# Canonical textual/JSON forms ------------------------------------------------

def format_weight(w) -> str:
    """Comma-separated decimal entries, no whitespace; empty weight -> ''."""
    return ",".join(str(v) for v in w)


def parse_weight(text: str, sort: bool = False) -> Weight:
    """Parse the canonical comma-separated form.

    Rejects non-weakly-decreasing input unless ``sort`` is set, in which
    case the entries are sorted (callers opt in explicitly; silent
    normalization would mask bugs).
    """
    text = text.strip()
    if not text:
        return ()
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse weight from {text!r}") from None
    if sort:
        return dom(entries)
    return validate_weight(entries)


def omega_to_json(o: OmegaElement) -> str:
    """Canonical JSON form: {"mu":[[...],[...],...]}."""
    return json.dumps({"mu": [list(m) for m in o.mu]}, separators=(",", ":"))


def omega_from_json(text: str) -> OmegaElement:
    data = json.loads(text)
    if not isinstance(data, dict) or "mu" not in data:
        raise ValueError("expected an object with a 'mu' key")
    return OmegaElement(tuple(tuple(m) for m in data["mu"]))

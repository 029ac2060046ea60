"""Core domain types for weight combinatorics.

A *weight* is a weakly decreasing tuple of integers.  A *weighted diagram*
is a ragged grid of integers addressed by row and column.  An *omega
element* is a tuple (mu_1, ..., mu_s) of weights with mu_s nonempty; it
encodes the pair (partition, dominant sequence) that the forward bijection
produces.  Partitions are stored as multiplicity vectors because the count
recursion consumes them in that shape.

Everything here is an immutable value and every function is pure, so values
can be shared freely between threads and processes.  The value types are
slotted classes on ``_Value``, cheap to import: they compare and hash as the
tuple of their fields, and assigning to a field raises ``AttributeError``.
All arithmetic is on Python ints: entries grow like p^k under repeated
un-division, far past any fixed machine width.

Input is checked at the boundary, each rule by one kernel: ``_int_arg``
for an integer argument (type ``int``, then its lower bound),
``validate_weight`` for a weight, ``validate_diagram`` for a diagram,
``_printable`` for a value the interpreter must print and ``_WEIGHT`` for
a weight's text (``parse_weight`` and the trace reader).  Arguments are
checked in signature order, each one's type before its sign, and a
malformed one raises ``ValueError`` naming it.  ``parse_weight`` and the
``OmegaElement`` and ``PartitionMult`` constructors go through them, and so
do the other modules' public functions; ``omega_from_pair`` and
``omega_from_json`` check their own shape and leave each component,
dominance included, to the ``OmegaElement`` constructor.  An
``OmegaElement`` that ``lv``, ``lv_p``, ``kappa`` or
``reverse_negate_omega`` builds holds by construction and skips
re-validation (``OmegaElement._of``).  So does a diagram that ``phi``,
``apply_E`` or ``apply_E_inverse`` returns, a ``_BuiltDiagram``: its rows
are tuples of the ``int`` entries of a checked input plus ``int`` shifts,
and a slice or sum of it is a plain tuple, checked again.
"""

from __future__ import annotations

import sys
from operator import attrgetter, neg

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


def __getattr__(name: str):  # Rational is fractions.Fraction, loaded late
    if name != "Rational":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction
    globals()["Rational"] = Fraction
    return Fraction


# A nonempty weight as text: decimal entries joined by commas, nothing else.
_WEIGHT = r"-?[0-9]+(?:,-?[0-9]+)*"


def _int_arg(name: str, value, low: int | None = 0) -> int:
    """``value`` if it is an ``int`` (not a bool) >= ``low``, else a
    ``ValueError`` naming ``name``; ``low`` None checks the type alone."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _printable(value: int | None, what: str, log10_at_least: float = 0.0):
    """Refuse ``value`` if it has more digits than the interpreter prints,
    or unseen (None) if a lower bound on its log10 passes that limit + 1.
    Python before 3.10.7 has no limit."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and (log10_at_least > digits + 1 or
                   value is not None and value >= 10**digits):
        raise ValueError(f"{what} has more than {digits} decimal digits, "
                         "the limit for integer string conversion")
    return value


def dom(seq) -> Weight:
    """The multiset of ``seq`` sorted weakly decreasing."""
    return tuple(sorted(seq, reverse=True))


def validate_weight(seq) -> Weight:
    """Return ``seq`` as a weight tuple, rejecting non-weakly-decreasing
    input, then entries that are not ``int`` (bools and floats among them)."""
    w = tuple(seq)
    above = w[0] if w else 0
    for v in w:  # one pass for both checks; the first break is found below
        if type(v) is not int or above < v:
            break
        above = v
    else:
        return w
    try:  # an entry that does not compare with the others is named below
        for i in range(len(w) - 1):
            if w[i] < w[i + 1]:
                raise ValueError(f"not weakly decreasing at position {i}: "
                                 f"{w[i]} < {w[i + 1]}")
    except TypeError:
        pass
    bad = next(v for v in w if type(v) is not int)
    raise ValueError(f"weight has non-integer entry {bad!r}")


def reverse_negate(w) -> Weight:
    """Negate and reverse: (w_1, ..., w_n) -> (-w_n, ..., -w_1).

    An involution on weights; the image of a weakly decreasing sequence is
    again weakly decreasing.
    """
    return tuple(map(neg, reversed(w)))


class _BuiltDiagram(tuple):
    """A diagram built valid; a copy or pickle of it is a plain tuple."""

    __slots__ = ()

    def __reduce__(self):
        return tuple, (tuple(self),)


def validate_diagram(rows) -> Diagram:
    """Return ``rows`` as a diagram (tuple of integer row tuples).

    Row lengths may differ and rows are not required to be monotone; only
    the row/column grid structure matters.  Column j is the j-th entry of
    every row of length >= j.  A ``_BuiltDiagram`` is returned unchecked.
    """
    if type(rows) is _BuiltDiagram:
        return rows
    out = []
    for row in rows:  # len(out) numbers the row, cheaper than enumerate
        r = tuple(row)
        for v in r:
            if type(v) is not int:  # bools and floats too
                raise ValueError(
                    f"row {len(out) + 1} has non-integer entry {v!r}")
        out.append(r)
    return tuple(out)


class _Value:
    """Base of the value types: a subclass names its fields in ``__slots__``
    and sets them in ``__init__`` with ``object.__setattr__``; ``copy`` and
    ``pickle`` call the class on the fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._get = attrgetter(*cls.__slots__)  # a bare value for one field
        cls._single = len(cls.__slots__) == 1

    def _fields(self) -> tuple:
        v = self._get(self)
        return (v,) if self._single else v

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get
        return get(self) == get(other)

    def __hash__(self):
        v = self._get(self)  # ``_fields`` inlined: one call fewer
        return hash((v,) if self._single else v)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in
                           zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class OmegaElement(_Value):
    """Tuple (mu_1, ..., mu_s) of weakly decreasing integer sequences.

    Invariants: each mu_i is weakly decreasing, and mu_s is nonempty when
    s >= 1.  The implied total is n = sum(i * len(mu_i)).  The empty tuple
    is the unique element for n = 0.
    """

    __slots__ = ("mu",)

    def __init__(self, mu: tuple[Weight, ...]):
        try:
            mu = tuple(tuple(m) for m in mu)
        except TypeError:
            raise ValueError(f"mu must hold weights, got {mu!r}") from None
        object.__setattr__(self, "mu", mu)
        if mu and not mu[-1]:
            raise ValueError("last component mu_s must be nonempty")
        for i, m in enumerate(mu, 1):
            try:
                validate_weight(m)
            except ValueError as exc:
                raise ValueError(f"mu_{i}: {exc}") from None

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
    return OmegaElement._of(tuple(map(reverse_negate, o.mu)))


class PartitionMult(_Value):
    """A partition of n stored as multiplicities (l_1, ..., l_a).

    l_i is the multiplicity of part i; l_a >= 1 unless the partition is
    empty (n = 0).
    """

    __slots__ = ("mult",)

    def __init__(self, mult: tuple[int, ...]):
        mult = tuple(mult)
        object.__setattr__(self, "mult", mult)
        for m in mult:
            _int_arg("multiplicity", m)
        if mult and mult[-1] < 1:
            raise ValueError("largest recorded part must actually occur")

    @classmethod
    def _of(cls, mult: tuple[int, ...]) -> "PartitionMult":
        """Wrap ``mult``, built by the library as valid, without checking."""
        a = object.__new__(cls)
        object.__setattr__(a, "mult", mult)
        return a

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
        for p in parts:
            _int_arg("part", p, 1)
        a = max(parts, default=0)
        mult = [0] * a
        for p in parts:
            mult[p - 1] += 1
        return cls(tuple(mult))


def omega_from_pair(alpha: PartitionMult, nu) -> OmegaElement:
    """Group a dominant sequence ``nu`` by the part sizes of ``alpha``.

    ``nu`` lists one integer per part of ``alpha`` taken in weakly
    decreasing part order, and entry j goes into mu_{parts[j]}; the
    ``OmegaElement`` rule then holds the entries of equal parts to be
    weakly decreasing (dominance).
    """
    parts = alpha.parts
    try:
        nu = tuple(nu)
    except TypeError:
        raise ValueError(f"nu must hold ints, got {nu!r}") from None
    if len(nu) != len(parts):
        raise ValueError(
            f"length mismatch: {len(parts)} parts but {len(nu)} entries"
        )
    groups: list[list] = [[] for _ in range(parts[0] if parts else 0)]
    for p, v in zip(parts, nu):
        groups[p - 1].append(v)
    return OmegaElement(groups)


def omega_to_pair(o: OmegaElement) -> tuple[PartitionMult, tuple[int, ...]]:
    """Inverse of omega_from_pair: multiplicity vector plus the concatenation
    of dom(mu_s), ..., dom(mu_1)."""
    mult = tuple(len(m) for m in o.mu)
    nu = tuple(v for m in reversed(o.mu) for v in m)  # each m is sorted
    return PartitionMult(mult), nu


# Canonical textual/JSON forms ------------------------------------------------

def format_weight(w) -> str:
    """Comma-separated decimal entries, no whitespace; empty weight -> ''."""
    return ",".join(map(str, w))


def parse_weight(text: str, sort: bool = False) -> Weight:
    """Parse the canonical form: "" or text that ``_WEIGHT`` matches whole.

    Rejects non-weakly-decreasing input unless ``sort`` is set, in which
    case the entries are sorted (callers opt in explicitly; silent
    normalization would mask bugs).
    """
    import re
    if not isinstance(text, str) or text and not re.fullmatch(_WEIGHT, text):
        raise ValueError(f"cannot parse weight from {text!r}")
    entries = tuple(map(int, text.split(","))) if text else ()
    if sort:
        return dom(entries)
    return validate_weight(entries)


def omega_to_json(o: OmegaElement) -> str:
    """Canonical JSON form: {"mu":[[...],[...],...]}."""
    import json
    return json.dumps({"mu": [list(m) for m in o.mu]}, separators=(",", ":"))


def omega_from_json(text: str) -> OmegaElement:
    """Inverse of ``omega_to_json``; ``mu`` must be a list of lists."""
    import json
    data = json.loads(text)
    mu = data.get("mu") if isinstance(data, dict) else None
    if not (isinstance(mu, list) and all(isinstance(m, list) for m in mu)):
        raise ValueError("expected an object whose 'mu' is a list of lists")
    return OmegaElement(mu)

"""The target language: systems of x_i=1, x_i+x_j=x_k, x_i*x_j=x_k equations.

Equations are value objects with 1-based variable indices.  Addition and
multiplication are commutative, so the Add and Mul constructors store
i <= j, and an equation's kind is part of its identity (Add(1, 1, 2) is not
Mul(1, 1, 2)).  The serialized form is consequently unique and systems
written by deterministic builders are byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import FormatError

DOMAIN_Z = "Z"
DOMAIN_N = "N"


class One(NamedTuple):
    i: int


class _Fields(NamedTuple):
    i: int
    j: int
    k: int


class _Commutative:
    """Add and Mul: stored with i <= j, and equal only to their own kind."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int):
        return tuple.__new__(cls, (i, j, k) if i <= j else (j, i, k))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return type(self) is not type(other) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class Add(_Commutative, _Fields):
    """x_i + x_j = x_k."""

    __slots__ = ()


class Mul(_Commutative, _Fields):
    """x_i * x_j = x_k."""

    __slots__ = ()


EnEquation = One | Add | Mul


def format_eq(eq: EnEquation) -> str:
    if isinstance(eq, One):
        return f"x{eq.i} = 1"
    if isinstance(eq, Add):
        return f"x{eq.i} + x{eq.j} = x{eq.k}"
    return f"x{eq.i} * x{eq.j} = x{eq.k}"


class EnSystem:
    """A duplicate-free ordered set of E_n equations over n variables."""

    __slots__ = ("n", "equations", "names")

    def __init__(self, n: int, equations: Iterable[EnEquation],
                 names: Mapping[int, str] | None = None):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.n = n
        self.equations = tuple(dict.fromkeys(equations))
        self.names = dict(names) if names else {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnSystem):
            return NotImplemented
        return (self.n == other.n
                and set(self.equations) == set(other.equations)
                and self.names == other.names)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.equations)))

    def __repr__(self) -> str:
        return f"EnSystem(n={self.n}, {len(self.equations)} equations)"

    def __len__(self) -> int:
        return len(self.equations)


def validate(system: EnSystem) -> list[str]:
    """Return a list of invariant violations (empty means ok)."""
    problems = []
    for eq in system.equations:
        for index in eq:
            if not 1 <= index <= system.n:
                problems.append(
                    f"index {index} out of range [1, {system.n}] in {format_eq(eq)}")
    for index in system.names:
        if not 1 <= index <= system.n:
            problems.append(f"named index {index} out of range [1, {system.n}]")
    return problems


# --------------------------------------------------------------------------
# serialization (.ens)

_TAGS = {One: "ONE", Add: "ADD", Mul: "MUL"}
# tag -> (kind, index count)
_KINDS = {tag: (kind, len(kind._fields)) for kind, tag in _TAGS.items()}


def serialize(system: EnSystem) -> str:
    """Canonical .ens text: ONE lines, then ADD, then MUL, each sorted."""
    lines = ["ENSYS 1", f"n {system.n}"]
    for index in sorted(system.names):
        label = system.names[index]
        if not label or any(ch.isspace() for ch in label):
            raise FormatError(f"bad label {label!r} for index {index}")
        lines.append(f"# name {index} {label}")
    # One kind at a time, so sorting compares plain int tuples and never
    # calls the kinds' Python-level __eq__.
    by_kind = {kind: [] for kind in _TAGS}
    for eq in system.equations:
        by_kind[type(eq)].append(eq)
    for kind, tag in _TAGS.items():
        line = tag + " %d" * len(kind._fields)
        lines.extend(line % eq for eq in sorted(by_kind[kind]))
    return "\n".join(lines) + "\n"


def _parse_indices(parts: list[str], count: int, line_no: int) -> list[int]:
    if len(parts) != count:
        raise FormatError(f"line {line_no}: expected {count} indices")
    out = []
    for part in parts:
        if not part.isdigit():
            raise FormatError(f"line {line_no}: bad index {part!r}")
        out.append(int(part))
    return out


def deserialize(text: str | bytes) -> EnSystem:
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.splitlines()
    if not lines or lines[0] != "ENSYS 1":
        raise FormatError("missing 'ENSYS 1' header")
    n = None
    names: dict[int, str] = {}
    equations: list[EnEquation] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "name":
                if len(parts) != 4 or not parts[2].isdigit():
                    raise FormatError(f"line {line_no}: bad name line")
                names[int(parts[2])] = parts[3]
            continue
        parts = line.split()
        head = parts[0]
        if head == "n":
            if n is not None:
                raise FormatError(f"line {line_no}: duplicate 'n' header")
            (n,) = _parse_indices(parts[1:], 1, line_no)
        elif head in _KINDS:
            kind, count = _KINDS[head]
            equations.append(kind(*_parse_indices(parts[1:], count, line_no)))
        else:
            raise FormatError(f"line {line_no}: unknown directive {head!r}")
        if head != "n" and n is None:
            raise FormatError(f"line {line_no}: equation before 'n' header")
    if n is None:
        raise FormatError("missing 'n <count>' header")
    system = EnSystem(n, equations, names)
    problems = validate(system)
    if problems:
        raise FormatError("; ".join(problems))
    return system

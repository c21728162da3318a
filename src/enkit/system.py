"""The target language: systems of x_i=1, x_i+x_j=x_k, x_i*x_j=x_k equations.

Equations are value objects with 1-based variable indices.  Addition and
multiplication are commutative, so Add/Mul constructors canonicalize to
i <= j; the serialized form is consequently unique and systems written by
deterministic builders are byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import FormatError

DOMAIN_Z = "Z"
DOMAIN_N = "N"


class One(NamedTuple):
    i: int


class Add(NamedTuple):
    i: int
    j: int
    k: int


class Mul(NamedTuple):
    i: int
    j: int
    k: int


EnEquation = One | Add | Mul


def one_eq(i: int) -> One:
    return One(i)


def add_eq(i: int, j: int, k: int) -> Add:
    """x_i + x_j = x_k, stored with i <= j."""
    return Add(i, j, k) if i <= j else Add(j, i, k)


def mul_eq(i: int, j: int, k: int) -> Mul:
    """x_i * x_j = x_k, stored with i <= j."""
    return Mul(i, j, k) if i <= j else Mul(j, i, k)


def _canonical(eq: EnEquation) -> EnEquation:
    if isinstance(eq, One):
        return eq
    if isinstance(eq, Add):
        return add_eq(*eq)
    if isinstance(eq, Mul):
        return mul_eq(*eq)
    raise TypeError(f"not an E_n equation: {eq!r}")


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
        seen = set()
        ordered = []
        for eq in equations:
            eq = _canonical(eq)
            if eq not in seen:
                seen.add(eq)
                ordered.append(eq)
        self.n = n
        self.equations = tuple(ordered)
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

_KIND_ORDER = {One: 0, Add: 1, Mul: 2}


def sorted_equations(system: EnSystem) -> list[EnEquation]:
    return sorted(system.equations, key=lambda eq: (_KIND_ORDER[type(eq)], eq))


def serialize(system: EnSystem) -> str:
    """Canonical .ens text: ONE lines, then ADD, then MUL, each sorted."""
    lines = ["ENSYS 1", f"n {system.n}"]
    for index in sorted(system.names):
        label = system.names[index]
        if not label or any(ch.isspace() for ch in label):
            raise FormatError(f"bad label {label!r} for index {index}")
        lines.append(f"# name {index} {label}")
    for eq in sorted_equations(system):
        if isinstance(eq, One):
            lines.append(f"ONE {eq.i}")
        elif isinstance(eq, Add):
            lines.append(f"ADD {eq.i} {eq.j} {eq.k}")
        else:
            lines.append(f"MUL {eq.i} {eq.j} {eq.k}")
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
        elif head == "ONE":
            (i,) = _parse_indices(parts[1:], 1, line_no)
            equations.append(One(i))
        elif head == "ADD":
            i, j, k = _parse_indices(parts[1:], 3, line_no)
            equations.append(add_eq(i, j, k))
        elif head == "MUL":
            i, j, k = _parse_indices(parts[1:], 3, line_no)
            equations.append(mul_eq(i, j, k))
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

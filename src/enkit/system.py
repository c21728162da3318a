"""The target language: systems of x_i=1, x_i+x_j=x_k, x_i*x_j=x_k equations.

Equations are value objects with 1-based variable indices.  Addition and
multiplication are commutative, so the Add and Mul constructors store
i <= j, and an equation's kind is part of its identity (Add(1, 1, 2) is not
Mul(1, 1, 2)).  The serialized form is consequently unique and systems
written by deterministic builders are byte-identical across runs.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import compress, count, pairwise, repeat
from operator import gt, itemgetter, ne
from typing import Iterable, Mapping, NamedTuple

from .eqio import ascii_int, ascii_ints
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

    @classmethod
    def from_columns(cls, i: list[int], j: list[int], k: list[int]):
        """Iterate cls(i[t], j[t], k[t]) for each t, made in bulk.

        Only the rows with i[t] > j[t] are swapped, in copies of i and j.
        """
        flips = list(compress(count(), map(gt, i, j)))
        if flips:
            i, j = list(i), list(j)
            for t in flips:
                i[t], j[t] = j[t], i[t]
        return map(tuple.__new__, repeat(cls), zip(i, j, k))

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


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, and restore the caller's state
    on every exit.

    enkit's commands and readers make no reference cycles, yet each
    collection would walk every live Add and Mul: tuple subclasses are
    never untracked.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# --------------------------------------------------------------------------
# serialization (.ens)

_TAGS = {One: "ONE", Add: "ADD", Mul: "MUL"}
# tag -> (kind, index count)
_KINDS = {tag: (kind, len(kind._fields)) for kind, tag in _TAGS.items()}
# first four characters of a run of equation lines -> their kind
_RUN_KINDS = {tag + " ": kind for kind, tag in _TAGS.items()}
_HEAD = itemgetter(slice(0, 4))
# Lines are read this many at a time, so the bulk reader holds the tokens of
# one chunk, not the four string objects per line of a whole file.
_CHUNK = 4096
# The numeral table is built only for a text of at least this many
# characters per index; the benchmark's texts hold 7.5 or more.
_CHARS_PER_INDEX = 4


def serialize(system: EnSystem) -> str:
    """Canonical .ens text: ONE lines, then ADD, then MUL, each sorted."""
    lines = ["ENSYS 1", f"n {system.n}"]
    for index in sorted(system.names):
        label = system.names[index]
        if label.split() != [label]:
            raise FormatError(f"bad label {label!r} for index {index}")
        lines.append(f"# name {index} {label}")
    return ("\n".join(lines) + "\n"
            + "".join(equation_lines(system.equations)))


def equation_lines(equations: Iterable[EnEquation]) -> tuple[str, str, str]:
    """The canonical ONE, ADD and MUL lines of `equations`, each kind
    sorted, as three texts of whole lines."""
    # One kind at a time, so sorting compares plain int tuples and never
    # calls the kinds' Python-level __eq__.
    by_kind = {kind: [] for kind in _TAGS}
    for eq in equations:
        by_kind[type(eq)].append(eq)
    return tuple("".join(map((tag + " %d" * len(kind._fields) + "\n").__mod__,
                             sorted(by_kind[kind])))
                 for kind, tag in _TAGS.items())


def _parse_indices(parts: list[str], count: int, line_no: int) -> list[int]:
    if len(parts) != count:
        raise FormatError(f"line {line_no}: expected {count} indices")
    values = ascii_ints(parts)
    if values is None:
        bad = next(part for part in parts if ascii_int(part) is None)
        raise FormatError(f"line {line_no}: bad index {bad!r}")
    return values


class _Reader:
    """What the lines of one .ens text read so far have declared."""

    __slots__ = ("size", "n", "equations", "names", "in_range", "numerals")

    def __init__(self, size: int):
        self.size = size  # characters in the whole text
        self.n: int | None = None
        self.equations: list[EnEquation] = []
        self.names: dict[int, str] = {}
        self.in_range = True  # every equation index read lies in [1, n]
        # str(i) -> i for every index i in [1, n], built at the 'n' header
        # when the text holds _CHARS_PER_INDEX characters per index, so its
        # size is bounded by the text's length, blank lines or not.  Every
        # numeral it holds is ASCII digits naming an index in range, so one
        # lookup replaces the digit check, int() and the range check; a run
        # holding a token it lacks is read line by line.
        self.numerals: dict[str, int] = {}

    def read_chunk(self, lines: list[str], line_no: int):
        """Read lines, the first of which is line number line_no.

        Each run of equation lines beginning with the same four characters
        that the bulk reader accepts is read in bulk; any other run is read
        line by line, which raises the first format error in it.
        """
        heads = list(map(_HEAD, lines))
        bounds = [0, *compress(count(1), map(ne, heads, heads[1:])),
                  len(lines)]
        for start, stop in pairwise(bounds):
            run = lines[start:stop]
            head = heads[start]
            if not (head in _RUN_KINDS
                    and self._bulk_equations(run, _RUN_KINDS[head])):
                self.read_lines(run, line_no + start)

    def _bulk_equations(self, lines: list[str], kind) -> bool:
        """Read lines that all begin with kind's tag and a space, or return
        False, having read nothing, unless every line is well formed and
        the numeral table holds every index."""
        width = len(kind._fields) + 1
        tokens = " ".join(lines).split()
        if (len(tokens) != width * len(lines)
                or tokens[::width].count(_TAGS[kind]) != len(lines)):
            return False
        del tokens[::width]
        try:
            values = list(map(self.numerals.__getitem__, tokens))
        except KeyError:
            return False
        if kind is One:
            self.equations.extend(map(tuple.__new__, repeat(One), zip(values)))
        else:
            self.equations.extend(
                kind.from_columns(values[::3], values[1::3], values[2::3]))
        return True

    def read_lines(self, lines: list[str], line_no: int):
        """Read lines one at a time; the first is line number line_no."""
        for line_no, line in enumerate(lines, start=line_no):
            parts = line.split()
            if not parts:
                continue
            if line.startswith("#"):
                if len(parts) >= 2 and parts[1] == "name":
                    if len(parts) != 4 or ascii_ints(parts[2:3]) is None:
                        raise FormatError(f"line {line_no}: bad name line")
                    index = int(parts[2])
                    if index in self.names:
                        raise FormatError(
                            f"line {line_no}: duplicate name of index {index}")
                    self.names[index] = parts[3]
                continue
            head = parts[0]
            if head == "n":
                if self.n is not None:
                    raise FormatError(f"line {line_no}: duplicate 'n' header")
                (self.n,) = _parse_indices(parts[1:], 1, line_no)
                if _CHARS_PER_INDEX * self.n <= self.size:
                    indices = range(1, self.n + 1)
                    self.numerals = dict(zip(map(str, indices), indices))
            elif head in _KINDS:
                kind, arity = _KINDS[head]
                values = _parse_indices(parts[1:], arity, line_no)
                if self.n is None:
                    raise FormatError(
                        f"line {line_no}: equation before 'n' header")
                if min(values) < 1 or max(values) > self.n:
                    self.in_range = False
                self.equations.append(kind(*values))
            else:
                raise FormatError(f"line {line_no}: unknown directive {head!r}")


def deserialize(text: str) -> EnSystem:
    """Parse .ens text; any format error or index out of range raises
    FormatError (range problems only once the whole text is well formed)."""
    lines = text.splitlines()
    if not lines or lines[0] != "ENSYS 1":
        raise FormatError("missing 'ENSYS 1' header")
    reader = _Reader(len(text))
    with collector_paused():
        for start in range(1, len(lines), _CHUNK):
            reader.read_chunk(lines[start:start + _CHUNK], start + 1)
    n, names = reader.n, reader.names
    if n is None:
        raise FormatError("missing 'n <count>' header")
    system = EnSystem(n, reader.equations, names)
    if not reader.in_range or (names and (min(names) < 1 or max(names) > n)):
        raise FormatError("; ".join(validate(system)))
    return system

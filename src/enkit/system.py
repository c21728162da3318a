"""The target language: systems of x_i=1, x_i+x_j=x_k, x_i*x_j=x_k equations.

A system holds each equation as a row of four ints, (kind, i, j, k), with
1-based variable indices: kind ONE with i = j = k for x_i = 1, and ADD or
MUL with i <= j, since addition and multiplication commute.  The kind is
part of an equation's identity ((ADD, 1, 1, 2) is not (MUL, 1, 1, 2)), and
ONE < ADD < MUL, so one `sorted` of the rows is the canonical order of the
serialized form, which is consequently unique: systems written by
deterministic builders are byte-identical across runs.  A system's rows
are distinct: no builder makes a repeat, so only a text can hold one, and
`deserialize` drops it.

`One`, `Add` and `Mul` make these rows: `Add(2, 1, 3)` is the row
(ADD, 1, 2, 3).
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from contextlib import contextmanager
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import gt, itemgetter, lt, ne
from typing import Iterable, Mapping

from .eqio import ascii_int, ascii_ints
from .errors import FormatError

DOMAIN_Z = "Z"
DOMAIN_N = "N"

# The kind of a row (kind, i, j, k), in canonical order.
ONE, ADD, MUL = 0, 1, 2


def canonical_row(kind: int, i: int, j: int, k: int) -> tuple:
    """The row (kind, i, j, k), with its operands in order."""
    return (kind, i, j, k) if i <= j else (kind, j, i, k)


def canonical_rows(kind: int, i: list[int], j: list[int], k: list[int]):
    """Iterate the rows (kind, i[t], j[t], k[t]) of an ADD or MUL kind,
    made in bulk.

    Only the rows with i[t] > j[t] are swapped, in copies of i and j.
    """
    flips = list(compress(count(), map(gt, i, j)))
    if flips:
        i, j = list(i), list(j)
        for t in flips:
            i[t], j[t] = j[t], i[t]
    return zip(repeat(kind), i, j, k)


def One(i: int) -> tuple:
    """x_i = 1."""
    return (ONE, i, i, i)


def Add(i: int, j: int, k: int) -> tuple:
    """x_i + x_j = x_k."""
    return canonical_row(ADD, i, j, k)


def Mul(i: int, j: int, k: int) -> tuple:
    """x_i * x_j = x_k."""
    return canonical_row(MUL, i, j, k)


def format_eq(row: tuple) -> str:
    """A row as an equation: x1 + x2 = x3."""
    kind, i, j, k = row
    if kind == ONE:
        return f"x{i} = 1"
    return f"x{i} {'+' if kind == ADD else '*'} x{j} = x{k}"


def format_row(row: tuple) -> str:
    """A row as the call that makes it: Add(i=1, j=2, k=3)."""
    kind, i, j, k = row
    if kind == ONE:
        return f"One(i={i})"
    return f"{'Add' if kind == ADD else 'Mul'}(i={i}, j={j}, k={k})"


class EnSystem:
    """An ordered set of E_n equations over n variables, held as rows.

    The rows are kept as given: callers pass distinct rows, each with its
    operands in canonical order, as `One`, `Add`, `Mul`, `canonical_rows`,
    every builder and `deserialize` make them.
    """

    __slots__ = ("n", "rows", "names")

    def __init__(self, n: int, equations: Iterable[tuple],
                 names: Mapping[int, str] | None = None):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.n = n
        self.rows = tuple(equations)
        self.names = dict(names) if names else {}

    @property
    def equations(self) -> tuple:
        """An alias of `rows`."""
        return self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnSystem):
            return NotImplemented
        return (self.n == other.n
                and set(self.rows) == set(other.rows)
                and self.names == other.names)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.rows)))

    def __repr__(self) -> str:
        return f"EnSystem(n={self.n}, {len(self.rows)} equations)"

    def __len__(self) -> int:
        return len(self.rows)


def validate(system: EnSystem) -> list[str]:
    """Return a list of invariant violations (empty means ok)."""
    problems = []
    n = system.n
    for row in system.rows:
        kind, i, j, k = row
        # i <= j, so i and k hold the least index and j and k the greatest.
        if min(i, k) < 1 or max(j, k) > n:
            for index in (i,) if kind == ONE else (i, j, k):
                if not 1 <= index <= n:
                    problems.append(f"index {index} out of range [1, {n}] "
                                    f"in {format_eq(row)}")
    for index in system.names:
        if not 1 <= index <= n:
            problems.append(f"named index {index} out of range [1, {n}]")
    return problems


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, and restore the caller's state
    on every exit.

    enkit's commands and readers make no reference cycles, yet while they
    make rows, lists and dicts a young collection runs every 700 new
    containers and walks each one it finds (a row of ints until that walk
    untracks it).  On full_Z x1^2 = 2 (116,506 rows), `reduce` took a
    median of 84-86 ms paused against 95 ms unpaused (README.md).
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

_TAGS = ("ONE", "ADD", "MUL")  # by kind
# tag -> (kind, index count)
_KINDS = {"ONE": (ONE, 1), "ADD": (ADD, 3), "MUL": (MUL, 3)}
# first four characters of a run of equation lines -> their kind
_RUN_KINDS = {tag + " ": kind for kind, tag in enumerate(_TAGS)}
_HEAD = itemgetter(slice(0, 4))
# Lines are read this many at a time, so the bulk reader holds the tokens of
# one chunk, not the four string objects per line of a whole file.
_CHUNK = 4096
# The numeral table is built only for a text of at least this many
# characters per index; the benchmark's texts hold 7.5 or more.
_CHARS_PER_INDEX = 4


def serialize(system: EnSystem) -> str:
    """Canonical .ens text: ONE lines, then ADD, then MUL, each sorted.

    A system with an index outside [1, n] raises FormatError naming it.
    """
    lines = ["ENSYS 1", f"n {system.n}"]
    for index in sorted(system.names):
        label = system.names[index]
        if label.split() != [label]:
            raise FormatError(f"bad label {label!r} for index {index}")
        lines.append(f"# name {index} {label}")
    try:
        blocks = equation_lines(system.rows, system.n)
    except KeyError:
        raise FormatError("; ".join(validate(system))) from None
    return "\n".join(lines) + "\n" + "".join(blocks)


def equation_lines(rows: Iterable[tuple], n: int) -> tuple[str, str, str]:
    """The canonical ONE, ADD and MUL lines of rows whose indices lie in
    [1, n], each kind sorted, as three texts of whole lines.

    The rows are sorted once, and every index is written through one table
    of numerals: of 1..n when it holds at most one entry per index slot of
    the rows, else of the indices the rows hold.  An index outside [1, n]
    raises KeyError.
    """
    rows = sorted(rows)
    adds, muls = bisect_left(rows, (ADD,)), bisect_left(rows, (MUL,))
    indices = (range(1, n + 1) if n < 3 * len(rows)
               else {i for i in chain.from_iterable(rows) if 1 <= i <= n})
    s = dict(zip(indices, map(str, indices)))
    return ("".join([f"ONE {s[i]}\n" for _, i, _, _ in rows[:adds]]),
            "".join([f"ADD {s[i]} {s[j]} {s[k]}\n"
                     for _, i, j, k in rows[adds:muls]]),
            "".join([f"MUL {s[i]} {s[j]} {s[k]}\n"
                     for _, i, j, k in rows[muls:]]))


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

    __slots__ = ("size", "n", "rows", "names", "in_range", "numerals")

    def __init__(self, size: int):
        self.size = size  # characters in the whole text
        self.n: int | None = None
        self.rows: list[tuple] = []
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
        line by line, which raises the first format error in it.  A chunk
        the bulk reader accepts whole is one run, read without taking the
        head of each line.
        """
        kind = _RUN_KINDS.get(_HEAD(lines[0]))
        if kind is not None and self._bulk_equations(lines, kind):
            return
        heads = list(map(_HEAD, lines))
        bounds = [0, *compress(count(1), map(ne, heads, heads[1:])),
                  len(lines)]
        for start, stop in pairwise(bounds):
            run = lines[start:stop]
            head = heads[start]
            if not (head in _RUN_KINDS
                    and self._bulk_equations(run, _RUN_KINDS[head])):
                self.read_lines(run, line_no + start)

    def _bulk_equations(self, lines: list[str], kind: int) -> bool:
        """Read lines, the first beginning with kind's tag and a space, or
        return False, having read nothing, unless every line begins so and
        is well formed and the numeral table holds every index.  Each index
        column is converted in one pass, and the columns are zipped into
        rows."""
        width = 2 if kind == ONE else 4
        tag = _TAGS[kind]
        text = "\n".join(lines)
        if text.count("\n" + tag + " ") != len(lines) - 1:
            return False
        tokens = text.split()
        if (len(tokens) != width * len(lines)
                or tokens[::width].count(tag) != len(lines)):
            return False
        get = self.numerals.__getitem__
        try:
            columns = [list(map(get, tokens[t::width]))
                       for t in range(1, width)]
        except KeyError:
            return False
        if kind == ONE:
            (i,) = columns
            self.rows.extend(zip(repeat(ONE), i, i, i))
        else:
            self.rows.extend(canonical_rows(kind, *columns))
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
                if kind == ONE:
                    values *= 3  # x_i = 1 is the row (ONE, i, i, i)
                self.rows.append(canonical_row(kind, *values))
            else:
                raise FormatError(f"line {line_no}: unknown directive {head!r}")


def deserialize(text: str) -> EnSystem:
    """Parse .ens text; any format error or index out of range raises
    FormatError (range problems only once the whole text is well formed).

    A line repeating an earlier equation is dropped.  Rows read in
    strictly increasing order, as from every text enkit writes, are
    distinct and kept as read; only other rows are searched for repeats,
    keeping the first occurrence of each."""
    lines = text.splitlines()
    if not lines or lines[0] != "ENSYS 1":
        raise FormatError("missing 'ENSYS 1' header")
    reader = _Reader(len(text))
    with collector_paused():
        for start in range(1, len(lines), _CHUNK):
            reader.read_chunk(lines[start:start + _CHUNK], start + 1)
    del lines  # read: the system is built without them
    n, names = reader.n, reader.names
    if n is None:
        raise FormatError("missing 'n <count>' header")
    rows = reader.rows
    if not all(map(lt, rows, islice(rows, 1, None))):
        rows = dict.fromkeys(rows)
    system = EnSystem(n, rows, names)
    if not reader.in_range or (names and (min(names) < 1 or max(names) > n)):
        raise FormatError("; ".join(validate(system)))
    return system

"""The .ens reader's numeral table against the reader it replaced.

Once a text's bulk runs hold enough index tokens, `deserialize` converts
their indices through a table of the numerals of 1..n and sends any run
holding another token to `ascii_ints`.
`reference_deserialize` below is the reader before the table: every bulk
run goes through `ascii_ints` and a min/max range check.  The two must give
the same system and names, or the same FormatError text, on any text.
"""

import os
import subprocess
import sys
from itertools import compress, count, pairwise, repeat
from operator import itemgetter, ne
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import enkit
from enkit import system as system_module
from enkit.eqio import ascii_int, ascii_ints
from enkit.errors import FormatError
from enkit.system import Add, EnSystem, Mul, One, deserialize, validate

SRC = str(Path(enkit.__file__).resolve().parents[1])

# --------------------------------------------------------------------------
# the reference: the reader with no numeral table

_TAGS = {One: "ONE", Add: "ADD", Mul: "MUL"}
_KINDS = {tag: (kind, len(kind._fields)) for kind, tag in _TAGS.items()}
_RUN_KINDS = {tag + " ": kind for kind, tag in _TAGS.items()}
_NAME_RUN = "# na"
_HEAD = itemgetter(slice(0, 4))


def _parse_indices(parts, count, line_no):
    if len(parts) != count:
        raise FormatError(f"line {line_no}: expected {count} indices")
    values = ascii_ints(parts)
    if values is None:
        bad = next(part for part in parts if ascii_int(part) is None)
        raise FormatError(f"line {line_no}: bad index {bad!r}")
    return values


class _ReferenceReader:
    def __init__(self):
        self.n = None
        self.equations = []
        self.names = {}
        self.in_range = True

    def read_chunk(self, lines, line_no):
        heads = list(map(_HEAD, lines))
        bounds = [0, *compress(count(1), map(ne, heads, heads[1:])),
                  len(lines)]
        for start, stop in pairwise(bounds):
            run = lines[start:stop]
            head = heads[start]
            if head in _RUN_KINDS:
                done = self._bulk_equations(run, _RUN_KINDS[head])
            else:
                done = head == _NAME_RUN and self._bulk_names(run)
            if not done:
                self.read_lines(run, line_no + start)

    def _bulk_equations(self, lines, kind):
        width = len(kind._fields) + 1
        tokens = " ".join(lines).split()
        if (self.n is None or len(tokens) != width * len(lines)
                or tokens[::width].count(_TAGS[kind]) != len(lines)):
            return False
        del tokens[::width]
        values = ascii_ints(tokens)
        if values is None:
            return False
        if min(values) < 1 or max(values) > self.n:
            self.in_range = False
        if kind is One:
            self.equations.extend(map(tuple.__new__, repeat(One), zip(values)))
        else:
            self.equations.extend(
                kind.from_columns(values[::3], values[1::3], values[2::3]))
        return True

    def _bulk_names(self, lines):
        tokens = " ".join(lines).split()
        if (len(tokens) != 4 * len(lines)
                or tokens[::4].count("#") != len(lines)
                or tokens[1::4].count("name") != len(lines)):
            return False
        indices = ascii_ints(tokens[2::4])
        if indices is None:
            return False
        names = dict(zip(indices, tokens[3::4]))
        if len(names) != len(lines) or not self.names.keys().isdisjoint(names):
            return False
        self.names.update(names)
        return True

    def read_lines(self, lines, line_no):
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


def reference_deserialize(text, chunk):
    lines = text.splitlines()
    if not lines or lines[0] != "ENSYS 1":
        raise FormatError("missing 'ENSYS 1' header")
    reader = _ReferenceReader()
    for start in range(1, len(lines), chunk):
        reader.read_chunk(lines[start:start + chunk], start + 1)
    n, names = reader.n, reader.names
    if n is None:
        raise FormatError("missing 'n <count>' header")
    system = EnSystem(n, reader.equations, names)
    if not reader.in_range or (names and (min(names) < 1 or max(names) > n)):
        raise FormatError("; ".join(validate(system)))
    return system


# --------------------------------------------------------------------------
# texts

CHUNK = system_module._CHUNK


def outcome(parse, text):
    try:
        parsed = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    return (parsed.n, [(type(eq), tuple(eq)) for eq in parsed.equations],
            list(parsed.names.items()))


def numerals(n):
    """Index tokens for one run: numerals of 1..n only, of 1..n + 1, or
    mixed with ones the table lacks (leading zeros, 0, n + 1, signs,
    underscores, other digits, tokens longer than int() converts)."""
    odd = st.sampled_from(["01", "007", "0", str(n), str(n + 1), "+3",
                           "1_0", "٣", "9" * 5000, "1" + "0" * 4999])
    valid = st.integers(1, max(n, 1)).map(str)
    return st.sampled_from([
        valid, st.integers(1, n + 1).map(str), st.one_of(valid, odd)])


@st.composite
def ens_texts(draw):
    # mostly small n, for which runs are read through the table
    n = draw(st.integers(0, 42))
    n = {41: 10**6, 42: 10**11}.get(n, n)
    blocks = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["ONE", "ADD", "MUL", "name", "other"]))
        index = draw(numerals(n))
        lines = []
        for _ in range(draw(st.integers(1, 8))):
            if kind == "name":
                line = (f"# name {draw(index)} "
                        f"{draw(st.sampled_from(['a', 'x1', 't2']))}")
            elif kind == "other":
                line = draw(st.sampled_from(
                    ["", "# a comment", "FOO 1", f"n {n}", "ADD 1 2",
                     "MUL 1 2 3 4", "ONE\t1"]))
            else:
                width = 1 if kind == "ONE" else 3
                line = " ".join([kind] + [draw(index) for _ in range(width)])
            lines.append(line)
        blocks.append(lines)
    body = [line for lines in blocks for line in lines]
    # The 'n' header first, later (after names or equations), or missing.
    at = draw(st.sampled_from([0, 0, 0, 1, len(body), None]))
    if at is not None:
        body.insert(min(at, len(body)), f"n {n}")
    # Pad so that the drawn lines straddle the first chunk boundary.
    if draw(st.booleans()):
        pad = CHUNK - draw(st.integers(0, 20))
        body = ["# pad"] * pad + body
    return "ENSYS 1\n" + "".join(line + "\n" for line in body)


PER_NUMERAL = system_module._TOKENS_PER_NUMERAL


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ens_texts(), st.sampled_from([1, 2, 3, 5, CHUNK]),
       st.sampled_from([1 / 16, 1, PER_NUMERAL]))
def test_numeral_table_matches_reference_reader(text, chunk, per_numeral):
    # 1/16 token per numeral builds the table at the first bulk run for
    # every n up to 40, and never for n = 10^6 or 10^11.
    with mock.patch.object(system_module, "_CHUNK", chunk), \
            mock.patch.object(system_module, "_TOKENS_PER_NUMERAL",
                              per_numeral):
        got = outcome(deserialize, text)
    assert got == outcome(lambda t: reference_deserialize(t, chunk), text)


def test_runs_across_the_chunk_boundary_match_reference():
    lines = ["# pad"] * (CHUNK - 3)
    lines += [f"ADD {i} {i} {i + 1}" for i in range(1, 7)]
    lines += [f"# name {i} v{i}" for i in range(1, 7)]
    lines += ["MUL 1 2 3", "MUL 01 2 3", "MUL 2 2 4"]
    text = "ENSYS 1\nn 9\n" + "\n".join(lines) + "\n"
    assert len(text.splitlines()) > CHUNK + 1
    parsed = outcome(deserialize, text)
    assert parsed == outcome(lambda t: reference_deserialize(t, CHUNK), text)
    assert parsed[0] == 9 and len(parsed[1]) == 8


def test_table_built_once_bulk_runs_hold_enough_tokens():
    # n = 4 needs 4 * PER_NUMERAL index tokens in bulk runs; padding,
    # comments and line-by-line reads add none.
    reader = system_module._Reader()
    reader.read_chunk(["n 4", "", "# pad", "ADD\t1 2 3"], 2)
    assert reader.tokens_read == 0 and reader.numerals == {}
    below = (4 * PER_NUMERAL - 1) // 3
    reader.read_chunk(["ADD 1 2 3"] * below + [""], 6)
    assert reader.tokens_read == 3 * below < 4 * PER_NUMERAL
    assert reader.numerals == {}
    reader.read_chunk(["MUL 1 2 4"], 7 + below)
    assert reader.numerals == {str(i): i for i in range(1, 5)}
    assert len(reader.equations) == below + 2


def test_huge_n_builds_no_table():
    # Under a 1 GB address space a table of 10^11 numerals cannot be built,
    # so the same results as the reference show that none was.
    huge = 10**11
    texts = [f"ENSYS 1\nn {huge}\nADD 1 1 2\n",
             f"ENSYS 1\nn {huge}\nADD 1 1 {huge + 1}\n"]
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from enkit.errors import FormatError\n"
        "from enkit.system import deserialize\n"
        f"for text in {texts!r}:\n"
        "    try:\n"
        "        s = deserialize(text)\n"
        "        print(s.n, [tuple(eq) for eq in s.equations])\n"
        "    except FormatError as exc:\n"
        "        print('error:', exc)\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    expected = []
    for text in texts:
        try:
            s = reference_deserialize(text, CHUNK)
            expected.append(f"{s.n} {[tuple(eq) for eq in s.equations]}")
        except FormatError as exc:
            expected.append(f"error: {exc}")
    assert result.stdout.splitlines() == expected
    assert expected[1] == (f"error: index {huge + 1} out of range "
                           f"[1, {huge}] in x1 + x1 = x{huge + 1}")

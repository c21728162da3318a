"""The .ens reader's numeral table against the reader it replaced.

At the `n` header of a text of at least four characters per index,
`deserialize` builds a table of the numerals of 1..n.  Its bulk runs convert indices only through
that table, and a run holding any other token, or read before the header,
is read line by line.
`reference_deserialize` below is the reader before the table: every bulk
run goes through `ascii_ints` and a min/max range check.  The two must give
the same system and names, or the same FormatError text, on any text.
"""

import os
import subprocess
import sys
from itertools import compress, count, pairwise
from operator import itemgetter, ne
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import enkit
from enkit import system as system_module
from enkit.eqio import ascii_int, ascii_ints, parse_equation, parse_rep
from enkit.errors import FormatError
from enkit.pipeline import (build_pipeline, build_psi, read_rendered,
                            render_system)
from enkit.reductions import build_reduction
from enkit.system import (Add, EnSystem, Mul, One, deserialize, serialize,
                          validate)

SRC = str(Path(enkit.__file__).resolve().parents[1])

# --------------------------------------------------------------------------
# the reference: the reader with no numeral table

_TAGS = {One: "ONE", Add: "ADD", Mul: "MUL"}
_KINDS = {"ONE": (One, 1), "ADD": (Add, 3), "MUL": (Mul, 3)}
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
        width = 2 if kind is One else 4
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
            self.equations.extend(map(One, values))
        else:
            self.equations.extend(
                map(kind, values[::3], values[1::3], values[2::3]))
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
    # A repeated equation is kept once, at its first line.
    system = EnSystem(n, dict.fromkeys(reader.equations), names)
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
    return (parsed.n, list(parsed.rows),
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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ens_texts(), st.sampled_from([1, 2, 3, 5, CHUNK]))
def test_numeral_table_matches_reference_reader(text, chunk):
    with mock.patch.object(system_module, "_CHUNK", chunk):
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


class _SpyReader(system_module._Reader):
    """The reader, keeping each instance and the runs read line by line."""

    __slots__ = ()
    made = []

    def __init__(self, size):
        super().__init__(size)
        self.made.append((self, []))

    def read_lines(self, lines, line_no):
        self.made[-1][1].append(lines)
        super().read_lines(lines, line_no)


def read_spied(text):
    """outcome(deserialize, text), the reader's numeral table, and the
    runs it read line by line."""
    _SpyReader.made.clear()
    with mock.patch.object(system_module, "_Reader", _SpyReader):
        got = outcome(deserialize, text)
    ((reader, runs),) = _SpyReader.made
    return got, reader.numerals, runs


def table(n):
    return {str(i): i for i in range(1, n + 1)}


def test_table_built_at_header_exactly_when_text_holds_four_chars_per_index():
    for size, n in [(0, 0), (8, 2), (11, 3), (12, 3), (400, 100), (403, 101)]:
        reader = system_module._Reader(size)
        reader.read_lines(["", "# pad", f"n {n}"], 2)
        assert reader.numerals == (table(n) if 4 * n <= size else {})
    # Blank lines count as the characters they are, no more.
    for blanks, built in [(28, False), (29, True)]:
        text = "ENSYS 1\nn 12\n" + "\n" * blanks + "ONE 1\n"
        assert len(text) == 19 + blanks
        assert read_spied(text)[1] == (table(12) if built else {})
    # 32 characters: the table is built for n = 8, not for n = 9.
    for n, built in [(8, True), (9, False)]:
        text = f"ENSYS 1\nn {n}\nADD 1 2 3\nMUL 2 2 4\n"
        got, numerals, runs = read_spied(text)
        assert numerals == (table(n) if built else {})
        assert got == outcome(lambda t: reference_deserialize(t, CHUNK), text)
        equation_runs = [run for run in runs if run[0][:1] in "AM"]
        assert equation_runs == ([] if built
                                 else [["ADD 1 2 3"], ["MUL 2 2 4"]])


def test_runs_holding_other_tokens_are_read_line_by_line():
    lines = ["ADD 1 2 3", "ADD 2 2 4", "MUL 1 1 1",
             "ADD 01 2 3", "ADD 2 3 4",
             "MUL 2 2 4", "MUL 4 4 5",
             "# name 1 a", "# name 2 b", "# name 03 c", "# name 5 d"]
    text = "ENSYS 1\nn 4\n" + "\n".join(lines) + "\n"
    got, numerals, runs = read_spied(text)
    assert numerals == table(4)
    # The header line, then the three runs holding 01, 03 or n + 1.
    assert runs == [["n 4"], lines[3:5], lines[5:7], lines[7:]]
    assert got == outcome(lambda t: reference_deserialize(t, CHUNK), text)
    assert got == ("error", "index 5 out of range [1, 4] in x4 * x4 = x5; "
                   "named index 5 out of range [1, 4]")


# The representations and n bands of the benchmark's fn-pipeline.
FN_REPS = ("x1 - x2", "x1 - x2*x2", "x1 - 2*x2")
FN_BANDS = (("N", (45, 2000, 19000)), ("Z", (300, 2000, 19000)))


def psi_lines(psi, n):
    """The text `read_rendered` hands to `deserialize` for the pair
    `render_system(psi, n)`: the ENSYS and `n s` headers, then psi's
    canonical lines."""
    texts = []
    real = system_module.deserialize

    def spy(text):
        texts.append(text)
        return real(text)

    with mock.patch.object(system_module, "deserialize", spy):
        assert read_rendered(*render_system(psi, n))
    (text,) = texts
    return text


def benchmark_texts():
    """One .ens text of each kind the benchmark's workloads read, as
    (kind, n, text): full families, psi's lines read from fn-system
    outputs at the sizes of its bands, compact chains in 1-3 variables;
    and a compact chain in 5 variables."""
    for source in ("x1 = x2", "x1^2 = 2"):
        for mode in ("full_Z", "halved_Z", "full_N"):
            built = build_reduction(parse_equation(source), mode)[0]
            yield mode, built.n, serialize(built)
    for ring, sizes in FN_BANDS:
        for w in FN_REPS:
            psi = build_psi(parse_rep(f"REP r=2\n{w}\n"), ring)
            for n in sizes:
                yield f"psi {ring}", psi.s, psi_lines(psi, n)
    for source in ("x1^2 - 3*x1 = 4", "x1^2*x2 + 2*x2^2 = x1 + 3",
                   "x1*x2^2*x3 - x3^2 = 2*x1*x2 + 4", "x1*x2*x3*x4*x5 = 1"):
        for mode in ("compact_Z", "compact_N"):
            built = build_reduction(parse_equation(source), mode)[0]
            yield mode, built.n, serialize(built)


def test_table_built_for_every_benchmark_text_kind():
    fewer_lines = []
    for kind, n, text in benchmark_texts():
        got, numerals, runs = read_spied(text)
        assert numerals == table(n), (kind, n)
        assert runs == [["n %d" % n]], (kind, n)
        assert got == outcome(lambda t: reference_deserialize(t, CHUNK), text)
        assert len(text) >= 7.5 * n, (kind, n)
        if len(text.splitlines()) < n:
            fewer_lines.append((kind, n))
    # Psi over Z and the 5-variable chain have fewer lines than variables,
    # yet 7.5 or more characters per index.
    assert list(dict.fromkeys(fewer_lines)) == [
        ("psi Z", 132), ("psi Z", 135), ("psi Z", 134), ("compact_Z", 11),
        ("compact_N", 11)]


def test_whole_fn_system_outputs_read_only_header_and_names_by_line():
    # What the general route of `verify-pin` reads: the table is built,
    # and only the `n` header and the `# name` block go line by line.
    rep = parse_rep("REP r=2\nx1 - x2*x2\n")
    for ring, sizes in FN_BANDS:
        for n in sizes:
            built = build_pipeline(rep, ring, n).system
            text = serialize(built)
            got, numerals, runs = read_spied(text)
            assert numerals == table(n), (ring, n)
            names = [line for line in text.splitlines()
                     if line.startswith("# name ")]
            assert len(names) == n
            assert [line for run in runs for line in run] == [
                "n %d" % n, *names], (ring, n)
            assert got == outcome(
                lambda t: reference_deserialize(t, CHUNK), text)


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
        "        print(s.n, list(s.rows))\n"
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
            expected.append(f"{s.n} {list(s.rows)}")
        except FormatError as exc:
            expected.append(f"error: {exc}")
    assert result.stdout.splitlines() == expected
    assert expected[1] == (f"error: index {huge + 1} out of range "
                           f"[1, {huge}] in x1 + x1 = x{huge + 1}")

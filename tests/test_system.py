import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit import system as system_module
from enkit.errors import DimensionMismatch, FormatError
from enkit.eqio import parse_polynomial
from enkit.oracle import Box, Schedule, check_assignment, check_equivalence
from enkit.reductions import build_full_z
from enkit.system import (ADD, MUL, ONE, Add, EnSystem, Mul, One,
                          canonical_rows, deserialize, serialize, validate)


def test_validate_index_out_of_range():
    problems = validate(EnSystem(2, [Add(1, 2, 3)]))
    assert len(problems) == 1
    assert "3" in problems[0]


def test_validate_names_each_bad_index_once():
    system = EnSystem(3, [One(4), One(0), Mul(0, 5, 0)])
    assert validate(system) == [
        "index 4 out of range [1, 3] in x4 = 1",
        "index 0 out of range [1, 3] in x0 = 1",
        "index 0 out of range [1, 3] in x0 * x5 = x0",
        "index 5 out of range [1, 3] in x0 * x5 = x0",
        "index 0 out of range [1, 3] in x0 * x5 = x0"]


def test_validate_ok():
    assert validate(EnSystem(3, [One(1), Add(1, 1, 2)])) == []
    assert validate(EnSystem(1, [Mul(1, 1, 1)])) == []


def test_constructors_store_commutative_order():
    # the constructors make rows with i <= j
    assert Add(3, 2, 1) == (ADD, 2, 3, 1)
    assert Mul(5, 4, 2) == (MUL, 4, 5, 2)
    assert One(4) == (ONE, 4, 4, 4)
    assert Add(3, 2, 1) == Add(2, 3, 1)
    s = EnSystem(3, [Add(3, 2, 1), Add(2, 3, 1)])
    assert s.equations == s.rows == ((ADD, 2, 3, 1),)


@pytest.mark.parametrize("kind", [Add, Mul])
@pytest.mark.parametrize("flipped", ["no", "some", "all"])
def test_from_columns_matches_constructor(kind, flipped):
    # `canonical_rows`, which took over from `from_columns`, makes in bulk
    # the rows of the equations the constructor makes one at a time.
    rng = random.Random(f"{kind.__name__} {flipped}")
    size = 200
    rows = [sorted(rng.sample(range(1, 50), 2)) + [rng.randint(1, 50)]
            for _ in range(size)]
    flip = {"no": [], "all": range(size),
            "some": rng.sample(range(size), size // 3)}[flipped]
    for t in flip:
        rows[t][0], rows[t][1] = rows[t][1], rows[t][0]
    i, j, k = (list(column) for column in zip(*rows))
    columns = (i[:], j[:], k[:])
    made = list(canonical_rows(ADD if kind is Add else MUL, i, j, k))
    assert made == [kind(a, b, c) for a, b, c in rows]
    assert (i, j, k) == columns


def test_full_family_round_trip():
    # The 67,435 equations of full_Z x1 - x2 are built, written, read,
    # scheduled and checked.
    d = parse_polynomial("x1 - x2")
    built, cert = build_full_z(d)
    system = deserialize(serialize(built))
    assert len(system) == len(built) == 67435
    assert Schedule.derive(system, 2).complete
    report = check_equivalence(d, system, cert, Box.cube(2, 2))
    assert report.passed and report.base_points == 25


def test_kind_is_part_of_identity():
    assert Add(1, 1, 2) != Mul(1, 1, 2)
    assert not Add(1, 1, 2) == Mul(1, 1, 2)
    s = EnSystem(2, [One(1), Add(1, 1, 2), Mul(1, 1, 2), Add(1, 1, 2)])
    assert tuple(s.equations) == (One(1), Add(1, 1, 2), Mul(1, 1, 2))
    text = serialize(s)
    assert text == "ENSYS 1\nn 2\nONE 1\nADD 1 1 2\nMUL 1 1 2\n"
    assert deserialize(text).rows == s.rows


def test_check_assignment_examples():
    s = EnSystem(1, [One(1)])
    assert check_assignment(s, [0, 1], "Z").satisfied

    s = EnSystem(1, [Add(1, 1, 1)])
    assert check_assignment(s, [0, 0], "Z").satisfied
    result = check_assignment(s, [0, 2], "Z")
    assert result.status == "violated"
    assert result.equation == Add(1, 1, 1)

    s = EnSystem(2, [Mul(1, 1, 2)])
    assert check_assignment(s, [0, 3, 9], "N").satisfied


def test_check_assignment_incomplete_and_domain():
    s = EnSystem(2, [Add(1, 1, 2)])
    result = check_assignment(s, [0, 2, None], "Z")
    assert result.status == "incomplete"
    assert result.missing == (2,)

    result = check_assignment(s, [0, -1, -2], "N")
    assert result.status == "violated"
    assert result.negatives == (1, 2)
    assert check_assignment(s, [0, -1, -2], "Z").satisfied


def test_check_assignment_monotone():
    # a violation visible in a partial assignment survives any extension
    s = EnSystem(3, [Add(1, 1, 2), Mul(1, 2, 3)])
    partial = check_assignment(s, [0, 2, 5, None], "Z")
    assert partial.status == "violated"
    assert partial.equation == Add(1, 1, 2)
    total = check_assignment(s, [0, 2, 5, 10], "Z")
    assert total.status == "violated"
    assert total.equation == Add(1, 1, 2)


def _check_by_each_equation(system, row, domain):
    """Reference for check_assignment: each equation evaluated on its own
    once all of its variables are known."""
    known = range(1, system.n + 1)
    negatives = tuple(i for i in known
                      if row[i] is not None and row[i] < 0)
    if domain == "N" and negatives:
        return ("violated", None, (), negatives)
    for eq in system.rows:
        kind, i, j, k = eq
        if any(row[index] is None for index in (i, j, k)):
            continue
        if kind == ONE:
            holds = row[i] == 1
        elif kind == ADD:
            holds = row[i] + row[j] == row[k]
        else:
            holds = row[i] * row[j] == row[k]
        if not holds:
            return ("violated", eq, (), ())
    missing = tuple(i for i in known if row[i] is None)
    if missing:
        return ("incomplete", None, missing, ())
    return ("satisfied", None, (), ())


@st.composite
def _systems_and_rows(draw):
    """A system of up to 6 variables, a row for it with unknown entries
    (None), and a domain; index 0 holds anything, since it is ignored."""
    n = draw(st.integers(0, 6))
    index = st.integers(1, max(n, 1))
    equation = st.one_of(st.builds(One, index),
                         st.builds(Add, index, index, index),
                         st.builds(Mul, index, index, index))
    equations = draw(st.lists(equation, max_size=3 * n))
    value = st.one_of(st.none(), st.integers(-2, 4))
    row = [draw(value) for _ in range(n + 1)]
    return EnSystem(n, equations), row, draw(st.sampled_from(["Z", "N"]))


@settings(max_examples=500, deadline=None)
@given(_systems_and_rows())
def test_check_assignment_matches_each_equation_checked_alone(case):
    system, row, domain = case
    result = check_assignment(system, row, domain)
    assert (result.status, result.equation, result.missing,
            result.negatives) == _check_by_each_equation(system, row, domain)
    for wrong in (row + [0], row[:-1]):
        with pytest.raises(DimensionMismatch):
            check_assignment(system, wrong, domain)


def test_serialize_golden():
    assert serialize(EnSystem(1, [One(1)])) == "ENSYS 1\nn 1\nONE 1\n"


def test_serialize_sorted_sections():
    s = EnSystem(4, [Mul(1, 2, 3), One(2), Add(2, 3, 4), Add(1, 1, 2), One(1)])
    assert serialize(s) == (
        "ENSYS 1\nn 4\n"
        "ONE 1\nONE 2\n"
        "ADD 1 1 2\nADD 2 3 4\n"
        "MUL 1 2 3\n")


def test_serialize_names():
    s = EnSystem(2, [Add(1, 1, 2)], names={2: "w", 1: "t1"})
    text = serialize(s)
    assert "# name 1 t1\n# name 2 w\n" in text
    assert deserialize(text).names == {1: "t1", 2: "w"}


def test_deserialize_errors():
    with pytest.raises(FormatError):
        deserialize("n 3\nADD 1 2 3\n")  # missing version header
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nADD 1 2 9\n")  # index out of range
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nn 3\n")  # duplicate header
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nADD 1 2 3\nn 3\n")  # equation before n
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nSUB 1 2 3\n")


def random_system(rng):
    n = rng.randint(1, 9)
    equations = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["one", "add", "mul"])
        if kind == "one":
            equations.append(One(rng.randint(1, n)))
        elif kind == "add":
            equations.append(Add(*(rng.randint(1, n) for _ in range(3))))
        else:
            equations.append(Mul(*(rng.randint(1, n) for _ in range(3))))
    names = {}
    if rng.random() < 0.5:
        names[rng.randint(1, n)] = rng.choice(["w", "y", "t1", "z2"])
    return EnSystem(n, equations, names)


def test_roundtrip_random_systems():
    rng = random.Random(20260808)
    for _ in range(300):
        s = random_system(rng)
        text = serialize(s)
        back = deserialize(text)
        assert back == s
        assert serialize(back) == text


# --------------------------------------------------------------------------
# .ens parser: bulk runs, chunk boundaries, per-line errors

CHUNK = system_module._CHUNK
# line numbers: inside the first chunk, first line of the second chunk,
# inside the second chunk
POSITIONS = [5, CHUNK + 2, CHUNK + 50]


def ens(body_before, bad, body_after, *, header="ENSYS 1\nn 5\n"):
    return header + "".join(body_before) + bad + "\n" + "".join(body_after)


def equations_until(line_no):
    """Filler after the two header lines, so the next is line line_no."""
    return ["ADD 1 2 3\n"] * (line_no - 3)


def names_until(line_no):
    """Filler after the one header line, so the next is line line_no; it
    names indices from 10 up, each once."""
    return [f"# name {index} x\n" for index in range(10, 8 + line_no)]


MALFORMED = [
    # (bad line, message at line `at`)
    ("n 5", "line {at}: duplicate 'n' header"),
    ("ADD 1 2", "line {at}: expected 3 indices"),
    ("MUL 1 2 3 4", "line {at}: expected 3 indices"),
    ("ONE", "line {at}: expected 1 indices"),
    ("ADD 1 x 3", "line {at}: bad index 'x'"),
    ("ADD -1 2 3", "line {at}: bad index '-1'"),
    ("ADD 1 2 ³", "line {at}: bad index '³'"),
    ("ADD 1 2 ٣", "line {at}: bad index '٣'"),
    ("ONE 1.0", "line {at}: bad index '1.0'"),
    ("SUB 1 2 3", "line {at}: unknown directive 'SUB'"),
    ("  # name 1 x", "line {at}: unknown directive '#'"),
    ("# name x y", "line {at}: bad name line"),
    ("# name 1", "line {at}: bad name line"),
    ("# name 1 a b", "line {at}: bad name line"),
    ("# name ² x", "line {at}: bad name line"),
]


@pytest.mark.parametrize("at", POSITIONS)
@pytest.mark.parametrize("bad, message", MALFORMED)
def test_malformed_line_message(bad, message, at):
    after = ["ADD 1 2 3\n", "SUB 9\n"]  # a later error must not win
    text = ens(equations_until(at), bad, after)
    with pytest.raises(FormatError) as err:
        deserialize(text)
    assert str(err.value) == message.format(at=at)


@pytest.mark.parametrize("at", POSITIONS)
def test_equation_before_n(at):
    text = ens(names_until(at), "ADD 1 2 3", ["n 5\n"], header="ENSYS 1\n")
    with pytest.raises(FormatError) as err:
        deserialize(text)
    assert str(err.value) == f"line {at}: equation before 'n' header"


@pytest.mark.parametrize("at", POSITIONS)
def test_missing_n(at):
    text = ens(names_until(at), "# name 2 y", [], header="ENSYS 1\n")
    with pytest.raises(FormatError) as err:
        deserialize(text)
    assert str(err.value) == "missing 'n <count>' header"


@pytest.mark.parametrize("at", POSITIONS)
def test_name_given_twice(at):
    # Index 10 is named on line 2, in the first chunk; the bulk reader and
    # the line-by-line reader refuse the second name at the same line.
    text = ens(names_until(at), "# name 10 y", ["n 5000\n"],
               header="ENSYS 1\n")
    message = f"line {at}: duplicate name of index 10"
    with pytest.raises(FormatError, match=f"^{message}$"):
        deserialize(text)
    with pytest.raises(FormatError, match=f"^{message}$"):
        per_line(text)


@pytest.mark.parametrize("text", ["", "\n", "n 3\nADD 1 2 3\n", "ENSYS 2\nn 1\n",
                                  " ENSYS 1\nn 1\n"])
def test_missing_header(text):
    with pytest.raises(FormatError) as err:
        deserialize(text)
    assert str(err.value) == "missing 'ENSYS 1' header"


@pytest.mark.parametrize("at", POSITIONS)
def test_out_of_range_joined_after_format_errors(at):
    before = equations_until(at)
    before[1] = "MUL 0 4 2\n"
    after = ["ADD 7 1 2\n", "# name 6 w\n", "ONE 5\n"]
    text = ens(before, "ADD 9 2 1", after)
    with pytest.raises(FormatError) as err:
        deserialize(text)
    assert str(err.value) == (
        "index 0 out of range [1, 5] in x0 * x4 = x2; "
        "index 9 out of range [1, 5] in x2 + x9 = x1; "
        "index 7 out of range [1, 5] in x1 + x7 = x2; "
        "named index 6 out of range [1, 5]")
    # a format error anywhere wins over range problems
    with pytest.raises(FormatError) as err:
        deserialize(text + "ADD 1 2\n")
    assert str(err.value).endswith("expected 3 indices")


def test_index_longer_than_int_converts():
    with pytest.raises(FormatError):
        deserialize("ENSYS 1\nn 3\nADD 1 2 " + "9" * 5000 + "\n")


def per_line(text):
    """The parse of text with every line read on the line-by-line path."""
    lines = text.splitlines()
    reader = system_module._Reader(len(text))
    reader.read_lines(lines[1:], 2)
    return reader


WHITESPACE_VARIANTS = [
    "ADD\t1\t2\t3",
    "ADD  1 2  3",
    "ADD 1 2 3   ",
    "ADD 1 2 3\t",
    "MUL 2 1 3",
    "ONE 4",
    "ONE\t4",
    "",
    "   ",
    "# a comment",
    "#name 1 q",
    "# name\t2 w",
    "#  name 3 v",
    "# nah, a comment",
    "ADD 01 2 003",
]


@pytest.mark.parametrize("variant", WHITESPACE_VARIANTS)
@pytest.mark.parametrize("at", POSITIONS)
def test_whitespace_and_order_variants_match_per_line(variant, at):
    before = equations_until(at)
    before[0] = "ONE 1\n"
    after = [line for index in (1, 4, 5) for line in (
        "MUL 1 1 1\n", "ADD 2 2 4\n", f"# name {index} t4\n", "ONE 2\n")]
    text = ens(before, variant, after, header="ENSYS 1\r\nn 5\r\n")
    parsed = deserialize(text)
    reference = per_line(text)
    assert parsed.n == reference.n == 5
    assert parsed.rows == tuple(dict.fromkeys(reference.rows))
    assert list(parsed.names.items()) == list(reference.names.items())


def test_interleaved_kinds_keep_file_order():
    lines = ["ADD 2 1 3", "MUL 1 1 1", "ONE 2", "ADD 1 1 2", "MUL 3 2 1",
             "ONE 1", "ADD 1 1 2"] * 700
    text = "ENSYS 1\nn 3\n" + "\n".join(lines) + "\n"
    parsed = deserialize(text)
    assert parsed.rows == (
        (ADD, 1, 2, 3), (MUL, 1, 1, 1), (ONE, 2, 2, 2), (ADD, 1, 1, 2),
        (MUL, 2, 3, 1), (ONE, 1, 1, 1))
    assert parsed.rows == tuple(dict.fromkeys(per_line(text).rows))


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        deserialize("ENSYS 1\nn 2\nADD 1 1 2\n")
        assert gc.isenabled() is enabled
        with pytest.raises(FormatError):
            deserialize("ENSYS 1\nn 2\nADD 1 1\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@st.composite
def systems(draw):
    n = draw(st.integers(1, 30))
    index = st.integers(1, n)
    equation = st.one_of(
        st.builds(One, index),
        st.builds(Add, index, index, index),
        st.builds(Mul, index, index, index))
    equations = draw(st.lists(equation, max_size=60))
    labels = st.text(st.characters(exclude_categories=("Cs", "Z", "Cc")),
                     min_size=1, max_size=4).filter(lambda s: s.split() == [s])
    names = draw(st.dictionaries(index, labels, max_size=5))
    return EnSystem(n, equations, names)


@settings(max_examples=200, deadline=None)
@given(systems(), st.sampled_from([1, 2, 3, 5, CHUNK]))
def test_roundtrip_keeps_kinds_order_and_names(s, chunk):
    text = serialize(s)
    with mock.patch.object(system_module, "_CHUNK", chunk):
        back = deserialize(text)
    assert back.n == s.n
    assert list(back.rows) == sorted(s.rows)
    assert list(back.names.items()) == sorted(s.names.items())
    assert serialize(back) == text


def test_serialize_rejects_labels_with_whitespace():
    for label in ["", "a b", "a\tb", "x\n", " "]:
        with pytest.raises(FormatError) as err:
            serialize(EnSystem(1, [], {1: label}))
        assert str(err.value) == f"bad label {label!r} for index 1"


@pytest.mark.parametrize("n, row, message", [
    # n < 3 * len(rows): the numeral table is of 1..n
    (2, (ADD, 1, 2, 3), "index 3 out of range [1, 2] in x1 + x2 = x3"),
    (1, (ONE, 2, 2, 2), "index 2 out of range [1, 1] in x2 = 1"),
    (2, (ADD, 0, 1, 2), "index 0 out of range [1, 2] in x0 + x1 = x2"),
    (1, (ONE, 0, 0, 0), "index 0 out of range [1, 1] in x0 = 1"),
    # otherwise it is of the indices in [1, n] the rows hold
    (9, (MUL, -1, 1, 2), "index -1 out of range [1, 9] in x-1 * x1 = x2"),
    (9, (MUL, 0, 1, 2), "index 0 out of range [1, 9] in x0 * x1 = x2"),
], ids=["range-above", "range-one", "range-zero", "range-one-zero",
        "held-negative", "held-zero"])
def test_serialize_refuses_an_index_outside_the_system(n, row, message):
    with pytest.raises(FormatError) as err:
        serialize(EnSystem(n, [row]))
    assert str(err.value) == message

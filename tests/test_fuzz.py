"""Fuzz the text readers: each either returns or raises an input error.

`cli.main` turns EnkitError and ValueError into exit code 2 with a one-line
message; any other exception would reach the user as a traceback.  The
texts are drawn from each format's own tokens, together with the tokens
that `int` or `str.isdigit` would wrongly take (`+3`, `1_0`, `²`, `٣`),
parentheses nested past the limit, tabs, CRLF line ends and truncated
lines.  `test_fuzz_cli` runs the CLI itself on edited input files with
random flag values: every run ends in an exit code from 0 to 3.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enkit import cli
from enkit.eqio import (MAX_NESTING, parse_equation, parse_polynomial,
                        parse_rep)
from enkit.errors import EnkitError
from enkit.pipeline import build_pipeline, parse_layout, serialize_layout
from enkit.reductions import (build_compact_n, build_compact_z,
                              parse_certificate, serialize_certificate)
from enkit.system import Add, EnSystem, Mul, One, deserialize, serialize

DEEP = MAX_NESTING + 1
ODD = ["+", "-", "_", "+3", "-1", "1_0", "0_5", "²", "٣",
       "x١", "\t", "", "007", "99999999999999", "(" * DEEP,
       ")" * DEEP, "(" * 10_000, "#"]
POLY_TOKENS = ["x1", "x2", "x3", "x12", "x", "x0", "x1001", "0", "1", "2",
               "+", "-", "*", "^", "(", ")", "2*x1", "x1^2", "(x1", "x2)"]
INTS = ["0", "1", "2", "3", "4", "5", "12"]
SEPARATORS = st.sampled_from([" ", "\t", "  "])
# Integer fields: well formed, or what `int` or `str.isdigit` would take.
INT_TEXT = st.sampled_from([*INTS, "+3", "-1", "0_5", "1_0", "²", "٣", "١٢",
                            "99999999999999", "", " 3"])
# A polynomial in parentheses nested up to well past the limit.
NESTED = st.builds(lambda depth, inner: "(" * depth + inner + ")" * depth,
                   st.integers(0, 3 * MAX_NESTING) | st.just(10_000),
                   st.sampled_from(["x1", "x1 - x2", "2"]))


@st.composite
def soup(draw, tokens, max_size=30):
    """Tokens joined by whitespace, so no two digit runs merge."""
    words = draw(st.lists(st.sampled_from(tokens), max_size=max_size))
    out = ""
    for word in words:
        out += draw(SEPARATORS) + word
    return out


@st.composite
def mutated(draw, samples, tokens, line):
    """A sample text with a few lines edited, truncated, deleted,
    duplicated, replaced or inserted (new lines drawn from `line`), and
    its line ends rewritten."""
    lines = draw(st.sampled_from(samples)).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        # Counted from either end, so that the body lines are edited about
        # as often as the header.
        t = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            t = len(lines) - t
        op = draw(st.sampled_from(
            ["token", "truncate", "delete", "duplicate", "replace", "insert"]))
        if op == "insert" or t == len(lines):
            lines.insert(t, draw(line))
        elif op == "replace":
            lines[t] = draw(line)
        elif op == "token":
            parts = lines[t].split(" ")
            k = draw(st.integers(0, len(parts) - 1))
            parts[k] = draw(st.one_of(st.sampled_from(tokens),
                                      st.sampled_from(ODD)))
            lines[t] = draw(SEPARATORS).join(parts)
        elif op == "truncate":
            # at any character, or just after a field separator
            cuts = [i + 1 for i, ch in enumerate(lines[t]) if ch == " "]
            lines[t] = lines[t][:draw(st.one_of(
                st.integers(0, len(lines[t])), st.sampled_from(cuts or [0])))]
        elif op == "delete":
            del lines[t]
        else:
            lines.insert(t, lines[t])
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    if draw(st.booleans()):
        text += "\n"
    return text


def lines_of(heads, tokens, max_size=6):
    """One line: a head, then a few tokens (format tokens or ODD ones)."""
    return st.builds(str.__add__, st.sampled_from(heads),
                     soup([*tokens, *ODD], max_size=max_size))


def accepted(parse, text) -> bool:
    """Whether the reader returns; an input error means False, any other
    exception fails the test."""
    try:
        parse(text)
    except (EnkitError, ValueError):
        return False
    return True


def ascii_outside(text, skip) -> bool:
    """Every line not starting with one of `skip` is ASCII."""
    return all(line.isascii() for line in text.splitlines()
               if not line.lstrip().startswith(skip))


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

EQUATIONS = ["x1 = x2", "2*x1^2*x2 - 3*x2 + 7 = (x1 + 1)^2",
             "-(x1 - x2)*x3 = 0"]
REPS = ["REP r=2\nx1 - x2\n", "# square\nREP r=3\nx1 - x2^2*x3 + 1\n"]
CERTS = [serialize_certificate(build(parse_polynomial(text))[1])
         for build, text in ((build_compact_z, "x1^2 - 2*x2 + 3"),
                             (build_compact_n, "x1 - x2^2"))]
LAYOUTS = [serialize_layout(build_pipeline(parse_rep(REPS[0]), "N", 12))]
SYSTEMS = [serialize(EnSystem(4, [One(1), Add(1, 1, 2), Mul(2, 2, 3),
                                  Add(2, 3, 4)], names={1: "x1", 4: "y"})),
           serialize(EnSystem(2, [One(1), One(2)]))]
POLY_TEXT = soup([*POLY_TOKENS, *ODD], max_size=12) | NESTED


@FUZZ
@given(soup([*POLY_TOKENS, "=", *ODD])
       | st.builds("{} = {}".format, POLY_TEXT, POLY_TEXT)
       | mutated(EQUATIONS, POLY_TOKENS, POLY_TEXT))
def test_fuzz_parse_equation(text):
    if accepted(parse_equation, text):
        assert text.isascii()


@FUZZ
@given(mutated(REPS, [*POLY_TOKENS, "REP", "r=2", "r="],
               lines_of(["REP r=", "REP", "", "#"],
                        [*POLY_TOKENS, "2", "3", "="], 12))
       | st.builds("REP r={}\n{}\n".format, INT_TEXT, POLY_TEXT))
def test_fuzz_parse_rep(text):
    if accepted(parse_rep, text):
        assert ascii_outside(text, "#")


@FUZZ
@given(mutated(CERTS, [*POLY_TOKENS, "CERT", "mode", "p", "n", "ANCHOR", "q",
                       "N", *INTS],
               lines_of(["3", "5", "p", "n", "mode", "ANCHOR", "ANCHOR q",
                         "ANCHOR N", ""], [*POLY_TOKENS, "q", "N", *INTS],
                        12))
       | st.builds("CERT 1\nmode compact_Z\np {}\nn {}\n{} {}\nANCHOR {}\n"
                   .format, INT_TEXT, INT_TEXT, INT_TEXT, POLY_TEXT,
                   soup(["q", "N", *INTS, *ODD], max_size=4)))
def test_fuzz_parse_certificate(text):
    if accepted(parse_certificate, text):
        assert ascii_outside(text, "mode")


@FUZZ
@given(mutated(LAYOUTS, ["LAYOUT", "n", "s", "mode", "Z", "N", "x1", "z1",
                         "w", *INTS],
               lines_of(["n", "s", "mode", "1", "12", ""],
                        ["Z", "N", "x1", "z1", *INTS]))
       | st.builds("LAYOUT 1\nn {}\ns {}\nmode N\n{} x1\n".format,
                   INT_TEXT, INT_TEXT, INT_TEXT))
def test_fuzz_parse_layout(text):
    accepted(parse_layout, text)


@FUZZ
@given(mutated(SYSTEMS, ["ENSYS", "n", "ONE", "ADD", "MUL", "name", *INTS],
               lines_of(["ONE", "ADD", "MUL", "n", "# name", "#", ""],
                        ["name", "y", *INTS]))
       | st.builds("ENSYS 1\nn {}\n{} {} {} {}\n# name {} y\n".format,
                   INT_TEXT, st.sampled_from(["ONE", "ADD", "MUL"]),
                   INT_TEXT, INT_TEXT, INT_TEXT, INT_TEXT))
def test_fuzz_deserialize(text):
    accepted(deserialize, text)


@pytest.mark.parametrize("parse, text", [
    (parse_equation, "(" * 10_000 + "x1" + ")" * 10_000 + " = 1"),
    (parse_rep, "REP r=٢\nx1 - x2\n"),
    (parse_certificate, CERTS[0].rsplit("ANCHOR", 1)[0] + "ANCHOR \n"),
    (parse_layout, LAYOUTS[0].replace("n 12", "n 1_2")),
    (deserialize, SYSTEMS[0].replace("n 4", "n ٤")),
])
def test_known_bad_texts_are_input_errors(parse, text):
    with pytest.raises(EnkitError):
        parse(text)


# --------------------------------------------------------------------------
# the command line

def _cli_inputs():
    """A small fn-system and a compact reduction, as file texts."""
    asm = build_pipeline(parse_rep(REPS[0]), "N", 12)
    system, cert = build_compact_z(parse_polynomial("x1 - x2"))
    return {"sys.ens": serialize(asm.system),
            "sys.cert": serialize_certificate(asm.certificate),
            "sys.layout": serialize_layout(asm),
            "cz.ens": serialize(system),
            "cz.cert": serialize_certificate(cert)}


CLI_INPUTS = _cli_inputs()
COMMANDS = [
    ["solve", "--system", "cz.ens", "--ring", "z"],
    ["solve", "--system", "sys.ens", "--ring", "n"],
    ["verify-equiv", "--equation", "x1 = x2", "--system", "cz.ens",
     "--cert", "cz.cert", "--ring", "z", "--box=-1..1"],
    ["verify-pin", "--system", "sys.ens", "--cert", "sys.cert", "--layout",
     "sys.layout", "--expected", "12", "--ring", "n", "--witness", "12,12"],
    ["verify-pin", "--system", "sys.ens", "--expected", "12", "--ring", "n"],
]
# Integers up to 10^11, where a declared size would exhaust memory.
BIG_INT = st.integers(0, 10**11).map(str)


def _small_or_invalid(text: str) -> bool:
    """A budget the CLI refuses, or one short enough for a fuzz run."""
    whole, _, fraction = text.partition(".")
    valid = whole.isascii() and whole.isdigit() and (
        not fraction or fraction.isascii() and fraction.isdigit())
    return not valid or float(text) <= 0.05


# flag -> values: random integers and floats, the time budget kept short
# whenever the CLI would accept it.
FLAG_VALUES = {
    "--cap": st.integers(-3, 5000) | st.floats().map(repr),
    "--radius": st.integers(-3, 6) | st.just(10**11) | st.floats().map(repr),
    "--point-limit": st.integers(-3, 10**5) | st.just(10**11),
    "--time-budget": (st.floats(allow_nan=True, allow_infinity=True)
                      .map(repr).filter(_small_or_invalid)),
}
PIN_FLAG_VALUES = {**FLAG_VALUES,
                   "--expected": st.integers(-10**11, 10**11)}


@st.composite
def cli_case(draw):
    """A command, its input files with one of them edited, and flags.

    The edits: tokens swapped between lines, lines dropped or duplicated,
    and integers up to 10^11 put in place of any token (`n`, `s`, `p`,
    indices)."""
    command = draw(st.sampled_from(COMMANDS))
    files = dict(CLI_INPUTS)
    name = draw(st.sampled_from([arg for arg in command if arg in files]))
    lines = files[name].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        t = draw(st.sampled_from(range(len(lines))))
        if draw(st.booleans()):  # the header as often as the body
            t = min(t, 4)
        op = draw(st.sampled_from(["swap", "drop", "duplicate", "integer"]))
        if op == "drop":
            del lines[t]
        elif op == "duplicate":
            lines.insert(t, lines[t])
        else:
            parts = lines[t].split(" ")
            k = draw(st.sampled_from(range(len(parts))))
            if op == "integer":
                parts[k] = draw(BIG_INT)
            else:
                other = draw(st.sampled_from(range(len(lines))))
                donor = lines[other].split(" ")
                m = draw(st.sampled_from(range(len(donor))))
                parts[k], donor[m] = donor[m], parts[k]
                lines[other] = " ".join(donor)
            lines[t] = " ".join(parts)
    files[name] = "".join(line + "\n" for line in lines)
    # A short budget and a small cap first; a flag drawn after them
    # overrides either.
    flags = ["--time-budget", draw(st.sampled_from(["0.02", "0"])),
             "--cap", str(draw(st.integers(-3, 5000)))]
    values = PIN_FLAG_VALUES if command[0] == "verify-pin" else FLAG_VALUES
    for flag in draw(st.lists(st.sampled_from(sorted(values)), max_size=2,
                              unique=True)):
        flags.append(f"{flag}={draw(values[flag])}")
    return command + flags, files


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_case())
def test_fuzz_cli(tmp_path_factory, case):
    argv, files = case
    work = tmp_path_factory.getbasetemp() / "fuzz-cli"
    work.mkdir(exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="ascii")
    argv = [str(work / arg) if arg in files else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:  # argparse refusing a flag value
            code = exit_.code
    assert code in (0, 1, 2, 3), out.getvalue()

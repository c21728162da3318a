import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit.eqio import (MAX_NESTING, MAX_VARIABLE, ascii_int, ascii_ints,
                        format_polynomial, format_rep, parse_canonical,
                        parse_equation, parse_polynomial, parse_rep)
from enkit.errors import FormatError, ParseError
from enkit.poly import Polynomial

from test_poly import polynomials


def test_parse_difference():
    assert parse_polynomial("x1 - x2") == Polynomial(2, {(1, 0): 1, (0, 1): -1})


def test_parse_three_terms():
    got = parse_polynomial("2*x1^2*x2 - 3*x2 + 7")
    assert got == Polynomial(2, {(2, 1): 2, (0, 1): -3, (0, 0): 7})


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + + x2")
    assert err.value.position == 5


def test_parse_rejects_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("x1 x2")
    with pytest.raises(ParseError):
        parse_polynomial("x1 *")


def test_parse_rejects_bad_variables():
    with pytest.raises(ParseError):
        parse_polynomial("x0")
    with pytest.raises(ParseError):
        parse_polynomial("x")
    with pytest.raises(ParseError):
        parse_polynomial("x3", arity=2)


def test_parse_rejects_variable_past_bound():
    assert MAX_VARIABLE == 1000
    assert parse_polynomial("x1000").arity == 1000
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + x1001")
    assert err.value.position == 5
    assert "exceeds 1000" in str(err.value)
    for text in ("x100000000000 = 1", "2-x101717171702="):
        with pytest.raises(ParseError) as err:
            parse_equation(text)
        assert "exceeds 1000" in str(err.value)


def test_parse_rejects_huge_declared_arity():
    assert parse_polynomial("x1", arity=MAX_VARIABLE).arity == MAX_VARIABLE
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1", arity=10**11)
    assert "declared arity 100000000000 exceeds 1000" in str(err.value)


def nested(depth: int, inner: str = "x1") -> str:
    return "(" * depth + inner + ")" * depth


def test_parentheses_nest_up_to_the_limit():
    assert MAX_NESTING == 100
    assert parse_polynomial(nested(MAX_NESTING)) == parse_polynomial("x1")
    with pytest.raises(ParseError) as err:
        parse_polynomial(nested(MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING
    assert "nested deeper than 100" in str(err.value)


@pytest.mark.parametrize("depth", [300, 10_000])
def test_deep_parentheses_are_a_parse_error(depth):
    for parse in (parse_polynomial, parse_equation):
        with pytest.raises(ParseError) as err:
            parse(nested(depth) + " = 1")
        assert err.value.position == MAX_NESTING
    with pytest.raises(ParseError) as err:
        parse_rep(f"REP r=2\n{nested(depth, 'x1 - x2')}\n")
    assert err.value.position == MAX_NESTING
    # Nesting counts open parentheses, not their total.
    flat = " + ".join(["(x1)"] * depth)
    assert parse_polynomial(flat) == parse_polynomial(f"{depth}*x1")


def test_ascii_ints():
    assert ascii_ints(["0", "12", "007"]) == [0, 12, 7]
    assert ascii_int("42") == 42
    for bad in ("", "+3", "-3", "0_5", " 3", "3 ", "\u0663", "\u00b2",
                "1" * 5000):
        assert ascii_int(bad) is None, bad
        assert ascii_ints(["1", bad]) is None, bad


@pytest.mark.parametrize("text, offset, token", [
    ("x\u0661 = \u0663", 0, "'x\u0661'"),
    ("x1 = \u0663", 5, "'\u0663'"),
    ("x1 = 1\u0663", 5, "'1\u0663'"),
    ("x1^\u0662 = 1", 3, "'\u0662'"),
    ("x1\u00b2 = 1", 0, "'x1\u00b2'"),
])
def test_non_ascii_digits_are_a_parse_error(text, offset, token):
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert err.value.position == offset
    assert token in str(err.value)


def test_parse_reports_syntax_before_declared_arity():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x5 +", arity=2)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_equation("x5 = x1", arity=2)
    assert str(err.value) == "variable x5 exceeds declared arity 2"


def test_parse_rejects_huge_exponent():
    with pytest.raises(ParseError):
        parse_polynomial("x1^2147483648")
    assert parse_polynomial("x1^2") == Polynomial(1, {(2,): 1})


def test_parse_parentheses_and_signs():
    assert parse_polynomial("-(x1 - 2)*x1") == \
        Polynomial(1, {(2,): -1, (1,): 2})
    assert parse_polynomial("-3") == Polynomial.constant(0, -3)
    assert parse_polynomial("+x1") == Polynomial.variable(1, 1)


def test_variable_gaps_allowed():
    p = parse_polynomial("x3 - 1")
    assert p.arity == 3
    assert p.degree_in(2) == 0


def test_parse_equation():
    assert parse_equation("x1 = x2") == Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert parse_equation("x1*x1 = x2") == Polynomial(
        2, {(2, 0): 1, (0, 1): -1})


def test_parse_equation_missing_equals():
    with pytest.raises(ParseError) as err:
        parse_equation("x1")
    assert "equals" in str(err.value)


def test_format_zero():
    assert format_polynomial(Polynomial.zero(2)) == "0"


def test_format_difference():
    p = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert format_polynomial(p) == "x1 - x2"


def test_format_unit_coefficients_and_exponents():
    p = Polynomial(2, {(2, 1): 2, (0, 1): -1, (0, 0): -7})
    assert format_polynomial(p) == "2*x1^2*x2 - x2 - 7"
    assert format_polynomial(Polynomial(1, {(1,): -1})) == "-x1"


@settings(max_examples=150)
@given(polynomials(max_arity=4, max_exp=5, max_coeff=10**6))
def test_roundtrip(poly):
    text = format_polynomial(poly)
    assert parse_polynomial(text, arity=poly.arity) == poly


def test_whitespace_insensitive():
    assert parse_polynomial("  2*x1   -3 ") == parse_polynomial("2*x1 - 3")


# -- the canonical reader ---------------------------------------------------

def read_canonical_first(text, arity):
    """How parse_certificate reads a definition: the canonical reader,
    then parse_polynomial for whatever it leaves."""
    poly = parse_canonical(text, arity)
    return parse_polynomial(text, arity=arity) if poly is None else poly


def outcome(read, text, arity):
    try:
        poly = read(text, arity)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return poly.arity, poly.terms


# Edits that make canonical text non-canonical, or canonical text the
# parser refuses: (old, new) applied at one occurrence of old.
EDITS = [("x1", "x0"), ("x1", "x11"), ("x2", "x2^0"), ("x2", "x2^1"),
         ("x", "1*x"), ("x", "0*x"), ("x", "-0*x"), ("x", "2*3*x"),
         ("1", "01"), ("2", "02"), ("^2", "^2147483648"), ("^", "^+"),
         ("^2", "^-2"), ("x3", "x3*x1"), ("x3", "x3*x3"), (" ", "  "),
         (" - ", " + -"), (" + ", " - -"), ("-", "--"), ("*", " * "),
         ("1", "١"), ("x", "x_"), ("^", "^^")]


@st.composite
def near_canonical(draw):
    """format_polynomial of a polynomial in at most 10 variables, with up
    to two edits, its terms reordered or repeated, or a space added."""
    poly = draw(polynomials(max_arity=10, max_exp=4, max_coeff=10**4,
                            max_terms=6))
    text = format_polynomial(poly)
    for _ in range(draw(st.integers(0, 2))):
        old, new = draw(st.sampled_from(EDITS))
        at = [i for i in range(len(text)) if text.startswith(old, i)]
        if at:
            i = draw(st.sampled_from(at))
            text = text[:i] + new + text[i + len(old):]
    terms = text.replace(" - ", " + -").split(" + ")
    shape = draw(st.sampled_from(["keep", "reverse", "repeat", "trailing"]))
    if shape == "reverse" and len(terms) > 1:
        text = " + ".join(terms[::-1]).replace(" + -", " - ")
    elif shape == "repeat":
        text = text + " + " + draw(st.sampled_from(terms))
    elif shape == "trailing":
        text += " "
    arity = poly.arity + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return text, max(arity, 0)


@settings(max_examples=400, deadline=None)
@given(near_canonical())
def test_canonical_reader_agrees_with_the_parser(case):
    text, arity = case
    got = outcome(read_canonical_first, text, arity)
    assert got == outcome(parse_polynomial, text, arity)
    poly = parse_canonical(text, arity)
    if poly is not None:
        assert format_polynomial(poly) == text


@pytest.mark.parametrize("text, arity", [
    ("0", 3), ("1", 0), ("-7", 2), ("x1", 1), ("-x2^3", 2),
    ("12*x1^2*x3 - x2 + 5", 3), ("x1^2147483647", 1)])
def test_canonical_reader_takes_formatted_text(text, arity):
    poly = parse_canonical(text, arity)
    assert poly is not None and poly == parse_polynomial(text, arity=arity)


@pytest.mark.parametrize("text, arity", [
    ("-0", 1), ("0*x1", 1), ("-0*x1", 1), ("x0", 1), ("x2", 1), ("1*x1", 1),
    ("x1^1", 1), ("x1^0", 1), ("x1^-1", 1), ("x1^2147483648", 1), ("01", 1),
    ("x2 + x1", 2), ("x1 + x1", 1), ("x1 + -x2", 2), ("x2*x1", 2),
    ("x1*x1", 1), ("x1  - 1", 1), ("x1 ", 1), ("١", 1), ("", 1),
    ("x1", MAX_VARIABLE + 1), ("x1", -1)])
def test_canonical_reader_leaves_other_text(text, arity):
    assert parse_canonical(text, arity) is None


# -- representation files ---------------------------------------------------

def test_parse_rep():
    rep = parse_rep("REP r=2\nx1 - x2\n")
    assert rep.r == 2
    assert rep.w == Polynomial(2, {(1, 0): 1, (0, 1): -1})


def test_parse_rep_comments_and_roundtrip():
    rep = parse_rep("# identity function\nREP r=3\n\nx1 - x2\n")
    assert rep.r == 3
    assert rep.w.arity == 3
    assert parse_rep(format_rep(rep)) == rep


@pytest.mark.parametrize("text", [
    "",
    "x1 - x2\n",
    "REP r=1\nx1\n",
    "REP r=2\n",
    "REP r=2\nx1 - x2\nx1\n",
    "REP r=2\nx1 - x3\n",
    "REP r=0_2\nx1 - x2\n",   # int() would read 2
    "REP r= +2\nx1 - x2\n",
    "REP r=\u0662\nx1 - x2\n",
])
def test_parse_rep_rejects(text):
    with pytest.raises((FormatError, ParseError)):
        parse_rep(text)

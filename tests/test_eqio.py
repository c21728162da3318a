import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit.eqio import (MAX_VARIABLE, format_polynomial, format_rep,
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
    eq = parse_equation("x1 = x2")
    assert eq.normalized == Polynomial(2, {(1, 0): 1, (0, 1): -1})
    eq = parse_equation("x1*x1 = x2")
    assert eq.normalized == Polynomial(2, {(2, 0): 1, (0, 1): -1})


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
])
def test_parse_rep_rejects(text):
    with pytest.raises((FormatError, ParseError)):
        parse_rep(text)

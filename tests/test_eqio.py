import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit import eqio
from enkit.eqio import (MAX_NESTING, MAX_VARIABLE, ascii_int, ascii_ints,
                        format_polynomial, format_rep, parse_canonical,
                        parse_equation, parse_polynomial, parse_rep)
from enkit.errors import FormatError, ParseError
from enkit.poly import Polynomial
from enkit.reductions import parse_certificate, serialize_certificate

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


def format_by_visiting_every_exponent(poly):
    """The reference formatter: every exponent of every term visited, and
    each factor formatted where it is used."""
    if poly.is_zero():
        return "0"
    pieces = []
    for position, (exps, coeff) in enumerate(poly.sorted_terms()):
        mono = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps) if e)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if position == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@settings(max_examples=300)
@given(polynomials(max_arity=12, max_exp=20, max_coeff=10**6, max_terms=8)
       | st.builds(lambda arity, exps, coeff: Polynomial(
           arity + 1, {(0,) * arity + (exps,): coeff}),
           st.integers(0, MAX_VARIABLE - 1), st.integers(0, 2**31 - 1),
           st.integers(-3, 3)))
def test_format_matches_the_reference(poly):
    # Exponents past the factor table's and indices up to MAX_VARIABLE.
    assert format_polynomial(poly) == format_by_visiting_every_exponent(poly)


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
    text = edited(draw, format_polynomial(poly))
    arity = poly.arity + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return text, max(arity, 0)


def edited(draw, text):
    """Canonical text with up to two EDITS, its terms reordered or
    repeated, or a space added."""
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
    return text


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


# -- certificates: one term table per certificate --------------------------

def certificate_text(p, lines):
    """A compact_Z certificate over x1..xp defining x_{p+1}, ... by `lines`."""
    defs = [f"{p + 1 + i} {line}" for i, line in enumerate(lines)]
    return "\n".join(["CERT 1", "mode compact_Z", f"p {p}",
                      f"n {p + len(lines)}", *defs, f"ANCHOR q {p + 1}", ""])


def cumulative_lines(poly):
    """The canonical texts of poly's partial sums, terms added in canonical
    order, as a compact chain defines them: later lines repeat the terms
    of earlier ones."""
    terms = poly.sorted_terms()
    return [format_polynomial(Polynomial(poly.arity, dict(terms[:k])))
            for k in range(1, len(terms) + 1)]


@st.composite
def shared_term_certificates(draw):
    """(p, lines): cumulative lines of a polynomial, one of them edited."""
    poly = draw(polynomials(max_arity=5, max_exp=3, max_coeff=10**3,
                            max_terms=7))
    lines = cumulative_lines(poly) or ["0"]
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = edited(draw, lines[at])
    return poly.arity, lines


def reads_like_each_line_alone(p, lines):
    """parse_certificate reads every line as read_canonical_first reads it
    alone, and fails with the first line that fails alone."""
    alone = [outcome(read_canonical_first, line, p) for line in lines]
    failed = [got for got in alone if isinstance(got[0], type)]
    try:
        cert = parse_certificate(certificate_text(p, lines))
    except Exception as exc:  # the type and message are compared
        assert failed and (type(exc), str(exc)) == failed[0]
        return
    assert not failed
    assert [(poly.arity, poly.terms) for _, poly in sorted(cert.defs.items())
            ] == alone


@settings(max_examples=300, deadline=None)
@given(shared_term_certificates())
def test_certificate_lines_read_as_each_line_alone(case):
    reads_like_each_line_alone(*case)


@pytest.mark.parametrize("p, lines", [
    (1, ["x1", "x1 + x1", "x1 + 1"]),
    (2, ["x1^2", "x1^2 - x2", "x1^2 - x2 - x2", "-x2 + x1^2"]),
    (2, ["x1 - x2", "x2 - x1", "x1 - x2 + 1"]),
    (2, ["x1", "x1 + x2", "x1 + x3"]),
], ids=["repeated term", "repeated negative term", "reordered", "error"])
def test_certificate_lines_that_repeat_a_term(p, lines):
    reads_like_each_line_alone(p, lines)


def test_no_term_table_outlives_its_certificate():
    # x2 is a term of x1..x2; read again at p = 1 it must be refused.
    parse_certificate(certificate_text(2, ["x2", "x1 + x2"]))
    lines = ["x1", "x1 + x2"]
    with pytest.raises(ParseError) as refused:
        parse_certificate(certificate_text(1, lines))
    assert ((type(refused.value), str(refused.value))
            == outcome(read_canonical_first, lines[1], 1))


def test_certificate_terms_are_parsed_and_formatted_once(monkeypatch):
    # k cumulative lines write k(k + 1) / 2 terms, of k distinct texts; a
    # reader or writer that goes back to per-line term work fails here.
    k = 40
    poly = Polynomial(3, {(i % 4, i % 3, i // 12): (-1) ** i * (i + 1)
                          for i in range(k)})
    lines = cumulative_lines(poly)
    assert len(lines) == k
    counts = {"parse": 0, "format": 0}

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(eqio, "_parse_term",
                        counting("parse", eqio._parse_term))
    monkeypatch.setattr(eqio, "_format_term",
                        counting("format", eqio._format_term))
    text = certificate_text(3, lines)
    cert = parse_certificate(text)
    assert cert.defs[3 + k] == poly
    assert counts == {"parse": k, "format": k}
    counts.update(parse=0, format=0)
    assert serialize_certificate(cert) == text
    assert counts == {"parse": 0, "format": k}


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

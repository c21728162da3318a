"""Textual front end: polynomials, equations, and representation files.

Grammar (LL(1), whitespace between tokens ignored):

    expression := [ '+' | '-' ] term { ('+' | '-') term }
    term       := factor { '*' factor }
    factor     := base [ '^' INT ]
    base       := INT | VAR | '(' expression ')'

INT is a run of ASCII digits, VAR is `x` followed by a 1-based index of at
most 1000 written the same way.  Implicit multiplication is not allowed.
Exponents are capped at 2**31 - 1; anything larger would produce reductions
of absurd size anyway.  Parentheses nest at most MAX_NESTING deep.  The
parser builds each polynomial as it goes, at the declared arity or the
largest index in the text, whichever is larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import FormatError, ParseError
from .poly import Polynomial, grlex_key

MAX_EXPONENT = 2**31 - 1
# A polynomial in x1..xk stores k exponents per term and the compact chains
# grow quadratically in k, so one mistyped index could exhaust memory.
MAX_VARIABLE = 1000
# Each level of parentheses costs the recursive descent four stack frames,
# so 100 levels stay far below Python's default recursion limit of 1000
# whatever the caller's own depth.
MAX_NESTING = 100

_OPS = frozenset("+-*^()=")


@dataclass(frozen=True)
class FnRepresentation:
    """A polynomial W over r variables encoding x1 = f(x2).

    Variable roles: x1 is the output, x2 the argument, x3..xr existential.
    """

    w: Polynomial
    r: int


# --------------------------------------------------------------------------
# integers

def ascii_ints(tokens: list[str]) -> list[int] | None:
    """The tokens as ints if each is a run of ASCII digits, else None.

    This is the one rule for every integer an enkit reader takes: `int`
    alone would also accept `٣`, `+3`, `0_5` and surrounding whitespace,
    none of which any enkit format writes.
    """
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:  # more digits than int() converts
            pass
    return None


def ascii_int(token: str) -> int | None:
    """One token under the rule of `ascii_ints`, without building lists."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    return None


# --------------------------------------------------------------------------
# tokenizer

def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Return (kind, value, offset) triples; kinds: int, var, op, end."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdigit():
            while i < n and text[i].isdigit():
                i += 1
            value = ascii_int(text[start:i])
            if value is None:
                raise ParseError(f"bad integer {text[start:i]!r}", start)
            tokens.append(("int", value, start))
        elif ch == "x":
            i += 1
            if i >= n or not text[i].isdigit():
                raise ParseError("expected variable index after 'x'", start)
            while i < n and text[i].isdigit():
                i += 1
            index = ascii_int(text[start + 1:i])
            if index is None:
                raise ParseError(
                    f"bad variable index {text[start:i]!r}", start)
            if index < 1:
                raise ParseError(f"variable index must be >= 1, got x{index}", start)
            if index > MAX_VARIABLE:
                raise ParseError(
                    f"variable index x{index} exceeds {MAX_VARIABLE}", start)
            tokens.append(("var", index, start))
        elif ch in _OPS:
            tokens.append(("op", ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent building polynomials at one arity: the declared
    one, raised to the largest variable index among the tokens."""

    def __init__(self, text: str, arity: int | None):
        if arity is not None and arity > MAX_VARIABLE:
            # Every term would carry `arity` exponents.
            raise ParseError(f"declared arity {arity} exceeds {MAX_VARIABLE}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open around the current position
        self.declared = arity
        self.largest = max(
            (value for kind, value, _ in self.tokens if kind == "var"),
            default=0)
        self.arity = self.largest if arity is None else max(arity, self.largest)
        if self.peek()[0] == "end":
            raise ParseError("empty input", 0)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def finish(self):
        """Reject trailing input, then an index beyond the declared arity."""
        kind, _, offset = self.peek()
        if kind != "end":
            raise ParseError("trailing input", offset)
        if self.declared is not None and self.largest > self.declared:
            raise ParseError(
                f"variable x{self.largest} exceeds declared arity {self.declared}")

    def expression(self) -> Polynomial:
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                poly = poly * self.factor()
            else:
                return poly

    def factor(self) -> Polynomial:
        poly = self.base()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "int":
                raise ParseError("expected integer exponent after '^'", offset)
            if value > MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds {MAX_EXPONENT}", offset)
            self.advance()
            poly = poly ** value
        return poly

    def base(self) -> Polynomial:
        kind, value, offset = self.advance()
        if kind == "int":
            return Polynomial.constant(self.arity, value)
        if kind == "var":
            return Polynomial.variable(self.arity, value)
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", offset)
            self.depth += 1
            poly = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise ParseError("syntax error", offset)


# --------------------------------------------------------------------------
# public API

def parse_polynomial(text: str, arity: int | None = None) -> Polynomial:
    """Parse a polynomial; `arity` defaults to the largest index mentioned."""
    parser = _Parser(text, arity)
    poly = parser.expression()
    parser.finish()
    return poly


def parse_equation(text: str, arity: int | None = None) -> Polynomial:
    """Parse `P = Q` into the polynomial P - Q."""
    parser = _Parser(text, arity)
    lhs = parser.expression()
    kind, value, offset = parser.peek()
    if kind != "op" or value != "=":
        raise ParseError("missing equals sign", offset)
    parser.advance()
    rhs = parser.expression()
    parser.finish()
    return lhs - rhs


def _format_term(term: tuple[tuple[int, ...], int]) -> str:
    """An (exponents, coefficient) term as format_polynomial writes it
    after the first: ` + body` or ` - body`."""
    exps, coeff = term
    # Only the nonzero exponents reach Python code.
    mono = "*".join([f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                     for i, e in compress(enumerate(exps), exps)])
    mag = abs(coeff)
    if not mono:
        body = str(mag)
    elif mag == 1:
        body = mono
    else:
        body = f"{mag}*{mono}"
    return f" + {body}" if coeff > 0 else f" - {body}"


def _parse_term(text: str, arity: int) -> tuple[tuple[int, ...], int] | None:
    """(exponents, coefficient) of one signed term such as `-3*x1^2*x4`,
    or None where the canonical form has no such term.

    Lenient on purpose: `x1^1` or `2*3` read as what they mean, and the
    caller refuses what does not format back as written.
    """
    coeff = 1
    if text[:1] == "-":
        coeff, text = -1, text[1:]
    exps = [0] * arity
    try:
        for factor in text.split("*"):
            if factor[:1] != "x":
                coeff *= int(factor)
                continue
            index, _, exponent = factor[1:].partition("^")
            index = int(index)
            exponent = int(exponent) if exponent else 1
            # The format would write these back; the parser refuses them.
            if not (0 < index <= arity and 0 < exponent <= MAX_EXPONENT):
                return None
            exps[index - 1] += exponent
    except ValueError:  # not an integer, or too long to convert either way
        return None
    if not coeff:  # `-0*x1` would format back as itself
        return None
    return tuple(exps), coeff


class _Texts(dict):
    """(exponents, coefficient) term -> (graded-lex key, `_format_term`),
    each made on first use."""

    def __missing__(self, term):
        entry = self[term] = grlex_key(term), _format_term(term)
        return entry


class _Terms(dict):
    """Term text -> `_parse_term` at the arity, made on first use."""

    def __init__(self, arity: int):
        super().__init__()
        self.arity = arity

    def __missing__(self, text):
        term = self[text] = _parse_term(text, self.arity)
        return term


class TermTable:
    """Format and read a batch of polynomials in x1..x_arity, such as one
    certificate's definitions, each distinct term once.

    Every distinct (exponents, coefficient) term is formatted and given
    its graded-lex key once, and every distinct term text is parsed once;
    a polynomial then costs a sort by those keys and a join.  A table
    lives for one batch and holds nothing between batches.
    """

    def __init__(self, arity: int):
        self.arity = arity
        self._texts = _Texts()
        self._terms = _Terms(arity)

    def format(self, poly: Polynomial) -> str:
        """format_polynomial(poly)."""
        if not poly.terms:
            return "0"
        # Terms have distinct keys, so the sort never compares texts.
        entries = sorted(map(self._texts.__getitem__, poly.terms.items()),
                         reverse=True)
        first = entries[0][1]
        # The first term drops the joining ` + ` or keeps its `-`.
        head = first[3:] if first[1] == "+" else "-" + first[3:]
        return head + "".join([text for _, text in entries[1:]])

    def parse(self, text: str) -> Polynomial | None:
        """parse_canonical(text, arity)."""
        if not 0 <= self.arity <= MAX_VARIABLE:
            return None
        if text == "0":
            return Polynomial.zero(self.arity)
        terms = list(map(self._terms.__getitem__,
                         text.replace(" - ", " + -").split(" + ")))
        if None in terms:
            return None
        poly = Polynomial._raw(self.arity, dict(terms))
        return poly if self.format(poly) == text else None


def format_polynomial(poly: Polynomial) -> str:
    """Canonical graded-lex rendering; parse(format(P)) == P."""
    return TermTable(poly.arity).format(poly)


def parse_canonical(text: str, arity: int) -> Polynomial | None:
    """The polynomial in x1..x_arity that format_polynomial writes as
    exactly `text`, or None if there is none.

    A fast reader for what enkit wrote, with no tokens and no polynomial
    arithmetic: terms split at ` + ` and ` - `, factors at `*`, through
    a `TermTable` of its own (`TermTable.parse` reads a batch of texts
    with one table).  Whatever it returns formats back to `text`, so
    `parse_polynomial(text, arity)` reads the same polynomial; any other
    text, errors included, is left to `parse_polynomial`.
    """
    return TermTable(arity).parse(text)


# --------------------------------------------------------------------------
# representation files (.rep)

def parse_rep(text: str) -> FnRepresentation:
    """Parse a representation file: `REP r=<count>` then the polynomial."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FormatError("empty representation file")
    header = lines[0].strip()
    if not header.startswith("REP "):
        raise FormatError("representation file must start with 'REP r=<count>'")
    spec = header[4:].strip()
    if not spec.startswith("r="):
        raise FormatError("representation header must declare r=<count>")
    r = ascii_int(spec[2:])
    if r is None:
        raise FormatError(f"bad variable count {spec[2:]!r}")
    if r < 2:
        raise FormatError("a representation needs at least x1 and x2 (r >= 2)")
    if len(lines) != 2:
        raise FormatError("expected exactly one polynomial line after the header")
    w = parse_polynomial(lines[1].strip(), arity=r)
    return FnRepresentation(w=w, r=r)


def format_rep(rep: FnRepresentation) -> str:
    return f"REP r={rep.r}\n{format_polynomial(rep.w)}\n"

"""Known answers computed without enkit.

Everything the benchmark uses to decide whether an output is right lives
here: polynomial evaluation and brute-force roots over boxes, the full-family
cardinality formulas, four-square representations, and a reader and
evaluator for `.ens` systems.  None of it imports enkit, so a verifier that
degrades cannot also degrade the answers it is checked against.

A polynomial is a dict mapping exponent tuples (one entry per variable) to
nonzero integer coefficients.
"""

from __future__ import annotations

from itertools import product
from math import isqrt, prod


def evaluate(poly: dict, point) -> int:
    total = 0
    for exps, coeff in poly.items():
        term = coeff
        for x, e in zip(point, exps):
            if e:
                term *= x ** e
        total += term
    return total


def arity(poly: dict) -> int:
    return len(next(iter(poly)))


def box_points(bounds):
    return product(*(range(lo, hi + 1) for lo, hi in bounds))


def box_size(bounds) -> int:
    return prod(hi - lo + 1 for lo, hi in bounds)


def roots(poly: dict, bounds) -> set:
    """Every point of the box where the polynomial vanishes."""
    return {pt for pt in box_points(bounds) if evaluate(poly, pt) == 0}


def shifted(poly: dict, constant: int) -> dict:
    """poly + constant, with a zero constant term dropped."""
    out = dict(poly)
    zero = (0,) * arity(poly)
    out[zero] = out.get(zero, 0) + constant
    if not out[zero]:
        del out[zero]
    return out


# --------------------------------------------------------------------------
# equation text

def _term_text(exps, magnitude: int) -> str:
    mono = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(exps) if e)
    if not mono:
        return str(magnitude)
    return mono if magnitude == 1 else f"{magnitude}*{mono}"


def _side_text(terms) -> str:
    if not terms:
        return "0"
    return " + ".join(_term_text(e, c) for e, c in terms)


def equation_text(poly: dict) -> str:
    """`P = Q` with the positive terms left and the negated negative terms
    right, so `{x1: 1, x2: -1}` reads `x1 = x2`."""
    ordered = sorted(poly.items(), key=lambda item: (-sum(item[0]), item[0]))
    lhs = [(e, c) for e, c in ordered if c > 0]
    rhs = [(e, -c) for e, c in ordered if c < 0]
    return f"{_side_text(lhs)} = {_side_text(rhs)}"


# --------------------------------------------------------------------------
# family cardinalities

def degree_bounds(poly: dict) -> tuple[int, ...]:
    return tuple(max(e[i] for e in poly) for i in range(arity(poly)))


def _card(coeff_count: int, poly: dict) -> int:
    return coeff_count ** prod(d + 1 for d in degree_bounds(poly))


def card_full_z(poly: dict) -> int:
    """(2M+1)^prod(d_i+1) with M the largest |coefficient| of 2D."""
    m = 2 * max(abs(c) for c in poly.values())
    return _card(2 * m + 1, poly)


def card_halved_z(poly: dict) -> int:
    """(2M+1)^prod(d_i+1) with M the largest |coefficient| of D."""
    m = max(abs(c) for c in poly.values())
    return _card(2 * m + 1, poly)


def card_full_n(poly: dict) -> int:
    """(delta+1)^prod(d_i+1) for D = A - B with B = |a| + 2 termwise and
    A = D + B; delta is the largest coefficient of A or B."""
    delta = max(max(abs(c) + 2, c + abs(c) + 2) for c in poly.values())
    return _card(delta + 1, poly)


# --------------------------------------------------------------------------
# four squares

def four_squares(m: int) -> tuple[int, int, int, int]:
    """Some (a, b, c, d) with a^2 + b^2 + c^2 + d^2 = m, largest first."""
    for a in range(isqrt(m), -1, -1):
        ra = m - a * a
        for b in range(min(a, isqrt(ra)), -1, -1):
            rb = ra - b * b
            for c in range(min(b, isqrt(rb)), -1, -1):
                rc = rb - c * c
                d = isqrt(rc)
                if d * d == rc and d <= c:
                    return (a, b, c, d)
    raise ValueError(f"no four-square representation of {m}")


def four_square_count(m: int, radius: int) -> int:
    """Number of (a, b, c, d) in [-radius, radius]^4 with squares summing
    to m."""
    span = range(-radius, radius + 1)
    return sum(1 for quad in product(span, repeat=4)
               if sum(v * v for v in quad) == m)


# --------------------------------------------------------------------------
# .ens systems

def read_ens(text: str) -> tuple[int, list[tuple]]:
    """(n, equations) from `.ens` text; equations are ("ONE", i),
    ("ADD", i, j, k) or ("MUL", i, j, k)."""
    lines = text.splitlines()
    if not lines or lines[0] != "ENSYS 1":
        raise ValueError("missing ENSYS header")
    n = None
    equations = []
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "#":
            continue
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "ONE" and len(parts) == 2:
            equations.append(("ONE", int(parts[1])))
        elif parts[0] in ("ADD", "MUL") and len(parts) == 4:
            equations.append((parts[0], *map(int, parts[1:])))
        else:
            raise ValueError(f"bad .ens line {line!r}")
    if n is None:
        raise ValueError("missing n line")
    return n, equations


def header_value(text: str, key: str) -> str | None:
    """Value of the first `key value` line, as in `.ens`, `.cert` and
    `.layout` headers."""
    for line in text.splitlines():
        head, _, value = line.partition(" ")
        if head == key:
            return value
    return None


def violated(equations, values) -> tuple | None:
    """First equation the 1-based assignment breaks, or None."""
    for eq in equations:
        if eq[0] == "ONE":
            ok = values[eq[1]] == 1
        elif eq[0] == "ADD":
            ok = values[eq[1]] + values[eq[2]] == values[eq[3]]
        else:
            ok = values[eq[1]] * values[eq[2]] == values[eq[3]]
        if not ok:
            return eq
    return None

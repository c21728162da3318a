"""Exact multivariate polynomial arithmetic over arbitrary-precision integers.

A polynomial is a finite map from exponent tuples to nonzero integer
coefficients, plus an explicit ambient variable count (`arity`).  Variables
are 1-based (x1..xp) to match the textual formats and the equation systems
built on top.  Instances are immutable by convention: no operation mutates
its arguments, every operation returns a fresh value.

The canonical term order, used wherever order shows (printing, and the
order in which a compact chain folds terms in), is graded lexicographic,
highest term first.  Identity and hashing take no order at all.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionMismatch

Exponents = tuple[int, ...]


def grlex_key(term: tuple[Exponents, int]) -> tuple[int, Exponents]:
    """Sort key of an (exponents, coefficient) term: the canonical order
    is this key's, descending."""
    exps = term[0]
    return sum(exps), exps


class Polynomial:
    """Sparse polynomial in ``arity`` variables with integer coefficients."""

    __slots__ = ("arity", "terms", "_key")

    def __init__(self, arity: int, terms: Mapping[Exponents, int]):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        clean: dict[Exponents, int] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise DimensionMismatch(
                    f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
        self.arity = arity
        self.terms = {e: c for e, c in clean.items() if c}
        self._key = None

    @classmethod
    def _raw(cls, arity: int, terms: dict[Exponents, int]) -> "Polynomial":
        """Trusted constructor: `terms` must already be clean (internal)."""
        self = object.__new__(cls)
        self.arity = arity
        self.terms = terms
        self._key = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "Polynomial":
        return cls._raw(arity, {})

    @classmethod
    def constant(cls, arity: int, value: int) -> "Polynomial":
        if value == 0:
            return cls.zero(arity)
        return cls._raw(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= arity:
            raise DimensionMismatch(f"variable index {index} not in [1, {arity}]")
        exps = [0] * arity
        exps[index - 1] = 1
        return cls._raw(arity, {tuple(exps): 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms in canonical (graded-lex, descending) order."""
        return sorted(self.terms.items(), key=grlex_key, reverse=True)

    def key(self) -> tuple:
        """Hashable identity, (arity, frozenset of (exponents, coefficient)
        terms): equal polynomials, and only they, have equal keys.  It has
        no order, so it costs no sort."""
        if self._key is None:
            self._key = (self.arity, frozenset(self.terms.items()))
        return self._key

    def degree_in(self, index: int) -> int:
        """Maximum exponent of x_index over all terms; 0 for the zero polynomial."""
        if not 1 <= index <= self.arity:
            raise DimensionMismatch(f"variable index {index} not in [1, {self.arity}]")
        i = index - 1
        return max((e[i] for e in self.terms), default=0)

    def degree_bounds(self) -> tuple[int, ...]:
        return tuple(self.degree_in(i) for i in range(1, self.arity + 1))

    def max_abs_coeff(self) -> int:
        return max((abs(c) for c in self.terms.values()), default=0)

    # -- evaluation --------------------------------------------------------

    def eval_at(self, point: Sequence[int]) -> int:
        if len(point) != self.arity:
            raise DimensionMismatch(
                f"point of length {len(point)} for arity {self.arity}")
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, point):
                if e:
                    term *= v ** e
            total += term
        return total

    def substituted(self, values: Mapping[int, int]) -> "Polynomial":
        """Replace the given variables (1-based) by constants; arity unchanged."""
        out: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            new = list(exps)
            for index, value in values.items():
                e = exps[index - 1]
                if e:
                    coeff *= value ** e
                new[index - 1] = 0
            if coeff:
                key = tuple(new)
                out[key] = out.get(key, 0) + coeff
        return Polynomial._raw(self.arity, {e: c for e, c in out.items() if c})

    # -- arithmetic --------------------------------------------------------

    def extended(self, arity: int) -> "Polynomial":
        """Embed into a larger ambient variable count (appending variables)."""
        if arity < self.arity:
            raise DimensionMismatch(
                f"cannot shrink arity {self.arity} to {arity}")
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return Polynomial._raw(arity, {e + pad: c for e, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = _aligned(self, other)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            s = out.get(exps, 0) + coeff
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return Polynomial._raw(a.arity, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = _aligned(self, other)
        out: dict[Exponents, int] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Polynomial._raw(a.arity, out)

    def scaled(self, factor: int) -> "Polynomial":
        if factor == 0:
            return Polynomial.zero(self.arity)
        return Polynomial._raw(
            self.arity, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.arity, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        from .eqio import format_polynomial
        return f"Polynomial({self.arity}, {format_polynomial(self)!r})"


def _aligned(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if a.arity == b.arity:
        return a, b
    if a.arity < b.arity:
        return a.extended(b.arity), b
    return a, b.extended(a.arity)

"""Reductions of polynomial equations to E_n systems.

Five modes are provided.  The full-family modes realize the textbook
construction: take every polynomial whose coefficients and per-variable
degrees are bounded by those of the source, name each one as a variable,
emit every atomic equation that is a polynomial identity under those names,
and anchor the variable naming the source so that it must vanish.  The
compact modes instead emit a straight-line program computing the source
polynomial node by node, which keeps the variable count linear.

Over the integers the anchor is x_q + x_q = x_q on the node carrying the
source (2*D for the unhalved family).  Over the non-negative integers,
subtraction is unavailable, so the source is split into two polynomials
with non-negative coefficients and the anchor equates them through a zero
node, mirroring x_{p+1} + x_{p+2} = x_{p+3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import prod

from . import kernels
from .eqio import TermTable, ascii_int, ascii_ints, parse_polynomial
from .errors import (CertificateMismatch, FamilyTooLarge, FormatError,
                     UnusedVariable, ZeroPolynomial)
from .poly import Exponents, Polynomial
from .system import ADD, MUL, ONE, EnSystem, canonical_row

DEFAULT_FAMILY_CAP = 10**6
# Closing a family costs about as much as the identities it emits, but
# those still grow quadratically in the member count (67,435 equations at
# 625 members); past this many members the full modes refuse instead of
# grinding.
DEFAULT_PAIR_CAP = 2000
# Python prints no int of more digits (sys.get_int_max_str_digits()'s
# default), and no cap read from text is that large.
CARD_DIGITS = 4300
_PRINTABLE = 10**CARD_DIGITS

MODES = ("full_Z", "halved_Z", "compact_Z", "full_N", "compact_N")


def anchor_shape(mode: str) -> tuple[str, int]:
    """A mode's ANCHOR tag and index count: q and 1 over Z, N and 3 over N."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return ("q", 1) if mode.endswith("_Z") else ("N", 3)


# --------------------------------------------------------------------------
# bounded polynomial families

@dataclass(frozen=True)
class FamilyDescriptor:
    """All polynomials with coefficients in [coeff_lo, coeff_hi] and
    per-variable degrees bounded by degree_bounds."""

    p: int
    coeff_lo: int
    coeff_hi: int
    degree_bounds: tuple[int, ...]

    def __post_init__(self):
        if self.coeff_lo > self.coeff_hi:
            raise ValueError("empty coefficient interval")
        if len(self.degree_bounds) != self.p:
            raise ValueError("degree bounds must match the variable count")
        if any(d < 0 for d in self.degree_bounds):
            raise ValueError("degree bounds must be non-negative")

    @property
    def width(self) -> int:
        return self.coeff_hi - self.coeff_lo + 1

    def basis(self) -> list[Exponents]:
        """Monomial basis, ascending lexicographic."""
        return list(product(*(range(d + 1) for d in self.degree_bounds)))

    def cardinality(self) -> int | str:
        """width ** E for the E basis monomials or, past CARD_DIGITS
        digits, the text 'width^E' ('over 10^CARD_DIGITS' if width or E is
        that long itself).  A large E shows this without the power."""
        width, e = self.width, prod(d + 1 for d in self.degree_bounds)
        # width ** e >= 2 ** (e * (width.bit_length() - 1)) >= 16 ** 4300
        if e * (width.bit_length() - 1) <= 4 * CARD_DIGITS:
            card = width ** e
            if card < _PRINTABLE:
                return card
        if max(width, e) < _PRINTABLE:
            return f"{width}^{e}"
        return f"over 10^{CARD_DIGITS}"

    def iter_vectors(self):
        """Dense coefficient vectors in lexicographic order."""
        span = range(self.coeff_lo, self.coeff_hi + 1)
        return product(span, repeat=prod(d + 1 for d in self.degree_bounds))

    def vector_to_poly(self, vector, basis=None) -> Polynomial:
        if basis is None:
            basis = self.basis()
        return Polynomial._raw(
            self.p, {e: c for e, c in zip(basis, vector) if c})


def _cardinality_within(desc: FamilyDescriptor, cap: int) -> int:
    """The family's cardinality, if at most `cap`; FamilyTooLarge if not."""
    card = desc.cardinality()
    if isinstance(card, str) or card > cap:
        raise FamilyTooLarge(card, cap)
    return card


def enumerate_t(desc: FamilyDescriptor, cap: int = DEFAULT_FAMILY_CAP):
    """The family as an ordered list; refuses when larger than `cap`."""
    _cardinality_within(desc, cap)
    basis = desc.basis()
    return [desc.vector_to_poly(vector, basis) for vector in desc.iter_vectors()]


# --------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class ReductionCertificate:
    """Witness of a reduction: which polynomial each variable stands for.

    defs maps every auxiliary index to the polynomial (in x1..xp) whose
    value it must take in any solution extending a base point.  The
    anchor's shape is the mode's: over Z it is (q,), the variable carrying
    the source polynomial (2*D, or D itself for the halved and compact
    modes); over N it is (zero, a, b), the zero node and the two sides of
    the anchored equality.
    """

    mode: str
    p: int
    n: int
    defs: dict[int, Polynomial]
    anchor: tuple[int, ...]

    def __post_init__(self):
        _, size = anchor_shape(self.mode)
        if type(self.anchor) is not tuple or len(self.anchor) != size:
            raise ValueError(f"mode {self.mode} takes an anchor of length "
                             f"{size}, not {self.anchor!r}")


def serialize_certificate(cert: ReductionCertificate) -> str:
    """The `.cert` text of a certificate that `validate_certificate`
    accepts at its own n, which `parse_certificate` reads back equal."""
    validate_certificate(cert, cert.n)
    lines = ["CERT 1", f"mode {cert.mode}", f"p {cert.p}", f"n {cert.n}"]
    # One table for all the definitions: a chain's lines repeat terms.
    table = TermTable(cert.p)
    for index in sorted(cert.defs):
        lines.append(f"{index} {table.format(cert.defs[index])}")
    tag, _ = anchor_shape(cert.mode)
    lines.append(" ".join(["ANCHOR", tag, *map(str, cert.anchor)]))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> ReductionCertificate:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "CERT 1":
        raise FormatError("missing 'CERT 1' header")
    header: dict[str, str] = {}
    for line in lines[1:4]:
        key, _, value = line.partition(" ")
        header[key] = value
    for key in ("mode", "p", "n"):
        if key not in header:
            raise FormatError(f"certificate header has no {key!r} line")
    mode = header["mode"]
    p, n = ascii_int(header["p"]), ascii_int(header["n"])
    for key, value in (("p", p), ("n", n)):
        if value is None:
            raise FormatError(
                f"bad certificate header line {key + ' ' + header[key]!r}")
    defs: dict[int, Polynomial] = {}
    anchor = None
    table = TermTable(p)
    for line in lines[4:]:
        if line.startswith("ANCHOR "):
            if anchor is not None:
                raise FormatError("duplicate ANCHOR line")
            anchor = line
            continue
        if anchor is not None:
            raise FormatError("definition after ANCHOR line")
        index_text, _, poly_text = line.partition(" ")
        index = ascii_int(index_text)
        if index is None:
            raise FormatError(f"bad definition line {line!r}")
        if index in defs:
            raise FormatError(f"certificate defines index {index} twice")
        # Lines serialize_certificate wrote take the canonical reader.
        poly = table.parse(poly_text)
        defs[index] = (parse_polynomial(poly_text, arity=p) if poly is None
                       else poly)
    if anchor is None:
        raise FormatError("missing ANCHOR line")
    tag, size = anchor_shape(mode)
    parts = anchor.split()
    values = ascii_ints(parts[2:]) or []
    if parts[1:2] != [tag] or len(values) != size:
        raise FormatError(f"bad ANCHOR line {anchor!r}")
    return ReductionCertificate(mode, p, n, defs, tuple(values))


def validate_certificate(cert: ReductionCertificate, n: int):
    """Check that a certificate can describe a system on x_1..x_n.

    The certificate must name the same n, have p <= n, define exactly
    the auxiliary indices p+1..n, each by a polynomial in x_1..x_p, and
    anchor on indices in [1, n]; otherwise its lift would leave or miss
    variables of the system, or could not be taken at all.
    """
    if cert.n != n:
        raise CertificateMismatch(
            f"certificate has n {cert.n}, the system has {n} variables")
    p = cert.p
    if p > n:
        raise CertificateMismatch(
            f"certificate has p {p}, more than its n {n}")
    # Coverage by bounds and count, so nothing of size n is built: the
    # definitions' indices are distinct, so once all lie in (p, n] they
    # cover it exactly when there are n - p of them.
    stray = [index for index in cert.defs if not p < index <= n]
    if stray:
        raise CertificateMismatch(
            f"certificate defines index {min(stray)} outside ({p}, {n}]")
    if len(cert.defs) < n - p:
        missing = p + 1
        for index in sorted(cert.defs):
            if index != missing:
                break
            missing += 1
        raise CertificateMismatch(
            f"certificate has no definition for index {missing}")
    for index, poly in cert.defs.items():
        if poly.arity != p:
            raise CertificateMismatch(
                f"certificate defines index {index} in {poly.arity} "
                f"variables, not p = {p}")
    for index in cert.anchor:
        if not 1 <= index <= n:
            raise CertificateMismatch(
                f"certificate anchor index {index} outside [1, {n}]")


# --------------------------------------------------------------------------
# compact modes: straight-line chains

class _ChainBuilder:
    """Builds nodes computing polynomials from x1..xp and the constant 1.

    Nodes are deduplicated by the polynomial they compute, so certificates
    stay injective and shared subexpressions are emitted once.
    """

    def __init__(self, p: int):
        self.p = p
        self.defs: dict[int, Polynomial] = {}
        self.rows: list[tuple] = []  # the system's equations
        self._index_of = {
            Polynomial.variable(p, i).key(): i for i in range(1, p + 1)}
        self._next = p + 1

    def poly_of(self, index: int) -> Polynomial:
        if index <= self.p:
            return Polynomial.variable(self.p, index)
        return self.defs[index]

    def _node(self, poly: Polynomial, row_for) -> int:
        index = self._index_of.get(poly.key())
        if index is not None:
            return index
        index = self._next
        self._next += 1
        self._index_of[poly.key()] = index
        self.defs[index] = poly
        self.rows.append(row_for(index))
        return index

    def one(self) -> int:
        return self._node(Polynomial.constant(self.p, 1),
                          lambda s: (ONE, s, s, s))

    def zero(self) -> int:
        return self._node(Polynomial.zero(self.p), lambda s: (ADD, s, s, s))

    def add(self, a: int, b: int) -> int:
        poly = self.poly_of(a) + self.poly_of(b)
        return self._node(poly, lambda s: canonical_row(ADD, a, b, s))

    def sub(self, a: int, b: int) -> int:
        """Node for poly(a) - poly(b), via reversed addition s + b = a."""
        poly = self.poly_of(a) - self.poly_of(b)
        return self._node(poly, lambda s: canonical_row(ADD, s, b, a))

    def mul(self, a: int, b: int) -> int:
        poly = self.poly_of(a) * self.poly_of(b)
        return self._node(poly, lambda s: canonical_row(MUL, a, b, s))

    def constant(self, value: int) -> int:
        """Node for a positive constant, by binary doubling and summing."""
        if value < 1:
            raise ValueError("only positive constants are chained")
        powers = [self.one()]
        while (1 << len(powers)) <= value:
            powers.append(self.add(powers[-1], powers[-1]))
        acc = None
        for bit, node in enumerate(powers):
            if (value >> bit) & 1:
                acc = node if acc is None else self.add(acc, node)
        return acc

    def monomial(self, exps: Exponents) -> int:
        """Node for a monomial, one variable multiplication at a time."""
        node = None
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                node = i if node is None else self.mul(node, i)
        return self.one() if node is None else node

    def term(self, coeff: int, exps: Exponents) -> int:
        """Node for |coeff| * monomial (signs are handled by the caller)."""
        coeff = abs(coeff)
        if all(e == 0 for e in exps):
            return self.constant(coeff)
        mono = self.monomial(exps)
        if coeff == 1:
            return mono
        return self.mul(self.constant(coeff), mono)

    def accumulate(self, poly: Polynomial) -> int:
        """Node computing `poly`, terms folded in canonical order.

        Negative terms are folded through reversed addition, so every
        emitted equation stays inside E_n.
        """
        if poly.is_zero():
            return self.zero()
        acc = None
        for exps, coeff in poly.sorted_terms():
            node = self.term(coeff, exps)
            if acc is None:
                acc = node if coeff > 0 else self.sub(self.zero(), node)
            else:
                acc = self.add(acc, node) if coeff > 0 else self.sub(acc, node)
        return acc

    @property
    def n(self) -> int:
        return self._next - 1


def compact_bound(d: Polynomial) -> int:
    """An upper bound on the variable count of D's compact_Z or compact_N
    chain, cheap to find without building it.

    Beyond x_1..x_p, the zero node and the negated first term, a term
    c * x^e adds at most deg(e) - 1 products along its monomial path,
    bit_count(|c|) - 1 partial sums of `constant`, the product of the two
    and the sum folding it in; the powers of two up to the widest
    coefficient are shared by every term.
    """
    width = max(abs(coeff).bit_length() for coeff in d.terms.values())
    return (d.arity + 2 + width
            + sum(sum(exps) + abs(coeff).bit_count()
                  for exps, coeff in d.terms.items()))


def _refuse_long_chain(d: Polynomial, cap: int):
    bound = compact_bound(d)
    if bound > cap:
        raise FamilyTooLarge(bound, cap, what="compact chain variable bound")


def build_compact_z(d: Polynomial, cap: int = DEFAULT_FAMILY_CAP
                    ) -> tuple[EnSystem, ReductionCertificate]:
    """Straight-line reduction of D = 0 over the integers.

    The chain computes D node by node; the anchor x_q + x_q = x_q forces
    the final node, hence D itself, to vanish.  Refuses, before building
    it, a chain whose `compact_bound` exceeds `cap`.
    """
    if d.is_zero():
        raise ZeroPolynomial("compact reduction needs a nonzero polynomial")
    _refuse_long_chain(d, cap)
    builder = _ChainBuilder(d.arity)
    q = builder.accumulate(d)
    system = EnSystem(builder.n, builder.rows + [(ADD, q, q, q)])
    return system, ReductionCertificate("compact_Z", d.arity, builder.n,
                                        builder.defs, (q,))


def split_signs(d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """D = P - N with P, N holding the positive / negated negative terms."""
    pos = {e: c for e, c in d.terms.items() if c > 0}
    neg = {e: -c for e, c in d.terms.items() if c < 0}
    return (Polynomial._raw(d.arity, pos), Polynomial._raw(d.arity, neg))


def build_compact_n(d: Polynomial, cap: int = DEFAULT_FAMILY_CAP
                    ) -> tuple[EnSystem, ReductionCertificate]:
    """Straight-line reduction of D = 0 over the non-negative integers.

    Write D = P - N with P, N having non-negative coefficients; both sides
    are chained using additions and multiplications only, so every node
    value is non-negative at a non-negative base point.  A zero node and
    the anchor z + u_N = u_P close the system: it holds exactly when
    P = N, i.e. D = 0.  Refuses, before building it, a chain whose
    `compact_bound` exceeds `cap`.
    """
    if d.is_zero():
        raise ZeroPolynomial("compact reduction needs a nonzero polynomial")
    _refuse_long_chain(d, cap)
    pos, neg = split_signs(d)
    builder = _ChainBuilder(d.arity)
    zero = builder.zero()
    u_pos = zero if pos.is_zero() else builder.accumulate(pos)
    u_neg = zero if neg.is_zero() else builder.accumulate(neg)
    system = EnSystem(builder.n,
                      builder.rows + [canonical_row(ADD, zero, u_neg, u_pos)])
    return system, ReductionCertificate("compact_N", d.arity, builder.n,
                                        builder.defs, (zero, u_pos, u_neg))


# --------------------------------------------------------------------------
# full-family modes

def _require_all_variables(d: Polynomial):
    for i in range(1, d.arity + 1):
        if d.degree_in(i) == 0:
            raise UnusedVariable(
                f"x{i} does not occur in the polynomial; no bijection onto "
                "the family minus the variables exists")


def b_polynomial(d: Polynomial) -> Polynomial:
    """Same support as D with every coefficient replaced by |a| + 2."""
    return Polynomial._raw(
        d.arity, {e: abs(c) + 2 for e, c in d.terms.items()})


def family_descriptor(d: Polynomial, mode: str):
    """The family of a full mode and the polynomials its anchor names.

    full_Z bounds the coefficients by those of 2*D and anchors 2*D;
    halved_Z bounds them by D and anchors D.  full_N rewrites D = 0 as
    A = B with B = b_polynomial(D) and A = D + B, spans [0, delta] where
    delta bounds the coefficients of A and B, and anchors (0, A, B).
    """
    if mode == "full_N":
        b = b_polynomial(d)
        a = d + b
        # A and B have D's support with coefficients >= 2 and >= 3, so
        # neither is zero, a variable or the other.
        delta = max(a.max_abs_coeff(), b.max_abs_coeff())
        desc = FamilyDescriptor(d.arity, 0, delta, d.degree_bounds())
        return desc, [Polynomial.zero(d.arity), a, b]
    if mode not in ("full_Z", "halved_Z"):
        raise ValueError(f"not a full-family mode: {mode!r}")
    source = d.scaled(2) if mode == "full_Z" else d
    bound = source.max_abs_coeff()
    return FamilyDescriptor(d.arity, -bound, bound, d.degree_bounds()), [source]


def _build_full(d: Polynomial, mode: str, cap: int, pair_cap: int):
    """Every member of the mode's family as a variable, every identity
    among them as an equation, and one anchor.

    The family is refused by its cardinality, against `cap` and then
    `pair_cap`, before any member is built.  x_1..x_p name the variables;
    over Z the anchor x_q + x_q = x_q sits on the member naming 2*D
    (full_Z: doubling keeps it off the variables) or D (halved_Z: q = i
    when D is x_i itself).  Over N the zero node, A and B take the indices
    p+1, p+2, p+3 and x_{p+1} + x_{p+2} = x_{p+3} equates A with B.  Every
    other member takes the next index in enumeration order.
    """
    if d.is_zero():
        raise ZeroPolynomial("full-family reduction needs a nonzero polynomial")
    _require_all_variables(d)
    desc, anchored = family_descriptor(d, mode)
    card = _cardinality_within(desc, cap)
    if card > pair_cap:
        raise FamilyTooLarge(
            card, pair_cap,
            what="full-family construction (emitted identity set grows "
                 "quadratically) cardinality")
    p = desc.p
    basis = desc.basis()
    vectors = list(desc.iter_vectors())
    members = [desc.vector_to_poly(v, basis) for v in vectors]
    # Ranked by coefficient vector, which makes no new object: a
    # Polynomial.key() would cache a frozenset on every member.
    rank_of = {v: rank for rank, v in enumerate(vectors)}
    rank_of_member = lambda poly: rank_of[
        tuple(poly.terms.get(e, 0) for e in basis)]
    # Every variable is a member: D uses each one, and every mode's
    # coefficient range holds 1.  Over N the pinned 0, A and B are none
    # of them (see family_descriptor).
    first = [Polynomial.variable(p, i) for i in range(1, p + 1)]
    if mode == "full_N":
        first += anchored
    pinned = list(map(rank_of_member, first))
    rest = sorted(set(range(card)).difference(pinned))
    index = [0] * card  # rank -> variable index
    for i, rank in enumerate(pinned + rest, start=1):
        index[rank] = i
    index_of = lambda poly: index[rank_of_member(poly)]

    one = index_of(Polynomial.constant(p, 1))
    # family_join's two lists are not kept alive beside `rows` while the
    # EnSystem is built.
    rows = [(ONE, one, one, one), *chain.from_iterable(kernels.family_join(
        vectors, desc.coeff_lo, desc.coeff_hi, basis, index))]
    anchor = tuple(map(index_of, anchored))
    # (zero, a, b) over N, (q, q, q) over Z
    rows.append(canonical_row(ADD, *anchor) if mode == "full_N"
                else (ADD, *anchor * 3))
    defs = {index[rank]: members[rank] for rank in range(card)
            if index[rank] > p}
    system = EnSystem(card, rows)
    return system, ReductionCertificate(mode, p, system.n, defs, anchor)


def build_full_z(d: Polynomial, cap: int = DEFAULT_FAMILY_CAP,
                 pair_cap: int = DEFAULT_PAIR_CAP):
    """Full-family reduction of D = 0 over the integers, anchored at 2*D."""
    return _build_full(d, "full_Z", cap, pair_cap)


def build_halved_z(d: Polynomial, cap: int = DEFAULT_FAMILY_CAP,
                   pair_cap: int = DEFAULT_PAIR_CAP):
    """Halved-family variant over the integers, anchored at D itself."""
    return _build_full(d, "halved_Z", cap, pair_cap)


def build_full_n(d: Polynomial, cap: int = DEFAULT_FAMILY_CAP,
                 pair_cap: int = DEFAULT_PAIR_CAP):
    """Full-family reduction of D = 0 over the non-negative integers."""
    return _build_full(d, "full_N", cap, pair_cap)


def build_reduction(d: Polynomial, mode: str, cap: int = DEFAULT_FAMILY_CAP,
                    pair_cap: int = DEFAULT_PAIR_CAP):
    """Dispatch on one of the five mode names."""
    if mode == "full_Z":
        return build_full_z(d, cap, pair_cap)
    if mode == "halved_Z":
        return build_halved_z(d, cap, pair_cap)
    if mode == "compact_Z":
        return build_compact_z(d, cap)
    if mode == "full_N":
        return build_full_n(d, cap, pair_cap)
    if mode == "compact_N":
        return build_compact_n(d, cap)
    raise ValueError(f"unknown mode {mode!r}")


# --------------------------------------------------------------------------
# the four-square master polynomial

def master_arity(r: int) -> int:
    return 5 * r


def build_master_z(w: Polynomial) -> Polynomial:
    """Sum-of-squares polynomial whose integer roots are exactly the points
    where W vanishes and every x_i is a sum of four squares (hence >= 0).

    Variable order: x1..xr, then four fresh variables per x_i in order of
    i, so x_i's quad is x_{r+4(i-1)+1}..x_{r+4i}.
    """
    r = w.arity
    if r < 2:
        raise ValueError("a representation needs at least x1 and x2 (r >= 2)")
    total = master_arity(r)
    w_ext = w.extended(total)
    master = w_ext * w_ext
    for i in range(1, r + 1):
        gap = Polynomial.variable(total, i)
        for index in range(r + 4 * (i - 1) + 1, r + 4 * i + 1):
            v = Polynomial.variable(total, index)
            gap = gap - v * v
        master = master + gap * gap
    return master

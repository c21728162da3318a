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

from dataclasses import dataclass, field
from itertools import product
from math import prod

from . import kernels
from .eqio import format_polynomial, parse_polynomial
from .errors import (CertificateMismatch, FamilyTooLarge, FormatError,
                     UnusedVariable, ZeroPolynomial)
from .poly import Exponents, Polynomial
from .system import Add, EnEquation, EnSystem, Mul, One

DEFAULT_FAMILY_CAP = 10**6
# Closing a family costs about as much as the identities it emits, but
# those still grow quadratically in the member count (67,435 equations at
# 625 members); past this many members the full modes refuse instead of
# grinding.
DEFAULT_PAIR_CAP = 2000

MODES = ("full_Z", "halved_Z", "compact_Z", "full_N", "compact_N")


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

    def cardinality(self) -> int:
        return self.width ** prod(d + 1 for d in self.degree_bounds)

    def iter_vectors(self):
        """Dense coefficient vectors in lexicographic order."""
        span = range(self.coeff_lo, self.coeff_hi + 1)
        return product(span, repeat=prod(d + 1 for d in self.degree_bounds))

    def vector_to_poly(self, vector, basis=None) -> Polynomial:
        if basis is None:
            basis = self.basis()
        return Polynomial._raw(
            self.p, {e: c for e, c in zip(basis, vector) if c})

    def poly_vector(self, poly: Polynomial, basis=None):
        """Dense vector of a member, or None if the polynomial is outside."""
        if poly.arity != self.p:
            return None
        if basis is None:
            basis = self.basis()
        position = {e: t for t, e in enumerate(basis)}
        vec = [0] * len(basis)
        for e, c in poly.terms.items():
            t = position.get(e)
            if t is None or not self.coeff_lo <= c <= self.coeff_hi:
                return None
            vec[t] = c
        return tuple(vec)


def enumerate_t(desc: FamilyDescriptor, cap: int = DEFAULT_FAMILY_CAP):
    """The family as an ordered list; refuses when larger than `cap`."""
    card = desc.cardinality()
    if card > cap:
        raise FamilyTooLarge(card, cap)
    basis = desc.basis()
    return [desc.vector_to_poly(vector, basis) for vector in desc.iter_vectors()]


# --------------------------------------------------------------------------
# certificates

@dataclass
class ReductionCertificate:
    """Witness of a reduction: which polynomial each variable stands for.

    defs maps every auxiliary index to the polynomial (in x1..xp) whose
    value it must take in any solution extending a base point.  For the
    integer modes anchor_q names the variable carrying the source
    polynomial (2*D, or D itself for the halved and compact modes); for
    the non-negative modes (anchor_zero, anchor_a, anchor_b) name the zero
    node and the two sides of the anchored equality.
    """

    mode: str
    p: int
    n: int
    defs: dict[int, Polynomial] = field(default_factory=dict)
    anchor_q: int | None = None
    anchor_zero: int | None = None
    anchor_a: int | None = None
    anchor_b: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def anchor_indices(self) -> tuple[int, ...]:
        if self.anchor_q is not None:
            return (self.anchor_q,)
        return (self.anchor_zero, self.anchor_a, self.anchor_b)


def serialize_certificate(cert: ReductionCertificate) -> str:
    lines = ["CERT 1", f"mode {cert.mode}", f"p {cert.p}", f"n {cert.n}"]
    for index in sorted(cert.defs):
        lines.append(f"{index} {format_polynomial(cert.defs[index])}")
    if cert.anchor_q is not None:
        lines.append(f"ANCHOR q {cert.anchor_q}")
    else:
        lines.append(
            f"ANCHOR N {cert.anchor_zero} {cert.anchor_a} {cert.anchor_b}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> ReductionCertificate:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "CERT 1":
        raise FormatError("missing 'CERT 1' header")
    header: dict[str, str] = {}
    for line in lines[1:4]:
        key, _, value = line.partition(" ")
        header[key] = value
    try:
        mode = header["mode"]
        p = int(header["p"])
        n = int(header["n"])
    except (KeyError, ValueError) as exc:
        raise FormatError("bad certificate header") from exc
    defs: dict[int, Polynomial] = {}
    anchor = None
    for line in lines[4:]:
        if line.startswith("ANCHOR "):
            if anchor is not None:
                raise FormatError("duplicate ANCHOR line")
            anchor = line.split()
            continue
        if anchor is not None:
            raise FormatError("definition after ANCHOR line")
        index_text, _, poly_text = line.partition(" ")
        try:
            index = int(index_text)
        except ValueError as exc:
            raise FormatError(f"bad definition line {line!r}") from exc
        defs[index] = parse_polynomial(poly_text, arity=p)
    if anchor is None:
        raise FormatError("missing ANCHOR line")
    cert = ReductionCertificate(mode=mode, p=p, n=n, defs=defs)
    if anchor[1] == "q" and len(anchor) == 3:
        cert.anchor_q = int(anchor[2])
    elif anchor[1] == "N" and len(anchor) == 5:
        cert.anchor_zero, cert.anchor_a, cert.anchor_b = map(int, anchor[2:])
    else:
        raise FormatError(f"bad ANCHOR line {' '.join(anchor)!r}")
    return cert


def validate_certificate(cert: ReductionCertificate, n: int):
    """Check that a certificate can describe a system on x_1..x_n.

    The certificate must name the same n, define exactly the auxiliary
    indices p+1..n and anchor on indices in [1, n]; otherwise its lift
    would leave or miss variables of the system.
    """
    if cert.n != n:
        raise CertificateMismatch(
            f"certificate has n {cert.n}, the system has {n} variables")
    auxiliary = set(range(cert.p + 1, n + 1))
    stray = sorted(set(cert.defs) - auxiliary)
    if stray:
        raise CertificateMismatch(
            f"certificate defines index {stray[0]} outside ({cert.p}, {n}]")
    missing = sorted(auxiliary - set(cert.defs))
    if missing:
        raise CertificateMismatch(
            f"certificate has no definition for index {missing[0]}")
    for index in cert.anchor_indices():
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
        self.equations: list[EnEquation] = []
        self._index_of = {
            Polynomial.variable(p, i).key(): i for i in range(1, p + 1)}
        self._next = p + 1

    def poly_of(self, index: int) -> Polynomial:
        if index <= self.p:
            return Polynomial.variable(self.p, index)
        return self.defs[index]

    def _node(self, poly: Polynomial, equation_for) -> int:
        index = self._index_of.get(poly.key())
        if index is not None:
            return index
        index = self._next
        self._next += 1
        self._index_of[poly.key()] = index
        self.defs[index] = poly
        self.equations.append(equation_for(index))
        return index

    def one(self) -> int:
        return self._node(Polynomial.constant(self.p, 1), One)

    def zero(self) -> int:
        return self._node(Polynomial.zero(self.p), lambda s: Add(s, s, s))

    def add(self, a: int, b: int) -> int:
        poly = self.poly_of(a) + self.poly_of(b)
        return self._node(poly, lambda s: Add(a, b, s))

    def sub(self, a: int, b: int) -> int:
        """Node for poly(a) - poly(b), via reversed addition s + b = a."""
        poly = self.poly_of(a) - self.poly_of(b)
        return self._node(poly, lambda s: Add(s, b, a))

    def mul(self, a: int, b: int) -> int:
        poly = self.poly_of(a) * self.poly_of(b)
        return self._node(poly, lambda s: Mul(a, b, s))

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
    terms = d.sorted_terms()
    width = max(abs(coeff).bit_length() for _, coeff in terms)
    return (d.arity + 2 + width
            + sum(sum(exps) + abs(coeff).bit_count() for exps, coeff in terms))


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
    equations = builder.equations + [Add(q, q, q)]
    system = EnSystem(builder.n, equations)
    cert = ReductionCertificate(
        mode="compact_Z", p=d.arity, n=builder.n, defs=builder.defs,
        anchor_q=q)
    return system, cert


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
    equations = builder.equations + [Add(zero, u_neg, u_pos)]
    system = EnSystem(builder.n, equations)
    cert = ReductionCertificate(
        mode="compact_N", p=d.arity, n=builder.n, defs=builder.defs,
        anchor_zero=zero, anchor_a=u_pos, anchor_b=u_neg)
    return system, cert


# --------------------------------------------------------------------------
# full-family modes

def _require_all_variables(d: Polynomial):
    for i in range(1, d.arity + 1):
        if d.degree_in(i) == 0:
            raise UnusedVariable(
                f"x{i} does not occur in the polynomial; no bijection onto "
                "the family minus the variables exists")


def _family_system(desc: FamilyDescriptor, *, pinned: list[Polynomial],
                   cap: int, pair_cap: int):
    """Index the family, close it under + and *, and return the machinery.

    `pinned` polynomials receive the first auxiliary indices p+1, p+2, ...
    in order; everything else follows in enumeration order.  Returns
    (equations, defs, sys_index_of) where sys_index_of maps a member's
    canonical key to its variable index.
    """
    card = desc.cardinality()
    if card > cap:
        raise FamilyTooLarge(card, cap)
    if card > pair_cap:
        raise FamilyTooLarge(
            card, pair_cap,
            what="full-family construction (emitted identity set grows "
                 "quadratically) cardinality")
    basis = desc.basis()
    vectors = list(desc.iter_vectors())
    members = [desc.vector_to_poly(v, basis) for v in vectors]
    rank_of = {v: r for r, v in enumerate(vectors)}

    assigned: dict[int, int] = {}
    for i in range(1, desc.p + 1):
        vec = desc.poly_vector(Polynomial.variable(desc.p, i), basis)
        if vec is None:
            raise UnusedVariable(f"x{i} is not a member of the family")
        assigned[rank_of[vec]] = i
    for offset, poly in enumerate(pinned):
        vec = desc.poly_vector(poly, basis)
        rank = rank_of[vec]
        if rank in assigned:
            raise ValueError("pinned member collides with a variable")
        assigned[rank] = desc.p + 1 + offset
    next_index = desc.p + 1 + len(pinned)
    for rank in range(card):
        if rank not in assigned:
            assigned[rank] = next_index
            next_index += 1

    one_poly = Polynomial.constant(desc.p, 1)
    equations: list[EnEquation] = [
        One(assigned[rank]) for rank in range(card)
        if members[rank] == one_poly]
    adds, muls = kernels.family_join(
        vectors, desc.coeff_lo, desc.coeff_hi, basis)
    equations.extend(
        Add(assigned[a], assigned[b], assigned[c]) for a, b, c in adds)
    equations.extend(
        Mul(assigned[a], assigned[b], assigned[c]) for a, b, c in muls)

    defs = {assigned[rank]: members[rank] for rank in range(card)
            if assigned[rank] > desc.p}
    sys_index_of = {members[rank].key(): assigned[rank] for rank in range(card)}
    return equations, defs, sys_index_of


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

    Over Z the anchor x_q + x_q = x_q sits on the member naming 2*D
    (full_Z: doubling keeps it off the variables) or D (halved_Z: q = i
    when D is x_i itself).  Over N the zero node, A and B take the indices
    p+1, p+2, p+3 and x_{p+1} + x_{p+2} = x_{p+3} equates A with B.
    """
    if d.is_zero():
        raise ZeroPolynomial("full-family reduction needs a nonzero polynomial")
    _require_all_variables(d)
    desc, anchored = family_descriptor(d, mode)
    pinned = anchored if mode == "full_N" else []
    equations, defs, index_of = _family_system(
        desc, pinned=pinned, cap=cap, pair_cap=pair_cap)
    nodes = [index_of[poly.key()] for poly in anchored]
    if mode == "full_N":
        zero, a, b = nodes
        equations.append(Add(zero, a, b))
        anchor = {"anchor_zero": zero, "anchor_a": a, "anchor_b": b}
    else:
        (q,) = nodes
        equations.append(Add(q, q, q))
        anchor = {"anchor_q": q}
    system = EnSystem(desc.cardinality(), equations)
    cert = ReductionCertificate(
        mode=mode, p=d.arity, n=system.n, defs=defs, **anchor)
    return system, cert


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

"""From a function representation to the n-variable pinning system.

Given W with x1 = f(x2) iff some existential x3..xr make W vanish over N,
`build_psi` reduces the relation to an E_s system Psi.  Over the integers
this goes through the four-square master polynomial (forcing x2 >= 0 and
every representation variable non-negative); over N the representation is
reduced directly.  `assemble` then surrounds Psi with the counting scaffold
that forces x2 = n using exactly n variables: padding z_i = 1, the doubling
t-chain, w, and the parity variable y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_, itemgetter

from .eqio import MAX_VARIABLE, FnRepresentation, ascii_int, ascii_ints
from .errors import FormatError, ParseError
# Unused here: e2ebench/spans.py wraps `pipeline.lift` by name, and
# tests/test_e2ebench.py checks that every name it wraps resolves.
from .oracle import foursquare_decompose, lift  # noqa: F401
from .reductions import (DEFAULT_FAMILY_CAP, DEFAULT_PAIR_CAP,
                         ReductionCertificate, build_compact_n,
                         build_compact_z, build_full_n, build_full_z,
                         build_master_z, master_arity, validate_certificate)
from .system import DOMAIN_N, DOMAIN_Z, Add, EnSystem, One


@dataclass
class PsiSystem:
    system: EnSystem
    mode: str  # "Z" | "N"
    certificate: ReductionCertificate

    @property
    def s(self) -> int:
        return self.system.n


def build_psi(rep: FnRepresentation, mode: str, family: str = "compact",
              cap: int = DEFAULT_FAMILY_CAP,
              pair_cap: int = DEFAULT_PAIR_CAP) -> PsiSystem:
    """Reduce the representation to an E_s system with x1, x2 roles kept.

    mode Z reduces the four-square master polynomial of W, so integer
    solutions exist exactly when x2 >= 0 and x1 = f(x2); mode N reduces
    W itself over the non-negative integers.  `family` selects the compact
    chain (default) or the full-family construction where it is feasible.
    """
    if mode not in (DOMAIN_Z, DOMAIN_N):
        raise ValueError(f"mode must be 'Z' or 'N', got {mode!r}")
    if family not in ("compact", "full"):
        raise ValueError(f"family must be 'compact' or 'full', got {family!r}")
    if mode == DOMAIN_Z:
        # The certificate names every master variable, and the parser that
        # reads it back stops at eqio.MAX_VARIABLE.
        arity = master_arity(rep.w.arity)
        if arity > MAX_VARIABLE:
            raise FormatError(
                f"r = {rep.w.arity} needs {arity} master variables over Z; "
                f"certificates hold at most {MAX_VARIABLE} (r <= "
                f"{MAX_VARIABLE // master_arity(1)})")
        source = build_master_z(rep.w)
        if family == "compact":
            system, cert = build_compact_z(source, cap)
        else:
            system, cert = build_full_z(source, cap, pair_cap)
    else:
        if family == "compact":
            system, cert = build_compact_n(rep.w, cap)
        else:
            system, cert = build_full_n(rep.w, cap, pair_cap)
    return PsiSystem(system=system, mode=mode, certificate=cert)


def threshold(s: int) -> int:
    """Smallest n for which the scaffold fits: 4 + 2s."""
    if s < 3:
        raise ValueError(f"threshold needs s >= 3, got {s}")
    return 4 + 2 * s


@dataclass(frozen=True)
class Scaffold:
    """Where the counting scaffold of an n-variable system around an
    s-variable psi puts its variables, and the equations it adds.

    Psi keeps indices 1..s, then come n - [n/2] - 2 - s padding variables
    z_i (each pinned to 1), the t-chain t_1..t_[n/2] (t_1 = 1 and
    t_{k+1} = t_1 + t_k), w = t_[n/2] + t_[n/2], and finally y (0 if n is
    even via y + y = y, else 1 via y = 1), tied to x2 by w + y = x2.
    """

    n: int
    s: int
    padding: tuple[int, ...]
    t_chain: tuple[int, ...]
    w_index: int
    y_index: int

    @classmethod
    def of(cls, n: int, s: int) -> "Scaffold":
        minimum = threshold(s)
        if n < minimum:
            raise ValueError(f"n below threshold {minimum}")
        first = n - n // 2 - 1  # t_1: after psi and n - [n/2] - 2 - s padding
        # Each index is made once here; the equations and labels built from
        # these tuples share its int object.
        return cls(n=n, s=s, padding=tuple(range(s + 1, first)),
                   t_chain=tuple(range(first, n - 1)), w_index=n - 1,
                   y_index=n)

    def one_indices(self) -> list[int]:
        """The i of every x_i = 1 the scaffold adds, in increasing order."""
        ones = [*self.padding, self.t_chain[0]]
        if self.n % 2:
            ones.append(self.y_index)
        return ones

    def add_columns(self) -> tuple[list[int], list[int], list[int]]:
        """The (i, j, k) columns, with i <= j, of the x_i + x_j = x_k
        equations the scaffold adds, in increasing k: w + y = x2, the
        t-chain, t_[n/2] + t_[n/2] = w and, for even n, y + y = y."""
        t, w, y = self.t_chain, self.w_index, self.y_index
        i = [w, *repeat(t[0], len(t) - 1), t[-1]]
        j = [y, *t[:-1], t[-1]]
        k = [2, *t[1:], w]
        if self.n % 2 == 0:
            i.append(y)
            j.append(y)
            k.append(y)
        return i, j, k

    def layout(self) -> dict[int, str]:
        """Index -> label, for x1..xn in index order: x1..xs, z1..,
        t1.., w, y."""
        s, pad, half = self.s, len(self.padding), len(self.t_chain)
        # Each group numbers from 1, so one list of numerals serves all.
        numerals = list(map(str, range(1, max(s, pad, half) + 1)))
        indices = (*range(1, s + 1), *self.padding, *self.t_chain,
                   self.w_index, self.y_index)
        return dict(zip(indices, [*map("x".__add__, numerals[:s]),
                                  *map("z".__add__, numerals[:pad]),
                                  *map("t".__add__, numerals[:half]),
                                  "w", "y"]))


@dataclass
class AssembledSystem:
    """An n-variable system: psi on x1..xs inside `scaffold`.  The labels
    are the system's names."""

    system: EnSystem
    scaffold: Scaffold
    mode: str
    certificate: ReductionCertificate | None


def assemble(psi: PsiSystem, n: int) -> AssembledSystem:
    """Surround Psi with the scaffold forcing x2 = n, using n variables;
    `Scaffold` describes the layout."""
    scaffold = Scaffold.of(n, psi.s)
    equations = list(psi.system.equations)
    equations += map(tuple.__new__, repeat(One), zip(scaffold.one_indices()))
    equations += Add.from_columns(*scaffold.add_columns())
    return AssembledSystem(EnSystem(n, equations, names=scaffold.layout()),
                           scaffold, psi.mode, psi.certificate)


def check_assembled(system: EnSystem,
                    certificate: ReductionCertificate | None,
                    layout_text: str) -> AssembledSystem:
    """The assembled system that `.layout` text describes, checked to be
    exactly `system`, with `certificate` (or None) as its psi certificate.

    The layout's n must be the system's.  Psi is taken to be the
    equations on indices 1..s (an fn-system certificate describes psi, so
    its n is the layout's s).  Every scaffold equation has an index above
    s, so the system's equations with an index above s must be exactly
    the scaffold's: their plain-int columns are compared with what
    `Scaffold` derives from (n, s), with no equation rebuilt.  Both the
    layout labels and the system's `# name` labels must be the
    scaffold's.  Any difference raises ParseError naming it.  Text that
    is exactly what `serialize_layout` writes for its header's (n, s,
    mode) is accepted unparsed; any other text is read by `parse_layout`.
    """
    n, s, mode = _layout_header(layout_text)
    scaffold = labels = None
    # n first: a header cannot have a scaffold built beyond the system.
    if (n == system.n and s is not None and s >= 3 and n >= threshold(s)
            and mode in (DOMAIN_Z, DOMAIN_N)):
        scaffold = Scaffold.of(n, s)
        layout = scaffold.layout()
        if layout_text != _render_layout(scaffold, mode, layout):
            scaffold = None
    if scaffold is None:
        n, s, mode, labels = parse_layout(layout_text)
        if n != system.n:
            raise ParseError("layout and system disagree on n")
    if certificate is not None:
        validate_certificate(certificate, s)
    if labels is not None:
        scaffold = Scaffold.of(n, s)
        layout = scaffold.layout()
    equations = system.equations
    outside = list(compress(equations, map(s.__lt__, map(max, equations))))
    kinds = list(map(type, outside))
    ones = sorted(map(itemgetter(0),
                      compress(outside, map(is_, kinds, repeat(One)))))
    adds = sorted(compress(outside, map(is_, kinds, repeat(Add))),
                  key=itemgetter(2))
    # No two scaffold additions share a k, so sorted by k the additions
    # above s are the scaffold's exactly when their columns are; a Mul
    # above s is neither kind.
    if (len(ones) + len(adds) != len(outside)
            or ones != scaffold.one_indices()
            or tuple(map(list, zip(*adds))) != scaffold.add_columns()):
        raise ParseError("system does not match the layout's scaffold")
    # A rendered layout's labels (None here) are the scaffold's.
    for what, names in (("layout label", labels),
                        (".ens name", system.names)):
        if names is not None and names != layout:
            index = min(i for i in names.keys() | layout.keys()
                        if names.get(i) != layout.get(i))
            raise ParseError(f"{what} of index {index} does not match "
                             f"the scaffold")
    return AssembledSystem(system, scaffold, mode, certificate)


def build_pipeline(rep: FnRepresentation, mode: str, n: int,
             family: str = "compact", cap: int = DEFAULT_FAMILY_CAP,
             pair_cap: int = DEFAULT_PAIR_CAP) -> AssembledSystem:
    """build_psi then assemble: the full source-to-system compilation."""
    return assemble(build_psi(rep, mode, family, cap, pair_cap), n)


def master_witness(root, r: int) -> tuple[int, ...]:
    """Extend a non-negative representation root to a master-variable
    witness by appending four-square decompositions in layout order."""
    root = tuple(root)
    if len(root) != r:
        raise ValueError(f"root of length {len(root)} for r = {r}")
    if any(v < 0 for v in root):
        raise ValueError("representation roots live in N")
    out = list(root)
    for value in root:
        out.extend(foursquare_decompose(value))
    return tuple(out)


# --------------------------------------------------------------------------
# layout sidecar (.layout)

def serialize_layout(assembled: AssembledSystem) -> str:
    return _render_layout(assembled.scaffold, assembled.mode,
                          assembled.system.names)


def _render_layout(scaffold: Scaffold, mode: str,
                   labels: dict[int, str]) -> str:
    """The `.layout` text: a header, then `labels` in index order."""
    lines = ["LAYOUT 1", f"n {scaffold.n}", f"s {scaffold.s}",
             f"mode {mode}"]
    for index in sorted(labels):
        lines.append(f"{index} {labels[index]}")
    return "\n".join(lines) + "\n"


def _layout_header(text: str) -> tuple[int | None, int | None, str | None]:
    """The values of lines 2-4 of `text`, its (n, s, mode) if it is a
    rendered layout; n and s are None unless ASCII digits."""
    head = text.split("\n", 4)[1:4]
    if len(head) < 3:
        return None, None, None
    n, s, mode = (line.partition(" ")[2] for line in head)
    return ascii_int(n), ascii_int(s), mode


_LAYOUT_HEADER = ("n", "s", "mode")


def parse_layout(text: str) -> tuple[int, int, str, dict[int, str]]:
    """Returns (n, s, mode, labels), reading `text` line by line and
    skipping blank lines.  A header key or an index given twice is an
    error."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "LAYOUT 1":
        raise FormatError("missing 'LAYOUT 1' header")
    header: dict[str, str] = {}
    keys: list[str] = []
    names: list[str] = []
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        if key in _LAYOUT_HEADER:
            if key in header:
                raise FormatError(f"duplicate layout line {line!r}")
            header[key] = value
        else:
            keys.append(key)
            names.append(value)
    # One integer check for all the label keys; the first bad one is
    # looked for only on failure.
    indices = ascii_ints(keys) if keys else []
    if indices is None:
        bad = next(line for line in lines[1:]
                   if line.partition(" ")[0] not in _LAYOUT_HEADER
                   and ascii_int(line.partition(" ")[0]) is None)
        raise FormatError(f"bad layout line {bad!r}")
    n, s = (ascii_int(header.get(key, "")) for key in ("n", "s"))
    mode = header.get("mode")
    if n is None or s is None or mode not in (DOMAIN_Z, DOMAIN_N):
        raise FormatError("bad layout header")
    labels: dict[int, str] = {}
    for index, name in zip(indices, names):
        if index in labels:
            raise FormatError(f"duplicate layout label of index {index}")
        labels[index] = name
    return n, s, mode, labels

"""From a function representation to the n-variable pinning system.

Given W with x1 = f(x2) iff some existential x3..xr make W vanish over N,
`build_psi` reduces the relation to an E_s system Psi.  Over the integers
this goes through the four-square master polynomial (forcing x2 >= 0 and
every representation variable non-negative); over N the representation is
reduced directly.  The counting scaffold around Psi forces x2 = n using
exactly n variables: padding z_i = 1, the doubling t-chain, w, and the
parity variable y.  `fn-system` renders it: `render_system` writes psi's
lines spliced into the scaffold's text, rendered from (n, s, mode), and
`read_rendered` reads such files back by parsing psi's lines alone.
`assemble` builds the n-variable system itself, and `check_assembled`
checks one read in full against its layout.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat

from .eqio import MAX_VARIABLE, FnRepresentation, ascii_int, ascii_ints
from .errors import FormatError, ParseError
# Unused here: e2ebench/spans.py wraps `pipeline.lift` by name, and
# tests/test_e2ebench.py checks that every name it wraps resolves.
from .oracle import foursquare_decompose, lift  # noqa: F401
from .reductions import (DEFAULT_FAMILY_CAP, DEFAULT_PAIR_CAP,
                         ReductionCertificate, build_compact_n,
                         build_compact_z, build_full_n, build_full_z,
                         build_master_z, master_arity, validate_certificate)
from . import system as ens
from .system import DOMAIN_N, DOMAIN_Z, EnSystem


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
        return cls(n=n, s=s, padding=tuple(range(s + 1, first)),
                   t_chain=tuple(range(first, n - 1)), w_index=n - 1,
                   y_index=n)

    def values(self) -> list[int]:
        """The values forced on x_{s+1}..x_n: padding 1, t_k = k,
        w = 2[n/2] and y = n mod 2, so that x2 = w + y = n."""
        half = len(self.t_chain)
        return [*repeat(1, len(self.padding)), *range(1, half + 1),
                2 * half, self.n % 2]


@dataclass
class AssembledSystem:
    """An n-variable system: psi on x1..xs inside `scaffold`.  The labels
    are the system's names."""

    system: EnSystem
    scaffold: Scaffold
    mode: str
    certificate: ReductionCertificate | None

    def psi(self) -> EnSystem:
        """The equations on x1..xs: the system without its scaffold."""
        s = self.scaffold.s
        # i <= j, so j and k hold a row's greatest index.
        return EnSystem(s, [row for row in self.system.rows
                            if row[2] <= s and row[3] <= s])


def assemble(psi: PsiSystem, n: int) -> AssembledSystem:
    """Surround Psi with the scaffold forcing x2 = n, using n variables:
    the equations and names of the rendered scaffold, read back."""
    scaffold = Scaffold.of(n, psi.s)
    _, ones, adds, layout = _render(scaffold, psi.mode)
    rows = ens.deserialize(f"ENSYS 1\nn {n}\n{ones}{adds}").rows
    return AssembledSystem(
        EnSystem(n, [*psi.system.rows, *rows],
                 names=parse_layout(layout)[3]), scaffold, psi.mode,
        psi.certificate)


def check_assembled(system: EnSystem,
                    certificate: ReductionCertificate | None,
                    layout_text: str) -> AssembledSystem:
    """The assembled system that `.layout` text describes, checked to be
    exactly `system`, with `certificate` (or None) as its psi certificate.

    The layout's n must be the system's.  Psi is taken to be the
    equations on indices 1..s (an fn-system certificate describes psi, so
    its n is the layout's s).  Every scaffold equation has an index above
    s, so the canonical lines of the system's equations with an index
    above s must be the rendered scaffold's.  Both the layout labels and
    the system's `# name` labels must be the scaffold's.  Any difference
    raises ParseError naming it.
    """
    n, s, mode, labels = parse_layout(layout_text)
    # n first: a header cannot have a scaffold built beyond the system.
    if n != system.n:
        raise ParseError("layout and system disagree on n")
    if certificate is not None:
        validate_certificate(certificate, s)
    scaffold = Scaffold.of(n, s)
    _, ones, adds, rendered = _render(scaffold, mode)
    # i <= j, so j and k hold a row's greatest index.
    outside = [row for row in system.rows if row[2] > s or row[3] > s]
    if ens.equation_lines(outside, n) != (ones, adds, ""):
        raise ParseError("system does not match the layout's scaffold")
    expected = (labels if layout_text == rendered
                else parse_layout(rendered)[3])
    for what, names in (("layout label", labels),
                        (".ens name", system.names)):
        if names != expected:
            index = min(i for i in names.keys() | expected.keys()
                        if names.get(i) != expected.get(i))
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
# rendered outputs (.ens and .layout)

# A scaffold's texts: the `.ens` header and name block, its sorted ONE
# and ADD lines, and the `.layout`.
Rendering = namedtuple("Rendering", "head ones adds layout")


def _render(scaffold: Scaffold, mode: str) -> Rendering:
    """The one renderer of scaffold text, from one list of numerals.  Psi's
    indices are at most s and the scaffold's above, so an assembled
    `.ens` is `head`, psi's ONE lines, `ones`, psi's ADD lines, `adds`,
    then psi's MUL lines."""
    n, s = scaffold.n, scaffold.s
    first, w, y = scaffold.t_chain[0], scaffold.w_index, scaffold.y_index
    numerals = list(map(str, range(n + 1)))
    # The `index label` lines; each group numbers its labels from 1.
    psi = numerals[1:s + 1]
    lines = [*map(" x".join, zip(psi, psi)),
             *map(" z".join, zip(numerals[s + 1:first],
                                 numerals[1:first - s])),
             *map(" t".join, zip(numerals[first:w],
                                 numerals[1:w - first + 1])),
             f"{w} w", f"{y} y"]
    # The padding, t1 and, for odd n, y.
    ones = numerals[s + 1:first + 1] + numerals[y:y + n % 2]
    # Sorted: t1 + t_k = t_{k+1}, t_[n/2] + t_[n/2] = w, w + y = x2 and,
    # for even n, y + y = y.
    chain = f"ADD {first} "
    adds = (chain + f"\n{chain}".join(map(" ".join, zip(
        numerals[first:w - 1], numerals[first + 1:w])))
        + f"\nADD {w - 1} {w - 1} {w}\nADD {w} {y} 2\n"
        + ("" if n % 2 else f"ADD {y} {y} {y}\n"))
    return Rendering(
        head=f"ENSYS 1\nn {n}\n# name " + "\n# name ".join(lines) + "\n",
        ones="ONE " + "\nONE ".join(ones) + "\n", adds=adds,
        layout=(f"LAYOUT 1\nn {n}\ns {s}\nmode {mode}\n"
                + "\n".join(lines) + "\n"))


def render_system(psi: PsiSystem, n: int) -> tuple[str, str]:
    """The `.ens` and `.layout` texts of `assemble(psi, n)`, with no
    n-variable system built; psi's names are not written."""
    rendered = _render(Scaffold.of(n, psi.s), psi.mode)
    psi_ones, psi_adds, psi_muls = ens.equation_lines(psi.system.rows,
                                                      psi.s)
    return "".join((rendered.head, psi_ones, rendered.ones, psi_adds,
                    rendered.adds, psi_muls)), rendered.layout


def read_rendered(ens_text: str, layout_text: str
                  ) -> tuple[EnSystem, Scaffold, str] | None:
    """Psi, the scaffold and the mode of a pair of texts exactly as
    `render_system` writes them, or None for any other pair.

    Only psi's lines, between the rendered blocks, are parsed; they
    must be canonical, with every index at most s.
    """
    header = "\n".join(layout_text.split("\n", 4)[:4])
    try:
        n, s, mode, _ = parse_layout(header)
    except FormatError:
        return None
    # A name line takes 12 characters or more: the text bounds the work.
    if s < 3 or n < threshold(s) or 12 * n > len(ens_text):
        return None
    scaffold = Scaffold.of(n, s)
    head, ones, adds, layout = _render(scaffold, mode)
    if layout_text != layout or not ens_text.startswith(head):
        return None
    psi_ones, found_ones, rest = ens_text[len(head):].partition(ones)
    psi_adds, found_adds, psi_muls = rest.partition(adds)
    if not (found_ones and found_adds):
        return None
    blocks = psi_ones, psi_adds, psi_muls
    try:
        psi = ens.deserialize(f"ENSYS 1\nn {s}\n" + "".join(blocks))
    except FormatError:
        return None
    if ens.equation_lines(psi.rows, s) != blocks:
        return None
    return psi, scaffold, mode


# --------------------------------------------------------------------------
# layout sidecar (.layout)

def serialize_layout(assembled: AssembledSystem) -> str:
    return _render(assembled.scaffold, assembled.mode).layout


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

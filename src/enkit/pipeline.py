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

from .eqio import MAX_VARIABLE, FnRepresentation
from .errors import FormatError
from .oracle import foursquare_decompose, lift
from .reductions import (DEFAULT_FAMILY_CAP, DEFAULT_PAIR_CAP,
                         ReductionCertificate, build_compact_n,
                         build_compact_z, build_full_n, build_full_z,
                         build_master_z, master_arity)
from .system import Add, EnSystem, One

MODE_Z = "Z"
MODE_N = "N"


@dataclass
class PsiSystem:
    system: EnSystem
    s: int
    mode: str  # "Z" | "N"
    certificate: ReductionCertificate

    def __post_init__(self):
        if self.s < 3:
            raise ValueError(f"psi needs s >= 3, got {self.s}")


@dataclass
class AssembledSystem:
    system: EnSystem
    n: int
    s: int
    mode: str
    certificate: ReductionCertificate
    layout: dict[int, str]
    padding: tuple[int, ...]
    t_chain: tuple[int, ...]
    w_index: int
    y_index: int

    def scaffold_values(self) -> dict[int, int]:
        """The values the scaffold forces in any solution."""
        half = self.n // 2
        values = {z: 1 for z in self.padding}
        for position, t in enumerate(self.t_chain, start=1):
            values[t] = position
        values[self.w_index] = 2 * half
        values[self.y_index] = self.n - 2 * half
        return values

    def witness_assignment(self, base) -> dict[int, int]:
        """Total assignment from a base point of the certificate."""
        values = lift(self.certificate, base)
        values.update(self.scaffold_values())
        return values


def build_psi(rep: FnRepresentation, mode: str, family: str = "compact",
              cap: int = DEFAULT_FAMILY_CAP,
              pair_cap: int = DEFAULT_PAIR_CAP) -> PsiSystem:
    """Reduce the representation to an E_s system with x1, x2 roles kept.

    mode Z reduces the four-square master polynomial of W, so integer
    solutions exist exactly when x2 >= 0 and x1 = f(x2); mode N reduces
    W itself over the non-negative integers.  `family` selects the compact
    chain (default) or the full-family construction where it is feasible.
    """
    if mode not in (MODE_Z, MODE_N):
        raise ValueError(f"mode must be 'Z' or 'N', got {mode!r}")
    if family not in ("compact", "full"):
        raise ValueError(f"family must be 'compact' or 'full', got {family!r}")
    if mode == MODE_Z:
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
    return PsiSystem(system=system, s=system.n, mode=mode, certificate=cert)


def threshold(s: int) -> int:
    """Smallest n for which the scaffold fits: 4 + 2s."""
    if s < 3:
        raise ValueError(f"threshold needs s >= 3, got {s}")
    return 4 + 2 * s


def assemble(psi: PsiSystem, n: int) -> AssembledSystem:
    """Surround Psi with the scaffold forcing x2 = n, using n variables.

    Layout: Psi's variables keep indices 1..s, then n - [n/2] - 2 - s
    padding variables (each pinned to 1), the t-chain t_1..t_[n/2], w,
    and finally y (0 if n is even via y + y = y, else 1 via y = 1).
    """
    s = psi.s
    minimum = threshold(s)
    if n < minimum:
        raise ValueError(f"n below threshold {minimum}")
    half = n // 2
    pad_count = n - half - 2 - s
    padding = tuple(range(s + 1, s + 1 + pad_count))
    t_chain = tuple(range(s + 1 + pad_count, s + 1 + pad_count + half))
    w_index = s + pad_count + half + 1
    y_index = w_index + 1
    assert y_index == n, "variable layout must use exactly n indices"

    equations = list(psi.system.equations)
    equations.extend(One(z) for z in padding)
    equations.append(One(t_chain[0]))
    for k in range(half - 1):
        equations.append(Add(t_chain[k], t_chain[0], t_chain[k + 1]))
    equations.append(Add(t_chain[-1], t_chain[-1], w_index))
    equations.append(Add(w_index, y_index, 2))
    if n % 2 == 0:
        equations.append(Add(y_index, y_index, y_index))
    else:
        equations.append(One(y_index))

    layout = {i: f"x{i}" for i in range(1, s + 1)}
    layout.update({z: f"z{t + 1}" for t, z in enumerate(padding)})
    layout.update({t: f"t{k + 1}" for k, t in enumerate(t_chain)})
    layout[w_index] = "w"
    layout[y_index] = "y"

    system = EnSystem(n, equations, names=layout)
    return AssembledSystem(
        system=system, n=n, s=s, mode=psi.mode,
        certificate=psi.certificate, layout=layout, padding=padding,
        t_chain=t_chain, w_index=w_index, y_index=y_index)


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
    lines = ["LAYOUT 1", f"n {assembled.n}", f"s {assembled.s}",
             f"mode {assembled.mode}"]
    for index in sorted(assembled.layout):
        lines.append(f"{index} {assembled.layout[index]}")
    return "\n".join(lines) + "\n"


def parse_layout(text: str) -> tuple[int, int, str, dict[int, str]]:
    """Returns (n, s, mode, labels)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "LAYOUT 1":
        raise FormatError("missing 'LAYOUT 1' header")
    header: dict[str, str] = {}
    labels: dict[int, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        if key in ("n", "s", "mode"):
            header[key] = value
        elif key.isdigit():
            labels[int(key)] = value
        else:
            raise FormatError(f"bad layout line {line!r}")
    try:
        return int(header["n"]), int(header["s"]), header["mode"], labels
    except (KeyError, ValueError) as exc:
        raise FormatError("bad layout header") from exc

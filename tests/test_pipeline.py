import functools
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enkit
from enkit import oracle, pipeline
from enkit.cli import main
from enkit.eqio import FnRepresentation, format_rep, parse_polynomial
from enkit.errors import (CertificateMismatch, EnkitError, FormatError,
                          ParseError)
from enkit.oracle import (Box, OracleLimits, Solved, Stuck, anchor_polynomial,
                          enumerate_roots, propagate, solve_bounded,
                          verify_pinning)
from enkit.pipeline import (PsiSystem, assemble, build_pipeline, build_psi,
                            check_assembled, master_witness, parse_layout,
                            read_rendered, render_system, serialize_layout,
                            threshold)
from enkit.poly import Polynomial
from enkit.reductions import (ReductionCertificate, build_compact_z,
                              build_master_z, parse_certificate,
                              serialize_certificate, validate_certificate)
from enkit.system import (Add, EnSystem, Mul, One, deserialize, serialize,
                          validate)

IDENTITY = FnRepresentation(w=parse_polynomial("x1 - x2", 2), r=2)
SQUARE = FnRepresentation(w=parse_polynomial("x1 - x2*x2", 2), r=2)


def test_psi_identity_n():
    psi = build_psi(IDENTITY, "N")
    assert psi.s == 3
    assert set(psi.system.equations) == {Add(2, 3, 1), Add(3, 3, 3)}


def test_psi_square_n():
    psi = build_psi(SQUARE, "N")
    assert psi.s == 4
    eqs = set(psi.system.equations)
    assert Add(3, 3, 3) in eqs     # the zero node
    assert Mul(2, 2, 4) in eqs     # x2 * x2
    assert Add(3, 4, 1) in eqs     # 0 + x2^2 = x1


def test_psi_identity_z_projections():
    """Over Z the reduction goes through the master polynomial: solutions
    found in a small box must project onto exactly the diagonal pairs with
    a four-square representation inside the box."""
    psi = build_psi(IDENTITY, "Z")
    assert psi.certificate.p == 10
    outcome = solve_bounded(psi.system, "Z", 1)
    assert outcome.exhausted
    projections = {(s[1], s[2]) for s in outcome.solutions}
    # Branched variables are capped at radius 1, so only the diagonal pairs
    # whose four-square parts fit in {-1, 0, 1} survive: x1 = x2 in {0, 1}.
    assert projections == {(0, 0), (1, 1)}
    # Same count as direct root enumeration of the master polynomial.
    master = build_master_z(IDENTITY.w)
    assert len(outcome.solutions) == len(
        enumerate_roots(master, Box.cube(10, 1), "Z"))


def test_psi_full_family_flag():
    psi = build_psi(IDENTITY, "N", family="full")
    assert psi.s == 625


@pytest.mark.parametrize("rep, mode, family", [
    (IDENTITY, "N", "compact"), (IDENTITY, "Z", "compact"),
    (SQUARE, "N", "compact"), (SQUARE, "Z", "compact"),
    (IDENTITY, "N", "full")],
    ids=["identity-N", "identity-Z", "square-N", "square-Z",
         "identity-N-full"])
def test_psi_and_assembled_rows_are_distinct(rep, mode, family):
    # A system keeps the rows it is given, so psi and the assembled system
    # must each hold every row once.
    psi = build_psi(rep, mode, family)
    asm = assemble(psi, threshold(psi.s) + 1)
    for rows in (psi.system.rows, asm.system.rows):
        assert len(set(rows)) == len(rows)


def test_threshold():
    assert threshold(3) == 10
    assert threshold(10) == 24
    with pytest.raises(ValueError):
        threshold(2)


def test_assemble_even():
    asm = assemble(build_psi(IDENTITY, "N"), 10)
    scaffold = asm.scaffold
    assert scaffold.n == 10 and asm.system.n == 10
    assert scaffold.padding == ()
    assert scaffold.t_chain == (4, 5, 6, 7, 8)
    assert scaffold.w_index == 9 and scaffold.y_index == 10
    assert Add(10, 10, 10) in set(asm.system.equations)
    assert validate(asm.system) == []
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    assert out.values[2] == 10 and out.values[1] == 10
    assert out.values[9] == 10 and out.values[10] == 0


def test_assemble_odd():
    asm = assemble(build_psi(IDENTITY, "N"), 11)
    scaffold = asm.scaffold
    assert len(scaffold.padding) == 1
    assert One(scaffold.padding[0]) in set(asm.system.equations)
    assert One(scaffold.y_index) in set(asm.system.equations)
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    assert out.values[2] == 11 and out.values[scaffold.y_index] == 1


def test_assemble_below_threshold():
    with pytest.raises(ValueError, match="below threshold"):
        assemble(build_psi(IDENTITY, "N"), 9)


def test_variable_count_identity():
    psi = build_psi(SQUARE, "N")
    for n in range(threshold(psi.s), threshold(psi.s) + 30):
        asm = assemble(psi, n)
        assert (psi.s + len(asm.scaffold.padding)
                + len(asm.scaffold.t_chain) + 2 == n)
        assert asm.system.n == n


def test_scaffold_values_match_propagation():
    asm = assemble(build_psi(SQUARE, "N"), 17)
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    scaffold = asm.scaffold
    half = scaffold.n // 2
    expected = {z: 1 for z in scaffold.padding}
    for position, t in enumerate(scaffold.t_chain, start=1):
        expected[t] = position
    expected[scaffold.w_index] = 2 * half
    expected[scaffold.y_index] = scaffold.n - 2 * half
    for index, value in expected.items():
        assert out.values[index] == value
    assert scaffold.values() == out.values[scaffold.s + 1:]


def test_pipeline_identity_n():
    asm = build_pipeline(IDENTITY, "N", 12)
    report = verify_pinning(asm.system, 12, domain="N",
                            certificate=asm.certificate,
                            witness_base=(12, 12))
    assert report.x2_forced
    assert report.propagation_complete
    assert report.solutions_found == 1
    assert report.offending == []
    assert report.witness_ok
    assert report.passed


def test_pipeline_square_n():
    asm = build_pipeline(SQUARE, "N", 14)
    report = verify_pinning(asm.system, 196, domain="N",
                            certificate=asm.certificate,
                            witness_base=(196, 14))
    assert report.passed and report.witness_ok


def test_pipeline_constant_z():
    # f constant 5: W = x1 - 5
    rep = FnRepresentation(w=parse_polynomial("x1 - 5", 2), r=2)
    psi = build_psi(rep, "Z")
    n = threshold(psi.s)
    asm = assemble(psi, n)
    witness = master_witness((5, n), 2)
    report = verify_pinning(asm.system, 5, domain="Z",
                            certificate=asm.certificate, box_radius=1,
                            witness_base=witness)
    assert report.x2_forced
    assert report.offending == []
    assert report.witness_ok and report.passed


def test_pinning_cert_path_matches_generic_search():
    # x3 occurs in no equation, so propagation leaves that base variable
    # free and every point of its radius-2 range is a root.
    rep = FnRepresentation(w=parse_polynomial("x1 - x2 + 0*x3", 3), r=3)
    asm = build_pipeline(rep, "N", 12)
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Stuck) and out.undetermined == (3,)
    via_cert = verify_pinning(asm.system, 12, domain="N",
                              certificate=asm.certificate, box_radius=2)
    generic = solve_bounded(asm.system, "N", 2)
    assert generic.exhausted
    assert via_cert.solutions_found == len(generic.solutions) == 3
    assert sorted(s[3] for s in generic.solutions) == [0, 1, 2]
    assert via_cert.offending == [] and via_cert.search_exhausted
    assert via_cert.passed


def test_pinning_propagation_conflict_fails():
    # W = x2 + 1 has no root over N: with x2 = n forced, psi conflicts.
    rep = FnRepresentation(w=parse_polynomial("x2 + 1", 2), r=2)
    psi = build_psi(rep, "N")
    asm = assemble(psi, threshold(psi.s))
    report = verify_pinning(asm.system, 0, domain="N",
                            certificate=asm.certificate,
                            witness_base=(0, asm.system.n))
    assert not report.consistent_propagation
    assert report.solutions_found == 0 and not report.witness_checked
    assert not report.passed


def _psi_with_free_auxiliary():
    """Psi on x1..x4 with x1 = x2 and 0 * x4 = 0: every base variable is
    forced once x2 is, and the auxiliary x4 never is."""
    cert = ReductionCertificate(
        mode="compact_N", p=2, n=4,
        defs={3: Polynomial.constant(2, 0), 4: Polynomial.constant(2, 0)},
        anchor=(3, 1, 2))
    system = EnSystem(4, [Add(3, 3, 3), Add(3, 2, 1), Mul(3, 4, 3)])
    return PsiSystem(system=system, mode="N", certificate=cert)


def test_pinning_searches_when_every_base_variable_is_forced():
    asm = assemble(_psi_with_free_auxiliary(), 12)
    report = verify_pinning(asm.system, 12, domain="N",
                            certificate=asm.certificate, box_radius=2)
    assert report.x2_forced and not report.propagation_complete
    assert report.search_exhausted
    assert report.solutions_found == 3 and report.offending == []
    assert report.passed
    truncated = verify_pinning(asm.system, 12, domain="N",
                               certificate=asm.certificate, box_radius=2,
                               limits=OracleLimits(search_nodes=0))
    assert not truncated.search_exhausted
    assert not truncated.passed


def test_pinning_searches_a_bare_stuck_system():
    # x1 = 1, x3 = 2, x2 = 4 and x4 free; no certificate to enumerate by
    bare = EnSystem(4, [One(1), Add(1, 1, 3), Add(3, 3, 2)])
    report = verify_pinning(bare, 1, domain="N", box_radius=1)
    assert report.x2_forced and not report.propagation_complete
    assert report.search_exhausted
    assert report.solutions_found == 2 and report.offending == []
    assert report.passed
    wrong = verify_pinning(bare, 2, domain="N", box_radius=1)
    assert sorted(s[4] for s in wrong.offending) == [0, 1]
    assert not wrong.passed
    with pytest.raises(ValueError, match="witness checking needs a cert"):
        verify_pinning(bare, 1, domain="N", witness_base=(1,))


def _pinned_by_reindexing(system, cert, domain, radius):
    """Reference for the certificate route: the anchored polynomial, with
    the forced base variables substituted, re-indexed into the free ones
    alone and rooted point by point over their cube.  Each solution is the
    forced row with the base point and each definition's value at it
    written in."""
    forced = propagate(system, {}, domain).values
    fixed = {i: forced[i] for i in range(1, cert.p + 1)
             if forced[i] is not None}
    free = [i for i in range(1, cert.p + 1) if forced[i] is None]
    residual = anchor_polynomial(cert).substituted(fixed)
    residual = Polynomial(len(free), {
        tuple(exps[i - 1] for i in free): coeff
        for exps, coeff in residual.terms.items()})
    solutions = []
    for root in Box.cube(len(free), radius).iter_points(domain):
        if residual.eval_at(root) == 0:
            base = {**fixed, **dict(zip(free, root))}
            point = tuple(base[i] for i in range(1, cert.p + 1))
            solution = forced.copy()
            solution[1:cert.p + 1] = point
            for index, poly in cert.defs.items():
                solution[index] = poly.eval_at(point)
            solutions.append(solution)
    return solutions


def test_pinning_roots_with_a_forced_variable_between_free_ones():
    # x2 = n is forced; x1 and x3 are free on either side of it.
    rep = FnRepresentation(w=parse_polynomial("x1*x3 - x2", 3), r=3)
    asm = build_pipeline(rep, "N", 14)
    out = propagate(asm.system, {}, "N")
    assert [i for i in (1, 2, 3) if out.values[i] is not None] == [2]
    # No solution has x1 = -1, so `offending` lists every solution found.
    report = verify_pinning(asm.system, -1, domain="N",
                            certificate=asm.certificate, box_radius=7)
    expected = _pinned_by_reindexing(asm.system, asm.certificate, "N", 7)
    assert [(s[1], s[3]) for s in expected] == [(2, 7), (7, 2)]
    assert report.offending == expected
    assert report.solutions_found == 2 and report.search_exhausted


def test_pinning_roots_on_the_z_master_at_its_smallest_n(monkeypatch):
    psi = build_psi(IDENTITY, "Z")
    n = threshold(psi.s)
    asm = assemble(psi, n)
    cert = asm.certificate
    out = propagate(asm.system, {}, "Z")
    assert [i for i in range(1, cert.p + 1)
            if out.values[i] is not None] == [2]
    boxes = []

    def recording(poly, box, *args):
        boxes.append(box.bounds)
        return enumerate_roots(poly, box, *args)

    monkeypatch.setattr(oracle, "enumerate_roots", recording)
    report = verify_pinning(asm.system, -1, domain="Z", certificate=cert,
                            box_radius=1)
    # The roots are taken in the certificate's own coordinates.
    assert boxes == [((-1, 1), (n, n)) + ((-1, 1),) * 8]
    # x2 = n needs four squares summing to n, none of them inside [-1, 1].
    assert report.offending == _pinned_by_reindexing(
        asm.system, cert, "Z", 1) == []
    assert report.solutions_found == 0 and report.search_exhausted


@pytest.mark.parametrize("witness", [None, (4, 2)])
def test_pinning_refuses_a_certificate_that_does_not_fit(monkeypatch,
                                                         witness):
    def refuse(*args):
        raise AssertionError("propagated")

    monkeypatch.setattr(oracle._Propagator, "start", refuse)
    bare = EnSystem(4, [One(1), Add(1, 1, 3), Add(3, 3, 2)])
    _, wide = build_compact_z(parse_polynomial("x1 - x2*x2", 2))
    assert wide.n > bare.n
    with pytest.raises(CertificateMismatch,
                       match=f"certificate has n {wide.n}, the system has "
                             f"4 variables"):
        verify_pinning(bare, 4, domain="Z", certificate=wide,
                       witness_base=witness)
    # Fitting in n but missing a definition is refused as well.
    holed = ReductionCertificate(
        mode="compact_N", p=2, n=4, defs={3: Polynomial.constant(2, 0)},
        anchor=(3, 1, 2))
    with pytest.raises(CertificateMismatch,
                       match="certificate has no definition for index 4"):
        verify_pinning(bare, 4, domain="N", certificate=holed,
                       witness_base=witness)


def _offending_by_route(route):
    """verify_pinning's arguments for a report whose offending solutions
    come from complete propagation, the certificate or the search."""
    if route == "propagation":
        asm = build_pipeline(IDENTITY, "N", 12)
        return asm.system, 11, dict(domain="N", certificate=asm.certificate,
                                    witness_base=(12, 12))
    if route == "certificate":
        rep = FnRepresentation(w=parse_polynomial("x1*x3 - x2", 3), r=3)
        asm = build_pipeline(rep, "N", 14)
        return asm.system, -1, dict(domain="N", certificate=asm.certificate,
                                    box_radius=7)
    bare = EnSystem(4, [One(1), Add(1, 1, 3), Add(3, 3, 2)])
    return bare, 2, dict(domain="N", box_radius=1)


@pytest.mark.parametrize("route", ["propagation", "certificate", "search"])
def test_offending_rows_are_copies(monkeypatch, route):
    made = []

    class Recorded(oracle._Propagator):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(oracle, "_Propagator", Recorded)
    system, expected, options = _offending_by_route(route)
    report = verify_pinning(system, expected, **options)
    assert report.offending and not report.passed
    (prop,) = made
    row, want = prop.row.copy(), [s.copy() for s in report.offending]
    for solution in report.offending:
        solution[1:] = [-7] * system.n
    assert prop.row == row
    again = verify_pinning(system, expected, **options)
    assert again.offending == want
    assert vars(again) == vars(replace(report, offending=want))


def test_pinning_refuses_a_certificate_whose_lift_fails():
    # The zero node defined as 1 leaves the anchor polynomial, poly(a) -
    # poly(b), and so its roots, as they were, but no lift of a root solves
    # the system: the certificate is not the system's.
    system, expected, options = _offending_by_route("certificate")
    cert = options["certificate"]
    zero = cert.anchor[0]
    assert cert.defs[zero].is_zero()
    defs = {**cert.defs, zero: Polynomial.constant(cert.p, 1)}
    options["certificate"] = replace(cert, defs=defs)
    with pytest.raises(CertificateMismatch, match=r"^certificate lift of "
                       r"\(.*\) does not solve the system$"):
        verify_pinning(system, expected, **options)


def test_complete_propagation_is_never_truncated():
    # The search from a complete propagation has nothing to branch on, so
    # no budget cuts it short.
    asm = build_pipeline(IDENTITY, "N", 12)
    report = verify_pinning(asm.system, 12, domain="N",
                            certificate=asm.certificate,
                            limits=OracleLimits(seconds=0, search_nodes=0))
    assert report.propagation_complete and report.search_exhausted
    assert report.solutions_found == 1 and report.passed


def test_check_assembled_rebuilds_the_scaffold():
    asm = build_pipeline(SQUARE, "N", 17)
    text = serialize_layout(asm)
    checked = check_assembled(asm.system, asm.certificate, text)
    assert checked.system == asm.system
    assert checked.system.names == asm.system.names
    assert checked.scaffold == asm.scaffold
    assert (checked.scaffold.n, checked.scaffold.s, checked.mode) == \
        (17, 4, "N")
    assert checked.certificate is asm.certificate
    with pytest.raises(ParseError, match="layout and system disagree on n"):
        check_assembled(EnSystem(18, asm.system.equations), None, text)
    extra = EnSystem(17, (*asm.system.equations, Add(5, 5, 6)),
                     asm.system.names)
    with pytest.raises(ParseError, match="does not match the layout's"):
        check_assembled(extra, None, text)
    scaffold = asm.scaffold
    moved = EnSystem(17, [One(scaffold.t_chain[1])
                          if eq == One(scaffold.padding[0])
                          else eq for eq in asm.system.equations],
                     asm.system.names)
    with pytest.raises(ParseError, match="does not match the layout's"):
        check_assembled(moved, None, text)
    t1, t2 = scaffold.t_chain[:2]
    extra = EnSystem(17, (*asm.system.equations, Mul(t1, t1, t2)),
                     asm.system.names)
    with pytest.raises(ParseError, match="does not match the layout's"):
        check_assembled(extra, None, text)
    with pytest.raises(ValueError, match="threshold needs s >= 3, got 2"):
        check_assembled(asm.system, None, text.replace("\ns 4\n", "\ns 2\n"))


def test_pinning_detects_wrong_expectation():
    asm = build_pipeline(IDENTITY, "N", 12)
    report = verify_pinning(asm.system, 11, domain="N",
                            certificate=asm.certificate,
                            witness_base=(12, 12))
    assert report.offending and not report.passed
    report = verify_pinning(asm.system, 12, domain="N",
                            certificate=asm.certificate,
                            witness_base=(11, 11))
    assert report.witness_ok is False


def test_master_witness():
    witness = master_witness((5, 12), 2)
    assert witness[:2] == (5, 12)
    assert sum(v * v for v in witness[2:6]) == 5
    assert sum(v * v for v in witness[6:10]) == 12
    with pytest.raises(ValueError):
        master_witness((5,), 2)
    with pytest.raises(ValueError):
        master_witness((-1, 3), 2)


def test_layout_roundtrip():
    asm = build_pipeline(SQUARE, "N", 13)
    text = serialize_layout(asm)
    n, s, mode, labels = parse_layout(text)
    assert (n, s, mode) == (13, 4, "N")
    assert labels == asm.system.names
    assert labels[asm.scaffold.w_index] == "w"
    assert labels[asm.scaffold.y_index] == "y"
    assert labels[asm.scaffold.padding[0]].startswith("z")


@pytest.mark.parametrize("line", ["\u00b2 x2", "\u0663 x3", "-1 x1", "x1 1"])
def test_layout_index_must_be_ascii_digits(line):
    text = f"LAYOUT 1\nn 13\ns 4\nmode N\n1 x1\n{line}\n"
    with pytest.raises(FormatError) as err:
        parse_layout(text)
    assert str(err.value) == f"bad layout line {line!r}"


@pytest.mark.parametrize("header", [
    "n ١٢\ns 4\nmode N",   # Arabic-Indic digits
    "n 13\ns 1_0\nmode N",          # int() would read 10
    "n 13\ns 4\nmode Q",
    "n +13\ns 4\nmode N",
    "n 13\ns -4\nmode N",
    "n 13\ns 4\nmode z",
    "n 13\nmode N",
    "n 13\ns 4",
])
def test_layout_header_must_be_ascii_digits_and_a_mode(header):
    with pytest.raises(FormatError) as err:
        parse_layout(f"LAYOUT 1\n{header}\n1 x1\n")
    assert str(err.value) == "bad layout header"


# -- check_assembled against rebuilding the scaffold ------------------------

def rebuilt(psi, n):
    """The reference assembly, built equation by equation and label by
    label without `Scaffold`."""
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
    first = t_chain[0]
    equations = list(psi.system.equations)
    equations += [One(z) for z in padding]
    equations.append(One(first))
    equations += [Add(first, t, u) for t, u in zip(t_chain, t_chain[1:])]
    equations.append(Add(t_chain[-1], t_chain[-1], w_index))
    equations.append(Add(w_index, y_index, 2))
    equations.append(Add(y_index, y_index, y_index) if n % 2 == 0
                     else One(y_index))
    layout = {i: f"x{i}" for i in range(1, s + 1)}
    layout.update({z: f"z{k}" for k, z in enumerate(padding, start=1)})
    layout.update({t: f"t{k}" for k, t in enumerate(t_chain, start=1)})
    layout[w_index] = "w"
    layout[y_index] = "y"
    return SimpleNamespace(
        system=EnSystem(n, equations, names=layout), mode=psi.mode,
        certificate=psi.certificate,
        scaffold=SimpleNamespace(n=n, s=s, padding=padding, t_chain=t_chain,
                                 w_index=w_index, y_index=y_index))


def check_by_rebuilding(system, certificate, layout_text):
    """The reference scaffold check: rebuild around psi, compare sets."""
    n, s, mode, labels = parse_layout(layout_text)
    if n != system.n:
        raise ParseError("layout and system disagree on n")
    if certificate is not None:
        validate_certificate(certificate, s)
    psi = PsiSystem(
        system=EnSystem(s, [eq for eq in system.rows if max(eq[1:]) <= s]),
        mode=mode, certificate=certificate)
    assembled = rebuilt(psi, n)
    if set(assembled.system.equations) != set(system.equations):
        raise ParseError("system does not match the layout's scaffold")
    for what, names in (("layout label", labels),
                        (".ens name", system.names)):
        layout = assembled.system.names
        if names != layout:
            index = min(i for i in names.keys() | layout.keys()
                        if names.get(i) != layout.get(i))
            raise ParseError(f"{what} of index {index} does not match "
                             f"the scaffold")
    return assembled


def check_outcome(check, system, certificate, layout_text):
    try:
        a = check(system, certificate, layout_text)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    scaffold = a.scaffold
    return (a.system, scaffold.n, scaffold.s, a.mode, a.certificate,
            a.system.names, scaffold.padding, scaffold.t_chain,
            scaffold.w_index, scaffold.y_index)


# fn-system outputs over N and Z, for odd and even n.
FN_CASES = [(IDENTITY, "N", 12), (SQUARE, "N", 17), (IDENTITY, "Z", 268),
            (IDENTITY, "Z", 271)]


@functools.cache
def fn_outputs(case):
    asm = build_pipeline(*FN_CASES[case])
    return serialize(asm.system), asm.certificate, serialize_layout(asm)


LABELS = ["x1", "x2", "z1", "t1", "t2", "w", "y", "q"]


@st.composite
def edited_line(draw, text, n):
    """text with one line deleted or repeated, or with one field of a line
    or of a copy of it replaced by a nearby index, a label or another
    equation kind."""
    lines = text.splitlines()
    # Equation lines half of the time, since most .ens lines are names.
    equations = [t for t, line in enumerate(lines)
                 if line.startswith(("ONE", "ADD", "MUL"))]
    t = draw(st.sampled_from(equations) if equations and draw(st.booleans())
             else st.integers(1, len(lines) - 1))
    op = draw(st.sampled_from(["delete", "repeat", "field", "copy"]))
    if op == "delete":
        del lines[t]
    elif op in ("repeat", "copy"):
        lines.insert(t, lines[t])
    if op in ("field", "copy"):
        fields = lines[t].split(" ")
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] = draw(st.sampled_from(["ONE", "ADD", "MUL", *LABELS])
                         | st.integers(0, n + 1).map(str))
        lines[t] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(FN_CASES) - 1), st.sampled_from([".ens", ".layout"]),
       st.booleans(), st.data())
def test_check_assembled_agrees_with_rebuilding(case, suffix, with_cert,
                                                data):
    ens_text, cert, layout_text = fn_outputs(case)
    n = FN_CASES[case][2]
    if suffix == ".ens":
        ens_text = data.draw(edited_line(ens_text, n))
    else:
        layout_text = data.draw(edited_line(layout_text, n))
    try:
        system = deserialize(ens_text)
    except FormatError:
        return  # no system to check
    cert = cert if with_cert else None
    got = check_outcome(check_assembled, system, cert, layout_text)
    assert got == check_outcome(check_by_rebuilding, system, cert,
                                layout_text)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(FN_CASES) - 1), st.booleans(), st.data())
def test_check_assembled_agrees_with_rebuilding_on_spacing(case, with_cert,
                                                           data):
    ens_text, cert, text = fn_outputs(case)
    for _ in range(data.draw(st.integers(0, 2))):
        text = data.draw(edited_line(text, FN_CASES[case][2]))
    # Whitespace, a line break or a non-ASCII letter put in, most often
    # next to a separator, or a line break taken out.
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.sampled_from([i for i, ch in enumerate(text)
                                        if ch in " \n"])
                       | st.integers(0, len(text)))
        if data.draw(st.integers(0, 3)):
            text = text[:at] + data.draw(st.sampled_from(
                [" ", "\t", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\n",
                 "\u00e9"])) + text[at:]
        else:
            text = text[:at] + text[at:].replace("\n", "", 1)
    system = deserialize(ens_text)
    cert = cert if with_cert else None
    assert (check_outcome(check_assembled, system, cert, text)
            == check_outcome(check_by_rebuilding, system, cert, text))


@pytest.mark.parametrize("edit", [
    lambda text: text,                                   # as rendered
    lambda text: text.replace("\n1 x1\n", "\n1 x1\n\n"),  # a blank line
    lambda text: text.replace("\n", "\r\n"),             # CRLF line ends
], ids=["rendered", "blank-line", "crlf"])
@pytest.mark.parametrize("case", range(len(FN_CASES)))
def test_check_assembled_parses_other_layouts_once(monkeypatch, case, edit):
    ens_text, cert, text = fn_outputs(case)
    system = deserialize(ens_text)
    expected = check_outcome(check_assembled, system, cert, text)
    assert expected[0] is system
    calls = []

    def counted(text):
        calls.append(text)
        return parse_layout(text)

    monkeypatch.setattr(pipeline, "parse_layout", counted)
    edited = edit(text)
    assert check_outcome(check_assembled, system, cert, edited) == expected
    # The given layout; unless it is the rendered one, then the rendered
    # one the labels are read from.
    assert calls == ([text] if edited == text else [edited, text])


@pytest.mark.parametrize("mode", ["Q", "z", "N "])
def test_check_assembled_refuses_a_rendered_layout_of_another_mode(mode):
    # Rendered exactly but for its mode, the layout is still refused.
    ens_text, cert, text = fn_outputs(0)
    text = text.replace("\nmode N\n", f"\nmode {mode}\n")
    outcome = (FormatError, "bad layout header")
    for check in (check_assembled, check_by_rebuilding):
        assert check_outcome(check, deserialize(ens_text), cert,
                             text) == outcome


# sha256 of the .ens, .cert and .layout texts of each FN_CASES output.
FN_DIGESTS = [
    ("d2391a00aa8066bde3e7008cf554837fb1ded6006be8a2cb68c0ae2edc5cbb1d",
     "6aada1ffd3634e9d9c38afb3015fc3f920331c2a8cdb612dc3e564c24216c7d8",
     "8882dba7f103a936a1f3854852de8ac424762f52106e375514e01f7c778be00b"),
    ("d16b943039f6a456668ac1058ad96f3848652c75c8cba7bc747f12f7aa98f739",
     "1038dc8cda73919f8e11e47df00a32d8ae5283a05479f64bedc7dcba14834d57",
     "ea9350c9312fb57c0b98f262f989bf3a2f4d5218dd75dbb758024ad52f8356ea"),
    ("987bfa1efefff271fbc60a7bc88844ecdcb2de2538086cbe784229681a1024f7",
     "d7813b19c4ee68957147ea0ccb6067a209d8adb64a72971c143ac14797071aff",
     "9bba0534de5449b1eb63cf5598d16bb3f6fb71c80cc0bdfba8d754dc0c7a3ee9"),
    ("43ba562c69d4c381b4f491a4ca44ee8d8f73263fda1cc0c875b1ce91fe2eb3ce",
     "d7813b19c4ee68957147ea0ccb6067a209d8adb64a72971c143ac14797071aff",
     "d962ff29f19cb6574dfa60b529bf6882db62317107dae96e116aebe81f9934d9"),
]
# The same for the identity at the top of the benchmark's n band.
LARGE_FN_CASES = [(IDENTITY, "Z", 19000), (IDENTITY, "N", 19001)]
LARGE_FN_DIGESTS = [
    ("4d469bc8d00807ef9a0d80dd90615ddca02edcb26a3244db12126e681be6d749",
     "d7813b19c4ee68957147ea0ccb6067a209d8adb64a72971c143ac14797071aff",
     "021d3789fb31334f7d67114c9c883e3da847bf4d90822e6bed962e349b5bf6ab"),
    ("13c6f12819615abef281bf85f371850a72788695697df048f13e6ec4029d8d86",
     "6aada1ffd3634e9d9c38afb3015fc3f920331c2a8cdb612dc3e564c24216c7d8",
     "1115fdb87198601ed607c3af3ff4bc094af7c244016b0c2b10db08b49e587365"),
]


@pytest.mark.parametrize("case", range(len(FN_CASES + LARGE_FN_CASES)),
                         ids=[f"{mode}-{n}" for _, mode, n
                              in FN_CASES + LARGE_FN_CASES])
def test_fn_system_outputs_byte_identical(tmp_path, case):
    # Both the assembled system's serializations and what `fn-system`
    # writes.
    rep, mode, n = (FN_CASES + LARGE_FN_CASES)[case]
    digests = (FN_DIGESTS + LARGE_FN_DIGESTS)[case]
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    asm = build_pipeline(rep, mode, n)
    assert (sha(serialize(asm.system)),
            sha(serialize_certificate(asm.certificate)),
            sha(serialize_layout(asm))) == digests
    (tmp_path / "f.rep").write_text(format_rep(rep), encoding="ascii")
    assert main(["fn-system", "--rep", str(tmp_path / "f.rep"), "--ring",
                 mode.lower(), "--n", str(n), "--out",
                 str(tmp_path / "f")]) == 0
    assert tuple(sha((tmp_path / f"f{suffix}").read_text())
                 for suffix in (".ens", ".cert", ".layout")) == digests


# -- pinning psi inside its scaffold ----------------------------------------

def _free_auxiliary(n):
    return assemble(_psi_with_free_auxiliary(), n)


# (assembled system, expected, verify_pinning options): every route of
# verify_pinning, passing and failing.
PSI_PINNING_CASES = {
    "complete": (lambda: build_pipeline(IDENTITY, "N", 12), 12,
                 dict(witness_base=(12, 12))),
    "complete-wrong": (lambda: build_pipeline(IDENTITY, "N", 12), 11,
                       dict(witness_base=(11, 11))),
    "square-odd": (lambda: build_pipeline(SQUARE, "N", 17), 289,
                   dict(witness_base=(289, 17))),
    "search": (lambda: _free_auxiliary(13), 13, dict(box_radius=2)),
    "search-wrong": (lambda: _free_auxiliary(12), 11, dict(box_radius=2)),
    "search-truncated": (lambda: _free_auxiliary(12), 12, dict(
        box_radius=2, limits=OracleLimits(search_nodes=0))),
    "certificate": (lambda: build_pipeline(FnRepresentation(
        w=parse_polynomial("x1*x3 - x2", 3), r=3), "N", 14), -1,
        dict(box_radius=7)),
    "conflict": (lambda: build_pipeline(FnRepresentation(
        w=parse_polynomial("x2 + 1", 2), r=2), "N", 14), 0,
        dict(witness_base=(0, 14))),
    "z-master": (lambda: build_pipeline(IDENTITY, "Z", 268), 268, dict(
        box_radius=1, witness_base=master_witness((268, 268), 2))),
    "z-master-wrong": (lambda: build_pipeline(IDENTITY, "Z", 269), 1, dict(
        box_radius=1, witness_base=master_witness((1, 269), 2))),
}


@pytest.mark.parametrize("case", sorted(PSI_PINNING_CASES))
def test_pinning_psi_inside_its_scaffold_reports_the_whole_system(case):
    make, expected, options = PSI_PINNING_CASES[case]
    asm = make()
    options = dict(options, domain=asm.mode, certificate=asm.certificate)
    whole = verify_pinning(asm.system, expected, **options)
    psi = asm.psi()
    assert psi.n == asm.scaffold.s
    assert max(max(row[1:]) for row in psi.rows) <= psi.n
    inside = verify_pinning(psi, expected, tail=asm.scaffold.values(),
                            **options)
    assert vars(inside) == vars(whole)


@st.composite
def psi_and_n(draw):
    """A psi system of indices at most s, with or without ONE and MUL
    equations and with or without names, and an n from the threshold,
    where the scaffold has no padding, to 40 above it."""
    s = draw(st.integers(3, 9))
    index = st.integers(1, s)
    kinds = [st.builds(Add, index, index, index)]
    if draw(st.booleans()):
        kinds.append(st.builds(One, index))
    if draw(st.booleans()):
        kinds.append(st.builds(Mul, index, index, index))
    equations = draw(st.lists(st.one_of(kinds), max_size=12, unique=True))
    names = {i: f"v{i}" for i in range(1, s + 1)} if draw(st.booleans()) \
        else None
    psi = PsiSystem(EnSystem(s, equations, names), draw(st.sampled_from("ZN")),
                    certificate=None)
    return psi, threshold(s) + draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(psi_and_n())
def test_rendered_outputs_are_the_serialized_ones(case):
    psi, n = case
    asm = assemble(psi, n)
    ens_text, layout_text = render_system(psi, n)
    # `rebuilt` makes each equation and label without `Scaffold`.
    assert ens_text == serialize(asm.system) == serialize(
        rebuilt(psi, n).system)
    assert layout_text == serialize_layout(asm)
    assert parse_layout(layout_text) == (n, psi.s, psi.mode,
                                         asm.system.names)
    psi_read, scaffold, mode = read_rendered(ens_text, layout_text)
    assert (psi_read, scaffold, mode) == (EnSystem(psi.s,
                                                   psi.system.equations),
                                          asm.scaffold, psi.mode)


# Modes wider than the two a layout holds: near misses, and short texts
# over an alphabet with look-alikes (a named alphabet spares hypothesis
# building its Unicode tables in a fresh copy, as the mutant harness makes).
WIDE_MODES = st.one_of(st.sampled_from(["Z", "N", "z", "n", "X", "ZN", "",
                                        "N ", " Z"]),
                       st.text(alphabet="ZNzn X\t\u0396\uff2e", max_size=3))


@settings(max_examples=300, deadline=None)
@given(psi_and_n(), WIDE_MODES)
@example((PsiSystem(EnSystem(3, []), "Z", None), 12), "X")
@example((PsiSystem(EnSystem(3, []), "Z", None), 12), "z")
def test_layouts_the_writers_accept_read_back_equal(case, mode):
    # Each writer raises, or both readers read its output back equal.
    psi, n = case
    psi = replace(psi, mode=mode)
    asm = replace(assemble(replace(psi, mode="Z"), n), mode=mode)
    try:
        ens_text, layout_text = render_system(psi, n)
    except FormatError as err:
        assert str(err) == f"layout mode {mode!r} is neither Z nor N"
        with pytest.raises(FormatError):
            serialize_layout(asm)
        return
    assert serialize_layout(asm) == layout_text
    assert parse_layout(layout_text) == (n, psi.s, mode, asm.system.names)
    assert read_rendered(ens_text, layout_text) == (
        EnSystem(psi.s, psi.system.rows), asm.scaffold, mode)


def test_assemble_refuses_a_mode_no_layout_holds():
    psi = PsiSystem(EnSystem(3, []), "X", None)
    with pytest.raises(FormatError) as err:
        assemble(psi, 12)
    assert str(err.value) == "layout mode 'X' is neither Z nor N"


# -- verify-pin's two routes ------------------------------------------------

def _pin_argv(case, prefix):
    """verify-pin of the FN_CASES output at `prefix`, with its witness."""
    rep, mode, n = FN_CASES[case]
    expected = n if rep is IDENTITY else n * n
    witness = (master_witness((expected, n), 2) if mode == "Z"
               else (expected, n))
    return expected, mode, witness, [
        "verify-pin", "--system", f"{prefix}.ens", "--cert",
        f"{prefix}.cert", "--layout", f"{prefix}.layout", "--expected",
        str(expected), "--ring", mode.lower(), "--radius", "1", "--witness",
        ",".join(map(str, witness)), "--report", f"{prefix}.json"]


def _run_pin(argv):
    """verify-pin's exit code, stdout, stderr and report text, if any."""
    report = Path(argv[-1])
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return (code, out.getvalue(), err.getvalue(),
            report.read_text() if report.exists() else None)


def pin_by_rebuilding(ens_text, cert_text, layout_text, expected, mode,
                      witness):
    """The reference route: the whole system deserialized, its scaffold
    checked by rebuilding, and pinned as a whole."""
    try:
        system = deserialize(ens_text)
        cert = parse_certificate(cert_text)
        assembled = check_by_rebuilding(system, cert, layout_text)
        if assembled.mode != mode:
            raise ParseError(f"--ring {mode.lower()} contradicts the "
                             f"layout's mode {assembled.mode}")
        report = verify_pinning(system, expected, domain=mode,
                                certificate=cert, box_radius=1,
                                witness_base=witness)
    except (EnkitError, ValueError) as exc:
        return 2, "", f"error: {exc}\n", None
    payload = dict(vars(report), offending=len(report.offending),
                   passed=report.passed)
    del payload["consistent_propagation"]
    return (0 if report.passed else 1,
            f"solutions {report.solutions_found} offending "
            f"{len(report.offending)}\n{'PASS' if report.passed else 'FAIL'}\n",
            "", json.dumps(payload, indent=2, sort_keys=True) + "\n")


@st.composite
def edited_ens(draw, text, s):
    """text with one edit: two lines swapped, a line repeated, a blank
    line put in, CRLF line ends, a scaffold line moved or a scaffold or
    name line copied into psi's block, a psi line given an index above s,
    a name changed in place or the last line end dropped."""
    lines = text.splitlines(keepends=True)
    equations = [t for t, line in enumerate(lines)
                 if line.startswith(("ONE", "ADD", "MUL"))]
    inside = [t for t in equations
              if max(map(int, lines[t].split()[1:])) <= s]
    outside = [t for t in equations if t not in inside]
    names = [t for t, line in enumerate(lines) if line.startswith("# name")]
    op = draw(st.sampled_from(["swap", "repeat", "blank", "crlf", "move",
                               "copy", "above", "name", "last"]))
    if op == "swap":
        t = draw(st.sampled_from(equations + names))
        u = draw(st.sampled_from(equations + names))
        lines[t], lines[u] = lines[u], lines[t]
    elif op == "repeat":
        t = draw(st.integers(1, len(lines) - 1))
        lines.insert(t, lines[t])
    elif op == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "\n")
    elif op == "crlf":
        lines = [line.replace("\n", "\r\n") for line in lines]
    elif op == "move":
        line = lines.pop(draw(st.sampled_from(outside)))
        lines.insert(draw(st.sampled_from(inside)), line)
    elif op == "copy":
        line = lines[draw(st.sampled_from(outside + names))]
        lines.insert(draw(st.sampled_from(inside)), line)
    elif op == "above":
        t = draw(st.sampled_from(inside))
        fields = lines[t].split()
        k = draw(st.integers(1, len(fields) - 1))
        fields[k] = str(draw(st.integers(s + 1, s + 3)))
        lines[t] = " ".join(fields) + "\n"
    elif op == "name":  # the same length, so the blocks stay in place
        t = draw(st.sampled_from(names))
        lines[t] = lines[t][:-2] + ("r" if lines[t][-2] == "q" else "q") \
            + "\n"
    else:
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(FN_CASES) - 1), st.data())
def test_verify_pin_routes_agree_with_rebuilding(tmp_path_factory, case,
                                                 data):
    work = tmp_path_factory.mktemp("pin")
    ens_text, cert, layout_text = fn_outputs(case)
    s = parse_layout(layout_text)[1]
    for _ in range(data.draw(st.integers(0, 2))):
        ens_text = data.draw(edited_ens(ens_text, s))
    cert_text = serialize_certificate(cert)
    for suffix, text in ((".ens", ens_text), (".cert", cert_text),
                         (".layout", layout_text)):
        (work / f"f{suffix}").write_text(text, encoding="ascii",
                                         newline="")
    expected, mode, witness, argv = _pin_argv(case, str(work / "f"))
    assert _run_pin(argv) == pin_by_rebuilding(
        ens_text, cert_text, layout_text, expected, mode, witness)


@pytest.mark.parametrize("case", range(len(FN_CASES)),
                         ids=[f"{mode}-{n}" for _, mode, n in FN_CASES])
def test_fn_system_and_verify_pin_build_and_read_no_scaffold(
        tmp_path, monkeypatch, case):
    rep, mode, n = FN_CASES[case]
    (tmp_path / "f.rep").write_text(format_rep(rep), encoding="ascii")
    prefix = str(tmp_path / "f")
    fn_system = ["fn-system", "--rep", str(tmp_path / "f.rep"), "--ring",
                 mode.lower(), "--n", str(n), "--out", prefix]
    argv = _pin_argv(case, prefix)[3]

    def round_trip():
        assert main(fn_system) == 0
        return (*_run_pin(argv), *(Path(prefix + suffix).read_text()
                                   for suffix in (".ens", ".layout")))

    expected = round_trip()
    assert expected[:3] == (0, f"solutions {expected[1].split()[1]} "
                            "offending 0\nPASS\n", "")
    s = parse_layout(expected[-1])[1]

    def refuse(*args):
        raise AssertionError("built the scaffold's equations or labels")

    deserialize = enkit.system.deserialize
    full = []

    def small(text):
        system = deserialize(text)
        if system.n > s:
            full.append(text)
        return system

    def header_only(text):
        # The labels are read only from a whole layout.
        if text.count("\n") > 3:
            refuse()
        return parse_layout(text)

    monkeypatch.setattr(pipeline, "assemble", refuse)
    monkeypatch.setattr(pipeline, "parse_layout", header_only)
    monkeypatch.setattr(enkit.system, "deserialize", small)
    assert round_trip() == expected
    assert full == []
    # One blank line in psi's block sends verify-pin down the general
    # route, once.
    monkeypatch.undo()
    checked = []

    def counted(*args):
        checked.append(args)
        return check_assembled(*args)

    monkeypatch.setattr(pipeline, "check_assembled", counted)
    monkeypatch.setattr(enkit.system, "deserialize", small)
    path = Path(prefix + ".ens")
    path.write_text(path.read_text().replace("\nADD ", "\n\nADD ", 1))
    assert _run_pin(argv) == expected[:4]
    assert len(checked) == len(full) == 1

import pytest

from enkit.eqio import FnRepresentation, parse_polynomial
from enkit.errors import FormatError
from enkit.oracle import (Box, Solved, Stuck, enumerate_roots, propagate,
                          solve_bounded, verify_pinning)
from enkit.pipeline import (assemble, build_pipeline, build_psi,
                            master_witness, parse_layout, serialize_layout,
                            threshold)
from enkit.reductions import build_master_z
from enkit.system import Add, Mul, One, validate

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


def test_threshold():
    assert threshold(3) == 10
    assert threshold(10) == 24
    with pytest.raises(ValueError):
        threshold(2)


def test_assemble_even():
    asm = assemble(build_psi(IDENTITY, "N"), 10)
    assert asm.n == 10 and asm.system.n == 10
    assert asm.padding == ()
    assert asm.t_chain == (4, 5, 6, 7, 8)
    assert asm.w_index == 9 and asm.y_index == 10
    assert Add(10, 10, 10) in set(asm.system.equations)
    assert validate(asm.system) == []
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    assert out.values[2] == 10 and out.values[1] == 10
    assert out.values[9] == 10 and out.values[10] == 0


def test_assemble_odd():
    asm = assemble(build_psi(IDENTITY, "N"), 11)
    assert len(asm.padding) == 1
    assert One(asm.padding[0]) in set(asm.system.equations)
    assert One(asm.y_index) in set(asm.system.equations)
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    assert out.values[2] == 11 and out.values[asm.y_index] == 1


def test_assemble_below_threshold():
    with pytest.raises(ValueError, match="below threshold"):
        assemble(build_psi(IDENTITY, "N"), 9)


def test_variable_count_identity():
    psi = build_psi(SQUARE, "N")
    for n in range(threshold(psi.s), threshold(psi.s) + 30):
        asm = assemble(psi, n)
        assert psi.s + len(asm.padding) + len(asm.t_chain) + 2 == n
        assert asm.system.n == n


def test_scaffold_values_match_propagation():
    asm = assemble(build_psi(SQUARE, "N"), 17)
    out = propagate(asm.system, {}, "N")
    assert isinstance(out, Solved)
    scaffold = asm.scaffold_values()
    for index, value in scaffold.items():
        assert out.values[index] == value


def test_pipeline_identity_n():
    asm = build_pipeline(IDENTITY, "N", 12)
    report = verify_pinning(asm, 12, witness_base=(12, 12))
    assert report.x2_forced
    assert report.propagation_complete
    assert report.solutions_found == 1
    assert report.offending == []
    assert report.witness_ok
    assert report.passed


def test_pipeline_square_n():
    asm = build_pipeline(SQUARE, "N", 14)
    report = verify_pinning(asm, 196, witness_base=(196, 14))
    assert report.passed and report.witness_ok


def test_pipeline_constant_z():
    # f constant 5: W = x1 - 5
    rep = FnRepresentation(w=parse_polynomial("x1 - 5", 2), r=2)
    psi = build_psi(rep, "Z")
    n = threshold(psi.s)
    asm = assemble(psi, n)
    witness = master_witness((5, n), 2)
    report = verify_pinning(asm, 5, box_radius=1, witness_base=witness)
    assert report.x2_forced
    assert report.offending == []
    assert report.witness_ok and report.passed


def test_pinning_cert_path_matches_generic_search():
    rep = FnRepresentation(w=parse_polynomial("x1 - 5", 2), r=2)
    psi = build_psi(rep, "Z")
    asm = assemble(psi, threshold(psi.s))
    via_cert = verify_pinning(asm, 5, box_radius=1)
    out = propagate(asm.system, {}, "Z")
    assert isinstance(out, Stuck)
    generic = solve_bounded(asm.system, "Z", 1)
    assert generic.exhausted
    assert via_cert.solutions_found == len(generic.solutions)
    for solution in generic.solutions:
        assert solution[1] == 5


def test_pinning_detects_wrong_expectation():
    asm = build_pipeline(IDENTITY, "N", 12)
    report = verify_pinning(asm, 11, witness_base=(12, 12))
    assert report.offending and not report.passed
    report = verify_pinning(asm, 12, witness_base=(11, 11))
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
    assert labels == asm.layout
    assert labels[asm.w_index] == "w"
    assert labels[asm.y_index] == "y"
    assert labels[asm.padding[0]].startswith("z")


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

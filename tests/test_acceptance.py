"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime budget is asserted here, not deferred.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import enkit
from enkit.eqio import FnRepresentation, format_rep, parse_polynomial, parse_rep
from enkit.oracle import (Box, Schedule, Solved, Stuck, check_equivalence,
                          foursquare_decompose, propagate, verify_pinning)
from enkit.pipeline import assemble, build_psi, master_witness, threshold
from enkit.poly import Polynomial
from enkit.reductions import (FamilyDescriptor, build_compact_n,
                              build_compact_z, build_full_n, build_full_z,
                              build_halved_z, enumerate_t, parse_certificate,
                              serialize_certificate)
from enkit.errors import FamilyTooLarge
from enkit.system import Add, EnSystem, One, deserialize, serialize, validate


def P(text, arity=None):
    return parse_polynomial(text, arity)


def passed(number, message, elapsed, limit):
    assert elapsed < limit, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.1f}s >= {limit}s")
    print(f"[PASS] criterion {number}: {message} ({elapsed:.1f}s)")


def test_criterion_01_card_matches_enumeration():
    start = time.monotonic()
    descriptors = [
        # symmetric intervals [-M, M]
        FamilyDescriptor(1, -2, 2, (1,)),        # 25, required instance
        FamilyDescriptor(1, -1, 1, (1,)),        # 9
        FamilyDescriptor(1, -1, 1, (2,)),        # 27
        FamilyDescriptor(1, -1, 1, (3,)),        # 81
        FamilyDescriptor(1, -2, 2, (2,)),        # 125
        FamilyDescriptor(1, -3, 3, (1,)),        # 49
        FamilyDescriptor(1, -3, 3, (2,)),        # 343
        FamilyDescriptor(1, -4, 4, (1,)),        # 81
        FamilyDescriptor(1, -2, 2, (3,)),        # 625
        FamilyDescriptor(1, -12, 12, (1,)),      # 625
        FamilyDescriptor(2, -1, 1, (1, 1)),      # 81
        FamilyDescriptor(2, -2, 2, (1, 1)),      # 625
        FamilyDescriptor(2, -1, 1, (2, 2)),      # 19683
        FamilyDescriptor(2, -2, 2, (1, 2)),      # 15625
        FamilyDescriptor(3, -1, 1, (1, 1, 1)),   # 6561
        FamilyDescriptor(3, -1, 1, (1, 1, 2)),   # 531441
        # intervals [0, delta]
        FamilyDescriptor(2, 0, 4, (1, 1)),       # 625, required instance
        FamilyDescriptor(1, 0, 3, (1,)),         # 16
        FamilyDescriptor(1, 0, 9, (1,)),         # 100
        FamilyDescriptor(1, 0, 4, (2,)),         # 125
        FamilyDescriptor(2, 0, 9, (1, 1)),       # 10000
        FamilyDescriptor(2, 0, 5, (1, 2)),       # 46656
    ]
    assert len(descriptors) >= 20
    required = {(FamilyDescriptor(1, -2, 2, (1,)), 25),
                (FamilyDescriptor(2, 0, 4, (1, 1)), 625)}
    for desc, card in required:
        assert desc in descriptors and desc.cardinality() == card
    for desc in descriptors:
        card = desc.cardinality()
        assert card <= 10**6
        members = enumerate_t(desc, cap=10**6)
        assert len(members) == card
        if card <= 1000:
            assert len({m.key() for m in members}) == card
    passed(1, f"card(T) equals enumeration length on {len(descriptors)} "
           "descriptors", time.monotonic() - start, 10)


def test_criterion_02_lemma_full_z_difference():
    start = time.monotonic()
    d = P("x1 - x2")
    system, cert = build_full_z(d)
    assert system.n == 625
    assert validate(system) == []
    assert cert.defs[cert.anchor_q] == d.scaled(2)
    report = check_equivalence(d, system, cert, Box.cube(2, 3), "Z")
    assert len(report.base_roots) == 7
    assert report.lifted_ok
    assert report.unique_extension
    assert report.refuted_by_propagation + report.refuted_by_search == 42
    assert report.spurious == [] and report.inconclusive == []
    assert report.system_solutions == 7 and report.counts_equal
    passed(2, "full_Z(x1 - x2): 625 variables, 7 roots on [-3,3]^2, "
           "42 refutations, counts equal", time.monotonic() - start, 120)


def test_criterion_03_theorem2_full_n_difference():
    start = time.monotonic()
    d = P("x1 - x2")
    system, cert = build_full_n(d)
    assert system.n == 625
    assert cert.defs[cert.anchor_a] == P("4*x1 + 2*x2")
    assert cert.defs[cert.anchor_b] == P("3*x1 + 3*x2")
    assert max(cert.defs[cert.anchor_a].max_abs_coeff(),
               cert.defs[cert.anchor_b].max_abs_coeff()) == 4
    equations = set(system.equations)
    assert Add(3, 3, 3) in equations        # x_{p+1} + x_{p+1} = x_{p+1}
    assert Add(3, 4, 5) in equations        # the anchored equality
    report = check_equivalence(d, system, cert, Box.cube_nonneg(2, 3), "N")
    assert len(report.base_roots) == 4
    assert report.passed
    passed(3, "full_N(x1 - x2): A = 4x1+2x2, B = 3x1+3x2, delta = 4, "
           "n = 625, equivalence on [0,3]^2", time.monotonic() - start, 120)


def _random_battery(count=100, seed=20260808):
    rng = random.Random(seed)
    battery = []
    while len(battery) < count:
        p = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(p))
            coeff = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            terms[exps] = terms.get(exps, 0) + coeff
        d = Polynomial(p, terms)
        if not d.is_zero():
            battery.append(d)
    return battery


def test_criterion_04_compact_battery():
    start = time.monotonic()
    for d in _random_battery():
        system, cert = build_compact_z(d)
        report = check_equivalence(d, system, cert, Box.cube(d.arity, 4), "Z")
        assert report.spurious == [], d
        assert report.counts_equal, d
        assert report.unique_extension and report.lifted_ok, d
        assert report.inconclusive == [], d
        system, cert = build_compact_n(d)
        report = check_equivalence(d, system, cert,
                                   Box.cube_nonneg(d.arity, 4), "N")
        assert report.spurious == [], d
        assert report.counts_equal, d
        assert report.unique_extension and report.lifted_ok, d
        assert report.inconclusive == [], d
    passed(4, "compact battery: 100 random polynomials, both rings, radius-4 "
           "boxes, zero spurious, unique extension",
           time.monotonic() - start, 300)


def _projection(system, base_box, domain):
    schedule = Schedule.derive(system, base_box.dim, domain)
    members = set()
    for point in base_box.iter_points(domain):
        if schedule is not None:
            outcome = schedule.extend(point)
        else:
            outcome = propagate(
                system, {i + 1: v for i, v in enumerate(point)}, domain)
        assert not isinstance(outcome, Stuck), "projection undecided"
        if isinstance(outcome, Solved):
            members.add(point)
    return members


def test_criterion_05_full_vs_compact_agreement():
    start = time.monotonic()
    corpus = ["x1 - x2", "x1 - 1", "x1", "2*x1", "3*x1", "x1^2 - 2",
              "x1*x2 - 1"]
    compared = 0
    for text in corpus:
        d = P(text)
        radius = 3 if d.arity == 1 else 2
        for ring, full_builders, compact_builder in (
                ("Z", (build_full_z, build_halved_z), build_compact_z),
                ("N", (build_full_n,), build_compact_n)):
            box = (Box.cube(d.arity, radius) if ring == "Z"
                   else Box.cube_nonneg(d.arity, radius))
            compact_system, _ = compact_builder(d)
            compact_projection = _projection(compact_system, box, ring)
            for builder in full_builders:
                try:
                    full_system, _ = builder(d)
                except FamilyTooLarge:
                    continue
                compared += 1
                assert _projection(full_system, box, ring) == \
                    compact_projection, (text, builder.__name__)
    assert compared >= 10
    passed(5, f"full and compact projections coincide on {compared} "
           "feasible (D, mode) pairs", time.monotonic() - start, 300)


def test_criterion_06_pipeline_identity_over_z():
    start = time.monotonic()
    rep = FnRepresentation(w=P("x1 - x2"), r=2)
    psi = build_psi(rep, "Z")
    m_f = threshold(psi.s)
    for n in range(m_f, m_f + 6):
        asm = assemble(psi, n)
        assert asm.system.n == n and validate(asm.system) == []
        outcome = propagate(asm.system, {}, "Z")
        assert outcome.values.get(2) == n, "propagation alone must fix x2"
        witness = master_witness((n, n), 2)
        assert sum(v * v for v in witness[2:6]) == n    # four squares for x1
        assert sum(v * v for v in witness[6:10]) == n   # four squares for x2
        report = verify_pinning(asm, n, box_radius=1, domain="Z",
                                witness_base=witness)
        assert report.x2_forced
        assert report.offending == []
        assert report.search_exhausted
        assert report.witness_ok
        assert report.passed
    passed(6, f"integer pipeline (identity): n in [{m_f}, {m_f + 5}], x2 "
           "forced, all bounded solutions pinned, four-square witnesses",
           time.monotonic() - start, 120)


def test_criterion_07_pipeline_square_over_n():
    start = time.monotonic()
    rep = FnRepresentation(w=P("x1 - x2*x2"), r=2)
    psi = build_psi(rep, "N")
    w_f = threshold(psi.s)
    for n in range(w_f, w_f + 6):
        asm = assemble(psi, n)
        assert asm.system.n == n
        report = verify_pinning(asm, n * n, domain="N",
                                witness_base=(n * n, n))
        assert report.x2_forced
        assert report.solutions_found >= 1
        assert report.offending == []
        assert report.witness_ok
        assert report.passed
    passed(7, f"non-negative pipeline (square): n in [{w_f}, {w_f + 5}], "
           "every solution has x1 = n^2, witness exists",
           time.monotonic() - start, 120)


def test_criterion_08_gadget_units():
    start = time.monotonic()
    # y + y = y forces 0 over both rings
    for domain in ("Z", "N"):
        outcome = propagate(EnSystem(1, [Add(1, 1, 1)]), {}, domain)
        assert isinstance(outcome, Solved) and outcome.values == {1: 0}
    psi = build_psi(FnRepresentation(w=P("x1 - x2"), r=2), "N")
    for n in range(threshold(psi.s), 201):
        asm = assemble(psi, n)
        equations = set(asm.system.equations)
        if n % 2:
            assert One(asm.y_index) in equations
            assert Add(asm.y_index, asm.y_index, asm.y_index) not in equations
        else:
            assert Add(asm.y_index, asm.y_index, asm.y_index) in equations
            assert One(asm.y_index) not in equations
        outcome = propagate(asm.system, {}, "N")
        assert isinstance(outcome, Solved)
        half = n // 2
        for position, t in enumerate(asm.t_chain, start=1):
            assert outcome.values[t] == position
        assert outcome.values[asm.w_index] == 2 * half
        assert outcome.values[asm.y_index] == n - 2 * half
        assert outcome.values[2] == n
    for n in range(threshold(psi.s), threshold(psi.s) + 51):
        asm = assemble(psi, n)
        assert psi.s + len(asm.padding) + len(asm.t_chain) + 2 == n
    passed(8, "gadget units: y forcing, parity equation, t-chain up to "
           "n = 200, variable-count identity", time.monotonic() - start, 5)


def test_criterion_09_foursquare_exhaustive():
    start = time.monotonic()
    for m in range(10**4 + 1):
        a, b, c, d = foursquare_decompose(m)
        assert a * a + b * b + c * c + d * d == m
        assert 0 <= a <= b <= c <= d
    passed(9, "four-square decompositions valid on every m in [0, 10^4]",
           time.monotonic() - start, 10)


def test_criterion_10_serialization_roundtrips():
    start = time.monotonic()
    d = P("x1 - x2")
    # independent rebuilds serialize byte-identically
    for builder in (build_full_n, build_compact_z, build_halved_z):
        (s1, c1), (s2, c2) = builder(d), builder(d)
        assert serialize(s1).encode() == serialize(s2).encode()
        assert serialize_certificate(c1) == serialize_certificate(c2)
        # re-parse cycles are fixed points
        ens = serialize(s1)
        assert serialize(deserialize(ens)) == ens
        cert = serialize_certificate(c1)
        assert serialize_certificate(parse_certificate(cert)) == cert
    canonical = format_rep(parse_rep("REP r=2\nx1 - x2*x2\n"))
    assert format_rep(parse_rep(canonical)) == canonical
    # across two interpreter runs (fresh hash seeds)
    script = ("import sys; from enkit.reductions import build_full_n; "
              "from enkit.system import serialize; "
              "from enkit.eqio import parse_polynomial; "
              "sys.stdout.write(serialize(build_full_n("
              "parse_polynomial('x1 - x2'))[0]))")
    # the child imports the same enkit as this test, installed or not
    src = str(Path(enkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = {subprocess.run([sys.executable, "-c", script],
                              capture_output=True, check=True,
                              env=dict(os.environ, PYTHONPATH=path)).stdout
               for _ in range(2)}
    assert len(outputs) == 1
    passed(10, "serialization of .ens/.cert/.rep byte-identical across "
           "rebuilds, re-parse cycles, and interpreter runs",
           time.monotonic() - start, 60)

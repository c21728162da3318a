import operator
import random

import pytest

from enkit.eqio import parse_polynomial
from enkit.errors import BoxTooLarge, DimensionMismatch
from enkit.oracle import (Box, Conflict, EquivalenceReport, OracleLimits,
                          Schedule, Solved, Stuck, anchor_polynomial,
                          check_equivalence, enumerate_roots,
                          foursquare_decompose, lift, propagate,
                          solve_bounded)
from enkit.poly import Polynomial
from enkit.reductions import (build_compact_n, build_compact_z, build_full_n,
                              build_full_z, build_halved_z, parse_certificate)
from enkit.system import Add, EnSystem, Mul, One


def P(text, arity=None):
    return parse_polynomial(text, arity)


# --------------------------------------------------------------------------
# root enumeration

def test_enumerate_diagonal():
    roots = enumerate_roots(P("x1 - x2"), Box.cube(2, 2))
    assert roots == [(-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)]


def test_enumerate_no_real_roots():
    assert enumerate_roots(P("x1*x1 + 1"), Box.cube(1, 10)) == []


def test_enumerate_divisor_pairs():
    roots = enumerate_roots(P("x1*x2 - 6"), Box(((1, 6), (1, 6))), "N")
    assert roots == [(1, 6), (2, 3), (3, 2), (6, 1)]


def test_enumerate_clamps_to_n():
    roots = enumerate_roots(P("x1 + x2"), Box.cube(2, 2), "N")
    assert roots == [(0, 0)]


def test_enumerate_limit():
    with pytest.raises(BoxTooLarge):
        enumerate_roots(P("x1 - x2"), Box.cube(2, 100), limit=100)
    with pytest.raises(DimensionMismatch):
        enumerate_roots(P("x1 - x2"), Box.cube(3, 2))


# --------------------------------------------------------------------------
# propagation

def test_propagate_forces_zero():
    out = propagate(EnSystem(1, [Add(1, 1, 1)]))
    assert isinstance(out, Solved)
    assert out.values == {1: 0}


def test_propagate_division_contradiction():
    out = propagate(EnSystem(3, [Mul(1, 2, 3)]), {3: 6, 1: 4})
    assert isinstance(out, Conflict)
    assert out.equation == Mul(1, 2, 3)


def test_propagate_division_back():
    out = propagate(EnSystem(3, [Mul(1, 2, 3)]), {3: 6, 1: -2})
    assert isinstance(out, Solved)
    assert out.values[2] == -3


def test_propagate_zero_factor_stays_stuck():
    out = propagate(EnSystem(3, [Mul(1, 2, 3)]), {1: 0, 3: 0})
    assert isinstance(out, Stuck)
    assert out.undetermined == (2,)


def test_propagate_zero_factor_nonzero_product():
    out = propagate(EnSystem(3, [Mul(1, 2, 3)]), {1: 0, 3: 5})
    assert isinstance(out, Conflict)


def test_propagate_one_and_add():
    system = EnSystem(3, [One(1), Add(1, 1, 2), Add(2, 3, 2)])
    out = propagate(system)
    assert isinstance(out, Solved)
    assert out.values == {1: 1, 2: 2, 3: 0}


def test_propagate_nat_rejects_negative():
    system = EnSystem(3, [Add(1, 2, 3)])
    assert isinstance(propagate(system, {2: 5, 3: 2}, "N"), Conflict)
    out = propagate(system, {2: 5, 3: 2}, "Z")
    assert isinstance(out, Solved)
    assert out.values[1] == -3


def test_propagate_seed_conflict():
    out = propagate(EnSystem(1, [One(1)]), {1: 2})
    assert isinstance(out, Conflict)


def test_propagate_confluence_under_reordering():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        equations = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if kind < 0.2:
                equations.append(One(rng.randint(1, n)))
            elif kind < 0.6:
                equations.append(
                    Add(*(rng.randint(1, n) for _ in range(3))))
            else:
                equations.append(
                    Mul(*(rng.randint(1, n) for _ in range(3))))
        seed = {rng.randint(1, n): rng.randint(-3, 3)}
        reference = propagate(EnSystem(n, equations), seed)
        for _ in range(5):
            shuffled = equations[:]
            rng.shuffle(shuffled)
            again = propagate(EnSystem(n, shuffled), seed)
            assert type(again) is type(reference)
            if isinstance(reference, (Solved, Stuck)):
                assert again.values == reference.values


def test_propagate_soundness_against_solutions():
    # Whatever propagation derives from a partial assignment must agree
    # with any total solution extending it.
    system, _ = build_compact_z(P("x1^2 - x2"))
    for a in range(-4, 5):
        total = solve_bounded(system, "Z", 20, seed={1: a}).solutions
        derived = propagate(system, {1: a})
        assert isinstance(derived, (Solved, Stuck, Conflict))
        if isinstance(derived, Conflict):
            assert total == []
            continue
        for solution in total:
            for index, value in derived.values.items():
                assert solution[index] == value


# --------------------------------------------------------------------------
# lifting

def test_lift_compact_difference():
    _, cert = build_compact_z(P("x1 - x2"))
    assert lift(cert, (3, 3)) == {1: 3, 2: 3, 3: 0}
    lifted = lift(cert, (4, 1))
    assert lifted[3] == 3  # anchor equation 3 + 3 = 3 now fails


def test_lift_full_n():
    _, cert = build_full_n(P("x1 - x2"))
    lifted = lift(cert, (2, 2))
    assert lifted[cert.anchor_a] == 12
    assert lifted[cert.anchor_b] == 12
    assert lifted[cert.anchor_zero] == 0


def test_anchor_polynomial():
    _, cert = build_compact_z(P("x1 - x2"))
    assert anchor_polynomial(cert) == P("x1 - x2")
    _, cert = build_compact_n(P("x1 - x2"))
    assert anchor_polynomial(cert) == P("x1 - x2")
    _, cert = build_full_n(P("x1 - x2"))
    assert anchor_polynomial(cert) == P("x1 - x2")


# --------------------------------------------------------------------------
# equivalence

def test_equivalence_compact_difference():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    report = check_equivalence(d, system, cert, Box.cube(2, 3), "Z")
    assert len(report.base_roots) == 7
    assert report.lifted_ok and report.unique_extension
    assert report.spurious == [] and report.inconclusive == []
    assert report.refuted_by_propagation == 42
    assert report.system_solutions == 7
    assert report.counts_equal and report.passed


def test_equivalence_no_roots():
    d = P("x1*x1 + 1")
    system, cert = build_compact_z(d)
    report = check_equivalence(d, system, cert, Box.cube(1, 5), "Z")
    assert report.base_roots == []
    assert report.refuted_by_propagation == 11
    assert report.passed


def test_equivalence_full_n():
    d = P("x1 - x2")
    system, cert = build_full_n(d)
    report = check_equivalence(d, system, cert, Box.cube_nonneg(2, 3), "N")
    assert len(report.base_roots) == 4
    assert report.system_solutions == 4
    assert report.passed


def test_equivalence_catches_broken_certificate():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    cert.defs[3] = P("x1 + x2")  # sabotage
    report = check_equivalence(d, system, cert, Box.cube(2, 2), "Z")
    assert not report.passed
    assert not report.lifted_ok


def test_equivalence_catches_certificate_missing_a_definition():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    del cert.defs[3]
    report = check_equivalence(d, system, cert, Box.cube(2, 1), "Z")
    assert not report.passed and not report.lifted_ok
    assert report.failures[0] == "lift of (-1, -1) leaves x3 unassigned"


def test_equivalence_parallel_matches_serial():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    serial = check_equivalence(d, system, cert, Box.cube(2, 3), "Z")
    parallel = check_equivalence(d, system, cert, Box.cube(2, 3), "Z", jobs=2)
    assert parallel.base_roots == serial.base_roots
    assert parallel.system_solutions == serial.system_solutions
    assert parallel.passed == serial.passed


def test_equivalence_points_leave_no_state_behind():
    # x2 * x2 = x1 with the lift x2 := 0: the root 0 stays stuck, 1 extends
    # to the spurious solution x2 = -1, and the other points need the search.
    d = P("x1")
    system = EnSystem(2, [Mul(2, 2, 1)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 2\n"
                             "2 0\nANCHOR q 1\n")
    whole = check_equivalence(d, system, cert, Box.cube(1, 3), "Z")
    assert whole.stuck_roots == 1 and whole.spurious == [(1,)]
    assert whole.refuted_by_search == 5
    merged = EquivalenceReport(domain="Z")
    for v in range(-3, 4):
        merged.merge(check_equivalence(d, system, cert, Box(((v, v),)), "Z"))
    assert vars(whole) == vars(merged)


# --------------------------------------------------------------------------
# bounded search

def test_solve_bounded_multiplication_table():
    system = EnSystem(3, [Mul(1, 2, 3)])
    outcome = solve_bounded(system, "N", 2, seed={3: 2})
    assert outcome.exhausted
    pairs = sorted((s[1], s[2]) for s in outcome.solutions)
    assert pairs == [(1, 2), (2, 1)]


def test_solve_bounded_truncation_is_visible():
    system = EnSystem(4, [Add(1, 2, 3)])
    outcome = solve_bounded(system, "Z", 3,
                            limits=OracleLimits(search_nodes=5))
    assert not outcome.exhausted


# --------------------------------------------------------------------------
# four squares

def test_foursquare_examples():
    assert foursquare_decompose(0) == (0, 0, 0, 0)
    assert foursquare_decompose(7) == (1, 1, 1, 2)
    assert foursquare_decompose(5) == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        foursquare_decompose(-1)


def test_foursquare_lexicographic_minimality():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(0, 500)
        got = foursquare_decompose(m)
        assert sum(v * v for v in got) == m
        best = min(
            (a, b, c, d)
            for a in range(23) for b in range(a, 23)
            for c in range(b, 23) for d in range(c, 23)
            if a * a + b * b + c * c + d * d == m)
        assert got == best


# --------------------------------------------------------------------------
# schedules: one derivation per system, one straight run per point

def _propagated(monkeypatch, *args):
    """check_equivalence forced onto the propagator path."""
    with monkeypatch.context() as patch:
        patch.setattr(Schedule, "derive",
                      classmethod(lambda cls, *rest, **kw: None))
        return check_equivalence(*args)


def _random_polynomial(rng, p):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(p))
        terms[exps] = terms.get(exps, 0) + rng.choice([-4, -3, -2, -1,
                                                       1, 2, 3, 4])
    return Polynomial(p, terms)


def _wrong(d, rng):
    return d + Polynomial.constant(d.arity, rng.choice([-2, -1, 1, 2]))


def test_schedule_matches_propagation_on_compact_battery(monkeypatch):
    # compact-battery style: the system's own equation and a shifted one,
    # so roots, refutations, failed lifts and spurious points all occur
    rng = random.Random(808)
    compared = 0
    while compared < 60:
        p = rng.randint(1, 3)
        d = _random_polynomial(rng, p)
        if d.is_zero():
            continue
        radius = 3 if p < 3 else 1
        for build, box, domain in (
                (build_compact_z, Box.cube(p, radius), "Z"),
                (build_compact_n, Box.cube_nonneg(p, 2 * radius), "N")):
            system, cert = build(d)
            assert Schedule.derive(system, p, domain) is not None
            for source in (d, _wrong(d, rng)):
                args = (source, system, cert, box, domain)
                assert vars(check_equivalence(*args)) == \
                    vars(_propagated(monkeypatch, *args)), (d, source, domain)
                compared += 1


@pytest.mark.parametrize("build, box, domain", [
    (build_full_z, Box.cube(2, 2), "Z"),
    (build_halved_z, Box.cube(2, 3), "Z"),
    (build_full_n, Box.cube_nonneg(2, 3), "N"),
], ids=["full_Z", "halved_Z", "full_N"])
def test_schedule_matches_propagation_on_full_families(monkeypatch, build,
                                                        box, domain):
    d = P("x1 - x2")
    system, cert = build(d)
    assert Schedule.derive(system, 2, domain) is not None
    for source in (d, P("x1 - x2 + 1")):
        args = (source, system, cert, box, domain)
        report = check_equivalence(*args)
        assert vars(report) == vars(_propagated(monkeypatch, *args))
    assert report.base_roots and report.spurious


def test_schedule_matches_propagation_with_coinciding_indices(monkeypatch):
    # x2 = 2*x1 by Add(i, i, k), x3 = 0 by Add(i, j, i), x4 = x2^2 by
    # Mul(i, i, k); Add(2, 3, 2) and Mul(3, 4, 3) only check; the anchor
    # 0 + 4 = x4 holds exactly when x1 = +-1.
    system = EnSystem(7, [Add(1, 1, 2), Add(1, 3, 1), Mul(2, 2, 4), One(5),
                          Add(5, 5, 6), Add(6, 6, 7), Add(2, 3, 2),
                          Mul(3, 4, 3), Add(3, 7, 4)])
    cert = parse_certificate("CERT 1\nmode compact_N\np 1\nn 7\n"
                             "2 2*x1\n3 0\n4 4*x1^2\n5 1\n6 2\n7 4\n"
                             "ANCHOR N 3 4 7\n")
    d = anchor_polynomial(cert)
    assert d == P("4*x1^2 - 4")
    schedule = Schedule.derive(system, 1)
    assert schedule is not None and len(schedule.checks) == 3
    for box, domain in ((Box.cube(1, 3), "Z"), (Box.cube_nonneg(1, 3), "N")):
        report = check_equivalence(d, system, cert, box, domain)
        assert vars(report) == \
            vars(_propagated(monkeypatch, d, system, cert, box, domain))
        assert report.passed
    assert check_equivalence(d, system, cert, Box.cube(1, 3)).base_roots == \
        [(-1,), (1,)]


def test_schedule_negative_value_over_n(monkeypatch):
    # compact_Z chains subtract: the first step derives x3 = x1 - x2, which
    # goes negative below the diagonal and refutes the point over N before
    # any check runs
    d = P("x1 - x2 - 1")
    system, cert = build_compact_z(d)
    schedule = Schedule.derive(system, 2, "N")
    assert schedule.steps == [(operator.sub, 1, 2, 3)]
    assert schedule.extend((1, 3)) == Conflict(None)
    assert isinstance(propagate(system, {1: 1, 2: 3}, "N"), Conflict)
    assert isinstance(Schedule.derive(system, 2, "Z").extend((1, 3)),
                      Conflict)
    args = (d, system, cert, Box.cube_nonneg(2, 3), "N")
    report = check_equivalence(*args)
    assert vars(report) == vars(_propagated(monkeypatch, *args))
    assert report.refuted_by_propagation == 13 and report.passed


def test_schedule_incomplete_falls_back_to_propagation(monkeypatch):
    # x3 is reachable only by dividing x2 = x1^2 by x1
    system = EnSystem(5, [Mul(1, 1, 2), Mul(1, 3, 2), One(4), Add(5, 4, 2),
                          Add(5, 5, 5)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 5\n"
                             "2 x1^2\n3 x1\n4 1\n5 x1^2 - 1\nANCHOR q 5\n")
    d = P("x1^2 - 1")
    assert Schedule.derive(system, 1) is None
    args = (d, system, cert, Box.cube(1, 2), "Z")
    report = check_equivalence(*args)
    assert vars(report) == vars(_propagated(monkeypatch, *args)) == {
        "domain": "Z", "base_points": 5, "base_roots": [(-1,), (1,)],
        "lifted_ok": True, "unique_extension": True, "stuck_roots": 0,
        "spurious": [], "refuted_by_propagation": 3, "refuted_by_search": 0,
        "inconclusive": [], "system_solutions": 2, "failures": []}
    # stuck roots, spurious points and the residual search stay as they were
    system = EnSystem(2, [Mul(2, 2, 1)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 2\n"
                             "2 0\nANCHOR q 1\n")
    assert Schedule.derive(system, 1) is None
    report = check_equivalence(P("x1"), system, cert, Box.cube(1, 3), "Z")
    assert (report.stuck_roots, report.spurious, report.refuted_by_search,
            report.refuted_by_propagation) == (1, [(1,)], 5, 0)


def _random_soup(rng):
    """A small system of random equations, indices free to coincide."""
    n = rng.randint(2, 6)
    equations = []
    for _ in range(rng.randint(1, 2 * n)):
        kind = rng.choice([One, Add, Add, Mul])
        indices = [rng.randint(1, n) for _ in range(len(kind._fields))]
        equations.append(kind(*indices))
    return EnSystem(n, equations)


@pytest.mark.parametrize("domain", ["Z", "N"])
def test_schedule_extension_is_the_propagators_verdict(domain):
    rng = random.Random(5 if domain == "Z" else 6)
    complete = 0
    for _ in range(3000):
        system = _random_soup(rng)
        p = rng.randint(0, min(2, system.n))
        schedule = Schedule.derive(system, p, domain)
        if schedule is None:
            continue
        complete += 1
        for point in Box.cube(p, 2).iter_points(domain):
            got = schedule.extend(point)
            want = propagate(system, dict(enumerate(point, 1)), domain)
            assert type(got) is type(want), (system.equations, point)
            if isinstance(got, Solved):
                assert got.values == want.values
    assert complete > 500

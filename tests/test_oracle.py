import operator
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkit import kernels, oracle
from enkit.eqio import parse_polynomial
from enkit.errors import BoxTooLarge, CertificateMismatch, DimensionMismatch
from enkit.oracle import (Box, Conflict, OracleLimits,
                          SearchOutcome, Schedule, Solved, Stuck, _Propagator,
                          _search, anchor_polynomial, check_equivalence,
                          enumerate_roots, foursquare_decompose, lift,
                          propagate, solve_bounded)
from enkit.poly import Polynomial
from enkit.reductions import (ReductionCertificate, build_compact_n,
                              build_compact_z, build_full_n, build_full_z,
                              build_halved_z, parse_certificate)
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
    assert out.values == [0, 0]


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
    assert out.values == [0, 1, 2, 0]


def test_propagate_nat_rejects_negative():
    system = EnSystem(3, [Add(1, 2, 3)])
    assert isinstance(propagate(system, {2: 5, 3: 2}, "N"), Conflict)
    out = propagate(system, {2: 5, 3: 2}, "Z")
    assert isinstance(out, Solved)
    assert out.values[1] == -3


def test_propagate_nat_names_the_subtraction_not_a_later_product():
    # From x1 = 1 and x2 = 3, x3 = x1 - x2 = -2 is the first negative
    # value; the product x4 = x3 * x6 and the sum x5 = x4 + x6 after it
    # are negative too, but the conflict names the subtraction.
    system = EnSystem(6, [Add(3, 2, 1), One(6), Mul(3, 6, 4), Add(4, 6, 5)])
    seed = {1: 1, 2: 3}
    assert propagate(system, seed, "N") == Conflict(Add(2, 3, 1))
    assert solve_bounded(system, "N", seed=seed).solutions == []
    out = propagate(system, seed, "Z")
    assert isinstance(out, Solved)
    assert out.values == [0, 1, 3, -2, -2, -1, 1]


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
            for index, value in enumerate(derived.values):
                assert value is None or solution[index] == value


# --------------------------------------------------------------------------
# lifting

def test_lift_compact_difference():
    _, cert = build_compact_z(P("x1 - x2"))
    lifted = lift(cert, (3, 3))
    assert lifted == [0, 3, 3, 0]
    lifted[1:] = [-7] * 3  # the row is the caller's own
    assert lift(cert, (3, 3)) == [0, 3, 3, 0]
    lifted = lift(cert, (4, 1))
    assert lifted[3] == 3  # anchor equation 3 + 3 = 3 now fails


def test_lift_matches_each_definition_alone():
    # Definitions drawn from one pool of monomials share them, as a
    # chain's do; values and coefficients run past int64.
    rng = random.Random(20261020)
    for _ in range(300):
        p = rng.randint(0, 4)
        pool = [tuple(rng.randint(0, 3) for _ in range(p))
                for _ in range(rng.randint(1, 6))]
        defs = {}
        for index in range(p + 1, p + 1 + rng.randint(1, 8)):
            defs[index] = Polynomial(p, {
                exps: rng.choice([1, -1, 7, -(2**70), 3**45])
                for exps in rng.sample(pool, rng.randint(0, len(pool)))})
        cert = ReductionCertificate(mode="compact_Z", p=p, n=p + len(defs),
                                    defs=defs, anchor=(max(defs),))
        base = tuple(rng.choice([0, 1, -1, 5, -(2**64) - 3, 2**65])
                     for _ in range(p))
        assert lift(cert, base) == [0, *base] + [
            defs[index].eval_at(base) for index in sorted(defs)]


def test_lift_full_n():
    _, cert = build_full_n(P("x1 - x2"))
    lifted = lift(cert, (2, 2))
    assert lifted[cert.anchor[1]] == 12
    assert lifted[cert.anchor[2]] == 12
    assert lifted[cert.anchor[0]] == 0


@pytest.mark.parametrize("defs, message", [
    ({2: "x1"}, "no definition for index 3"),
    ({2: "x1", 3: "x1", 5: "x1"}, "defines index 5 outside (1, 3]"),
    ({2: "x1", 3: "x1 + x2"}, "defines index 3 in 2 variables"),
], ids=["missing", "outside", "arity"])
def test_lift_refuses_a_certificate_that_does_not_fit(defs, message):
    # A lift writes each definition into a row of n + 1 entries, so a
    # definition outside p+1..n must be refused, not written elsewhere.
    cert = ReductionCertificate(
        mode="compact_Z", p=1, n=3, anchor=(2,),
        defs={index: P(text) for index, text in defs.items()})
    with pytest.raises(CertificateMismatch, match=re.escape(message)):
        lift(cert, (1,))


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


@pytest.mark.parametrize("index, violated", [
    (2, "Mul(i=1, j=1, k=2)"), (3, "One(i=3)"), (4, "Add(i=3, j=3, k=4)")],
    ids=["mul", "one", "add"])
def test_equivalence_names_the_equation_a_lift_violates(index, violated):
    # compact_Z x1^2 - 4 holds x1 * x1 = x2, x3 = 1 and x3 + x3 = x4 first:
    # a definition off by one makes each root's lift violate its equation.
    d = P("x1^2 - 4")
    system, cert = build_compact_z(d)
    cert.defs[index] = cert.defs[index] + Polynomial.constant(1, 1)
    report = check_equivalence(d, system, cert, Box.cube(1, 3), "Z")
    assert report.failures == [f"lift of ({x},) violates {violated}"
                               for x in (-2, 2)]


def test_equivalence_catches_certificate_missing_a_definition():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    del cert.defs[3]
    with pytest.raises(CertificateMismatch,
                       match="certificate has no definition for index 3"):
        check_equivalence(d, system, cert, Box.cube(2, 1), "Z")


def test_equivalence_refuses_a_definition_in_other_variables():
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    cert.defs[3] = Polynomial.constant(3, 0)
    with pytest.raises(CertificateMismatch,
                       match="certificate defines index 3 in 3 variables, "
                             "not p = 2"):
        check_equivalence(d, system, cert, Box.cube(2, 1), "Z")


def test_equivalence_draws_the_box_one_chunk_at_a_time(monkeypatch):
    # 625 variables: a chunk of the default budget holds 104 points, so the
    # 121-point box takes two chunks.
    d = P("x1 - x2")
    system, cert = build_full_z(d)
    box = Box.cube(2, 5)
    chunk = kernels.CHUNK_VALUES // (system.n + 1)
    assert 1 < chunk < box.point_count()
    drawn, runs = [], []
    iter_points = Box.iter_points
    run_schedule = kernels.run_schedule

    def drawing(self, domain="Z"):
        for point in iter_points(self, domain):
            drawn.append(len(runs))
            yield point

    def running(template, steps, columns):
        runs.append((len(drawn), len(columns[0])))
        return run_schedule(template, steps, columns)

    monkeypatch.setattr(Box, "iter_points", drawing)
    monkeypatch.setattr(kernels, "run_schedule", running)
    report = check_equivalence(d, system, cert, box, "Z")
    assert report.base_points == 121
    assert report.base_roots == [(v, v) for v in range(-5, 6)]
    # Point t is drawn after the runs of the chunks before its own and
    # before the run of its own chunk, which holds at most the budget.
    assert drawn == [t // chunk for t in range(121)]
    assert runs == [(chunk, chunk), (121, 121 - chunk)]
    assert all(size * (system.n + 1) <= kernels.CHUNK_VALUES
               for _, size in runs)


def test_equivalence_refuses_a_box_without_points(monkeypatch):
    d = P("x1 - 2")
    system, cert = build_compact_z(d)

    def derive(*args, **kwargs):
        raise AssertionError("work started on an empty box")

    monkeypatch.setattr(Schedule, "derive", derive)
    with pytest.raises(ValueError, match="box holds no point in N"):
        check_equivalence(d, system, cert, Box(((-3, -1),)), "N")


def test_equivalence_refuses_a_box_past_the_point_limit(monkeypatch):
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    limits = OracleLimits(points=49)
    assert check_equivalence(d, system, cert, Box.cube(2, 3), "Z",
                             limits).passed

    def derive(*args, **kwargs):
        raise AssertionError("work started on a box past the limit")

    monkeypatch.setattr(Schedule, "derive", derive)
    with pytest.raises(BoxTooLarge) as err:
        check_equivalence(d, system, cert, Box.cube(2, 3), "Z",
                          replace(limits, points=48))
    # The wording enumerate_roots uses for the same refusal.
    assert str(err.value) == "box holds 49 points, limit is 48"


@pytest.mark.parametrize("source, checked, box", [
    ("x1 - x2", P("x1 - x2"), Box.cube(3, 1)),
    ("x1 - 1", P("x1 - x2"), Box.cube(2, 1)),
    ("x1 - x2", P("x1 - 1"), Box.cube(2, 1)),
], ids=["box", "certificate", "polynomial"])
def test_equivalence_refuses_parts_that_disagree(source, checked, box):
    system, cert = build_compact_z(P(source))
    with pytest.raises(DimensionMismatch) as err:
        check_equivalence(checked, system, cert, box, "Z")
    assert str(err.value) == "box, polynomial, and certificate disagree"


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
    parts = [vars(check_equivalence(d, system, cert, Box(((v, v),)), "Z"))
             for v in range(-3, 4)]
    # The whole-box report is the per-point reports summed field by field.
    for name, value in vars(whole).items():
        values = [part[name] for part in parts]
        if name == "domain":
            assert values == [value] * len(parts)
        elif isinstance(value, bool):
            assert value == all(values), name
        elif isinstance(value, int):
            assert value == sum(values), name
        else:
            assert value == [item for v in values for item in v], name


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


@pytest.mark.parametrize("limits", [OracleLimits(search_nodes=0),
                                    OracleLimits(seconds=0)])
def test_budgets_stop_branching_not_a_complete_state(limits):
    complete = solve_bounded(EnSystem(2, [One(1), Add(1, 1, 2)]), "N", 1,
                             limits=limits)
    assert complete.exhausted and complete.solutions == [[0, 1, 2]]
    open_state = solve_bounded(EnSystem(3, [Add(1, 2, 3)]), "N", 1,
                               limits=limits)
    assert not open_state.exhausted and open_state.solutions == []


def _scribble(rows):
    """Overwrite every entry of every row but the unused index 0."""
    for row in rows:
        row[1:] = [-7] * (len(row) - 1)


@pytest.mark.parametrize("limits, collect_limit", [
    (OracleLimits(), None), (OracleLimits(), 1),
    (OracleLimits(search_nodes=3), None)], ids=["all", "first", "truncated"])
def test_returned_rows_are_copies(limits, collect_limit):
    # x1 = 1 and x1 + x1 = x4 are forced; x2 + x3 = x4 leaves x2 to the
    # search.
    system = EnSystem(4, [One(1), Add(1, 1, 4), Add(2, 3, 4)])
    prop = _Propagator(system, "Z")
    ok, _ = prop.start({})
    row, entry = prop.row, prop.row.copy()
    stuck = prop.outcome(ok)
    assert isinstance(stuck, Stuck) and stuck.values == entry
    _scribble([stuck.values])
    deadline = time.monotonic() + limits.seconds
    found = _search(prop, 1, limits, deadline, collect_limit)
    # The search hands the propagator back as it was on entry.
    assert prop.row is row and row == entry
    assert found.solutions
    want = [solution.copy() for solution in found.solutions]
    _scribble(found.solutions)
    assert prop.row == entry
    assert _search(prop, 1, limits, deadline, collect_limit).solutions == want
    assert prop.outcome(ok).values == entry
    ok, trail = prop.push(2, 0)
    solved = prop.outcome(ok)
    assert isinstance(solved, Solved) and solved.values == [0, 1, 0, 2, 2]
    _scribble([solved.values])
    assert prop.row == [0, 1, 0, 2, 2]
    prop.undo(trail)
    assert prop.row == entry


def test_time_budget_bounds_children_that_fail():
    # x2 + x2 = 1 has no integer root, so every value tried for x2
    # conflicts and the search never reaches a node below the root.
    system = EnSystem(2, [One(1), Add(2, 2, 1)])
    started = time.monotonic()
    outcome = solve_bounded(system, "Z", 10**11,
                            limits=OracleLimits(seconds=0.05))
    assert not outcome.exhausted and outcome.solutions == []
    assert time.monotonic() - started < 10


def test_equivalence_searches_share_one_deadline(monkeypatch):
    # x1 = x4^2 + (x2^2 + x3^2) with every def 0: from a negative x1,
    # propagation leaves x2..x8 stuck, so each point needs a search.
    system = EnSystem(8, [Add(5, 6, 8), Add(7, 8, 1), Mul(2, 2, 5),
                          Mul(3, 3, 6), Mul(4, 4, 7)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 8\n"
                             + "".join(f"{i} 0\n" for i in range(2, 9))
                             + "ANCHOR q 1\n")
    # A clock that stands still inside a search and moves one second
    # after each.
    clock = [0.0]
    search = oracle._search

    def timed(*args, **kwargs):
        outcome = search(*args, **kwargs)
        clock[0] += 1.0
        return outcome

    monkeypatch.setattr(oracle.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(oracle, "_search", timed)
    report = check_equivalence(P("x1 - 100"), system, cert,
                               Box(((-6, -1),)), "Z",
                               OracleLimits(seconds=2.5, residual_radius=1))
    # Searches start at 0, 1 and 2 seconds inside the budget; the rest
    # start past it.
    assert report.refuted_by_search == 3
    assert report.inconclusive == [(-3,), (-2,), (-1,)]
    assert not report.passed


@pytest.mark.parametrize("points, verdict", [
    (3**7 - 1, "inconclusive"), (3**7, "refuted_by_search")],
    ids=["over-budget", "within-budget"])
def test_equivalence_residue_too_large_is_inconclusive(points, verdict):
    # The system of the test above: from a negative x1, propagation leaves
    # x2..x8 stuck, so a search at radius 1 would walk 3^7 points.
    system = EnSystem(8, [Add(5, 6, 8), Add(7, 8, 1), Mul(2, 2, 5),
                          Mul(3, 3, 6), Mul(4, 4, 7)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 8\n"
                             + "".join(f"{i} 0\n" for i in range(2, 9))
                             + "ANCHOR q 1\n")
    report = check_equivalence(P("x1 - 100"), system, cert,
                               Box(((-3, -1),)), "Z",
                               OracleLimits(points=points, residual_radius=1))
    assert report.spurious == [] and report.base_roots == []
    if verdict == "inconclusive":
        assert report.inconclusive == [(-3,), (-2,), (-1,)]
        assert report.refuted_by_search == 0 and not report.passed
    else:
        assert report.inconclusive == [] and report.refuted_by_search == 3
        assert report.passed


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

def _derive_nothing(cls, system, p, domain="Z"):
    """A schedule from x_1..x_p that derives nothing: every equation is
    open."""
    return cls(domain, [0] * (p + 1) + [None] * (system.n - p), [], [],
               list(range(len(system.equations))))


def _propagated(monkeypatch, *args):
    """check_equivalence with nothing derived, so the propagator's queue
    alone decides each point."""
    with monkeypatch.context() as patch:
        patch.setattr(Schedule, "derive", classmethod(_derive_nothing))
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


def _compact_battery(rng, count):
    """compact-battery style cases: each system with its own equation and
    a shifted one, so roots, refutations, failed lifts and spurious points
    all occur."""
    compared = 0
    while compared < count:
        p = rng.randint(1, 3)
        d = _random_polynomial(rng, p)
        if d.is_zero():
            continue
        radius = 3 if p < 3 else 1
        for build, box, domain in (
                (build_compact_z, Box.cube(p, radius), "Z"),
                (build_compact_n, Box.cube_nonneg(p, 2 * radius), "N")):
            system, cert = build(d)
            assert Schedule.derive(system, p, domain).complete
            for source in (d, _wrong(d, rng)):
                yield source, system, cert, box, domain
                compared += 1


def test_schedule_matches_propagation_on_compact_battery(monkeypatch):
    for args in _compact_battery(random.Random(808), 60):
        assert vars(check_equivalence(*args)) == \
            vars(_propagated(monkeypatch, *args)), args


@pytest.mark.parametrize("budget", [1, 40])
def test_chunks_match_propagation_on_compact_battery(monkeypatch, budget):
    # A budget this small puts chunk boundaries inside every box.
    monkeypatch.setattr(kernels, "CHUNK_VALUES", budget)
    tamper = random.Random(809)
    cases = []
    for source, system, cert, box, domain in _compact_battery(
            random.Random(808), 60):
        cases.append((source, system, cert, box, domain))
        p = cert.p
        if domain == "Z":
            # compact_Z chains subtract, so over N their values go negative
            cases.append((source, system, cert, Box.cube_nonneg(p, 3), "N"))
        index = tamper.choice(sorted(cert.defs))
        tampered = replace(cert, defs={
            **cert.defs,
            index: cert.defs[index] + Polynomial.constant(
                p, tamper.choice([-1, 1]))})
        cases.append((source, system, tampered, box, domain))
    # Three checks: chunks of one point check them point by point.
    system, cert = _coinciding()
    d = anchor_polynomial(cert)
    for source in (d, d - Polynomial.constant(1, 12)):
        for box, domain in ((Box.cube(1, 3), "Z"),
                            (Box.cube_nonneg(1, 3), "N")):
            cases.append((source, system, cert, box, domain))
    failed = 0
    for args in cases:
        report = check_equivalence(*args)
        assert vars(report) == vars(_propagated(monkeypatch, *args)), args
        failed += not report.lifted_ok
    assert failed > 30
    # A certificate without a definition is refused on both paths before
    # any point is checked.
    d = P("x1 - x2")
    system, cert = build_compact_z(d)
    del cert.defs[3]
    args = (d, system, cert, Box.cube(2, 1), "Z")
    for check in (check_equivalence,
                  lambda *args: _propagated(monkeypatch, *args)):
        with pytest.raises(CertificateMismatch,
                           match="certificate has no definition for index 3"):
            check(*args)


@pytest.mark.parametrize("build, box, domain", [
    (build_full_z, Box.cube(2, 2), "Z"),
    (build_halved_z, Box.cube(2, 3), "Z"),
    (build_full_n, Box.cube_nonneg(2, 3), "N"),
], ids=["full_Z", "halved_Z", "full_N"])
def test_schedule_matches_propagation_on_full_families(monkeypatch, build,
                                                        box, domain):
    d = P("x1 - x2")
    system, cert = build(d)
    assert Schedule.derive(system, 2, domain).complete
    for source in (d, P("x1 - x2 + 1")):
        args = (source, system, cert, box, domain)
        report = check_equivalence(*args)
        assert vars(report) == vars(_propagated(monkeypatch, *args))
    assert report.base_roots and report.spurious


def _coinciding():
    """A schedule whose steps reuse slots, and three checks."""
    system = EnSystem(7, [Add(1, 1, 2), Add(1, 3, 1), Mul(2, 2, 4), One(5),
                          Add(5, 5, 6), Add(6, 6, 7), Add(2, 3, 2),
                          Mul(3, 4, 3), Add(3, 7, 4)])
    cert = parse_certificate("CERT 1\nmode compact_N\np 1\nn 7\n"
                             "2 2*x1\n3 0\n4 4*x1^2\n5 1\n6 2\n7 4\n"
                             "ANCHOR N 3 4 7\n")
    return system, cert


def test_schedule_matches_propagation_with_coinciding_indices(monkeypatch):
    # x2 = 2*x1 by Add(i, i, k), x3 = 0 by Add(i, j, i), x4 = x2^2 by
    # Mul(i, i, k); Add(2, 3, 2) and Mul(3, 4, 3) only check; the anchor
    # 0 + 4 = x4 holds exactly when x1 = +-1.
    system, cert = _coinciding()
    d = anchor_polynomial(cert)
    assert d == P("4*x1^2 - 4")
    schedule = Schedule.derive(system, 1)
    assert schedule.complete and len(schedule.checks) == 3
    for box, domain in ((Box.cube(1, 3), "Z"), (Box.cube_nonneg(1, 3), "N")):
        report = check_equivalence(d, system, cert, box, domain)
        assert vars(report) == \
            vars(_propagated(monkeypatch, d, system, cert, box, domain))
        assert report.passed
    assert check_equivalence(d, system, cert, Box.cube(1, 3)).base_roots == \
        [(-1,), (1,)]


def test_schedule_negative_value_over_n(monkeypatch):
    # compact_Z chains subtract: the constants x4 = 1 and, by the anchor,
    # x5 = 0 are settled first; the one step derives x3 = x1 - x2, which
    # goes negative below the diagonal and refutes the point over N before
    # any check runs, and x4 + x5 = x3, the chain's last link, only checks
    d = P("x1 - x2 - 1")
    system, cert = build_compact_z(d)
    schedule = Schedule.derive(system, 2, "N")
    assert schedule.steps == [(operator.sub, 1, 2, 3)]
    assert schedule.checks == [Add(4, 5, 3)]
    assert schedule.template == [0, 0, 0, 0, 1, 0]
    assert _extensions(schedule, [(1, 3)]) == [None]
    assert isinstance(propagate(system, {1: 1, 2: 3}, "N"), Conflict)
    assert _extensions(Schedule.derive(system, 2, "Z"), [(1, 3)]) == [None]
    args = (d, system, cert, Box.cube_nonneg(2, 3), "N")
    report = check_equivalence(*args)
    assert vars(report) == vars(_propagated(monkeypatch, *args))
    assert report.refuted_by_propagation == 13 and report.passed


@pytest.mark.parametrize("build, text", [
    (build_compact_z, "x1^2 - 3*x2 + 1"), (build_compact_z, "x1 - x2 - 1"),
    (build_halved_z, "x1 - x2"), (build_full_z, "x1 - x2")])
def test_anchor_node_is_a_constant_not_a_step(build, text):
    # x_q + x_q = x_q settles x_q = 0 before the sweep, so the chain or
    # family equation that would derive x_q only checks it.
    system, cert = build(P(text))
    q = cert.anchor[0]
    schedule = Schedule.derive(system, 2)
    assert schedule.complete and schedule.template[q] == 0
    assert q not in [k for *_, k in schedule.steps]
    assert Add(q, q, q) not in schedule.checks


def _counting_derive(monkeypatch):
    """Record the arguments of every `Schedule.derive` call."""
    calls = []
    derive = Schedule.derive.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return derive(cls, *args, **kwargs)

    monkeypatch.setattr(Schedule, "derive", classmethod(counting))
    return calls


def _checked_once(monkeypatch, calls, *args):
    """check_equivalence's report, after checking that it derived one
    schedule and that the report is the propagator's alone."""
    del calls[:]
    report = check_equivalence(*args)
    assert len(calls) == 1
    assert vars(report) == vars(_propagated(monkeypatch, *args)), args
    return report


def test_schedule_incomplete_falls_back_to_propagation(monkeypatch):
    calls = _counting_derive(monkeypatch)
    # x3 is reachable only by dividing x2 = x1^2 by x1
    system = EnSystem(5, [Mul(1, 1, 2), Mul(1, 3, 2), One(4), Add(5, 4, 2),
                          Add(5, 5, 5)])
    cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 5\n"
                             "2 x1^2\n3 x1\n4 1\n5 x1^2 - 1\nANCHOR q 5\n")
    d = P("x1^2 - 1")
    assert not Schedule.derive(system, 1).complete
    args = (d, system, cert, Box.cube(1, 2), "Z")
    report = _checked_once(monkeypatch, calls, *args)
    assert vars(report) == vars(_propagated(monkeypatch, *args)) == {
        "domain": "Z", "base_points": 5, "base_roots": [(-1,), (1,)],
        "lifted_ok": True, "unique_extension": True, "stuck_roots": 0,
        "spurious": [], "refuted_by_propagation": 3, "refuted_by_search": 0,
        "inconclusive": [], "system_solutions": 2, "failures": []}
    # stuck roots, spurious points and the residual search stay as they were
    square = EnSystem(2, [Mul(2, 2, 1)])
    square_cert = parse_certificate("CERT 1\nmode compact_Z\np 1\nn 2\n"
                                    "2 0\nANCHOR q 1\n")
    assert not Schedule.derive(square, 1).complete
    report = _checked_once(monkeypatch, calls, P("x1"), square, square_cert,
                           Box.cube(1, 3), "Z")
    assert (report.stuck_roots, report.spurious, report.refuted_by_search,
            report.refuted_by_propagation) == (1, [(1,)], 5, 0)
    # Boxes of over 200 points, drawn in chunks of 10 points, still derive
    # one schedule per check.
    monkeypatch.setattr(kernels, "CHUNK_VALUES", 60)
    wide = _checked_once(monkeypatch, calls, d, system, cert,
                         Box.cube(1, 120), "Z")
    assert wide.base_points == 241 and wide.passed
    wide = _checked_once(monkeypatch, calls, d - Polynomial.constant(1, 3),
                         system, cert, Box.cube_nonneg(1, 240), "N")
    assert wide.base_points == 241 and wide.refuted_by_propagation == 239
    wide = _checked_once(monkeypatch, calls, P("x1"), square, square_cert,
                         Box.cube(1, 100), "Z")
    assert (wide.stuck_roots, wide.spurious, wide.refuted_by_search) == (
        1, [(v * v,) for v in range(1, 11)], 190)


def _extensions(schedule, points):
    """Per base point, the solution extending it, or None: the schedule
    run over the points through `kernels.run_schedule` and
    `Schedule.solves`, as check_equivalence runs it."""
    values = kernels.run_schedule(schedule.template, schedule.steps,
                                  list(map(list, zip(*points))))
    return [list(row) if ok else None
            for ok, row in zip(schedule.solves(values), zip(*values))]


def _random_soup(rng):
    """A small system of random equations, indices free to coincide."""
    n = rng.randint(2, 6)
    equations = []
    for _ in range(rng.randint(1, 2 * n)):
        kind = rng.choice([One, Add, Add, Mul])
        indices = [rng.randint(1, n) for _ in range(1 if kind is One else 3)]
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
        if not schedule.complete:
            continue
        complete += 1
        points = list(Box.cube(p, 2).iter_points(domain))
        for point, got in zip(points, _extensions(schedule, points)):
            want = propagate(system, dict(enumerate(point, 1)), domain)
            assert isinstance(want, Conflict if got is None else Solved), (
                system.equations, point)
            if got is not None:
                assert got == want.values
    assert complete > 500


def test_schedule_derivation_is_linear_in_the_equation_order():
    # x1^20000 = 1 compiles to the chain x_{k+1} = x_1 * x_k.  Reversed,
    # sweeping the equations until nothing changes resolves one link per
    # sweep: about 2 * 10^8 equation visits.
    d = P("x1^20000 - 1")
    system, cert = build_compact_z(d, 10**6)
    reversed_system = EnSystem(system.n, system.equations[::-1])
    box = Box.cube(1, 2)
    started = time.monotonic()
    schedule = Schedule.derive(reversed_system, 1)
    report = check_equivalence(d, reversed_system, cert, box)
    assert time.monotonic() - started < 10
    assert len(schedule.steps) == system.n - 3  # all but x1 and 2 constants
    assert vars(report) == vars(check_equivalence(d, system, cert, box))
    assert report.passed and report.base_roots == [(-1,), (1,)]


# --------------------------------------------------------------------------
# propagation: the derived start against the fixed-point reference

class _FixedPointPropagator(_Propagator):
    """The reference start: every equation queued, each watched by all of
    its variables, and the queue run to its fixed point."""

    __slots__ = ()

    def start(self, seed):
        self.conflict_row = None
        self.by_var = {}
        for t, row in enumerate(self.rows):
            for index in set(row[1:]):
                self.by_var.setdefault(index, []).append(t)
        trail, queue = [], []
        for index, value in seed.items():
            if not 1 <= index <= self.n:
                raise ValueError(f"seed index {index} out of range")
            if not self._set(index, value, None, queue, trail):
                return False, trail
        queue.extend(range(len(self.rows)))
        return self._run(queue, trail), trail


@st.composite
def _ordered_systems(draw):
    """A small system with coinciding indices allowed, as drawn, reversed
    or shuffled, a domain and a seed inside it."""
    n = draw(st.integers(1, 6))
    index = st.integers(1, n)
    equation = st.one_of(st.builds(One, index),
                         st.builds(Add, index, index, index),
                         st.builds(Mul, index, index, index))
    equations = draw(st.lists(equation, max_size=3 * n))
    order = draw(st.sampled_from(["drawn", "reversed", "shuffled"]))
    if order == "reversed":
        equations.reverse()
    elif order == "shuffled":
        equations = draw(st.permutations(equations))
    domain = draw(st.sampled_from(["Z", "N"]))
    value = st.integers(0 if domain == "N" else -3, 6)
    seed = draw(st.dictionaries(index, value, max_size=3))
    return EnSystem(n, equations), domain, seed


def _assert_same_state(prop, ref):
    assert prop.row == ref.row


@settings(max_examples=400, deadline=None)
@given(_ordered_systems(), st.data())
def test_start_matches_fixed_point_reference(case, data):
    system, domain, seed = case
    prop, ref = _Propagator(system, domain), _FixedPointPropagator(system,
                                                                   domain)
    ok, trail = prop.start(dict(seed))
    ref_ok, ref_trail = ref.start(dict(seed))
    assert ok == ref_ok
    outcome, ref_outcome = prop.outcome(ok), ref.outcome(ref_ok)
    assert type(outcome) is type(ref_outcome)
    if not ok:
        # Which values were set before the conflict depends on the order.
        prop.undo(trail)
        ref.undo(ref_trail)
        assert prop.row == ref.row == [0] + [None] * system.n
        return
    assert vars(outcome) == vars(ref_outcome)
    # The same search state after every push and undo.
    trails = []
    index = st.integers(1, system.n)
    for _ in range(data.draw(st.integers(0, 8))):
        if trails and data.draw(st.booleans()):
            mine, theirs = trails.pop()
            prop.undo(mine)
            ref.undo(theirs)
            _assert_same_state(prop, ref)
            continue
        at, value = data.draw(index), data.draw(st.integers(-3, 6))
        ok, mine = prop.push(at, value)
        ref_ok, theirs = ref.push(at, value)
        assert ok == ref_ok
        if ok:
            _assert_same_state(prop, ref)
            trails.append((mine, theirs))
        else:
            prop.undo(mine)
            ref.undo(theirs)
            _assert_same_state(prop, ref)
    # Bounded search from the seed finds the same solutions in the same
    # order after the same number of nodes.
    limits = OracleLimits()
    ref = _FixedPointPropagator(system, domain)
    if ref.start(dict(seed))[0]:
        want = _search(ref, 1, limits, time.monotonic() + limits.seconds)
    else:
        want = SearchOutcome(solutions=[], exhausted=True, nodes=0)
    assert vars(solve_bounded(system, domain, 1, dict(seed), limits)) == \
        vars(want)


def _derived_row(system, domain, seed):
    """The row `Schedule.from_row` fills from the seed, and its
    schedule."""
    row = [0] + [None] * system.n
    for index, value in seed.items():
        row[index] = value
    return row, Schedule.from_row(system, row, domain)


@settings(max_examples=400, deadline=None)
@given(_ordered_systems())
def test_derivation_from_a_seed_is_the_fixed_point_reference(case):
    system, domain, seed = case
    reversed_system = EnSystem(system.n, system.equations[::-1])
    known, verdicts = [], []
    for ordered in (system, reversed_system):
        row, schedule = _derived_row(ordered, domain, seed)
        # The open equations are exactly those left with an unknown slot.
        assert schedule.open == [
            t for t, eq in enumerate(ordered.rows)
            if any(row[index] is None for index in eq[1:])]
        ref = _FixedPointPropagator(ordered, domain)
        ref_ok, _ = ref.start(dict(seed))
        if ref_ok:
            # Every derived value is the one the fixed point reaches.
            assert all(value is None or value == reached
                       for value, reached in zip(row, ref.row))
        known.append([i for i in range(1, system.n + 1) if row[i] is not None])
        verdicts.append(propagate(ordered, dict(seed), domain))
    # Reversing the equations changes neither the derived indices nor the
    # verdict.
    assert known[0] == known[1]
    assert type(verdicts[0]) is type(verdicts[1])
    if not isinstance(verdicts[0], Conflict):
        assert vars(verdicts[0]) == vars(verdicts[1])


@settings(max_examples=300, deadline=None)
@given(_ordered_systems(), st.integers(0, 2))
def test_schedule_verdicts_do_not_depend_on_the_equation_order(case, p):
    system, domain, _ = case
    p = min(p, system.n)
    drawn = Schedule.derive(system, p, domain)
    reversed_system = EnSystem(system.n, system.equations[::-1])
    again = Schedule.derive(reversed_system, p, domain)
    assert drawn.complete == again.complete
    if not drawn.complete:
        return
    points = list(Box.cube(p, 2).iter_points(domain))
    assert _extensions(drawn, points) == _extensions(again, points)

"""Ground-truth verification: bounded enumeration, constraint propagation,
certificate lifting, equivalence checking, and four-square decompositions.

Nothing here is clever on purpose.  The oracle exists to check the
reductions against brute force at desk scale, so its rules are the obvious
sound ones and every limit is explicit.  A check that cannot finish inside
its budget reports "inconclusive" rather than passing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from itertools import product as iproduct
from math import isqrt, prod
from operator import add, mul, sub
from typing import Mapping

from . import kernels
from .errors import (BoxTooLarge, CertificateMismatch, DimensionMismatch,
                     SearchLimit)
from .poly import Polynomial
from .reductions import ReductionCertificate
from .system import DOMAIN_N, DOMAIN_Z, Add, EnEquation, EnSystem, Mul, One

DEFAULT_POINT_LIMIT = 10**8


@dataclass(frozen=True)
class OracleLimits:
    points: int = DEFAULT_POINT_LIMIT  # enumeration budget (box points)
    search_nodes: int = 10**6          # backtracking node budget
    seconds: float = 60.0              # soft wall-clock budget per check
    residual_radius: int = 16          # branching radius for stuck residues


DEFAULT_LIMITS = OracleLimits()


# --------------------------------------------------------------------------
# boxes and root enumeration

@dataclass(frozen=True)
class Box:
    """Per-variable inclusive integer intervals."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @classmethod
    def cube(cls, dim: int, radius: int) -> "Box":
        return cls(tuple((-radius, radius) for _ in range(dim)))

    @classmethod
    def cube_nonneg(cls, dim: int, radius: int) -> "Box":
        return cls(tuple((0, radius) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def effective(self, domain: str) -> list[tuple[int, int]] | None:
        """Bounds clamped to the domain; None if the box becomes empty."""
        out = []
        for lo, hi in self.bounds:
            if domain == DOMAIN_N:
                lo = max(lo, 0)
            if lo > hi:
                return None
            out.append((lo, hi))
        return out

    def point_count(self, domain: str = DOMAIN_Z) -> int:
        eff = self.effective(domain)
        if eff is None:
            return 0
        return prod(hi - lo + 1 for lo, hi in eff)

    def iter_points(self, domain: str = DOMAIN_Z):
        eff = self.effective(domain)
        if eff is None:
            return
        yield from iproduct(*(range(lo, hi + 1) for lo, hi in eff))


def enumerate_roots(poly: Polynomial, box: Box, domain: str = DOMAIN_Z,
                    limit: int = DEFAULT_POINT_LIMIT) -> list[tuple[int, ...]]:
    """All points of the box where the polynomial vanishes, in lex order."""
    if box.dim != poly.arity:
        raise DimensionMismatch(
            f"box dimension {box.dim} != polynomial arity {poly.arity}")
    count = box.point_count(domain)
    if count > limit:
        raise BoxTooLarge(f"box holds {count} points, limit is {limit}")
    eff = box.effective(domain)
    if eff is None:
        return []
    terms = poly.sorted_terms()
    exps = tuple(e for e, _ in terms)
    coeffs = tuple(c for _, c in terms)
    lows = tuple(lo for lo, _ in eff)
    highs = tuple(hi for _, hi in eff)
    return kernels.grid_roots(exps, coeffs, lows, highs)


# --------------------------------------------------------------------------
# assignment checking

@dataclass(frozen=True)
class CheckResult:
    status: str  # "satisfied" | "violated" | "incomplete"
    equation: EnEquation | None = None
    missing: tuple[int, ...] = ()
    negatives: tuple[int, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


def check_assignment(system: EnSystem, values: Mapping[int, int],
                     domain: str = DOMAIN_Z) -> CheckResult:
    """Check a (possibly partial) assignment against every equation.

    Satisfied requires: total on [1, n], inside the domain (>= 0 for N),
    and every equation exactly true.  Equations whose variables are all
    assigned are checked even when the assignment is partial, so a
    violation can never flip to satisfied by extending the assignment.
    """
    if domain == DOMAIN_N:
        negatives = tuple(i for i in range(1, system.n + 1)
                          if values.get(i, 0) < 0)
        if negatives:
            return CheckResult(status="violated", negatives=negatives)
    missing = tuple(i for i in range(1, system.n + 1) if i not in values)
    equations = system.equations
    if missing:
        equations = [eq for eq in equations
                     if all(index in values for index in eq)]
    bad = kernels.check_equations(equations, values)
    if bad != -1:
        return CheckResult(status="violated", equation=equations[bad])
    if missing:
        return CheckResult(status="incomplete", missing=missing)
    return CheckResult(status="satisfied")


# --------------------------------------------------------------------------
# constraint propagation

@dataclass
class Solved:
    values: dict[int, int]


@dataclass
class Stuck:
    values: dict[int, int]
    undetermined: tuple[int, ...]


@dataclass
class Conflict:
    equation: EnEquation | None


PropagationResult = Solved | Stuck | Conflict


class _Propagator:
    """Incremental fixed-point propagation with an undo trail.

    Rules (sound, deliberately incomplete):
      x_i = 1            assigns 1
      x_i + x_i = x_i    assigns 0
      Add, two known     determines the third slot
      Mul, factors known determines the product
      Mul, product and a nonzero factor known, dividing exactly
                         determines the other factor
    plus consistency checks: fully-known equations are verified, a zero
    factor with a nonzero known product conflicts, and over N any negative
    value conflicts.
    """

    __slots__ = ("equations", "by_var", "values", "domain", "n",
                 "conflict_equation")

    def __init__(self, system: EnSystem, domain: str):
        self.equations = system.equations
        self.n = system.n
        self.domain = domain
        self.values: dict[int, int] = {}
        self.conflict_equation: EnEquation | None = None
        by_var: list[list[int]] = [[] for _ in range(system.n + 1)]
        for t, eq in enumerate(self.equations):
            for index in set(eq):
                by_var[index].append(t)
        self.by_var = by_var

    def _set(self, index, value, eq, queue, trail) -> bool:
        existing = self.values.get(index)
        if existing is not None:
            if existing != value:
                self.conflict_equation = eq
                return False
            return True
        if self.domain == DOMAIN_N and value < 0:
            self.conflict_equation = eq
            return False
        self.values[index] = value
        trail.append(index)
        queue.extend(self.by_var[index])
        return True

    def _apply(self, t, queue, trail) -> bool:
        # One pass suffices: a slot is derived only while it is unknown, so
        # its index differs from the two known ones and the derived value
        # satisfies the equation by construction.
        eq = self.equations[t]
        if type(eq) is One:
            return self._set(eq.i, 1, eq, queue, trail)
        add = type(eq) is Add
        i, j, k = eq
        if add and i == j == k:
            return self._set(i, 0, eq, queue, trail)
        values = self.values
        vi, vj, vk = values.get(i), values.get(j), values.get(k)
        if vi is not None and vj is not None:
            result = vi + vj if add else vi * vj
            if vk is None:
                return self._set(k, result, eq, queue, trail)
            if result == vk:
                return True
        elif vk is None:
            return True
        else:
            if vi is not None:
                known, other = vi, j
            elif vj is not None:
                known, other = vj, i
            else:
                return True
            if add:
                return self._set(other, vk - known, eq, queue, trail)
            if known == 0:
                if vk == 0:
                    return True  # 0 * x = 0: x stays undetermined
            else:
                quot, rem = divmod(vk, known)
                if not rem:
                    return self._set(other, quot, eq, queue, trail)
        self.conflict_equation = eq
        return False

    def _run(self, queue, trail) -> bool:
        while queue:
            t = queue.pop()
            if not self._apply(t, queue, trail):
                return False
        return True

    def start(self, seed: dict[int, int]) -> tuple[bool, list[int]]:
        """Seed values and scan every equation once; returns (ok, trail).

        Undoing the trail restores the state before the call, so one
        propagator can be started again and again from different seeds.
        """
        self.conflict_equation = None
        trail: list[int] = []
        queue: list[int] = []
        for index, value in seed.items():
            if not 1 <= index <= self.n:
                raise ValueError(f"seed index {index} out of range")
            if not self._set(index, value, None, queue, trail):
                return False, trail
        queue.extend(range(len(self.equations)))
        return self._run(queue, trail), trail

    def push(self, index: int, value: int) -> tuple[bool, list[int]]:
        """Assign one variable and propagate; returns (ok, trail)."""
        trail: list[int] = []
        queue: list[int] = []
        if not self._set(index, value, None, queue, trail):
            return False, trail
        return self._run(queue, trail), trail

    def undo(self, trail: list[int]):
        for index in trail:
            del self.values[index]

    def undetermined(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.values)

    def outcome(self, ok: bool) -> PropagationResult:
        """The result of the last `start` or `push`, given what it returned.

        Values are copied, so the result survives `undo`.
        """
        if not ok:
            return Conflict(self.conflict_equation)
        undetermined = self.undetermined()
        if undetermined:
            return Stuck(values=dict(self.values), undetermined=undetermined)
        return Solved(values=dict(self.values))


def propagate(system: EnSystem, seed: dict[int, int] | None = None,
              domain: str = DOMAIN_Z) -> PropagationResult:
    """Run propagation to its fixed point from a (possibly empty) seed."""
    prop = _Propagator(system, domain)
    ok, _ = prop.start(dict(seed or {}))
    return prop.outcome(ok)


# --------------------------------------------------------------------------
# straight-line schedules

@dataclass(frozen=True, eq=False)
class Schedule:
    """Every variable of a system derived from x_1..x_p in a fixed order.

    Which slot an equation determines from which others does not depend on
    the values as long as only these of the propagator's rules are used:
      x_i = 1            assigns 1
      x_i + x_i = x_i    assigns 0
      Add, two known     determines the third slot
      Mul, factors known determines the product
    `derive` assigns the constants, then sweeps the equations in order,
    marking slots known, until every variable is; each derivation becomes a
    step.  `extend` runs the steps on a flat value list and checks the
    equations no step used.

    Every derived value is forced by its equation, so a base point extends
    to a solution exactly when the derived values pass those checks (and,
    over N, are non-negative), and then the extension is unique.  That is
    the propagator's verdict from the same seed: its rules include these,
    so from a point it ends in a conflict or solved, never stuck.
    """

    p: int
    domain: str
    template: list[int]          # constants by index, 0 elsewhere
    steps: list[tuple]           # (op, a, b, k): x_k = op(x_a, x_b)
    checks: list[EnEquation]     # the equations no step used

    @classmethod
    def derive(cls, system: EnSystem, p: int,
               domain: str = DOMAIN_Z) -> "Schedule | None":
        """The schedule from x_1..x_p, or None if a variable stays unknown.

        Sweeps stop as soon as all n variables are known.
        """
        n = system.n
        if not 0 <= p <= n:
            raise ValueError(f"base variable count {p} outside [0, {n}]")
        equations = system.equations
        known = [False] + [True] * p + [False] * (n - p)
        template = [0] * (n + 1)
        unused = bytearray(b"\x01") * len(equations)
        count = p
        # Constants first: x_i = 1 and x_i + x_i = x_i need no known slot.
        for t, eq in enumerate(equations):
            i = eq[0]
            if (eq[-1] == i and not known[i]
                    and (type(eq) is One or type(eq) is Add and eq[1] == i)):
                known[i] = True
                template[i] = 1 if type(eq) is One else 0
                unused[t] = 0
                count += 1
        steps: list[tuple] = []
        pending = range(len(equations))
        while count < n:
            before = count
            unresolved = []
            for t in pending:
                eq = equations[t]
                if type(eq) is One:
                    continue
                i, j, k = eq
                if known[i] and known[j]:
                    if known[k]:
                        continue  # left to the checks
                    slot = k
                    steps.append((add if type(eq) is Add else mul, i, j, k))
                elif type(eq) is Mul or not known[k]:
                    unresolved.append(t)
                    continue
                elif known[i]:
                    slot = j
                    steps.append((sub, k, i, j))
                elif known[j]:
                    slot = i
                    steps.append((sub, k, j, i))
                else:
                    unresolved.append(t)
                    continue
                known[slot] = True
                unused[t] = 0
                count += 1
                if count == n:
                    break
            if count == before:
                return None
            pending = unresolved
        checks = list(compress(equations, unused))
        return cls(p, domain, template, steps, checks)

    def extend(self, point) -> Solved | Conflict:
        """The unique solution extending a base point, or the conflict:
        the first violated check, or no equation for a negative value over N.
        """
        if len(point) != self.p:
            raise DimensionMismatch(
                f"base point of length {len(point)} for p = {self.p}")
        values = kernels.run_schedule(self.template, self.steps, point)
        if self.domain == DOMAIN_N and min(values) < 0:
            return Conflict(None)
        bad = kernels.check_equations(self.checks, values)
        if bad != -1:
            return Conflict(self.checks[bad])
        solution = dict(enumerate(values))
        del solution[0]
        return Solved(values=solution)


# --------------------------------------------------------------------------
# lifting

def lift(cert: ReductionCertificate, base) -> dict[int, int]:
    """Total assignment extending a base point along the certificate."""
    base = tuple(base)
    if len(base) != cert.p:
        raise DimensionMismatch(
            f"base point of length {len(base)} for p = {cert.p}")
    values = {i + 1: v for i, v in enumerate(base)}
    for index, poly in cert.defs.items():
        values[index] = poly.eval_at(base)
    return values


def anchor_polynomial(cert: ReductionCertificate) -> Polynomial:
    """The polynomial whose vanishing the anchored equation enforces."""

    def poly_at(index: int) -> Polynomial:
        if index <= cert.p:
            return Polynomial.variable(cert.p, index)
        return cert.defs[index]

    if cert.anchor_q is not None:
        return poly_at(cert.anchor_q)
    return poly_at(cert.anchor_a) - poly_at(cert.anchor_b)


# --------------------------------------------------------------------------
# bounded search

@dataclass
class SearchOutcome:
    solutions: list[dict[int, int]]
    exhausted: bool   # False when a node/time budget truncated the search
    nodes: int


def solve_bounded(system: EnSystem, domain: str = DOMAIN_Z, radius: int = 8,
                  seed: dict[int, int] | None = None,
                  limits: OracleLimits = DEFAULT_LIMITS,
                  collect_limit: int | None = None) -> SearchOutcome:
    """Depth-first search with propagation at every step.

    Branches only on variables propagation left undetermined, lowest index
    first, over [-radius, radius] (clamped to N for that domain); values
    that propagation derives are not constrained by the radius.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    prop = _Propagator(system, domain)
    ok, _ = prop.start(dict(seed or {}))
    if not ok:
        return SearchOutcome(solutions=[], exhausted=True, nodes=0)
    return _search(prop, radius, limits, collect_limit)


def _search(prop: _Propagator, radius: int, limits: OracleLimits,
            collect_limit: int | None = None) -> SearchOutcome:
    """The search of `solve_bounded`, from the propagator's current state.

    Iterative, so the depth is bounded by the variable count rather than
    the interpreter's recursion limit.  On return the propagator holds the
    values it held on entry.
    """
    lo = 0 if prop.domain == DOMAIN_N else -radius
    deadline = time.monotonic() + limits.seconds
    values = prop.values
    solutions: list[dict[int, int]] = []
    nodes = 0
    truncated = False
    # One frame per open node: [branching index, next value to try, trail
    # of the value pushed now].  Every index below a frame's branching index
    # is determined in all of its subtrees.
    stack: list[list] = []
    index = 1
    while True:
        nodes += 1
        if nodes > limits.search_nodes or time.monotonic() > deadline:
            truncated = True
            break
        while index <= prop.n and index in values:
            index += 1
        if index > prop.n:
            solutions.append(dict(values))
            if collect_limit is not None and len(solutions) >= collect_limit:
                break
        else:
            stack.append([index, lo, []])
        while stack:  # step to the next child that propagates consistently
            frame = stack[-1]
            prop.undo(frame[2])
            value = frame[1]
            if value > radius:
                stack.pop()
                continue
            frame[1] = value + 1
            ok, frame[2] = prop.push(frame[0], value)
            if ok:
                index = frame[0] + 1
                break
        else:
            break
    for frame in reversed(stack):
        prop.undo(frame[2])
    exhausted = not truncated and (
        collect_limit is None or len(solutions) < collect_limit)
    return SearchOutcome(solutions=solutions, exhausted=exhausted, nodes=nodes)


# --------------------------------------------------------------------------
# equivalence checking

@dataclass
class EquivalenceReport:
    domain: str
    base_points: int = 0
    base_roots: list[tuple[int, ...]] = field(default_factory=list)
    lifted_ok: bool = True
    unique_extension: bool = True
    stuck_roots: int = 0
    spurious: list[tuple[int, ...]] = field(default_factory=list)
    refuted_by_propagation: int = 0
    refuted_by_search: int = 0
    inconclusive: list[tuple[int, ...]] = field(default_factory=list)
    system_solutions: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def counts_equal(self) -> bool:
        return (self.system_solutions == len(self.base_roots)
                and not self.spurious)

    @property
    def passed(self) -> bool:
        return (self.lifted_ok and self.unique_extension
                and not self.spurious and not self.inconclusive
                and self.counts_equal and not self.failures)

    def merge(self, other: "EquivalenceReport"):
        self.base_points += other.base_points
        self.base_roots.extend(other.base_roots)
        self.lifted_ok &= other.lifted_ok
        self.unique_extension &= other.unique_extension
        self.stuck_roots += other.stuck_roots
        self.spurious.extend(other.spurious)
        self.refuted_by_propagation += other.refuted_by_propagation
        self.refuted_by_search += other.refuted_by_search
        self.inconclusive.extend(other.inconclusive)
        self.system_solutions += other.system_solutions
        self.failures.extend(other.failures)


def _check_points(d, system, cert, points, domain, limits):
    """Classify each point; propagation runs only when no schedule exists."""
    report = EquivalenceReport(domain=domain)
    schedule = Schedule.derive(system, cert.p, domain)
    if schedule is None:
        prop = _Propagator(system, domain)
    for point in points:
        report.base_points += 1
        root = d.eval_at(point) == 0
        if root:
            report.base_roots.append(point)
            lifted = lift(cert, point)
            result = check_assignment(system, lifted, domain)
            if not result.satisfied:
                report.lifted_ok = False
                if result.negatives:
                    problem = "leaves N"
                elif result.equation is not None:
                    problem = f"violates {result.equation}"
                else:
                    problem = f"leaves x{result.missing[0]} unassigned"
                report.failures.append(f"lift of {point} {problem}")
                continue
            report.system_solutions += 1
            if schedule is not None:
                # Every scheduled value is forced, so the schedule run from
                # a root reproduces its verified lift.
                continue
        if schedule is not None:
            outcome = schedule.extend(point)
        else:
            ok, trail = prop.start({i + 1: v for i, v in enumerate(point)})
            outcome = prop.outcome(ok)
        if root:
            if isinstance(outcome, Conflict):
                report.unique_extension = False
                report.failures.append(
                    f"propagation from root {point} hit a contradiction "
                    f"on {outcome.equation}")
            elif isinstance(outcome, Stuck):
                report.unique_extension = False
                report.stuck_roots += 1
            elif outcome.values != lifted:
                report.unique_extension = False
                report.failures.append(
                    f"propagation from {point} disagrees with the lift")
        elif isinstance(outcome, Conflict):
            report.refuted_by_propagation += 1
        elif isinstance(outcome, Solved):
            report.spurious.append(point)
            report.failures.append(f"non-root {point} extends to a solution")
        elif ((2 * limits.residual_radius + 1) ** len(outcome.undetermined)
              > limits.points):
            report.inconclusive.append(point)
        else:
            found = _search(prop, limits.residual_radius, limits,
                            collect_limit=1)
            if found.solutions:
                report.spurious.append(point)
                report.failures.append(
                    f"non-root {point} extends to a solution")
            elif found.exhausted:
                report.refuted_by_search += 1
            else:
                report.inconclusive.append(point)
        if schedule is None:
            prop.undo(trail)
    return report


def _equiv_chunk(args):
    return _check_points(*args)


def check_equivalence(d: Polynomial, system: EnSystem,
                      cert: ReductionCertificate, box: Box,
                      domain: str = DOMAIN_Z,
                      limits: OracleLimits = DEFAULT_LIMITS,
                      jobs: int = 1) -> EquivalenceReport:
    """Exercise the reduction against brute force over a finite box.

    Every root of D in the box must lift to a verified solution that
    propagation reproduces uniquely; every non-root must be refuted by
    propagation or by exhaustive search over the stuck residue.  Points are
    run through the system's `Schedule` when it has one, which reaches the
    same verdicts as propagation; otherwise one propagator is restarted
    from each point.
    """
    if box.dim != d.arity or cert.p != d.arity:
        raise DimensionMismatch("box, polynomial, and certificate disagree")
    count = box.point_count(domain)
    if count > limits.points:
        raise BoxTooLarge(f"box holds {count} points, limit {limits.points}")
    points = list(box.iter_points(domain))
    if jobs > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = (len(points) + jobs - 1) // jobs
        tasks = [(d, system, cert, points[i:i + chunk], domain, limits)
                 for i in range(0, len(points), chunk)]
        report = EquivalenceReport(domain=domain)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for partial in pool.map(_equiv_chunk, tasks):
                report.merge(partial)
        return report
    return _check_points(d, system, cert, points, domain, limits)


# --------------------------------------------------------------------------
# four squares

def foursquare_decompose(m: int) -> tuple[int, int, int, int]:
    """Lexicographically least (a, b, c, d) with a^2+b^2+c^2+d^2 = m."""
    if m < 0:
        raise ValueError("four-square decompositions need m >= 0")
    for a in range(isqrt(m // 4) + 1):
        ra = m - a * a
        for b in range(a, isqrt(ra // 3) + 1):
            rb = ra - b * b
            for c in range(b, isqrt(rb // 2) + 1):
                rc = rb - c * c
                d = isqrt(rc)
                if d * d == rc:
                    return (a, b, c, d)
    raise AssertionError(f"no four-square decomposition found for {m}")


# --------------------------------------------------------------------------
# pinning verification

@dataclass
class PinningReport:
    n: int
    expected: int
    consistent_propagation: bool = True
    x2_forced: bool = False
    propagation_complete: bool = False
    solutions_found: int = 0
    offending: list[dict[int, int]] = field(default_factory=list)
    search_exhausted: bool = True
    witness_checked: bool = False
    witness_ok: bool | None = None

    @property
    def passed(self) -> bool:
        if not (self.consistent_propagation and self.x2_forced
                and self.search_exhausted and not self.offending):
            return False
        if self.solutions_found == 0:
            # Nothing was pinned inside the box; only a witness shows a
            # solution exists at all.
            return self.witness_ok is True
        return self.witness_ok is not False


def verify_pinning(assembled, expected: int, *, box_radius: int = 2,
                   domain: str | None = None, witness_base=None,
                   limits: OracleLimits = DEFAULT_LIMITS) -> PinningReport:
    """Check that every bounded solution of an assembled system pins
    x1 = expected, and (optionally) that a supplied representation root
    lifts to an explicit witness solution.

    Propagation must fix x2 = n on its own.  The remaining free variables
    are the certificate's base variables; they are enumerated within
    box_radius through the certificate, which maps the search to root
    enumeration of the anchored polynomial.
    """
    if box_radius < 0:
        raise ValueError(f"radius must be non-negative, got {box_radius}")
    system = assembled.system
    n = assembled.n
    if domain is None:
        domain = DOMAIN_N if assembled.mode == "N" else DOMAIN_Z
    report = PinningReport(n=n, expected=expected)
    prop = _Propagator(system, domain)
    ok, _ = prop.start({})
    if not ok:
        report.consistent_propagation = False
        return report
    values = prop.values
    report.x2_forced = values.get(2) == n
    if len(values) == system.n:
        report.propagation_complete = True
        report.solutions_found = 1
        if values[1] != expected:
            report.offending.append(values)
    else:
        cert = getattr(assembled, "certificate", None)
        if cert is not None:
            solutions = _pinned_solutions_via_cert(
                assembled, prop, box_radius, limits)
            report.solutions_found = len(solutions)
            report.offending = [s for s in solutions if s[1] != expected]
        else:
            found = _search(prop, box_radius, limits)
            report.search_exhausted = found.exhausted
            report.solutions_found = len(found.solutions)
            report.offending = [
                s for s in found.solutions if s[1] != expected]
    if witness_base is not None:
        report.witness_checked = True
        witness = assembled.witness_assignment(witness_base)
        result = check_assignment(system, witness, domain)
        report.witness_ok = (result.satisfied
                             and witness[1] == expected
                             and witness[2] == n)
    return report


def _pinned_solutions_via_cert(assembled, prop, box_radius, limits):
    """Enumerate bounded solutions through the certificate.

    Chain equations hold under any lift by construction, so a bounded
    assignment solves the system exactly when the anchored polynomial
    vanishes at its base part and the scaffold values agree with what
    propagation already forced.
    """
    cert = assembled.certificate
    domain = prop.domain
    forced = prop.values
    fixed = {i: forced[i] for i in range(1, cert.p + 1) if i in forced}
    free = [i for i in range(1, cert.p + 1) if i not in forced]
    if not free:
        # All base variables forced yet propagation stalled elsewhere; the
        # generic search handles this (it should not happen for our chains).
        found = _search(prop, box_radius, limits)
        if not found.exhausted:
            raise SearchLimit("pinning search truncated")
        return found.solutions
    residual = anchor_polynomial(cert).substituted(fixed)
    # The same polynomial in the free base variables alone.
    residual = Polynomial(len(free), {
        tuple(exps[i - 1] for i in free): coeff
        for exps, coeff in residual.terms.items()})
    roots = enumerate_roots(residual, Box.cube(len(free), box_radius),
                            domain, limits.points)
    solutions = []
    for root in roots:
        base = dict(fixed)
        for i, v in zip(free, root):
            base[i] = v
        point = tuple(base[i] for i in range(1, cert.p + 1))
        solution = assembled.witness_assignment(point)
        # Chain equations hold under any lift by construction, so a lift
        # that fails means the certificate does not belong to the system.
        if not check_assignment(assembled.system, solution, domain).satisfied:
            raise CertificateMismatch(
                f"certificate lift of {point} does not solve the system")
        solutions.append(solution)
    return solutions

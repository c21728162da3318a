"""Ground-truth verification: bounded enumeration, constraint propagation,
certificate lifting, equivalence checking, and four-square decompositions.

Nothing here is clever on purpose.  The oracle exists to check the
reductions against brute force at desk scale, so its rules are the obvious
sound ones and every limit is explicit.  A check that cannot finish inside
its budget reports "inconclusive" rather than passing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, islice
from itertools import product as iproduct
from math import isqrt, prod
from operator import add, and_, mul, or_, sub
from typing import Mapping

from . import kernels
from .errors import BoxTooLarge, CertificateMismatch, DimensionMismatch
from .poly import Polynomial
from .reductions import ReductionCertificate, validate_certificate
from .system import DOMAIN_N, DOMAIN_Z, Add, EnEquation, EnSystem, One

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

    Each derived value is forced by the values it came from, so the fixed
    point, and whether a conflict is reached at all, does not depend on the
    order in which the rules fire; only the equation a conflict names does.
    `start` must come before `push`.
    """

    __slots__ = ("equations", "by_var", "values", "domain", "n",
                 "conflict_equation")

    def __init__(self, system: EnSystem, domain: str):
        self.equations = system.equations
        self.n = system.n
        self.domain = domain
        self.values: dict[int, int] = {}
        self.conflict_equation: EnEquation | None = None

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
        queue.extend(self.by_var.get(index, ()))
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
        """Seed values and propagate to the fixed point; returns (ok, trail).

        One sweep in equation order applies the value-independent rules
        (the two constants, an Add with two slots known, a Mul with both
        factors known) and checks every equation whose slots are all known.
        The equations it leaves with an unknown slot are open: only they
        enter the queue, which applies every rule, and only they are
        watched by later pushes, since a closed equation holds no unknown
        variable.  Undoing the trail restores the state before the call, so
        one propagator can be started again and again from different seeds.
        """
        self.conflict_equation = None
        by_var = self.by_var = defaultdict(list)
        trail: list[int] = []
        for index, value in seed.items():
            if not 1 <= index <= self.n:
                raise ValueError(f"seed index {index} out of range")
            if not self._set(index, value, None, [], trail):
                return False, trail
        queue = self._sweep(trail)
        if queue is None:
            return False, trail
        values, equations = self.values, self.equations
        for t in queue:
            for index in equations[t]:
                if index not in values:
                    by_var[index].append(t)
        return self._run(queue, trail), trail

    def _sweep(self, trail) -> list[int] | None:
        """The sweep of `start`: the open equations' positions, or None
        after a conflict."""
        values = self.values
        get = values.get
        nat = self.domain == DOMAIN_N
        opened: list[int] = []
        for t, eq in enumerate(self.equations):
            kind = type(eq)
            if kind is One:
                i = eq[0]
                vi = get(i)
                if vi is None:
                    values[i] = 1
                    trail.append(i)
                elif vi != 1:
                    break
                continue
            i, j, k = eq
            vi, vj, vk = get(i), get(j), get(k)
            if vi is not None and vj is not None:
                # Over N both are non-negative, so is the result.
                result = vi + vj if kind is Add else vi * vj
                if vk is None:
                    values[k] = result
                    trail.append(k)
                elif vk != result:
                    break
                continue
            if kind is Add:
                if vk is not None:
                    # The unknown slot differs from the two known ones.
                    if vi is not None:
                        other, value = j, vk - vi
                    elif vj is not None:
                        other, value = i, vk - vj
                    else:
                        opened.append(t)
                        continue
                    if nat and value < 0:
                        break
                    values[other] = value
                    trail.append(other)
                    continue
                if i == j == k:
                    values[i] = 0
                    trail.append(i)
                    continue
            opened.append(t)
        else:
            return opened
        self.conflict_equation = eq
        return None

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
    `derive` assigns the constants, then sweeps the equations once in
    order, marking slots known; an equation the sweep leaves unresolved is
    visited once more, and after that whenever one of its unknown slots
    becomes known, so the derivation takes linear time in any equation
    order.  Each derivation becomes a step.  `kernels.run_schedule` takes
    every step once over a batch of base points, a column of values at a
    time; `solves` then checks the equations no step used over the whole
    batch, and `solves_at` over one point's row of values.

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

        Derivation stops as soon as all n variables are known.
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
        # The first pass sweeps every equation once.  The second visits the
        # ones it left unresolved; one still unresolved then waits on its
        # unknown slots and is visited again when one becomes known.
        pending = range(len(equations))
        unresolved: list[int] = []
        watch: dict[int, list[int]] | None = None
        waiting = bytearray(len(equations))
        while count < n:
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
                elif type(eq) is Add and known[k] and (known[i] or known[j]):
                    if known[i]:
                        slot = j
                        steps.append((sub, k, i, j))
                    else:
                        slot = i
                        steps.append((sub, k, j, i))
                else:
                    if watch is None:
                        unresolved.append(t)
                    elif not waiting[t]:
                        waiting[t] = 1
                        for index in {i, j, k}:
                            if not known[index]:
                                watch.setdefault(index, []).append(t)
                    continue
                known[slot] = True
                unused[t] = 0
                count += 1
                if count == n:
                    break
                if watch:
                    pending.extend(watch.pop(slot, ()))
            if watch is not None:
                break
            watch, pending = {}, unresolved
        if count < n:
            return None
        checks = list(compress(equations, unused))
        return cls(p, domain, template, steps, checks)

    def solves(self, values) -> list[bool]:
        """Per point of a batch run through `kernels.run_schedule`, whether
        its values are a solution: over N none is negative, and every check
        holds.  Each check runs once over the whole batch, a column of
        values at a time.
        """
        if self.domain == DOMAIN_N and min(map(min, values)) < 0:
            held = [min(row) >= 0 for row in zip(*values)]
        else:
            held = [True] * len(values[0])
        for eq in self.checks:
            if type(eq) is One:
                got, want = values[eq.i], [1] * len(held)
            else:
                i, j, k = eq
                got = list(map(add if type(eq) is Add else mul,
                               values[i], values[j]))
                want = values[k]
            if got != want:
                held = [ok and a == b for ok, a, b in zip(held, got, want)]
        return held

    def solves_at(self, row) -> bool:
        """`solves` for one point's row of values, through
        `kernels.check_equations`, which stops at the first violated check.
        """
        return (not (self.domain == DOMAIN_N and min(row) < 0)
                and kernels.check_equations(self.checks, row) == -1)


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
                  limits: OracleLimits = DEFAULT_LIMITS) -> SearchOutcome:
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
    return _search(prop, radius, limits, time.monotonic() + limits.seconds)


def _search(prop: _Propagator, radius: int, limits: OracleLimits,
            deadline: float, collect_limit: int | None = None
            ) -> SearchOutcome:
    """The search of `solve_bounded`, from the propagator's current state.

    Iterative, so the depth is bounded by the variable count rather than
    the interpreter's recursion limit.  The node and time budgets are
    checked at every node below the root, so a state with nothing left to
    branch on is never truncated.  On return the propagator holds the
    values it held on entry.
    """
    lo = 0 if prop.domain == DOMAIN_N else -radius
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
        if stack and (nodes > limits.search_nodes
                      or time.monotonic() > deadline):
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
            if time.monotonic() > deadline:  # children that fail count too
                frame[2] = []
                truncated = True
                break
            frame[1] = value + 1
            ok, frame[2] = prop.push(frame[0], value)
            if ok:
                index = frame[0] + 1
                break
        if truncated or not stack:
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


def check_equivalence(d: Polynomial, system: EnSystem,
                      cert: ReductionCertificate, box: Box,
                      domain: str = DOMAIN_Z,
                      limits: OracleLimits = DEFAULT_LIMITS
                      ) -> EquivalenceReport:
    """Exercise the reduction against brute force over a finite box.

    Every root of D in the box must lift to a verified solution that
    propagation reproduces uniquely; every non-root must be refuted by
    propagation or by exhaustive search over the stuck residue.  A
    certificate that does not fit the system is refused first with
    `validate_certificate`'s CertificateMismatch, and a box with no point
    in the domain with ValueError, since it would check nothing.

    The check runs in one process and reads the box a chunk of points at a
    time: a chunk holds at most `kernels.CHUNK_VALUES` values over its
    points and the system's n + 1 slots, so memory grows with neither the
    box nor the system, and the next chunk is drawn only after every
    verdict of the one before.  D is evaluated over a chunk's coordinate
    columns to find its roots.  When the system has a `Schedule`, each of
    its steps runs once over the whole chunk.  If the chunk holds at least
    as many points as the schedule has checks, `Schedule.solves` runs each
    check once over the chunk, and a root whose extension passes is
    accepted without `lift` and `check_assignment` when the certificate's
    definitions, evaluated over the roots' columns, equal the extension:
    the lift is then that solution.  Otherwise `Schedule.solves_at` checks
    each non-root on its own, up to its first violated check.  Every other
    root is lifted and checked against the whole system, so no root is
    checked twice.  A scheduled value is forced, so a non-root whose
    extension fails is refuted, as propagation from it would be.  Without
    a schedule, one propagator is restarted from each point.  The searches
    over stuck residues share one deadline, `limits.seconds` after the
    check starts; a point whose search it cuts short is inconclusive.
    """
    validate_certificate(cert, system.n)
    if box.dim != d.arity or cert.p != d.arity:
        raise DimensionMismatch("box, polynomial, and certificate disagree")
    count = box.point_count(domain)
    if not count:
        raise ValueError(f"box holds no point in {domain}")
    if count > limits.points:
        raise BoxTooLarge(f"box holds {count} points, limit {limits.points}")
    deadline = time.monotonic() + limits.seconds
    report = EquivalenceReport(domain=domain)
    schedule = Schedule.derive(system, cert.p, domain)
    if schedule is None:
        prop = _Propagator(system, domain)
    chunk = max(1, kernels.CHUNK_VALUES // (system.n + 1))
    points = box.iter_points(domain)
    while batch := list(islice(points, chunk)):
        columns = list(map(list, zip(*batch)))
        roots = [not value for value in
                 kernels.eval_columns([d.terms], columns)[0]]
        report.base_points += len(batch)
        if schedule is None:
            for point, root in zip(batch, roots):
                _propagate_point(report, prop, system, cert, point, root,
                                 limits, deadline)
            continue
        values = kernels.run_schedule(schedule.template, schedule.steps,
                                      columns)
        if len(batch) >= len(schedule.checks):
            solved = schedule.solves(values)
            passing = list(compress(range(len(batch)),
                                    map(and_, roots, solved)))
            accepted = _lifts_agree(cert, columns, values, passing)
        else:
            # Few points against many checks: a non-root is checked on its
            # own up to its first violated check, and a root only through
            # its lift, so no root is checked twice.
            solved = [not root and schedule.solves_at(row)
                      for root, row in zip(roots, zip(*values))]
            accepted = set()
        # A non-root whose extension fails is refuted; only the roots and
        # the spurious points need a look of their own, in box order.
        either = list(map(or_, roots, solved))
        report.refuted_by_propagation += len(batch) - sum(either)
        for t in compress(range(len(batch)), either):
            point = batch[t]
            if not roots[t]:
                report.spurious.append(point)
                report.failures.append(
                    f"non-root {point} extends to a solution")
                continue
            report.base_roots.append(point)
            if t in accepted:
                report.system_solutions += 1
            else:
                # Every scheduled value is forced, so a verified lift is
                # the extension and needs no comparison with it.
                _checked_lift(report, system, cert, point, domain)
    return report


def _checked_lift(report, system, cert, point, domain) -> dict | None:
    """The lift of a root when it solves the system, counted as a
    solution; otherwise None, with the failure recorded."""
    lifted = lift(cert, point)
    result = check_assignment(system, lifted, domain)
    if result.satisfied:
        report.system_solutions += 1
        return lifted
    report.lifted_ok = False
    problem = "leaves N" if result.negatives else f"violates {result.equation}"
    report.failures.append(f"lift of {point} {problem}")
    return None


def _propagate_point(report, prop, system, cert, point, root, limits,
                     deadline):
    """The verdict on one box point by propagation and, when it gets
    stuck on a non-root, search; the propagator is left as it was."""
    if root:
        report.base_roots.append(point)
        lifted = _checked_lift(report, system, cert, point, prop.domain)
        if lifted is None:
            return
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
        found = _search(prop, limits.residual_radius, limits, deadline,
                        collect_limit=1)
        if found.solutions:
            report.spurious.append(point)
            report.failures.append(f"non-root {point} extends to a solution")
        elif found.exhausted:
            report.refuted_by_search += 1
        else:
            report.inconclusive.append(point)
    prop.undo(trail)


def _lifts_agree(cert, columns, values, picked) -> set[int]:
    """The positions among `picked` whose lift is their scheduled values.

    `check_equivalence` has validated the certificate, so its `defs`
    cover x_{p+1}..x_n in x_1..x_p, and a lift reads only them: it is the
    scheduled values when each definition, evaluated over the coordinate
    columns, equals the scheduled value of its index.
    """
    if not picked:
        return set()
    defs = cert.defs
    agree = set(picked)
    sub = [list(map(column.__getitem__, picked)) for column in columns]
    evaluated = kernels.eval_columns([poly.terms for poly in defs.values()],
                                     sub)
    for k, lifted in zip(defs, evaluated):
        scheduled = list(map(values[k].__getitem__, picked))
        if lifted != scheduled:
            agree.difference_update(
                t for t, a, b in zip(picked, lifted, scheduled) if a != b)
    return agree


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


def verify_pinning(system: EnSystem, expected: int, *, domain: str,
                   certificate: ReductionCertificate | None = None,
                   box_radius: int = 2, witness_base=None,
                   limits: OracleLimits = DEFAULT_LIMITS) -> PinningReport:
    """Check that every bounded solution of an n-variable system pins
    x1 = expected, and (optionally) that a supplied base point of the
    certificate lifts to an explicit witness solution.

    Propagation from the empty seed must fix x2 = n on its own.  The
    bounded solutions are then enumerated by one rule.  When a certificate
    exists and propagation left some of its base variables free, those are
    enumerated within box_radius through the certificate, which maps the
    search to root enumeration of the anchored polynomial.  Every other
    state, with or without a certificate, is searched from where
    propagation left it (a complete propagation is that search's only
    solution); a truncated search leaves `search_exhausted` false and the
    check fails.  The witness, like every solution found through the
    certificate, is the propagated values overlaid with the certificate's
    lift of its base point.
    """
    if box_radius < 0:
        raise ValueError(f"radius must be non-negative, got {box_radius}")
    if witness_base is not None:
        if certificate is None:
            raise ValueError("witness checking needs a certificate")
        # Lifting first refuses a base point of the wrong length before
        # any propagation or search.
        lifted = lift(certificate, witness_base)
    n = system.n
    report = PinningReport(n=n, expected=expected)
    prop = _Propagator(system, domain)
    ok, _ = prop.start({})
    if not ok:
        report.consistent_propagation = False
        return report
    values = prop.values
    report.x2_forced = values.get(2) == n
    report.propagation_complete = len(values) == n
    if certificate is not None and any(
            i not in values for i in range(1, certificate.p + 1)):
        solutions = _pinned_solutions_via_cert(system, certificate, prop,
                                               box_radius, limits)
    else:
        found = _search(prop, box_radius, limits,
                        time.monotonic() + limits.seconds)
        report.search_exhausted = found.exhausted
        solutions = found.solutions
    report.solutions_found = len(solutions)
    report.offending = [s for s in solutions if s[1] != expected]
    if witness_base is not None:
        report.witness_checked = True
        witness = {**values, **lifted}
        result = check_assignment(system, witness, domain)
        report.witness_ok = (result.satisfied
                             and witness[1] == expected
                             and witness[2] == n)
    return report


def _pinned_solutions_via_cert(system, cert, prop, box_radius, limits):
    """Enumerate bounded solutions through the certificate, some of whose
    base variables propagation left undetermined.

    Chain equations hold under any lift by construction, so a bounded
    assignment solves the system exactly when the anchored polynomial
    vanishes at its base part and agrees with what propagation already
    forced.  The roots are taken in the certificate's own coordinates: a
    forced base variable gets the one-point interval of its value, every
    other one [-box_radius, box_radius].
    """
    domain, forced = prop.domain, prop.values
    fixed = {i: forced[i] for i in range(1, cert.p + 1) if i in forced}
    residual = anchor_polynomial(cert).substituted(fixed)
    box = Box(tuple((fixed[i], fixed[i]) if i in fixed
                    else (-box_radius, box_radius)
                    for i in range(1, cert.p + 1)))
    solutions = []
    for point in enumerate_roots(residual, box, domain, limits.points):
        solution = {**forced, **lift(cert, point)}
        # Chain equations hold under any lift by construction, so a lift
        # that fails means the certificate does not belong to the system.
        if not check_assignment(system, solution, domain).satisfied:
            raise CertificateMismatch(
                f"certificate lift of {point} does not solve the system")
        solutions.append(solution)
    return solutions

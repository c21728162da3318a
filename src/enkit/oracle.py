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
from itertools import chain, compress
from itertools import product as iproduct
from math import isqrt, prod
from operator import add, and_, mul, or_, sub

from . import kernels
from .errors import BoxTooLarge, CertificateMismatch, DimensionMismatch
from .poly import Polynomial
from .reductions import ReductionCertificate, validate_certificate
from .system import (ADD, DOMAIN_N, DOMAIN_Z, ONE, EnSystem, canonical_row,
                     format_row)

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
    exps = tuple(poly.terms)
    coeffs = tuple(poly.terms.values())
    lows = tuple(lo for lo, _ in eff)
    highs = tuple(hi for _, hi in eff)
    return kernels.grid_roots(exps, coeffs, lows, highs)


# --------------------------------------------------------------------------
# assignment checking

@dataclass(frozen=True)
class CheckResult:
    status: str  # "satisfied" | "violated" | "incomplete"
    equation: tuple | None = None  # the violated row
    missing: tuple[int, ...] = ()
    negatives: tuple[int, ...] = ()

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


def check_assignment(system: EnSystem, row: list,
                     domain: str = DOMAIN_Z) -> CheckResult:
    """Check a (possibly partial) assignment, a row of n + 1 values with
    None where unknown and index 0 ignored, against every equation.

    Satisfied requires: total on [1, n], inside the domain (>= 0 for N),
    and every equation exactly true.  Equations whose variables are all
    assigned are checked even when the assignment is partial, so a
    violation can never flip to satisfied by extending the assignment.
    """
    n = system.n
    if len(row) != n + 1:
        raise DimensionMismatch(f"row of length {len(row)} for n = {n}")
    values = row[1:]
    # filter(None, ...) drops the unknown values, and zeros: none negative.
    if domain == DOMAIN_N and min(filter(None, values), default=0) < 0:
        negatives = tuple(i for i, v in enumerate(values, 1) if (v or 0) < 0)
        return CheckResult(status="violated", negatives=negatives)
    missing = ()
    rows = system.rows
    if None in values:
        missing = tuple(i for i, v in enumerate(values, 1) if v is None)
        rows = [r for r in rows if None not in map(row.__getitem__, r[1:])]
    bad = kernels.check_equations(rows, row)
    if bad != -1:
        return CheckResult(status="violated", equation=rows[bad])
    if missing:
        return CheckResult(status="incomplete", missing=missing)
    return CheckResult(status="satisfied")


# --------------------------------------------------------------------------
# constraint propagation

@dataclass
class Solved:
    values: list  # the row of n + 1 values, 0 at the unused index 0


@dataclass
class Stuck:
    values: list  # the row, None where unknown
    undetermined: tuple[int, ...]


@dataclass
class Conflict:
    equation: tuple | None  # the row found false, if any


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

    The values live in `row`, the row `Schedule.from_row` fills: n + 1
    entries, None where unknown, with 0 at the unused index 0.  The rules
    read the system's rows, and a conflict keeps the row it was reached
    on; `outcome` names its equation.  Each derived value is forced by the
    values it came from, so the fixed point, and whether a conflict is
    reached at all, does not depend on the order in which the rules fire;
    only the equation a conflict names does.  `start` or `resume` must
    come before `push`.
    """

    __slots__ = ("system", "rows", "by_var", "row", "domain", "n",
                 "conflict_row")

    def __init__(self, system: EnSystem, domain: str):
        self.system = system
        self.rows = system.rows
        self.n = system.n
        self.domain = domain
        self.row: list = [0] + [None] * system.n
        self.conflict_row: tuple | None = None

    def _set(self, index, value, eq, queue, trail) -> bool:
        row = self.row
        existing = row[index]
        if existing is not None:
            if existing != value:
                self.conflict_row = eq
                return False
            return True
        if self.domain == DOMAIN_N and value < 0:
            self.conflict_row = eq
            return False
        row[index] = value
        trail.append(index)
        queue.extend(self.by_var.get(index, ()))
        return True

    def _apply(self, t, queue, trail) -> bool:
        # One pass suffices: a slot is derived only while it is unknown, so
        # its index differs from the two known ones and the derived value
        # satisfies the equation by construction.
        eq = self.rows[t]
        kind, i, j, k = eq
        if kind == ONE:
            return self._set(i, 1, eq, queue, trail)
        add = kind == ADD
        if add and i == j == k:
            return self._set(i, 0, eq, queue, trail)
        row = self.row
        vi, vj, vk = row[i], row[j], row[k]
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
        self.conflict_row = eq
        return False

    def _run(self, queue, trail) -> bool:
        while queue:
            t = queue.pop()
            if not self._apply(t, queue, trail):
                return False
        return True

    def start(self, seed: dict[int, int]) -> tuple[bool, range]:
        """Seed values and propagate to the fixed point; returns (ok, trail).

        `Schedule.from_row` fills in the row from the seed, and `resume`
        takes it from there.  A start begins with nothing known, so its
        trail is every index: undoing it restores that state, and one
        propagator can be started again and again from different seeds.
        """
        row = self.row
        for index, value in seed.items():
            if not 1 <= index <= self.n:
                raise ValueError(f"seed index {index} out of range")
            row[index] = value
        # Over N a negative seed conflicts, naming no equation.
        self.conflict_row = None
        ok = ((self.domain != DOMAIN_N or min(seed.values(), default=0) >= 0)
              and self.resume(row, Schedule.from_row(self.system, row,
                                                     self.domain)))
        return ok, range(1, self.n + 1)

    def resume(self, row: list, schedule: "Schedule") -> bool:
        """Propagate to the fixed point from a row `schedule` derived from
        non-negative values over N; returns whether no conflict was reached.

        A negative step over N conflicts, then the checks are evaluated.
        Only the open equations, the ones holding an unknown variable,
        enter the queue, which applies every rule, or are watched by pushes.
        """
        self.row = row
        self.conflict_row = None
        if self.domain == DOMAIN_N:
            for op, a, b, k in schedule.steps:
                # Sums and products of non-negative values stay
                # non-negative, so the first step to go negative is a
                # subtraction.
                if row[k] < 0:
                    self.conflict_row = canonical_row(ADD, b, k, a)
                    return False
        bad = kernels.check_equations(schedule.checks, row)
        if bad != -1:
            self.conflict_row = schedule.checks[bad]
            return False
        by_var = self.by_var = defaultdict(list)
        rows = self.rows
        for t in schedule.open:
            for index in rows[t][1:]:
                if row[index] is None:
                    by_var[index].append(t)
        return self._run(list(schedule.open), [])

    def push(self, index: int, value: int) -> tuple[bool, list[int]]:
        """Assign one variable and propagate; returns (ok, trail)."""
        trail: list[int] = []
        queue: list[int] = []
        if not self._set(index, value, None, queue, trail):
            return False, trail
        return self._run(queue, trail), trail

    def undo(self, trail: list[int]):
        row = self.row
        for index in trail:
            row[index] = None

    def outcome(self, ok: bool) -> PropagationResult:
        """The result of the last `start`, `resume` or `push`, given ok.

        The row is copied, so the result survives `undo`.
        """
        if not ok:
            return Conflict(self.conflict_row)
        row = self.row.copy()
        if None not in row:
            return Solved(values=row)
        return Stuck(values=row, undetermined=tuple(
            i for i, value in enumerate(row) if value is None))


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
    """What the value-independent rules derive from the known variables.

    Which slot an equation determines from which others does not depend on
    the values as long as only these of the propagator's rules are used:
      x_i = 1            assigns 1
      x_i + x_i = x_i    assigns 0
      Add, two known     determines the third slot
      Mul, factors known determines the product
    `from_row`, the only code that applies them, reads the system's rows.
    It settles the constants first, then sweeps the equations once in
    order; an equation the sweep leaves unresolved is visited once more,
    and after that whenever one of its unknown slots becomes known, so the
    derivation takes linear time in any equation order.  Each derivation
    other than a constant is a step.  An equation that derived nothing is
    a check if its slots all end up known, and open otherwise.

    From x_1..x_p, `kernels.run_schedule` takes each of `derive`'s steps
    once over a batch of base points, a column of values at a time;
    `solves` then checks a complete schedule over the whole batch, and
    `solves_at` over one point's row of values.  Every derived value
    is forced by its equation, so a base point extends to a solution
    exactly when the derived values pass the checks (and, over N, are
    non-negative), and then uniquely: the propagator's verdict from the
    same seed, whose queue finishes what an incomplete schedule began.
    """

    domain: str
    template: list               # starting values by index, for run_schedule
    steps: list[tuple]           # (op, a, b, k): x_k = op(x_a, x_b)
    checks: list[tuple]          # the rows whose slots were all known
    open: list[int]              # positions of the equations left open

    @classmethod
    def derive(cls, system: EnSystem, p: int,
               domain: str = DOMAIN_Z) -> "Schedule":
        """The schedule from x_1..x_p, for `kernels.run_schedule`: the
        template keeps only the constants, with 0 at the base and step
        slots and None at the unknown ones."""
        n = system.n
        if not 0 <= p <= n:
            raise ValueError(f"base variable count {p} outside [0, {n}]")
        schedule = cls.from_row(system, [0] * (p + 1) + [None] * (n - p),
                                domain)
        for step in schedule.steps:
            schedule.template[step[3]] = 0
        return schedule

    @classmethod
    def from_row(cls, system: EnSystem, row: list,
                 domain: str = DOMAIN_Z) -> "Schedule":
        """The schedule from a row of n + 1 values, None where unknown and
        0 at the unused index 0, which it fills in and keeps as template."""
        n = system.n
        rows = system.rows
        unused = bytearray(b"\x01") * len(rows)
        known = n - row.count(None)
        steps: list[tuple] = []
        # The constants come first, so no chain derives one as a step: each
        # x_i = 1 and x_i + x_i = x_i (the rows with i = k, then j = i too)
        # settles its slot if it is unknown, and is a check otherwise.
        for t in [t for t, eq in enumerate(rows) if eq[1] == eq[3]]:
            kind, i, j, _ = rows[t]
            if known < n and row[i] is None and (
                    kind == ONE or kind == ADD and j == i):
                row[i] = 1 if kind == ONE else 0
                unused[t] = 0
                known += 1
        # The first pass sweeps every equation once.  The second visits the
        # ones it left unresolved; one still unresolved then waits on its
        # unknown slots and is visited again when one becomes known.
        pending = range(len(rows))
        unresolved: list[int] = []
        watch: dict[int, list[int]] | None = None
        waiting = bytearray(len(rows))
        while known < n:
            for t in pending:
                kind, i, j, k = rows[t]
                if kind == ONE:
                    continue  # settled above, or left to the checks
                if row[i] is not None and row[j] is not None:
                    if row[k] is not None:
                        continue  # left to the checks
                    slot = k
                    if kind == ADD:
                        row[k] = row[i] + row[j]
                        steps.append((add, i, j, k))
                    else:
                        row[k] = row[i] * row[j]
                        steps.append((mul, i, j, k))
                elif (kind == ADD and row[k] is not None
                      and (row[i] is not None or row[j] is not None)):
                    if row[i] is not None:
                        slot = j
                        row[j] = row[k] - row[i]
                        steps.append((sub, k, i, j))
                    else:
                        slot = i
                        row[i] = row[k] - row[j]
                        steps.append((sub, k, j, i))
                else:
                    if watch is None:
                        unresolved.append(t)
                    elif not waiting[t]:
                        waiting[t] = 1
                        for index in {i, j, k}:
                            if row[index] is None:
                                watch.setdefault(index, []).append(t)
                    continue
                unused[t] = 0
                known += 1
                if known == n:
                    break
                if watch:
                    pending.extend(watch.pop(slot, ()))
            if watch is not None:
                break
            watch, pending = {}, unresolved
        # Each equation left with an unknown slot was unresolved on the
        # first pass, and only then can some variable stay unknown.
        opened = [t for t in dict.fromkeys(unresolved)
                  if None in map(row.__getitem__, rows[t][1:])
                  ] if known < n else []
        for t in opened:
            unused[t] = 0
        return cls(domain, row, steps, list(compress(rows, unused)), opened)

    @property
    def complete(self) -> bool:
        """Whether the schedule derives every variable."""
        return None not in self.template

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
        for kind, i, j, k in self.checks:
            if kind == ONE:
                got, want = values[i], [1] * len(held)
            else:
                got = list(map(add if kind == ADD else mul,
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

def lift(cert: ReductionCertificate, base) -> list:
    """The row of cert.n + 1 values (0 at the unused index 0) extending a
    base point along a certificate that `validate_certificate` accepts."""
    base = tuple(base)
    if len(base) != cert.p:
        raise DimensionMismatch(
            f"base point of length {len(base)} for p = {cert.p}")
    validate_certificate(cert, cert.n)
    row = [0, *base] + [None] * (cert.n - cert.p)
    # A chain's definitions share their monomials: each is evaluated once.
    monomial = {exps: prod(map(pow, base, exps)) for exps in dict.fromkeys(
        chain.from_iterable(poly.terms for poly in cert.defs.values()))}
    for index, poly in cert.defs.items():
        terms = poly.terms
        row[index] = sum(map(mul, terms.values(),
                             map(monomial.__getitem__, terms)))
    return row


def anchor_polynomial(cert: ReductionCertificate) -> Polynomial:
    """The polynomial whose vanishing the anchored equation enforces."""

    def poly_at(index: int) -> Polynomial:
        if index <= cert.p:
            return Polynomial.variable(cert.p, index)
        return cert.defs[index]

    if len(cert.anchor) == 1:  # (q,) over Z, (zero, a, b) over N
        return poly_at(*cert.anchor)
    return poly_at(cert.anchor[1]) - poly_at(cert.anchor[2])


# --------------------------------------------------------------------------
# bounded search

@dataclass
class SearchOutcome:
    solutions: list[list]  # rows of n + 1 values
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
    row = prop.row
    solutions: list[list] = []
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
        while index <= prop.n and row[index] is not None:
            index += 1
        if index > prop.n:
            solutions.append(row.copy())
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

    The check runs in one process and walks the box with `kernels.chunks`,
    the walker `grid_roots` uses: a chunk holds at most
    `kernels.CHUNK_VALUES` values over its points and the system's n + 1
    slots, so memory grows with neither the box nor the system, and the
    next chunk is drawn only after every verdict of the one before.  D is
    evaluated over a chunk's coordinate
    columns to find its roots.  One `Schedule` is derived per check, from
    x_1..x_p, and each of its steps runs once over the whole chunk.  If the
    schedule is complete, its checks run once over the chunk through
    `Schedule.solves` when the chunk holds at least as many points as there
    are checks, and otherwise point by point through `Schedule.solves_at`.
    A root whose extension passes is accepted without `lift` and
    `check_assignment` when the certificate's definitions, evaluated over
    the roots' columns, equal the extension: the lift is then that
    solution.  Every other root is lifted and checked against the whole
    system.  A scheduled value is forced, so a non-root whose extension
    fails is refuted, as propagation from it would be.  If the schedule
    leaves a variable unknown, each point's row of scheduled values goes
    to one propagator's queue instead.  The searches over stuck residues
    share one deadline, `limits.seconds` after the check starts; a point
    whose search it cuts short is inconclusive.
    """
    validate_certificate(cert, system.n)
    if box.dim != d.arity or cert.p != d.arity:
        raise DimensionMismatch("box, polynomial, and certificate disagree")
    count = box.point_count(domain)
    if not count:
        raise ValueError(f"box holds no point in {domain}")
    if count > limits.points:
        raise BoxTooLarge(
            f"box holds {count} points, limit is {limits.points}")
    deadline = time.monotonic() + limits.seconds
    report = EquivalenceReport(domain=domain)
    schedule = Schedule.derive(system, cert.p, domain)
    prop = None if schedule.complete else _Propagator(system, domain)
    for batch, columns in kernels.chunks(box.iter_points(domain),
                                         system.n + 1):
        roots = [not value for value in
                 kernels.eval_columns([d.terms], columns)[0]]
        report.base_points += len(batch)
        values = kernels.run_schedule(schedule.template, schedule.steps,
                                      columns)
        if prop is not None:
            for point, root, row in zip(batch, roots, zip(*values)):
                _propagate_point(report, prop, schedule, list(row), cert,
                                 point, root, limits, deadline)
            continue
        if len(batch) >= len(schedule.checks):
            solved = schedule.solves(values)
        else:  # few points against many checks: each up to its first failure
            solved = list(map(schedule.solves_at, zip(*values)))
        passing = list(compress(range(len(batch)), map(and_, roots, solved)))
        accepted = _lifts_agree(cert, columns, values, passing)
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


def _checked_lift(report, system, cert, point, domain) -> bool:
    """Whether the lift of a root solves the system: counted as a
    solution if so, recorded as a failure if not."""
    result = check_assignment(system, lift(cert, point), domain)
    if result.satisfied:
        report.system_solutions += 1
        return True
    report.lifted_ok = False
    problem = ("leaves N" if result.negatives
               else f"violates {format_row(result.equation)}")
    report.failures.append(f"lift of {point} {problem}")
    return False


def _propagate_point(report, prop, schedule, row, cert, point, root, limits,
                     deadline):
    """The verdict on one box point by propagation from its scheduled row
    and, when it gets stuck on a non-root, search."""
    if root:
        report.base_roots.append(point)
        if not _checked_lift(report, prop.system, cert, point, prop.domain):
            return
    outcome = prop.outcome(prop.resume(row, schedule))
    if root:
        # The lift solves the system in the domain, and every value in the
        # row or propagated from it is forced, so it is the lift's: the
        # propagation ends Solved at the lift, or Stuck.
        if isinstance(outcome, Stuck):
            report.unique_extension = False
            report.stuck_roots += 1
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
    offending: list[list] = field(default_factory=list)  # rows
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
                   limits: OracleLimits = DEFAULT_LIMITS,
                   tail: list[int] | None = None) -> PinningReport:
    """Check that every bounded solution of an n-variable system pins
    x1 = expected, and (optionally) that a supplied base point of the
    certificate lifts to an explicit witness solution.

    With `tail`, `system` is psi, on x1..xs of an n-variable system
    whose x_{s+1}..x_n are forced to `tail` and force x2 = n, as the
    fn-system scaffold is.  Psi alone is then pinned and checked, from
    the seed {2: n}, and each row reported is extended by `tail`.

    Propagation from the empty seed must fix x2 = n on its own.  The
    bounded solutions are then enumerated by one rule.  When a certificate
    exists and propagation left some of its base variables free, those are
    enumerated within box_radius through the certificate, which maps the
    search to root enumeration of the anchored polynomial.  Otherwise the
    state propagation left is searched, which on a complete propagation
    finds that one row at once; a truncated search leaves
    `search_exhausted` false and the check fails.  The witness, like every
    solution found through the certificate, is the propagated row with
    the certificate's lift of its base point written over its start.
    """
    if box_radius < 0:
        raise ValueError(f"radius must be non-negative, got {box_radius}")
    tail = tail or []
    n = system.n + len(tail)
    if n < 2:
        raise ValueError(f"pinning needs x1 and x2, but n = {n}")
    if certificate is not None:  # it covers x_1..x_m of the system, m <= n
        validate_certificate(certificate, min(certificate.n, system.n))
    if witness_base is not None:
        if certificate is None:
            raise ValueError("witness checking needs a certificate")
        # Lifting first refuses a base point of the wrong length before
        # any propagation or search.
        lifted = lift(certificate, witness_base)
    report = PinningReport(n=n, expected=expected)
    prop = _Propagator(system, domain)
    ok, _ = prop.start({2: n} if tail else {})
    if not ok:
        report.consistent_propagation = False
        return report
    row = prop.row
    report.x2_forced = row[2] == n
    report.propagation_complete = None not in row
    if certificate is not None and None in row[1:certificate.p + 1]:
        solutions = _pinned_solutions_via_cert(system, certificate, domain,
                                               row, box_radius, limits)
    else:
        found = _search(prop, box_radius, limits,
                        time.monotonic() + limits.seconds)
        report.search_exhausted = found.exhausted
        solutions = found.solutions
    report.solutions_found = len(solutions)
    report.offending = [s + tail for s in solutions if s[1] != expected]
    if witness_base is not None:
        report.witness_checked = True
        witness = lifted + row[certificate.n + 1:]
        result = check_assignment(system, witness, domain)
        report.witness_ok = (result.satisfied
                             and witness[1] == expected
                             and witness[2] == n)
    return report


def _pinned_solutions_via_cert(system, cert, domain, forced, box_radius,
                               limits):
    """Enumerate bounded solutions through the certificate, some of whose
    base variables the propagated row `forced` leaves unknown.

    Chain equations hold under any lift by construction, so a bounded
    assignment solves the system exactly when the anchored polynomial
    vanishes at its base part and agrees with what propagation already
    forced.  The roots are taken in the certificate's own coordinates: a
    forced base variable gets the one-point interval of its value, every
    other one [-box_radius, box_radius].
    """
    base = forced[1:cert.p + 1]
    fixed = {i: value for i, value in enumerate(base, 1) if value is not None}
    residual = anchor_polynomial(cert).substituted(fixed)
    box = Box(tuple((-box_radius, box_radius) if value is None
                    else (value, value) for value in base))
    solutions = []
    for point in enumerate_roots(residual, box, domain, limits.points):
        solution = lift(cert, point) + forced[cert.n + 1:]
        # Chain equations hold under any lift by construction, so a lift
        # that fails means the certificate does not belong to the system.
        if not check_assignment(system, solution, domain).satisfied:
            raise CertificateMismatch(
                f"certificate lift of {point} does not solve the system")
        solutions.append(solution)
    return solutions

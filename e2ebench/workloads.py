"""The three workloads: seeded corpora of CLI jobs with their known answers.

A job is one `enkit` invocation: its argv, the exit code it must return,
the files it writes, and a check that compares its outputs with an answer
computed by `known` (never by enkit).  A workload is an ordered list of jobs
(one corpus pass) plus the subset run as the warm-up.

Why each workload exists is written in BENCHMARK.json and README.md.  The
seed changes which boxes, polynomials and sizes are used, but every seed
draws the same number of jobs from the same strata, so the work per pass
stays comparable across seeds.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import known

# Every limit is passed as a flag, so nothing is read from the environment.
LIMIT_FLAGS = ["--cap", "1000000", "--pair-cap", "2000",
               "--point-limit", "100000000", "--time-budget", "60",
               "--jobs", "1"]
DEFAULT_BOX = "--box=-8..8"

COMPILE = "compile"
VERDICT = "verdict"

_COUNTS = re.compile(r"roots (\d+) solutions (\d+) spurious (\d+)")
_PIN = re.compile(r"solutions (\d+) offending (\d+)")


@dataclass
class Job:
    id: str
    kind: str                  # COMPILE (reduce, fn-system) or VERDICT
    argv: list[str]
    expect_exit: int
    outputs: list[Path]
    check: Callable[[str], str | None]   # stdout -> error, None when right


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    inputs: dict[Path, str] = field(default_factory=dict)

    def write_inputs(self):
        for path, text in self.inputs.items():
            path.write_text(text, encoding="ascii")


def _file(prefix: Path, suffix: str) -> Path:
    """The CLI appends suffixes to --out as text, so do the same."""
    return Path(str(prefix) + suffix)


def _report(work: Path, job_id: str) -> Path:
    return work / (job_id.replace(":", "-") + ".json")


def _read(path: Path) -> str:
    return path.read_text(encoding="ascii")


def _flags(box: str = DEFAULT_BOX) -> list[str]:
    return LIMIT_FLAGS + [box]


def _box_flag(bounds) -> str:
    return "--box=" + ",".join(f"{lo}..{hi}" for lo, hi in bounds)


def _verdict(stdout: str) -> str | None:
    words = stdout.split()
    return words[-1] if words else None


# --------------------------------------------------------------------------
# shared job makers

def _reduce_job(job_id, poly, ring, mode, prefix: Path, cert_mode,
                expect_n=None) -> Job:
    ens, cert = _file(prefix, ".ens"), _file(prefix, ".cert")
    p = known.arity(poly)

    def check(stdout):
        ens_text, cert_text = _read(ens), _read(cert)
        n = int(known.header_value(ens_text, "n"))
        if known.header_value(cert_text, "n") != str(n):
            return f"cert n differs from system n {n}"
        if known.header_value(cert_text, "p") != str(p):
            return f"cert p is not {p}"
        if known.header_value(cert_text, "mode") != cert_mode:
            return f"cert mode is not {cert_mode}"
        if expect_n is not None and n != expect_n:
            return f"n = {n}, cardinality formula gives {expect_n}"
        if n < p:
            return f"n = {n} is below p = {p}"
        return None

    argv = ["reduce", known.equation_text(poly), "--ring", ring,
            "--mode", mode, "--out", str(prefix)] + _flags()
    return Job(job_id, COMPILE, argv, 0, [ens, cert], check)


def _equiv_job(job_id, claimed, claimed_roots, source_roots, ring, bounds,
               prefix: Path, work: Path) -> Job:
    """verify-equiv of `claimed` against the system at `prefix`, reduced
    from a source whose roots in the box are `source_roots`.

    The answer follows from the root sets alone: a root of `claimed` lifts
    to a solution exactly when it is also a root of the source, and a root
    of the source that `claimed` lacks extends to a spurious solution.
    """
    report = _report(work, job_id)
    want = (len(claimed_roots), len(claimed_roots & source_roots),
            len(source_roots - claimed_roots))
    passes = source_roots == claimed_roots
    points = known.box_size(bounds)

    def check(stdout):
        found = _COUNTS.search(stdout)
        got = tuple(map(int, found.groups())) if found else None
        if got != want:
            return f"roots/solutions/spurious {got}, known {want}"
        if _verdict(stdout) != ("PASS" if passes else "FAIL"):
            return f"verdict {_verdict(stdout)}, known pass={passes}"
        data = json.loads(_read(report))
        if data["base_points"] != points or data["passed"] is not passes:
            return (f"report says {data['base_points']} points, passed "
                    f"{data['passed']}; known {points}, {passes}")
        return None

    argv = ["verify-equiv", "--equation", known.equation_text(claimed),
            "--system", str(_file(prefix, ".ens")),
            "--cert", str(_file(prefix, ".cert")), "--ring", ring,
            "--report", str(report)] + _flags(_box_flag(bounds))
    return Job(job_id, VERDICT, argv, 0 if passes else 1, [report], check)


def _solve_job(job_id, poly, box_roots, ring, radius, prefix: Path) -> Job:
    """Each SOLUTION line must satisfy the system and have a root of D as
    its base part, and every root of D in the search box must appear."""
    ens = _file(prefix, ".ens")
    p = known.arity(poly)
    parsed: dict[str, tuple] = {}

    def check(stdout):
        text = _read(ens)
        if text not in parsed:
            parsed.clear()
            parsed[text] = known.read_ens(text)
        n, equations = parsed[text]
        lines = stdout.splitlines()
        solutions = [ln.split()[1:] for ln in lines
                     if ln.startswith("SOLUTION ")]
        if lines[-1:] != [f"count {len(solutions)}"]:
            return "count line does not match the SOLUTION lines"
        bases = set()
        for fields in solutions:
            values = [0] + [int(v) for v in fields]
            if len(values) != n + 1:
                return f"solution has {len(values) - 1} values, n = {n}"
            if ring == "n" and min(values) < 0:
                return "negative value in a solution over N"
            bad = known.violated(equations, values)
            if bad is not None:
                return f"solution violates {bad}"
            base = tuple(values[1:p + 1])
            if known.evaluate(poly, base):
                return f"solution base {base} is not a root"
            if base in bases:
                return f"solution base {base} listed twice"
            bases.add(base)
        missing = box_roots - bases
        if missing:
            return f"roots {sorted(missing)[:3]} have no solution line"
        return None

    argv = ["solve", "--system", str(ens), "--ring", ring,
            "--radius", str(radius)] + _flags()
    return Job(job_id, VERDICT, argv, 0, [], check)


# --------------------------------------------------------------------------
# full-family

# x1 = x2, x1*x2 = 1, x1 = 1, x1^2 = 2: every family fits the default
# --pair-cap (9 to 729 members).
FAMILY_SOURCES = {
    "diff": {(1, 0): 1, (0, 1): -1},
    "prod": {(1, 1): 1, (0, 0): -1},
    "one": {(1,): 1, (0,): -1},
    "sqrt2": {(2,): 1, (0,): -2},
}
FAMILY_MODES = {
    "full_Z": ("z", "full", known.card_full_z),
    "halved_Z": ("z", "halved", known.card_halved_z),
    "full_N": ("n", "full", known.card_full_n),
}
# Negative controls: the four cheap halved systems plus one 625-variable
# system, so a verifier that passes everything shows up on both sizes.
FAMILY_NEGATIVES = [("diff", "halved_Z"), ("prod", "halved_Z"),
                    ("one", "halved_Z"), ("sqrt2", "halved_Z"),
                    ("diff", "full_N")]


def _family_box(p, ring):
    # 4 points for p = 2 and 3 for p = 1: one point of a 625-variable
    # system costs about 0.25 s of propagation, and a pass must fit about
    # three times into a run.  The boxes are the same for every seed, so
    # the verdict latencies do not move with it; the seed picks the
    # negative controls.
    if p == 2:
        return [(-1, 0), (-1, 0)] if ring == "z" else [(0, 1), (0, 1)]
    return [(-1, 1)] if ring == "z" else [(0, 2)]


def _wrong_equation(rng, poly, bounds, truth):
    """poly shifted by a nonzero constant whose roots in the box differ."""
    for shift in rng.sample([s for s in range(-8, 9) if s], 16):
        wrong = known.shifted(poly, shift)
        if known.roots(wrong, bounds) != truth:
            return wrong
    raise ValueError("no shifted equation separates the box")


def full_family(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    jobs, warmup = [], []
    for name, poly in FAMILY_SOURCES.items():
        for mode, (ring, flag, card) in FAMILY_MODES.items():
            key = f"{name}.{mode}"
            bounds = _family_box(known.arity(poly), ring)
            truth = known.roots(poly, bounds)
            group = [
                _reduce_job(f"reduce:{key}", poly, ring, flag, work / key,
                            mode, card(poly)),
                _equiv_job(f"equiv:{key}", poly, truth, truth, ring, bounds,
                           work / key, work)]
            jobs.extend(group)
            if name == "one":
                warmup.extend(group)
    for name, mode in FAMILY_NEGATIVES:
        poly, ring = FAMILY_SOURCES[name], FAMILY_MODES[mode][0]
        bounds = _family_box(known.arity(poly), ring)
        truth = known.roots(poly, bounds)
        wrong = _wrong_equation(rng, poly, bounds, truth)
        jobs.append(_equiv_job(f"negative:{name}.{mode}", wrong,
                               known.roots(wrong, bounds), truth, ring,
                               bounds, work / f"{name}.{mode}", work))
    return Workload(jobs, warmup)


# --------------------------------------------------------------------------
# compact-battery

BATTERY_PER_ARITY = 40
BATTERY_SHAPE_SEED = 20260808
BATTERY_SOLVE_PER_ARITY = 12
BATTERY_NEGATIVES_PER_ARITY = 2
BATTERY_RADIUS = 4
SOLVE_RADIUS = 3


def _skeleton(rng, p, count):
    """`count` distinct monomials of degree <= 2 per variable, with
    coefficient magnitudes 1..4; x_p must occur so the CLI infers arity p."""
    while True:
        exps = {tuple(rng.randint(0, 2) for _ in range(p))
                for _ in range(count)}
        if len(exps) == count and any(e[p - 1] for e in exps):
            return {e: rng.randint(1, 4) for e in sorted(exps)}


def _battery_box(ring, p, radius):
    return [(0 if ring == "n" else -radius, radius)] * p


def compact_battery(seed: int, work: Path) -> Workload:
    # Criterion-4 style polynomials.  The monomials and coefficient
    # magnitudes come from a fixed draw, and the seed picks every sign (so
    # the roots, verdict counts and negative pairs).  The chain sizes and
    # box sizes, hence the work of a pass, then barely depend on the seed;
    # a fully random draw moved the bytes written per pass by 10%.
    shape = random.Random(BATTERY_SHAPE_SEED)
    rng = random.Random(seed)
    jobs, warmup = [], []
    for p in (1, 2, 3):
        most = min(4, 3 ** p)
        polys = [{e: c * rng.choice((-1, 1)) for e, c in
                  _skeleton(shape, p, 1 + t % most).items()}
                 for t in range(BATTERY_PER_ARITY)]
        for ring in ("z", "n"):
            bounds = _battery_box(ring, p, BATTERY_RADIUS)
            truths = [known.roots(poly, bounds) for poly in polys]
            for t, poly in enumerate(polys):
                key = f"p{p}.{t}.{ring}"
                group = [
                    _reduce_job(f"reduce:{key}", poly, ring, "compact",
                                work / key, "compact_" + ring.upper()),
                    _equiv_job(f"equiv:{key}", poly, truths[t], truths[t],
                               ring, bounds, work / key, work)]
                if t < BATTERY_SOLVE_PER_ARITY:
                    solve_box = _battery_box(ring, p, SOLVE_RADIUS)
                    group.append(_solve_job(
                        f"solve:{key}", poly, known.roots(poly, solve_box),
                        ring, SOLVE_RADIUS, work / key))
                jobs.extend(group)
                if p == 1 and t == 0:
                    warmup.extend(group)
            # The pairs whose root sets differ in the fewest points: the
            # verifier must find a single differing point, and the report's
            # failure list (part of out_bytes) stays short for every seed.
            pairs = sorted((len(truths[i] ^ truths[j]), rng.random(), i, j)
                           for i in range(len(polys))
                           for j in range(len(polys))
                           if truths[i] != truths[j])
            for _, _, i, j in pairs[:BATTERY_NEGATIVES_PER_ARITY]:
                key = f"p{p}.{i}.{ring}"
                jobs.append(_equiv_job(
                    f"negative:{key}.vs{j}", polys[j], truths[j], truths[i],
                    ring, bounds, work / key, work))
    return Workload(jobs, warmup)


# --------------------------------------------------------------------------
# fn-pipeline

# name -> (W, f); W(x1, x2) = x1 - f(x2) over r = 2 variables.
REPS = {
    "identity": ("x1 - x2", lambda n: n),
    "square": ("x1 - x2*x2", lambda n: n * n),
    "double": ("x1 - 2*x2", lambda n: 2 * n),
}
# (start, jitter) per ring: the low band sits just above the largest
# threshold (10..16 over N, 268..274 over Z), the high band near 20,000.
# Narrow jitter keeps the scaffold size, hence the work, close across seeds.
N_BANDS = {
    "n": [(40, 10), (2000, 100), (18500, 1000)],
    "z": [(300, 20), (2000, 100), (18500, 1000)],
}
PIN_RADIUS = 1


def _pin_witness(f_n: int, n: int, ring: str) -> tuple[int, ...]:
    """Base point of the certificate for the root (f(n), n): over Z the
    master polynomial also carries four squares for x1 and for x2."""
    if ring == "n":
        return (f_n, n)
    return (f_n, n) + known.four_squares(f_n) + known.four_squares(n)


def _pin_solutions(f_n: int, n: int, ring: str) -> int:
    """Solutions verify-pin must count.  Over N propagation fixes every
    variable, so the unique solution is the one.  Over Z the free base
    variables x1, a..d, alpha..delta range over [-r, r]; the master
    polynomial vanishes exactly when x1 = f(n), x1 = a^2+..+d^2 and
    n = alpha^2+..+delta^2."""
    if ring == "n":
        return 1
    if abs(f_n) > PIN_RADIUS:
        return 0
    return (known.four_square_count(f_n, PIN_RADIUS)
            * known.four_square_count(n, PIN_RADIUS))


def _fn_system_job(job_id, rep: Path, ring, n, prefix: Path) -> Job:
    ens, layout = _file(prefix, ".ens"), _file(prefix, ".layout")

    def check(stdout):
        for path in (ens, layout):
            got = known.header_value(_read(path), "n")
            if got != str(n):
                return f"{path.name} has n = {got}, requested {n}"
        return None

    argv = ["fn-system", "--rep", str(rep), "--ring", ring, "--n", str(n),
            "--out", str(prefix)] + _flags()
    return Job(job_id, COMPILE, argv, 0,
               [ens, _file(prefix, ".cert"), layout], check)


def _pin_job(job_id, ring, n, f_n, expected, prefix: Path,
             work: Path) -> Job:
    report = _report(work, job_id)
    passes = expected == f_n
    solutions = _pin_solutions(f_n, n, ring)
    # Every solution has x1 = f(n), so all of them offend a wrong value.
    want = (solutions, 0 if passes else solutions)

    def check(stdout):
        found = _PIN.search(stdout)
        got = tuple(map(int, found.groups())) if found else None
        if got != want:
            return f"solutions/offending {got}, known {want}"
        if _verdict(stdout) != ("PASS" if passes else "FAIL"):
            return f"verdict {_verdict(stdout)}, known pass={passes}"
        data = json.loads(_read(report))
        if (data["n"], data["expected"]) != (n, expected):
            return "report n or expected differs from the request"
        if data["witness_ok"] is not passes or data["passed"] is not passes:
            return (f"report witness_ok {data['witness_ok']}, passed "
                    f"{data['passed']}; known {passes}")
        return None

    witness = ",".join(map(str, _pin_witness(f_n, n, ring)))
    argv = ["verify-pin", "--system", str(_file(prefix, ".ens")),
            "--cert", str(_file(prefix, ".cert")),
            "--layout", str(_file(prefix, ".layout")),
            "--expected", str(expected), "--ring", ring,
            "--radius", str(PIN_RADIUS), "--witness", witness,
            "--report", str(report)] + _flags()
    return Job(job_id, VERDICT, argv, 0 if passes else 1, [report], check)


def fn_pipeline(seed: int, work: Path) -> Workload:
    rng = random.Random(seed)
    jobs, warmup, inputs = [], [], {}
    for ring in ("n", "z"):
        negative_rep = rng.choice(sorted(REPS))
        for name, (w, f) in REPS.items():
            rep = work / f"{name}.rep"
            inputs[rep] = f"REP r=2\n{w}\n"
            for band, (start, jitter) in enumerate(N_BANDS[ring]):
                n = start + rng.randint(0, jitter)
                key = f"{name}.{ring}.{band}"
                group = [_fn_system_job(f"fn-system:{key}", rep, ring, n,
                                        work / key),
                         _pin_job(f"verify-pin:{key}", ring, n, f(n), f(n),
                                  work / key, work)]
                jobs.extend(group)
                if name == "identity" and band == 0:
                    warmup.extend(group)
                if name == negative_rep and band == 1:
                    jobs.append(_pin_job(f"negative:{key}", ring, n, f(n),
                                         f(n) + 1, work / key, work))
    return Workload(jobs, warmup, inputs)


BUILDERS = {"full-family": full_family, "compact-battery": compact_battery,
            "fn-pipeline": fn_pipeline}

"""Command-line surface.

Subcommands: reduce, fn-system, info, solve, verify-equiv, verify-pin.
Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input error, 3 resource limit hit, 4 internal error.

Output files are written only after the whole command succeeded, and a
failing write leaves no partial files behind.  Reports never embed
timings (identical invocations produce byte-identical files); timing lines
go to stderr.

Limits can also be set through environment variables mirroring the flags:
ENKIT_CAP, ENKIT_PAIR_CAP, ENKIT_BOX, ENKIT_POINT_LIMIT, ENKIT_TIME_BUDGET.
Verification runs in one process: `--jobs` is accepted, for callers that
pass it, and ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import eqio, oracle, pipeline, reductions, system
from .errors import BoxTooLarge, EnkitError, FamilyTooLarge, ParseError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def integer(text: str) -> int:
    """An optional '-' and a run of ASCII digits, as an int.

    Integer flags, their environment variables, `--box` and `--witness`
    follow the rule of `eqio.ascii_ints`; `int` alone would also take
    `٣`, `+3` and `0_5`.
    """
    value = eqio.ascii_int(text.removeprefix("-"))
    if value is None:
        raise ValueError(f"bad integer {text!r}")
    return -value if text.startswith("-") else value


def seconds(text: str) -> float:
    """ASCII digits with an optional fraction, as a finite float.

    `--time-budget` and its environment variable follow this rule; `float`
    alone would also take `nan`, `inf`, `1e400`, `-1` and `١`.
    """
    whole, dot, fraction = text.partition(".")
    if (eqio.ascii_int(whole) is None
            or dot and eqio.ascii_int(fraction) is None):
        raise ValueError(f"bad seconds value {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"seconds value {text!r} is too large")
    return value


def _parse_box_spec(spec: str, dim: int) -> oracle.Box:
    """'-3..3' (every variable) or '-3..3,0..5,...' (one range per variable)."""
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * dim
    if len(parts) != dim:
        raise ParseError(f"box spec has {len(parts)} ranges, need {dim}")
    bounds = []
    for part in parts:
        lo_text, sep, hi_text = part.partition("..")
        if not sep:
            raise ParseError(f"bad range {part!r} (expected lo..hi)")
        try:
            bounds.append((integer(lo_text.strip()),
                           integer(hi_text.strip())))
        except ValueError as exc:
            raise ParseError(f"bad range {part!r}") from exc
    return oracle.Box(tuple(bounds))


class _Outputs:
    """Collects rendered files and writes them only when everything worked."""

    def __init__(self):
        self.pending: list[tuple[str, str]] = []

    def add(self, path: str, text: str):
        self.pending.append((path, text))

    def commit(self):
        """Write every temp file, then move each onto its target.  On any
        failure, remove the temp files and the targets this call created."""
        made: list[str] = []
        try:
            for path, _ in self.pending:
                if not os.path.lexists(path):
                    made.append(path)
            for path, text in self.pending:
                with open(path + ".tmp", "w", encoding="ascii") as handle:
                    made.append(path + ".tmp")
                    handle.write(text)
            for path, _ in self.pending:
                os.replace(path + ".tmp", path)
        except BaseException:
            for path in made:
                if os.path.isfile(path):
                    os.remove(path)
            raise


def _read(path: str) -> str:
    with open(path, encoding="ascii") as handle:
        return handle.read()


def _load_system(path: str, cap: int) -> system.EnSystem:
    """Read an .ens file whose n the variable limit `cap` bounds; reading
    builds nothing of size n beyond what the text's length bounds."""
    return _capped(system.deserialize(_read(path)), cap)


def _capped(target, cap: int):
    """`target`, a system or a scaffold, if its n is at most `cap`."""
    if target.n > cap:
        raise FamilyTooLarge(target.n, cap, "system variable count")
    return target


def _limits(args) -> oracle.OracleLimits:
    return oracle.OracleLimits(points=args.point_limit,
                               seconds=args.time_budget)


def _note(message: str):
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands

def _cmd_reduce(args) -> int:
    d = eqio.parse_equation(args.equation)
    if args.mode == "halved" and args.ring != "z":
        raise ParseError("--mode halved is only defined over the integers")
    mode = f"{args.mode}_{args.ring.upper()}"
    started = time.monotonic()
    built, cert = reductions.build_reduction(
        d, mode, cap=args.cap, pair_cap=args.pair_cap)
    _note(f"reduced to {built.n} variables, {len(built)} equations "
          f"in {time.monotonic() - started:.2f}s")
    out = _Outputs()
    out.add(args.out + ".ens", system.serialize(built))
    out.add(args.out + ".cert", reductions.serialize_certificate(cert))
    out.commit()
    return EXIT_OK


def _cmd_fn_system(args) -> int:
    rep = eqio.parse_rep(_read(args.rep))
    psi = pipeline.build_psi(rep, args.ring.upper(), family=args.mode,
                             cap=args.cap, pair_cap=args.pair_cap)
    ens_text, layout_text = pipeline.render_system(psi, args.n)
    out = _Outputs()
    out.add(args.out + ".ens", ens_text)
    out.add(args.out + ".cert",
            reductions.serialize_certificate(psi.certificate))
    out.add(args.out + ".layout", layout_text)
    out.commit()
    return EXIT_OK


def _cmd_info(args) -> int:
    if not args.rep and not args.equation:
        raise ParseError("info needs --rep or --equation")
    # Every line is made before any is printed, so a card too large to
    # print leaves stdout empty; no other value here can be that large.
    lines = []
    if args.equation:
        d = eqio.parse_equation(args.equation)
        if d.is_zero():
            raise ParseError("equation normalizes to 0 = 0")
        lines.append(f"p = {d.arity}")
        lines.append(f"degree bounds = {list(d.degree_bounds())}")
        for mode in ("full_Z", "halved_Z", "full_N"):
            desc, _ = reductions.family_descriptor(d, mode)
            card = desc.cardinality()
            if isinstance(card, str):
                raise ValueError(f"card {mode} is too large to print (more "
                                 f"than {reductions.CARD_DIGITS} digits)")
            line = f"card {mode} = {card}"
            if mode == "full_N":
                line += f" (delta = {desc.coeff_hi})"
            lines.append(line)
        compact_z, _ = reductions.build_compact_z(d, args.cap)
        compact_n, _ = reductions.build_compact_n(d, args.cap)
        lines.append(f"n compact_Z = {compact_z.n}")
        lines.append(f"n compact_N = {compact_n.n}")
    if args.rep:
        rep = eqio.parse_rep(_read(args.rep))
        mode = args.ring.upper()
        psi = pipeline.build_psi(rep, mode, family=args.mode, cap=args.cap,
                                 pair_cap=args.pair_cap)
        name = "m(f)" if mode == "Z" else "w(f)"
        lines.append(f"s = {psi.s}")
        lines.append(f"{name} = {pipeline.threshold(psi.s)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_solve(args) -> int:
    target = _load_system(args.system, args.cap)
    domain = args.ring.upper()
    outcome = oracle.solve_bounded(target, domain, args.radius,
                                   limits=_limits(args))
    if not outcome.exhausted:
        _note("search truncated by node or time budget")
        return EXIT_LIMIT
    # Every value is known printable before any line is printed.
    reductions._refuse_unprintable(
        max((abs(v) for row in outcome.solutions for v in row), default=0),
        "solution value")
    for solution in outcome.solutions:
        print(" ".join(["SOLUTION", *map(str, solution[1:])]))
    print(f"count {len(outcome.solutions)}")
    return EXIT_OK


def _verdict(args, payload: dict, summary: str) -> int:
    """Write the report, if asked for, then print `summary` and the
    verdict; the exit code follows the verdict."""
    if args.report:
        out = _Outputs()
        out.add(args.report, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        out.commit()
    print(summary)
    print("PASS" if payload["passed"] else "FAIL")
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


def _cmd_verify_equiv(args) -> int:
    d = eqio.parse_equation(args.equation)
    target = _load_system(args.system, args.cap)
    cert = reductions.parse_certificate(_read(args.cert))
    domain = args.ring.upper()
    box = _parse_box_spec(args.box, d.arity)
    # A box with no point in the domain is named first, by the check.
    if box.point_count(domain) and not cert.mode.endswith("_" + domain):
        raise ParseError(f"--ring {args.ring} contradicts the certificate's "
                         f"mode {cert.mode}")
    started = time.monotonic()
    report = oracle.check_equivalence(d, target, cert, box, domain,
                                      limits=_limits(args))
    _note(f"checked {report.base_points} base points "
          f"in {time.monotonic() - started:.2f}s")
    payload = {
        "base_points": report.base_points,
        "base_roots": len(report.base_roots),
        "system_solutions": report.system_solutions,
        "lifted_ok": report.lifted_ok,
        "unique_extension": report.unique_extension,
        "spurious": [list(point) for point in report.spurious],
        "refuted_by_propagation": report.refuted_by_propagation,
        "refuted_by_search": report.refuted_by_search,
        "inconclusive": [list(point) for point in report.inconclusive],
        "counts_equal": report.counts_equal,
        "failures": report.failures,
        "passed": report.passed,
    }
    return _verdict(args, payload,
                    f"roots {len(report.base_roots)} solutions "
                    f"{report.system_solutions} spurious {len(report.spurious)}")


def _cmd_verify_pin(args) -> int:
    # With --layout, psi is pinned inside the scaffold.  Files as fn-system
    # writes them are read by their psi lines alone, any others in full.
    text = _read(args.system)
    try:
        layout_text = _read(args.layout) if args.layout else None
    except (OSError, ValueError):  # raised again below, in its turn
        layout_text = None
    rendered = (layout_text is not None
                and pipeline.read_rendered(text, layout_text))
    if rendered:
        target, scaffold, mode = rendered
        _capped(scaffold, args.cap)
    else:
        target = _capped(system.deserialize(text), args.cap)
    cert = (reductions.parse_certificate(_read(args.cert)) if args.cert
            else None)
    domain = args.ring.upper()
    tail = None
    if args.layout:
        if rendered and cert is not None:
            reductions.validate_certificate(cert, scaffold.s)
        elif not rendered:
            assembled = pipeline.check_assembled(
                target, cert, layout_text or _read(args.layout))
            target, scaffold, mode = (assembled.psi(), assembled.scaffold,
                                      assembled.mode)
        if mode != domain:
            raise ParseError(f"--ring {args.ring} contradicts the layout's "
                             f"mode {mode}")
        tail = scaffold.values()
    elif cert is not None:
        raise ParseError("--cert needs --layout to locate the scaffold")
    witness = None
    if args.witness is not None:
        try:
            witness = tuple(map(integer, args.witness.split(",")))
        except ValueError as exc:
            raise ParseError(f"bad witness {args.witness!r}") from exc
        if cert is None:
            raise ParseError("witness checking needs --cert and --layout")
    report = oracle.verify_pinning(
        target, args.expected, domain=domain, certificate=cert,
        box_radius=args.radius, witness_base=witness, limits=_limits(args),
        tail=tail)
    payload = {
        "n": report.n,
        "expected": report.expected,
        "x2_forced": report.x2_forced,
        "propagation_complete": report.propagation_complete,
        "solutions_found": report.solutions_found,
        "offending": len(report.offending),
        "search_exhausted": report.search_exhausted,
        "witness_checked": report.witness_checked,
        "witness_ok": report.witness_ok,
        "passed": report.passed,
    }
    return _verdict(args, payload,
                    f"solutions {report.solutions_found} offending "
                    f"{len(report.offending)}")


# --------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enkit",
        description="Compile Diophantine equations into x_i=1 / x_i+x_j=x_k "
                    "/ x_i*x_j=x_k systems and verify the reductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Defaults stay None here; _resolve_defaults fills them in per call.
    def common(p):
        p.add_argument("--cap", type=integer,
                       help="variable limit: family size for full modes, "
                            "a bound on chain length for compact modes, "
                            "and the n of every system read")
        p.add_argument("--pair-cap", type=integer,
                       help="member limit for full-family closure, whose "
                            "identity set grows quadratically")
        p.add_argument("--point-limit", type=integer,
                       help="box enumeration budget")
        p.add_argument("--time-budget", type=seconds,
                       help="soft seconds budget per check: ASCII digits "
                            "with an optional fraction")
        p.add_argument("--box", help="box spec lo..hi[,lo..hi...]")
        p.add_argument("--jobs", type=integer,
                       help="accepted and ignored: verification runs in "
                            "one process")

    p = sub.add_parser("reduce", help="equation -> .ens + .cert")
    p.add_argument("equation")
    p.add_argument("--ring", choices=("z", "n"), required=True)
    p.add_argument("--mode", choices=("compact", "full", "halved"),
                   default="compact")
    p.add_argument("--out", default="reduction", help="output path prefix")
    common(p)
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("fn-system", help=".rep + n -> .ens + .cert + .layout")
    p.add_argument("--rep", required=True)
    p.add_argument("--ring", choices=("z", "n"), required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--mode", choices=("compact", "full"), default="compact")
    p.add_argument("--out", default="system", help="output path prefix")
    common(p)
    p.set_defaults(run=_cmd_fn_system)

    p = sub.add_parser("info", help="print sizes, s, and thresholds")
    p.add_argument("--rep")
    p.add_argument("--equation")
    p.add_argument("--ring", choices=("z", "n"), default="n")
    p.add_argument("--mode", choices=("compact", "full"), default="compact")
    common(p)
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("solve", help="bounded search over an .ens system")
    p.add_argument("--system", required=True)
    p.add_argument("--ring", choices=("z", "n"), default="z")
    p.add_argument("--radius", type=integer, default=8,
                   help="branching radius for undetermined variables")
    common(p)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("verify-equiv",
                       help="equation vs .ens/.cert over a box")
    p.add_argument("--equation", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--ring", choices=("z", "n"), required=True)
    p.add_argument("--report", help="write a JSON report here")
    common(p)
    p.set_defaults(run=_cmd_verify_equiv)

    p = sub.add_parser("verify-pin",
                       help="check x1 pinning of an assembled system")
    p.add_argument("--system", required=True)
    p.add_argument("--cert")
    p.add_argument("--layout")
    p.add_argument("--expected", type=integer, required=True)
    p.add_argument("--ring", choices=("z", "n"), required=True)
    p.add_argument("--radius", type=integer, default=2)
    p.add_argument("--witness", help="comma-separated base point")
    p.add_argument("--report", help="write a JSON report here")
    common(p)
    p.set_defaults(run=_cmd_verify_pin)

    return parser


# flag -> (environment variable, type, default) for the options that
# `common` adds
_DEFAULTS = {
    "cap": ("ENKIT_CAP", integer, reductions.DEFAULT_FAMILY_CAP),
    "pair_cap": ("ENKIT_PAIR_CAP", integer, reductions.DEFAULT_PAIR_CAP),
    "point_limit": ("ENKIT_POINT_LIMIT", integer,
                    oracle.DEFAULT_POINT_LIMIT),
    "time_budget": ("ENKIT_TIME_BUDGET", seconds, 60.0),
    "box": ("ENKIT_BOX", str, "-8..8"),
}


def _resolve_defaults(args):
    """Fill each flag left unset from its environment variable, read now."""
    for flag, (name, kind, default) in _DEFAULTS.items():
        if getattr(args, flag) is None:
            value = os.environ.get(name)
            setattr(args, flag, kind(value) if value else default)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged, so one serves every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with system.collector_paused():
            _resolve_defaults(args)
            return args.run(args)
    except (FamilyTooLarge, BoxTooLarge) as exc:
        _note(f"error: {exc}")
        return EXIT_LIMIT
    except MemoryError:
        _note("error: out of memory")
        return EXIT_LIMIT
    except (EnkitError, OSError, ValueError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a bug: one line and its own exit code
        _note(f"error: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the enkit CLI.

    python3 e2ebench/run.py --workload full-family --seed 1 --seconds 20 \\
        --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from `src/`.  One
client drives `enkit.cli.main(argv)` in a closed loop in this process, with
`--jobs 1` and every limit passed as a flag.  The run

  1. sets up five times (fresh import of enkit, corpus and input files,
     warm-up pass) and reports the median as `setup_s`;
  2. runs whole corpus passes while the next one is expected to end
     within `--seconds`;
  3. checks every invocation against a known answer computed without enkit
     (workloads.py, known.py) and every repeat of a job for byte-identical
     outputs.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced
passes for half of `--seconds`, then traced passes (spans.py) for the other
half, and prints the per-layer metrics.  The
last line of stdout is one JSON object; the full result, with per-job
digests, goes to e2ebench/out/.  `--workload all` runs each workload in a
fresh interpreter and prints every end-to-end metric.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# The CLI reads these as defaults; the benchmark passes every limit itself.
ENV_LIMITS = ("ENKIT_CAP", "ENKIT_PAIR_CAP", "ENKIT_BOX", "ENKIT_POINT_LIMIT",
              "ENKIT_TIME_BUDGET", "ENKIT_JOBS")
SETUP_REPEATS = 5
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# CPU speed drifts on shared hosts.  On a 2-vCPU cloud VM (Python 3.11) a
# fixed pure-Python loop took from 1x to 1.7x its fastest time, in phases
# lasting from seconds to over a minute, and raw latencies of identical
# jobs spread 25-50% between runs.  Every reported time is therefore taken
# at reference speed: the measured time times REFERENCE_S over the median
# run of the reference loop within CLOCK_WINDOW_S of the measurement.
REFERENCE_S = 0.0005
CLOCK_WINDOW_S = 1.0
LONG_JOB_S = 0.05

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s",
    "compile_ms_p50": "ms", "verdict_ms_p50": "ms",
    "peak_rss_mb": "MB", "out_bytes": "B",
    "verdicts_ok": "share", "ops_ok": "share",
}


def _reference_loop():
    """Fixed interpreter-bound work like enkit's own (tuples, dicts,
    integer arithmetic, string formatting and splitting), about
    REFERENCE_S long on an idle 2-vCPU cloud VM."""
    table = {(i, i * 7 % 13): i * 3 % 11 for i in range(600)}
    text = "\n".join(f"ADD {a} {b} {c}" for (a, b), c in table.items())
    return sorted(int(line.split()[2]) for line in text.splitlines())


class Clock:
    """Converts measured intervals to seconds at reference speed."""

    def __init__(self):
        self.ends: list[float] = []        # when each reference run ended
        self.durations: list[float] = []

    def tick(self, count: int = 1):
        for _ in range(count):
            start = perf_counter()
            _reference_loop()
            end = perf_counter()
            self.ends.append(end)
            self.durations.append(end - start)

    def scaled(self, start: float, end: float) -> float:
        """end - start at reference speed."""
        lo = bisect.bisect_left(self.ends, start - CLOCK_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + CLOCK_WINDOW_S)
        return ((end - start) * REFERENCE_S
                / statistics.median(self.durations[lo:hi]))


class Run:
    """Executes jobs, checks them, and keeps what the metrics need."""

    def __init__(self):
        self.cli = None             # enkit.cli, set by each set-up
        self.clock = Clock()
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        # job id -> [(start, end)] of its measured repeats
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self.out_bytes = 0

    def execute(self, job, measured: bool = True):
        for path in job.outputs:
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        raised = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the job fails; the run goes on
            code, raised = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        # Enough reference samples that the window around a long job is not
        # left with one or two.
        self.clock.tick(5 if end - start > LONG_JOB_S else 1)

        failed = raised is not None or code != job.expect_exit
        problem = raised or (f"exit {code}, expected {job.expect_exit}"
                             if failed else None)
        if problem is None:
            try:
                problem = job.check(stdout.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"output unreadable: {type(exc).__name__}: {exc}"
        digest = self._digest(code, stdout.getvalue(), job.outputs)
        first = self.digests.setdefault(job.id, digest)
        if first != digest:
            self.errors.append(f"{job.id}: outputs differ between repeats")
        if problem:
            self.errors.append(f"{job.id}: {problem}")
        if measured:
            self.attempted += 1
            self.failed += failed
            self.wrong += problem is not None
            self.intervals.setdefault(job.id, []).append((start, end))

    @staticmethod
    def _digest(code, stdout: str, paths) -> str:
        h = hashlib.sha256(f"exit {code}\n".encode())
        h.update(stdout.encode())
        for path in paths:
            h.update(f"\0{path.name}\0".encode())
            if path.exists():
                h.update(path.read_bytes())
        return h.hexdigest()

    def run_pass(self, jobs):
        for job in jobs:
            self.execute(job)
        self.out_bytes = sum(path.stat().st_size for job in jobs
                             for path in job.outputs if path.exists())

    def job_ms(self, scaled: bool = True) -> dict[str, float]:
        """Each job's latency: the median over its measured repeats, at
        reference speed unless `scaled` is false."""
        def ms(start, end):
            return 1000 * (self.clock.scaled(start, end) if scaled
                           else end - start)
        return {job_id: statistics.median(ms(*iv) for iv in intervals)
                for job_id, intervals in self.intervals.items()}

    def jobs_per_s(self, scaled: bool = True) -> float:
        """Invocations per second of one pass at each job's latency."""
        latencies = self.job_ms(scaled).values()
        return 1000 * len(latencies) / sum(latencies)


def _fresh_import():
    """Import enkit from src/ as a new interpreter would."""
    for name in [m for m in sys.modules
                 if m == "enkit" or m.startswith("enkit.")]:
        del sys.modules[name]
    enkit = importlib.import_module("enkit")
    importlib.import_module("enkit.cli")
    if not Path(enkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"enkit imported from {enkit.__file__}, "
                         f"not from {SRC}")
    return enkit


def _setup(run: Run, workload: str, seed: int, work: Path):
    """One set-up: import, corpus and input files, warm-up pass."""
    run.clock.tick(20)
    start = perf_counter()
    enkit = _fresh_import()
    run.cli = enkit.cli
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = workloads.BUILDERS[workload](seed, work)
    corpus.write_inputs()
    for job in corpus.warmup:
        run.execute(job, measured=False)
    end = perf_counter()
    run.clock.tick(20)
    return (start, end), enkit, corpus


def _timed(run: Run, jobs, seconds: float) -> int:
    """Whole passes while the next one is expected to end within `seconds`
    (at least one pass); returns the number of passes."""
    passes, start, last = 0, perf_counter(), 0.0
    while passes == 0 or perf_counter() - start + last <= seconds:
        began = perf_counter()
        run.run_pass(jobs)
        last = perf_counter() - began
        passes += 1
    return passes


def _timings(run: Run, jobs, setups, scaled: bool, tails: dict) -> dict:
    """setup_s, jobs_per_s and the p50 latencies (p90s go to `tails` where
    at least TAIL_SAMPLES jobs lie beyond them)."""
    def seconds(start, end):
        return run.clock.scaled(start, end) if scaled else end - start
    out = {"setup_s": statistics.median(seconds(*iv) for iv in setups),
           "jobs_per_s": run.jobs_per_s(scaled)}
    job_ms = run.job_ms(scaled)
    for kind in (workloads.COMPILE, workloads.VERDICT):
        values = [job_ms[job.id] for job in jobs if job.kind == kind]
        out[f"{kind}_ms_p50"] = statistics.median(values)
        if len(values) * 0.1 >= TAIL_SAMPLES:
            tails[f"{kind}_ms_p90"] = statistics.quantiles(values, n=10)[8]
        else:
            tails[f"{kind}_ms_p90"] = (f"omitted: {len(values)} jobs, "
                                       f"needs {TAIL_SAMPLES * 10}")
    return out


def _environment(enkit) -> dict:
    return {"backend": enkit.kernels.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def _measure(args) -> int:
    for name in ENV_LIMITS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / ("work-" + tag)

    # Every repeat of a job, in set-up or in a pass, must match the first.
    run = Run()
    setups = []
    for _ in range(SETUP_REPEATS):
        interval, enkit, corpus = _setup(run, args.workload, args.seed, work)
        setups.append(interval)

    tails: dict = {}
    measured: dict = {}
    if args.trace:
        _timed(run, corpus.jobs, args.seconds / 2)
        untraced_jps = run.jobs_per_s()
        run.intervals.clear()
        tracer = spans.Tracer()
        tracer.install(enkit)
        try:
            passes = _timed(run, corpus.jobs, args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(passes)
        traced_jps = run.jobs_per_s()
        metrics["trace.jobs_per_s"] = traced_jps
        metrics["trace.untraced_jobs_per_s"] = untraced_jps
        metrics["trace.overhead_share"] = 1 - traced_jps / untraced_jps
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        tracer.write(OUT / f"spans-{tag}.json.gz",
                     [job.id for job in corpus.jobs])
    else:
        passes = _timed(run, corpus.jobs, args.seconds)
        metrics = _timings(run, corpus.jobs, setups, True, tails)
        measured = _timings(run, corpus.jobs, setups, False, {})
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["out_bytes"] = run.out_bytes
        metrics["verdicts_ok"] = 1 - run.wrong / run.attempted
        metrics["ops_ok"] = 1 - run.failed / run.attempted
        units = E2E_UNITS

    correct = not run.errors
    shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "jobs_per_pass": len(corpus.jobs),
        "environment": _environment(enkit), "metrics": metrics,
        "units": units, "tails": tails, "unscaled": measured,
        "errors": run.errors[:50], "job_ms": run.job_ms(),
        "digests": run.digests,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")

    for error in run.errors[:20]:
        print("error:", error)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in tails.items():
        print(f"{args.workload} {name} = {value}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _all(args) -> int:
    """Each workload in a fresh interpreter; every end-to-end metric."""
    ok = True
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{name}: failed with exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name} correct = {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}")
        ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enkit" / "__init__.py").is_file():
        print(f"error: no enkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _all(args)
    return _measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters for the traced run, recorded from outside enkit.

`Tracer.install` replaces each traced function at every module attribute
through which the workflows look it up (for example `enkit.kernels.grid_roots`
for the oracle and `enkit.pipeline.lift` for witness lifting) with a wrapper
that records a span: name, start, end, parent span and job.  Counters are
taken from the arguments and return value the wrapper sees.  Nothing inside
`src/` changes; `uninstall` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children.  Every per-layer metric is reported per corpus pass.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from functools import wraps
from math import prod
from time import perf_counter


def _count_ensystem(c, args, kwargs, result):
    # args: (self, n, equations, ...); every caller passes a list or tuple.
    c["system.EnSystem.equations_in"] += len(args[2])
    c["system.EnSystem.kept"] += len(args[0].equations)


def _count_family_join(c, args, kwargs, result):
    card = len(args[0])
    c["kernels.family_join.pairs"] += card * (card + 1) // 2
    c["kernels.family_join.triples"] += len(result[0]) + len(result[1])


def _count_grid_roots(c, args, kwargs, result):
    lows, highs = args[2], args[3]
    c["kernels.grid_roots.points"] += prod(max(hi - lo + 1, 0)
                                           for lo, hi in zip(lows, highs))
    c["kernels.grid_roots.roots"] += len(result)


def _count_serialize(c, args, kwargs, result):
    c["system.serialize.bytes"] += len(result)


def _count_deserialize(c, args, kwargs, result):
    c["system.deserialize.bytes"] += len(args[0])


def _count_equivalence(c, args, kwargs, result):
    c["oracle.check_equivalence.points"] += result.base_points
    c["oracle.check_equivalence.refuted_by_propagation"] += \
        result.refuted_by_propagation
    c["oracle.check_equivalence.refuted_by_search"] += \
        result.refuted_by_search


def _count_propagate(c, args, kwargs, result):
    c["oracle.propagate." + type(result).__name__.lower()] += 1


def _count_solve(c, args, kwargs, result):
    c["oracle.solve_bounded.nodes"] += result.nodes
    c["oracle.solve_bounded.exhausted"] += result.exhausted


# (module, attribute, span name, counter): one row per lookup path.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("eqio", "parse_equation", "eqio.parse_equation", None),
    ("eqio", "parse_rep", "eqio.parse_rep", None),
    ("reductions", "build_reduction", "reductions.build_reduction", None),
    ("reductions", "build_full_z", "reductions.build_full_z", None),
    ("reductions", "build_halved_z", "reductions.build_halved_z", None),
    ("reductions", "build_full_n", "reductions.build_full_n", None),
    ("reductions", "build_compact_z", "reductions.build_compact_z", None),
    ("reductions", "build_compact_n", "reductions.build_compact_n", None),
    ("pipeline", "build_full_z", "reductions.build_full_z", None),
    ("pipeline", "build_full_n", "reductions.build_full_n", None),
    ("pipeline", "build_compact_z", "reductions.build_compact_z", None),
    ("pipeline", "build_compact_n", "reductions.build_compact_n", None),
    ("pipeline", "build_master_z", "reductions.build_master_z", None),
    ("reductions", "serialize_certificate",
     "reductions.serialize_certificate", None),
    ("reductions", "parse_certificate", "reductions.parse_certificate", None),
    ("kernels", "family_join", "kernels.family_join", _count_family_join),
    ("kernels", "grid_roots", "kernels.grid_roots", _count_grid_roots),
    ("kernels", "check_equations", "kernels.check_equations", None),
    ("system", "serialize", "system.serialize", _count_serialize),
    ("system", "deserialize", "system.deserialize", _count_deserialize),
    ("pipeline", "build_psi", "pipeline.build_psi", None),
    ("pipeline", "assemble", "pipeline.assemble", None),
    ("pipeline", "serialize_layout", "pipeline.serialize_layout", None),
    ("pipeline", "parse_layout", "pipeline.parse_layout", None),
    ("oracle", "check_equivalence", "oracle.check_equivalence",
     _count_equivalence),
    ("oracle", "propagate", "oracle.propagate", _count_propagate),
    ("oracle", "solve_bounded", "oracle.solve_bounded", _count_solve),
    ("oracle", "lift", "oracle.lift", None),
    ("pipeline", "lift", "oracle.lift", None),
    ("oracle", "check_assignment", "oracle.check_assignment", None),
    ("oracle", "verify_pinning", "oracle.verify_pinning", None),
]

# Per-layer metrics: (name, unit, better).  Kept in the order of
# BENCHMARK.json's per_layer list.
LAYER_METRICS = [
    ("cli.main.total_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("eqio.parse_equation.self_ms", "ms", "lower"),
    ("eqio.parse_rep.self_ms", "ms", "lower"),
    ("reductions.build_reduction.self_ms", "ms", "lower"),
    ("reductions.build_full_z.self_ms", "ms", "lower"),
    ("reductions.build_halved_z.self_ms", "ms", "lower"),
    ("reductions.build_full_n.self_ms", "ms", "lower"),
    ("reductions.build_compact_z.self_ms", "ms", "lower"),
    ("reductions.build_compact_n.self_ms", "ms", "lower"),
    ("reductions.build_master_z.self_ms", "ms", "lower"),
    ("reductions.serialize_certificate.self_ms", "ms", "lower"),
    ("reductions.parse_certificate.self_ms", "ms", "lower"),
    ("kernels.family_join.calls", "count", "lower"),
    ("kernels.family_join.self_ms", "ms", "lower"),
    ("kernels.family_join.pairs", "count", "lower"),
    ("kernels.family_join.triples", "count", "lower"),
    ("kernels.family_join.hit_ratio", "share", "higher"),
    ("kernels.grid_roots.calls", "count", "lower"),
    ("kernels.grid_roots.self_ms", "ms", "lower"),
    ("kernels.grid_roots.points", "count", "lower"),
    ("kernels.grid_roots.roots", "count", "lower"),
    ("kernels.check_equations.calls", "count", "lower"),
    ("kernels.check_equations.self_ms", "ms", "lower"),
    ("system.EnSystem.self_ms", "ms", "lower"),
    ("system.EnSystem.equations_in", "count", "lower"),
    ("system.EnSystem.kept_ratio", "share", "higher"),
    ("system.serialize.self_ms", "ms", "lower"),
    ("system.serialize.bytes", "B", "lower"),
    ("system.deserialize.self_ms", "ms", "lower"),
    ("system.deserialize.bytes", "B", "lower"),
    ("pipeline.build_psi.self_ms", "ms", "lower"),
    ("pipeline.assemble.calls", "count", "lower"),
    ("pipeline.assemble.self_ms", "ms", "lower"),
    ("pipeline.serialize_layout.self_ms", "ms", "lower"),
    ("pipeline.parse_layout.self_ms", "ms", "lower"),
    ("oracle.check_equivalence.self_ms", "ms", "lower"),
    ("oracle.check_equivalence.points", "count", "lower"),
    ("oracle.check_equivalence.refuted_by_propagation", "count", "higher"),
    ("oracle.check_equivalence.refuted_by_search", "count", "lower"),
    ("oracle.propagate.calls", "count", "lower"),
    ("oracle.propagate.self_ms", "ms", "lower"),
    ("oracle.propagate.solved", "count", "higher"),
    ("oracle.propagate.stuck", "count", "lower"),
    ("oracle.propagate.conflict", "count", "higher"),
    ("oracle.solve_bounded.calls", "count", "lower"),
    ("oracle.solve_bounded.self_ms", "ms", "lower"),
    ("oracle.solve_bounded.nodes", "count", "lower"),
    ("oracle.solve_bounded.exhausted_ratio", "share", "higher"),
    ("oracle.lift.calls", "count", "lower"),
    ("oracle.lift.self_ms", "ms", "lower"),
    ("oracle.check_assignment.calls", "count", "lower"),
    ("oracle.check_assignment.self_ms", "ms", "lower"),
    ("oracle.verify_pinning.self_ms", "ms", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # (name id, start, end, parent, job)
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.job = -1
        self._originals: list = []

    def _wrap(self, name: str, fn, count):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counters = self.spans, self.stack, self.counters

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.job)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self, enkit):
        """Wrap every target in the given (already imported) enkit."""
        for module_name, attr, name, count in TARGETS:
            module = getattr(enkit, module_name)
            self._patch(module, attr, name, count)
        self._patch(enkit.system.EnSystem, "__init__", "system.EnSystem",
                    _count_ensystem)

    def _patch(self, owner, attr, name, count):
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric except the trace.* ones, per pass."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += end - start - child[index]
            total_s[name] += end - start
            calls[name] += 1
        c = self.counters
        derived = {
            "cli.main.total_ms": total_s["cli.main"] * 1000,
            "kernels.family_join.hit_ratio": _ratio(
                c["kernels.family_join.triples"],
                2 * c["kernels.family_join.pairs"]),
            "system.EnSystem.kept_ratio": _ratio(
                c["system.EnSystem.kept"], c["system.EnSystem.equations_in"]),
            "oracle.solve_bounded.exhausted_ratio": _ratio(
                c["oracle.solve_bounded.exhausted"],
                calls["oracle.solve_bounded"]),
        }
        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            span, _, stat = metric.rpartition(".")
            if metric in derived:
                value = derived[metric]
            elif stat == "self_ms":
                value = self_s[span] * 1000
            elif stat == "calls":
                value = calls[span]
            else:
                value = c[metric]
            # Ratios are already per call; everything else is per pass.
            out[metric] = value if metric.endswith("_ratio") else \
                value / passes
        return out

    def write(self, path, jobs: list[str]):
        """All spans, with times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name_id, round((start - origin) * 1e6),
                 round((end - origin) * 1e6), parent, job]
                for name_id, start, end, parent, job in self.spans]
        payload = {"columns": ["name", "start_us", "end_us", "parent", "job"],
                   "names": self.names, "jobs": jobs, "spans": rows}
        with gzip.open(path, "wt", encoding="ascii") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0

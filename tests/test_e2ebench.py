"""The benchmark's tracer must find every function it wraps, and count
what it means to count."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import enkit
from enkit import kernels
from enkit.eqio import parse_polynomial
from enkit.oracle import Box, enumerate_roots
from enkit.reductions import build_full_n, build_full_z
from enkit.system import ONE

SPANS = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"
needs_spans = pytest.mark.skipif(not SPANS.is_file(),
                                 reason="no e2ebench checkout")


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@needs_spans
def test_trace_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(f"enkit.{module_name}")
        assert getattr(enkit, module_name) is module
        if not callable(getattr(module, attr, None)):
            missing.append(f"enkit.{module_name}.{attr}")
    assert missing == []


@needs_spans
@pytest.mark.parametrize("build", [build_full_z, build_full_n])
def test_traced_family_join_count_is_the_identities(build, monkeypatch):
    # The tracer counts the lengths of family_join's two returned lists as
    # kernels.family_join.triples: every equation but the One equations
    # and the anchor.
    spans = _load_spans()
    counts = Counter()
    join = kernels.family_join

    def counted(*args):
        result = join(*args)
        spans._count_family_join(counts, args, {}, result)
        return result

    monkeypatch.setattr(kernels, "family_join", counted)
    system, _ = build(parse_polynomial("x1 - x2"))
    ones = sum(row[0] == ONE for row in system.rows)
    assert ones == 1
    assert counts["kernels.family_join.triples"] == len(system) - ones - 1
    assert counts["kernels.family_join.pairs"] == 625 * 626 // 2


@needs_spans
def test_traced_grid_roots_counts_are_the_box_and_its_roots(monkeypatch):
    # The tracer reads grid_roots' bounds from its third and fourth
    # positional arguments and counts the points it returns.
    spans = _load_spans()
    counts = Counter()
    grid_roots = kernels.grid_roots

    def counted(*args):
        result = grid_roots(*args)
        spans._count_grid_roots(counts, args, {}, result)
        return result

    monkeypatch.setattr(kernels, "grid_roots", counted)
    # x1 * x2 and x3 are two groups, over a box of 3 * 5 * 7 points.
    box = Box(((-1, 1), (-2, 2), (0, 6)))
    roots = enumerate_roots(parse_polynomial("x1*x2 - x3"), box, "Z")
    assert counts["kernels.grid_roots.points"] == box.point_count() == 105
    assert counts["kernels.grid_roots.roots"] == len(roots) == 11

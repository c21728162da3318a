"""The benchmark's tracer must find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import enkit

SPANS = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"


@pytest.mark.skipif(not SPANS.is_file(), reason="no e2ebench checkout")
def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(f"enkit.{module_name}")
        assert getattr(enkit, module_name) is module
        if not callable(getattr(module, attr, None)):
            missing.append(f"enkit.{module_name}.{attr}")
    assert missing == []

"""The mutant catalogue: each wrong program in `mutants.json` must fail
every test it names.

A mutant replaces one exact text of one file with another.  The test
applies it to a temporary copy of `src/` and `tests/` and runs the
mutant's tests there, in one pytest process per mutant, one mutant at a
time.  A mutant whose old text is not found exactly once fails too, so a
change that moves the code updates or retires its mutants.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text(
    encoding="utf-8"))
COPIED = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")


def _failed(stdout, tests):
    """The node ids among `tests` that pytest's `-rf` summary reports as
    failed: a line `FAILED <id>`, or one starting `FAILED <id> - `.  An id
    may hold spaces, so the lines are not split into words."""
    lines = stdout.splitlines()
    return {test for test in tests
            if f"FAILED {test}" in lines
            or any(line.startswith(f"FAILED {test} - ") for line in lines)}


def test_failed_ids_are_read():
    stdout = ("..F\n= short test summary info =\n"
              "FAILED tests/test_a.py::test_b[x-1] - assert 1 == 2\n"
              "FAILED tests/test_a.py::test_d[full_N-x1 - x2] - assert 0\n"
              "FAILED tests/test_a.py::test_c\n1 failed, 2 passed\n")
    tests = ["tests/test_a.py::test_b[x-1]", "tests/test_a.py::test_c",
             "tests/test_a.py::test_d[full_N-x1 - x2]",
             "tests/test_a.py::test_b[x-2]", "tests/test_a.py::test_b"]
    assert _failed(stdout, tests) == set(tests[:3])


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=COPIED)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    target = tmp_path / mutant["file"]
    text = target.read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1, "old text not found exactly once"
    target.write_text(text.replace(mutant["old"], mutant["new"]),
                      encoding="utf-8")
    # Plugins are not auto-loaded, which halves pytest's start-up; the one
    # the tests need, hypothesis's, is loaded by name.
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "400",
           "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
         "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
         *mutant["tests"]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    survivors = sorted(set(mutant["tests"])
                       - _failed(result.stdout, mutant["tests"]))
    assert survivors == [], result.stdout[-3000:]

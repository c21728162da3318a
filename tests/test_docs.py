"""README.md names only code that exists.

Every backticked dotted name in README.md whose first part is an enkit
module (`system.deserialize`) or a class defined in one
(`Schedule.from_row`) must resolve, attribute by attribute.  A trailing
`()` is allowed; file names such as `kernels.py` are skipped.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import enkit

PACKAGE = Path(enkit.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
DOTTED = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\(\))?`")


def roots():
    """Module name -> module, and class name -> class, over enkit."""
    found = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"enkit.{info.name}")
        found[info.name] = module
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found.setdefault(name, value)
    return found


def resolves(obj, parts):
    for part in parts:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            # A dataclass field without a default is no class attribute.
            return part in getattr(obj, "__dataclass_fields__", {})
    return True


def readme_names():
    known = roots()
    for name in DOTTED.findall(README.read_text(encoding="utf-8")):
        first, *rest = name.split(".")
        if first in known and not (PACKAGE / name).exists():
            yield name, known[first], rest


def test_readme_dotted_names_resolve():
    names = list(readme_names())
    assert len(names) >= 25  # the pattern still finds the README's names
    missing = [name for name, root, rest in names if not resolves(root, rest)]
    assert missing == []

"""Every public name of ``circhad`` has a caller outside the tests."""

import ast
import inspect
from pathlib import Path

import circhad

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the package or the benchmark calls, and why
# they stay.
KEPT = {
    "cross_validate": "the documented oracle that runs every search strategy and compares their rows",
    "index_map_check": "the spectral layer's independent check of the mode remap against a direct pair count",
    "constant_term_check": "the spectral layer's independent check of the constant-coordinate law",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = [p for p in sorted((ROOT / "src" / "circhad").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    assert len(sources) > 10
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {name for name, value in vars(circhad).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert KEPT.keys() <= public - used
    assert sorted(public - used - KEPT.keys()) == []

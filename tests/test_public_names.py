"""Every public name of ``circhad`` has a caller outside the tests.

The rule covers the package's top-level names and the public methods,
properties, class methods and static methods of each of its public
classes; dunder methods are exempt.  A name counts as called when it
appears as a name or an attribute anywhere in ``src/circhad`` or
``perfbench/``.  The scan goes by name alone, so a method that shares
its name with a field or method read elsewhere passes unseen: that is
how ``CongruenceSolution.solutions`` outlived its last caller behind
``SearchReport.solutions``, and it was removed by hand.
"""

import ast
import inspect
from pathlib import Path

import circhad

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in the package or the benchmark calls, and why
# they stay.  A method is listed as ``Class.name``.
KEPT = {
    "cross_validate": "the documented oracle that runs every search strategy and compares their rows",
    "index_map_check": "the spectral layer's independent check of the mode remap against a direct pair count",
    "constant_term_check": "the spectral layer's independent check of the constant-coordinate law",
}


def _used_names():
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
    return used


def _public_names():
    """Top-level public names, then ``Class.method`` for each public class's own methods."""
    names = {}
    for name, value in vars(circhad).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        names[name] = name
        if inspect.isclass(value):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod))
                ):
                    names[f"{name}.{attr}"] = attr
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    names = _public_names()
    assert {"IndexSet", "Sequence.n", "Sequence.from_string", "CycloElement.power_map"} <= names.keys()
    assert "CycloElement.__add__" not in names
    used = _used_names()
    unused = {key for key, name in names.items() if name not in used}
    assert KEPT.keys() <= unused
    assert sorted(unused - KEPT.keys()) == []

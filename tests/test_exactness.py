"""No floating point in ``src/circhad``: every verification path stays exact.

The guard parses each module with ``ast`` and names every construct that
yields or imports floating point.  ``fractions.Fraction`` is exact and
stays allowed (``spectra.required_half_count`` uses it); the clock is
read as ``time.monotonic_ns()`` and divided with ``//``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circhad"

FLOAT_BUILTINS = {"float", "complex"}
FLOAT_MATH = {
    "sqrt", "pi", "e", "tau", "inf", "nan", "exp", "expm1", "log", "log1p", "log2", "log10", "pow",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh",
    "atanh", "hypot", "degrees", "radians",
}
FLOAT_TIME = {"monotonic", "time", "perf_counter"}
FLOAT_MODULES = {"cmath", "decimal"}
BANNED_FROM = {"math": FLOAT_MATH, "time": FLOAT_TIME}


def float_sites(source: str) -> list[str]:
    """Each floating-point construct in ``source`` as 'line: what'."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in FLOAT_BUILTINS:
            what = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
            node.attr in BANNED_FROM.get(node.value.id, ())
        ):
            what = f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Import):
            what = ", ".join(a.name for a in node.names if a.name.split(".")[0] in FLOAT_MODULES) or None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in FLOAT_MODULES:
                what = node.module
            else:
                names = [a.name for a in node.names if a.name in BANNED_FROM.get(node.module, ())]
                what = ", ".join(f"{node.module}.{name}" for name in names) or None
        if what:
            sites.append(f"{node.lineno}: {what}")
    return sites


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_floating_point(path):
    assert float_sites(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, what",
    [
        ("x = a / b", "true division"),
        ("x /= 2", "true division"),
        ("x = 0.5", "literal 0.5"),
        ("x = 1j", "literal 1j"),
        ("x = float(y)", "float"),
        ("x = isinstance(y, complex)", "complex"),
        ("x = math.sqrt(y)", "math.sqrt"),
        ("x = math.pi", "math.pi"),
        ("x = math.cos(y)", "math.cos"),
        ("x = math.log(y)", "math.log"),
        ("from math import exp", "math.exp"),
        ("x = time.monotonic()", "time.monotonic"),
        ("x = time.time()", "time.time"),
        ("from time import perf_counter", "time.perf_counter"),
        ("import cmath", "cmath"),
        ("from decimal import Decimal", "decimal"),
    ],
)
def test_guard_names_each_floating_point_construct(source, what):
    assert float_sites(source) == [f"1: {what}"]


def test_guard_allows_exact_arithmetic():
    source = (
        "from fractions import Fraction\n"
        "x = Fraction(4 * a - n, 4) + a // b + math.isqrt(n) + math.comb(n, k) + pow(k, -1, m)\n"
        "elapsed_ms = (time.monotonic_ns() - start) // 1_000_000\n"
    )
    assert float_sites(source) == []

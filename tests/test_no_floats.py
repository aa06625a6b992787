"""Static guard: the package computes with ints, Fractions and exact
Decimals only.

Every module of binomsum is parsed, and a float literal, a call to float,
or a math function outside the integer-valued ones fails the test.  Only
exact.py may import decimal, and the one context it builds there keeps
every digit and traps every rounding, so a Decimal result is exact or an
error.
"""
import ast
from decimal import MAX_PREC, Decimal, Inexact, Rounded, localcontext
from pathlib import Path

import pytest

import binomsum
from binomsum.exact import DECIMAL_CONTEXT

INTEGER_MATH = {"isqrt", "gcd", "lcm", "prod", "comb", "factorial"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {where}: call to float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            found.append(f"line {where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {where}: from math import {a.name}"
                      for a in node.names if a.name not in INTEGER_MATH]
    return found


def test_no_float_arithmetic_in_the_package():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found = {m.name: float_uses(m.read_text()) for m in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_guard_flags_each_kind_of_float_use():
    source = ("import math\nfrom math import log, gcd\n"
              "x = 0.5\ny = float(3)\nz = math.sqrt(2)\nw = math.isqrt(9)\n"
              "c = math.comb(4, 2)\ng = math.lgamma(5)\n")
    assert float_uses(source) == [
        "line 2: from math import log", "line 3: literal 0.5",
        "line 4: call to float", "line 5: math.sqrt", "line 8: math.lgamma"]


def decimal_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name in ("decimal", "_decimal", "_pydecimal")]
    return found


def test_only_exact_imports_decimal():
    modules = sorted(Path(binomsum.__file__).parent.glob("*.py"))
    assert {m.name for m in modules if decimal_imports(m.read_text())} \
        == {"exact.py"}


def test_decimal_guard_flags_each_kind_of_import():
    source = ("import decimal\nfrom decimal import Decimal\n"
              "import _pydecimal as d, math\nfrom .exact import Decimal\n")
    assert decimal_imports(source) == [
        "line 1: decimal", "line 2: decimal", "line 3: _pydecimal"]


def test_decimal_context_is_exact_or_raises():
    ctx = DECIMAL_CONTEXT
    assert ctx.prec == MAX_PREC
    assert ctx.traps[Inexact] and ctx.traps[Rounded]
    big = ctx.power(10, 40)  # 28 digits would round the product to 1E+80
    assert ctx.multiply(ctx.add(big, 1), ctx.subtract(big, 1)) == 10 ** 80 - 1
    with pytest.raises(Inexact):
        ctx.quantize(Decimal("2.5"), Decimal(1))
    with localcontext(ctx):
        # An inexact quotient needs all MAX_PREC digits; libmpdec reports
        # the allocation it cannot make, or the inexact result, at once.
        with pytest.raises((Inexact, MemoryError)):
            Decimal(1) / 3
